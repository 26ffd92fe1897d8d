"""Lanes: one rule call evaluates a stack of points, lane by lane through the
scalar code a call at each point alone runs.

Every comparison is of bits (``.view(np.uint64)``), so a signed zero or a
NaN in another place counts as a difference."""

import math
import operator
import re

import numpy as np
import pytest

from projcurv import exprs, zoo
from projcurv import dual as gm
from projcurv.charts import ComplexChart
from projcurv.dual import HyperDual, Lanes
from projcurv.fields import LANES_CHUNK, HermitianMetricField, plain_values

from conftest import fs_rule, pole_at

INF, NAN = math.inf, math.nan
FLOATS = [0.0, -0.0, 1.5, -2.25, INF, -INF, NAN, 1e300, 5e-324]
COMPLEXES = [complex(0.0, -0.0), complex(-0.0, 0.0), 0.3 + 0.4j, -1.5 + 2j,
             complex(INF, 1.0), complex(NAN, 0.0), 1e300 + 1e300j, complex(-0.0, -0.0),
             0.5 - 0.5j]
MIXED = [0.25, 2j, -0.0, complex(0.0, -0.0), NAN, -3.0 + 0j, 7, 1e-310, -INF]
LANE_SETS = {"floats": FLOATS, "complexes": COMPLEXES, "mixed": MIXED}
CONSTANTS = [2.5, -0.0, 3, 0, 0.5 - 1j, complex(-0.0, 0.0), np.float64(-1.25),
             np.complex128(2 + 0.5j), np.int64(2), np.float64(NAN), INF]
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "**": operator.pow}
UNARY = {"neg": operator.neg, "exp": gm.exp, "log": gm.log, "sqrt": gm.sqrt,
         "conj": gm.conj, "real": gm.real, "imag": gm.imag, "abs2": gm.abs2}


def _bits(x):
    return np.array([x], complex).view(np.uint64).tolist()


def _scalar(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def _assert_lanes(fn, lanes_args, scalar_args):
    """fn on Lanes arguments gives, lane by lane, what fn gives on the
    scalars of that lane: the same type and bits, or the exception of the
    first lane that raises."""
    want = [_scalar(fn, *args) for args in scalar_args]
    raised = [w for w in want if isinstance(w, type)]
    if raised:
        with pytest.raises(raised[0]):
            fn(*lanes_args)
        return
    got = fn(*lanes_args)
    assert type(got) is Lanes and len(got.values) == len(want)
    for g, w in zip(got.values, want):
        assert type(g) is type(w), (g, w)
        assert _bits(g) == _bits(w), (g, w)


@pytest.mark.parametrize("op", BINARY)
@pytest.mark.parametrize("lanes", LANE_SETS)
def test_an_operator_acts_lane_by_lane(op, lanes):
    fn, values = BINARY[op], LANE_SETS[lanes]
    with np.errstate(all="ignore"):
        for other in LANE_SETS.values():
            _assert_lanes(fn, (Lanes(values), Lanes(other)), zip(values, other))
        for c in CONSTANTS:
            _assert_lanes(fn, (Lanes(values), c), [(a, c) for a in values])
            _assert_lanes(fn, (c, Lanes(values)), [(c, a) for a in values])


@pytest.mark.parametrize("name", UNARY)
@pytest.mark.parametrize("lanes", LANE_SETS)
def test_a_generic_function_acts_lane_by_lane(name, lanes):
    values = LANE_SETS[lanes] + [np.float64(-0.5), np.complex128(complex(-0.0, 1.0))]
    with np.errstate(all="ignore"):
        # log and sqrt of the lanes that are in their domain, too
        for vals in (values, [v for v in values if _scalar(gm.log, v) is not ValueError]):
            _assert_lanes(UNARY[name], (Lanes(vals),), [(v,) for v in vals])


REFUSED = {
    "==": lambda x: x == 1.0,
    "!=": lambda x: 1.0 != x,
    "== NumPy scalar": lambda x: np.float64(1.0) == x,
    "<": lambda x: x < 0,
    ">=": lambda x: 0 >= x,
    "truth": lambda x: bool(x),
    "if": lambda x: 1 if x else 0,
    "np.asarray": np.asarray,
    "np.array": lambda x: np.array([[x, 1.0]], complex),
    "ufunc": np.exp,
    "np.real comparison": lambda x: np.real(x) < 0,
    "ndarray right": lambda x: x * np.ones(2),
    "ndarray left": lambda x: np.ones(2) + x,
    "0-d ndarray": lambda x: np.array(2.0) * x,
    "HyperDual right": lambda x: x * HyperDual(1.0, 1.0),
    "math": math.exp,
    "float": float,
    "hash": hash,
}


@pytest.mark.parametrize("what", REFUSED)
def test_what_would_mix_points_raises_a_type_error(what):
    with pytest.raises(TypeError):
        REFUSED[what](Lanes([0.5, -0.25]))


# ---------------------------------------------------------------------------
# metric values of a stack against the points one by one

def _counted(rule, seen):
    def counted(z):
        seen.append(type(z[0]))
        return rule(z)
    return counted


def _with_signed_zeros(points, center):
    """The stack with its first rows the chart centre and the centre with
    every zero part negated."""
    points = np.array(points)
    negated = np.array([complex(math.copysign(0.0, -1) if c.real == 0 else c.real,
                                math.copysign(0.0, -1) if c.imag == 0 else c.imag)
                        for c in np.asarray(center, complex)])
    points[0] = center
    points[1] = negated if np.iscomplexobj(points) else negated.real
    return points


def _inline_metric():
    entries = [["1 + abs2(z1) + exp(re(z2)) / 4", "0.1 * conj(z1) * z2 + im(z1) ** 2"],
               ["0.1 * z1 * conj(z2) + im(z1) ** 2", "log(2 + abs2(z2)) + sqrt(1 + re(z1))"]]
    chart = ComplexChart(dim=2, radius=[0.5, 0.5], name="inline")
    return HermitianMetricField(chart, exprs.matrix_rule(entries, ["z1", "z2"]),
                                name="inline")


METRICS = ([("zoo", n) for n in zoo.HERMITIAN_METRICS + zoo.RIEMANNIAN_METRICS]
           + [("inline", "exprs")])


@pytest.mark.parametrize("count", [2, LANES_CHUNK, LANES_CHUNK + 1])
@pytest.mark.parametrize("kind,name", METRICS)
def test_the_matrices_of_a_stack_are_the_matrices_of_its_points(kind, name, count):
    metric = zoo.build_entry(name).obj if kind == "zoo" else _inline_metric()
    seen = []
    counted = type(metric)(metric.chart, _counted(metric.rule, seen), metric.name,
                           validate_on_init=False)
    points = _with_signed_zeros(metric.chart.sample(np.random.default_rng(count), count=count),
                                metric.chart.center)
    stack = np.ascontiguousarray(counted.matrices(points))
    assert seen == [Lanes] * -(-count // LANES_CHUNK)     # one call per chunk
    if count == LANES_CHUNK + 1:    # a stack of one keeps its direct call
        seen.clear()
        counted.matrices(points[-1:])
        assert seen in ([complex], [float])
    alone = np.stack([metric.matrix(x) for x in points])
    assert stack.dtype == alone.dtype
    assert np.array_equal(stack.view(np.uint64), alone.view(np.uint64))


# ---------------------------------------------------------------------------
# chunks that fall back to the points one by one

def _stack(count, seed=0):
    return ComplexChart(dim=2, radius=[0.9, 0.9]).sample(np.random.default_rng(seed),
                                                          count=count)


def _one_by_one(rule, points, shape):
    return np.stack([plain_values(rule, p[None], shape)[0] for p in points])


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("count", [2, LANES_CHUNK + 1])
def test_a_rule_that_branches_on_a_coordinate_is_evaluated_point_by_point(count):
    def rule(z):
        return [[1.5 if gm.real(z[0]) > 0 else 2.5 + gm.abs2(z[1])]]

    seen = []
    points = _stack(count)
    got = plain_values(_counted(rule, seen), points, (1, 1))
    assert seen[0] is Lanes and seen.count(Lanes) == -(-count // LANES_CHUNK)
    assert seen.count(complex) == count
    assert _same_bits(got, _one_by_one(rule, points, (1, 1)))


@pytest.mark.parametrize("count", [2, LANES_CHUNK, LANES_CHUNK + 1])
@pytest.mark.parametrize("where", [0, -1])
def test_a_pole_is_nan_at_its_point_only(count, where):
    points = _stack(count, seed=count)
    rule = pole_at(fs_rule(2), points[where])
    got = plain_values(rule, points, (2, 2))
    nan_rows = np.isnan(got).any(axis=(1, 2))
    assert np.flatnonzero(nan_rows).tolist() == [count - 1 if where else 0]
    assert np.isnan(got[where]).all()
    assert _same_bits(got, _one_by_one(rule, points, (2, 2)))


@pytest.mark.parametrize("count", [2, LANES_CHUNK + 1])
def test_an_arithmetic_error_escapes_from_the_point_that_raises_it(count):
    points = _stack(count)
    bad = complex(points[-1, 0])

    def rule(z):
        if z[0] == bad:
            raise ArithmeticError(f"deliberate at {z[0]}")
        return [[1 + gm.abs2(z[0])]]

    with pytest.raises(ArithmeticError, match=re.escape(f"deliberate at {bad}")):
        plain_values(rule, points, (1, 1))
    assert _same_bits(plain_values(rule, points[:-1], (1, 1)),
                      _one_by_one(rule, points[:-1], (1, 1)))


OUTPUTS = {
    "wrong shape": lambda z: [[z[0], 1.0]],
    "an array": lambda z: np.array([[1.0 + 0 * gm.real(z[0])]]),
    "a None entry": lambda z: [[None if isinstance(z[0], Lanes) else z[0]]],
    "a constant": lambda z: [[0.5]],
    "an int": lambda z: [[3 + 0 * z[1]]],
}


@pytest.mark.parametrize("what", OUTPUTS)
def test_an_output_not_nested_as_the_shape_is_evaluated_point_by_point(what):
    # and an output that is, constants included, is the points' values
    points = _stack(LANES_CHUNK + 3)
    got = plain_values(OUTPUTS[what], points, (1, 1))
    want = np.array([OUTPUTS[what](tuple(p)) for p in points.tolist()], complex)
    assert _same_bits(got, want)
