"""Lanes: one rule call evaluates a stack of points, lane by lane as the
scalar code a call at each point alone runs.

Lanes are Python floats only or Python complexes only, held as float64
arrays; any other lanes, and any operation whose values would mix points,
raise ``TypeError``.  Every comparison is of bits (``.view(np.uint64)``),
so a signed zero or a NaN in another place counts as a difference."""

import contextlib
import math
import operator
import re
import warnings

import numpy as np
import pytest

from projcurv import dual as gm
from projcurv.charts import ComplexChart
from projcurv.dual import HyperDual, Lanes
from projcurv.fields import LANES_CHUNK, plain_values

from conftest import STACK_METRICS, fs_rule, pole_at, stack_metric


INF, NAN = math.inf, math.nan
FLOATS = [0.0, -0.0, 1.5, -2.25, INF, -INF, NAN, 1e300, 5e-324]
COMPLEXES = [complex(0.0, -0.0), complex(-0.0, 0.0), 0.3 + 0.4j, -1.5 + 2j,
             complex(INF, 1.0), complex(NAN, 0.0), 1e300 + 1e300j,
             complex(-0.0, -0.0), 0.5 - 0.5j]
LANE_SETS = {"floats": FLOATS, "complexes": COMPLEXES}
CONSTANTS = [2.5, -0.0, 3, 0, 0.5 - 1j, complex(-0.0, 0.0), INF, NAN, 1e-310,
             complex(NAN, 0.0), complex(1.0, NAN)]
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "**": operator.pow}
UNARY = {"neg": operator.neg, "exp": gm.exp, "log": gm.log, "sqrt": gm.sqrt,
         "conj": gm.conj, "real": gm.real, "imag": gm.imag, "abs2": gm.abs2}


def _bits(x):
    return np.array([x], complex).view(np.uint64).tolist()


def _nonzero(values):
    """The lanes with each zero replaced by a 2.5 of its type, so that a
    division by them divides every lane."""
    return [type(v)(2.5) if v == 0 else v for v in values]


@contextlib.contextmanager
def _warnings_fail():
    """Any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _scalar(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def _assert_lanes(fn, lanes_args, scalar_args):
    """fn on Lanes arguments gives, lane by lane, what fn gives on the
    scalars of that lane: the same type and bits, the exception of the
    first lane that raises, or ``TypeError`` where the lanes' results are
    not all floats or all complexes."""
    want = [_scalar(fn, *args) for args in scalar_args]
    raised = [w for w in want if isinstance(w, type)]
    if raised or set(map(type, want)) not in ({float}, {complex}):
        with pytest.raises(raised[0] if raised else TypeError):
            fn(*lanes_args)
        return
    got = fn(*lanes_args)
    assert type(got) is Lanes and len(got.values) == len(want)
    for g, w in zip(got.values, want):
        assert type(g) is type(w), (g, w)
        assert _bits(g) == _bits(w), (g, w)


def _typed_bits(values):
    return [(type(v), _bits(v)) for v in values]


@pytest.mark.parametrize("lanes", LANE_SETS)
def test_the_lanes_of_python_floats_or_complexes_are_their_values(lanes):
    values = LANE_SETS[lanes]
    for count in (1, 2, len(values)):
        assert _typed_bits(Lanes(values[:count]).values) == _typed_bits(values[:count])


@pytest.mark.parametrize("column", [np.array(FLOATS), np.array(COMPLEXES)])
def test_the_lanes_of_an_array_are_its_entries_as_python_numbers(column):
    column = np.stack([column, column], axis=1)[:, 0]       # strided
    assert _typed_bits(Lanes.of_array(column).values) == _typed_bits(column.tolist())


@pytest.mark.parametrize("op", BINARY)
@pytest.mark.parametrize("lanes", LANE_SETS)
def test_an_operator_acts_lane_by_lane(op, lanes):
    fn, values = BINARY[op], LANE_SETS[lanes]
    for name, other in LANE_SETS.items():
        # and lanes without a zero, so that a quotient gives values
        for o in (other, _nonzero(other)):
            with _warnings_fail():
                _assert_lanes(fn, (Lanes(values), Lanes(o)), zip(values, o))
    for c in CONSTANTS:
        with _warnings_fail():
            _assert_lanes(fn, (Lanes(values), c), [(a, c) for a in values])
            _assert_lanes(fn, (c, Lanes(values)), [(c, a) for a in values])


@pytest.mark.parametrize("name", UNARY)
@pytest.mark.parametrize("lanes", LANE_SETS)
def test_a_generic_function_acts_lane_by_lane(name, lanes):
    values = LANE_SETS[lanes]
    with _warnings_fail():
        # log and sqrt of the lanes that are in their domain, too
        for vals in (values, [v for v in values if _scalar(gm.log, v) is not ValueError]):
            _assert_lanes(UNARY[name], (Lanes(vals),), [(v,) for v in vals])


DIVISORS = [complex(NAN, 0.0), complex(0.0, NAN), complex(NAN, NAN), complex(INF, NAN),
            complex(NAN, -INF)]


@pytest.mark.parametrize("lanes", ["floats", "complexes"])
def test_a_nan_divisor_gives_cpythons_nan(lanes):
    # both parts of a quotient by a divisor with a NaN part are CPython's NaN
    values = _nonzero(LANE_SETS[lanes])
    for d in DIVISORS:
        _assert_lanes(operator.truediv, (Lanes(values), d), [(v, d) for v in values])
        # beside lanes of both of Smith's branches, and of the real one only
        for others in (_nonzero(COMPLEXES), [2.5 - 0.5j] * len(values)):
            divisors = Lanes(([d] + others)[:len(values)])
            _assert_lanes(operator.truediv, (Lanes(values), divisors),
                          zip(values, divisors.values))


@pytest.mark.parametrize("lanes", ["floats", "complexes"])
@pytest.mark.parametrize("zero", [0, 0.0, -0.0, 0j, complex(-0.0, -0.0)])
def test_a_zero_divisor_in_any_lane_raises_zero_division_error(lanes, zero):
    values = _nonzero(LANE_SETS[lanes])
    with pytest.raises(ZeroDivisionError):
        Lanes(values) / zero
    divisors = _nonzero(COMPLEXES if type(zero) is complex else FLOATS)
    divisors[3] = zero if type(zero) is complex else float(zero)
    with pytest.raises(ZeroDivisionError):
        Lanes(values) / Lanes(divisors)


@pytest.mark.parametrize("x", [np.complex64(1 + 2j), np.clongdouble(-0.5 - 3j)])
def test_a_numpy_complex_that_is_not_a_complex_is_conjugated(x):
    # np.complex64 and np.clongdouble do not subclass complex
    want = {gm.conj: np.conj(x), gm.real: np.real(x), gm.imag: np.imag(x)}
    jet = HyperDual(x, x, None, x)
    for fn, w in want.items():
        assert type(fn(x)) is type(w) and fn(x) == w
        got = fn(jet)
        assert [got.f0, got.f1, got.f2, got.f12] == [w, w, None, w]
        # Lanes of the same values as Python complexes (Lanes of x raise)
        assert fn(Lanes([complex(x)] * 2)).values == [fn(complex(x))] * 2


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
    "NumPy float": lambda x: x * np.float64(-1.25),
    "NumPy complex left": lambda x: np.complex128(2 + 0.5j) + x,
    "NumPy int power": lambda x: x ** np.int64(2),
    "NumPy NaN left": lambda x: np.float64(NAN) / x,
    "a bool": lambda x: x - True,
    # Lanes of another length, which would truncate or broadcast
    "more lanes": lambda x: x + Lanes(x.values * 3),
    "more lanes left": lambda x: Lanes(x.values * 64) * x,
    "one lane": lambda x: Lanes(x.values * 64) - Lanes(x.values[:1]),
    "more lanes power": lambda x: x ** Lanes(x.values * 64),
    "fewer lanes power": lambda x: Lanes(x.values * 3) ** x,
    # lanes that are not all Python floats or all Python complexes
    "an int lane": lambda x: Lanes(x.values + [7]),
    "ints": lambda x: Lanes([1, 2]),
    "a bool lane": lambda x: Lanes(x.values + [True]),
    "a NumPy float lane": lambda x: Lanes(x.values + [np.float64(0.5)]),
    "a NumPy complex64 lane": lambda x: Lanes(x.values + [np.complex64(1 + 2j)]),
    "floats beside complexes": lambda x: Lanes(x.values + [0.5, 0.5j]),
    "mixed": lambda x: Lanes([0.25, 2j, -0.0, complex(0.0, -0.0), NAN, -3.0 + 0j, 7, -INF]),
    "NumPy lanes": lambda x: Lanes([np.float64(-0.5), np.complex128(complex(-0.0, 1.0)),
                                    np.float64(NAN), np.complex128(2 - 1j)]),
    "NumPy complexes": lambda x: Lanes([np.complex128(v) for v in x.as_complex()]),
    "no lanes": lambda x: Lanes(x.values[:0]),
    "a complex64 column": lambda x: Lanes.of_array(x.as_complex().astype(np.complex64)),
    "a float32 column": lambda x: Lanes.of_array(x.as_complex().real.astype(np.float32)),
    "an int column": lambda x: Lanes.of_array(np.arange(len(x.values))),
}


@pytest.mark.parametrize("values", [[0.5, -0.25], [0.5j, -1j], [0.5]])
@pytest.mark.parametrize("what", REFUSED)
def test_what_would_mix_points_raises_a_type_error(what, values):
    with pytest.raises(TypeError):
        REFUSED[what](Lanes(values))


# ---------------------------------------------------------------------------
# metric values of a stack against the points one by one

def _counted(rule, seen):
    """The rule, recording the type of each call's first coordinate."""
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


# 25: the S5 probe's lattice at m = 1
@pytest.mark.parametrize("count", [2, 25, LANES_CHUNK, LANES_CHUNK + 1])
@pytest.mark.parametrize("kind,name", STACK_METRICS)
def test_the_matrices_of_a_stack_are_the_matrices_of_its_points(kind, name, count):
    metric = stack_metric(kind, name)
    seen = []
    counted = type(metric)(metric.chart, _counted(metric.rule, seen),
                           metric.name, validate_on_init=False)
    points = _with_signed_zeros(metric.chart.sample(np.random.default_rng(count), count=count),
                                metric.chart.center)
    stack = np.ascontiguousarray(counted.matrices(points))
    sizes = [min(LANES_CHUNK, count - k) for k in range(0, count, LANES_CHUNK)]
    assert seen == [Lanes] * len(sizes)     # one call per chunk
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


REFUSED_RULES = {
    "branches on a coordinate": lambda z: [[1.5 if gm.real(z[0]) > 0 else 2.5 + gm.abs2(z[1])]],
    "a NumPy scalar constant": lambda z: [[np.float64(1.5) + gm.abs2(z[1])]],
    # the square root of a negative float is a complex
    "lanes that turn mixed": lambda z: [[gm.sqrt(gm.real(z[0])) * z[1]]],
}


@pytest.mark.parametrize("count", [2, LANES_CHUNK + 2])
@pytest.mark.parametrize("what", REFUSED_RULES)
def test_a_rule_the_lanes_refuse_is_evaluated_point_by_point(what, count):
    rule = REFUSED_RULES[what]
    seen = []
    points = _stack(count)
    # real parts of both signs in each chunk
    points[1, 0], points[-1, 0] = -points[0, 0].conjugate(), -points[-2, 0].conjugate()
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


@pytest.mark.parametrize("count", [2, 25, LANES_CHUNK + 1])
def test_a_nan_at_one_point_is_that_points_nan(count):
    # inf - inf at the first point only, in one call per chunk
    points = _stack(count, seed=count)
    centre = complex(points[0, 0])

    def rule(z):
        x = 1 / (gm.abs2(z[0] - centre) + 1e-300)
        return [[1 + (x * x - x * x), gm.conj(z[1]) * (x * x - x * x)]]

    seen = []
    got = plain_values(_counted(rule, seen), points, (1, 2))
    assert seen == [Lanes] * -(-count // LANES_CHUNK)
    assert np.isnan(got[0]).all() and not np.isnan(got[1:]).any()
    assert _same_bits(got, _one_by_one(rule, points, (1, 2)))


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
    "a NumPy scalar": lambda z: [[np.complex128(0.5 - 1j)]],
}


@pytest.mark.parametrize("what", OUTPUTS)
def test_an_output_not_nested_as_the_shape_is_evaluated_point_by_point(what):
    # and an output that is, constants included, is the points' values
    points = _stack(LANES_CHUNK + 3)
    got = plain_values(OUTPUTS[what], points, (1, 1))
    want = np.array([OUTPUTS[what](tuple(p)) for p in points.tolist()], complex)
    assert _same_bits(got, want)
