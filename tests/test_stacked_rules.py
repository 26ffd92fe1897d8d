"""A rule on a stack of points: one call on the stack's columns as NumPy
arrays gives, entry by entry, what the rule gives at each point alone on
Python numbers, within ULP_BUDGET.

Where the two differ by more, the stack's entry is not finite, so the
checks that follow (``check_stack``, the S5 probe's "Y is not finite")
reject the point: from finite inputs, a stack never holds a finite value
that its point's own call would not give.  The cases where the two differ
in finiteness are named below (``_named_gap``), and the one where NumPy's
rounding grows past ULP_BUDGET (``_budget``)."""

import math
import operator
import re

import numpy as np
import pytest

from projcurv import dual as gm, exprs
from projcurv.charts import ComplexChart
from projcurv.errors import DomainError
from projcurv.fields import (NUMBER_ERRORS, STACK_CHUNK, HermitianMetricField,
                             RuleShapeError, plain_values)

from conftest import ULP_BUDGET, assert_within_ulps, fs_rule


INF, NAN = math.inf, math.nan
FLOATS = [0.0, -0.0, 1.5, -2.25, INF, -INF, NAN, 1e300, 5e-324]
COMPLEXES = [complex(0.0, -0.0), complex(-0.0, 0.0), 0.3 + 0.4j, -1.5 + 2j,
             complex(INF, 1.0), complex(NAN, 0.0), 1e300 + 1e300j,
             complex(-0.0, -0.0), 0.5 - 0.5j]
ENTRY_SETS = {"floats": FLOATS, "complexes": COMPLEXES}
CONSTANTS = [2.5, -0.0, 3, 0, 0.5 - 1j, complex(-0.0, 0.0), INF, NAN, 1e-310,
             complex(NAN, 0.0), complex(1.0, NAN)]
FIELD_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv}
# the exponents of the zoo's and the tests' rules, and a few beside them
EXPONENTS = [2, 3, -1, -3, 0, 1, 0.5, -0.5, 2.5, 2.0]
# complex exponents, which an inline ``**`` raises to through ``dual.power``
COMPLEX_EXPONENTS = [0.5 - 1j, 1j, -0.5 + 2j, 2 + 0j, -1 + 0j, 0.5 + 0j]
UNARY = {"neg": operator.neg, "exp": gm.exp, "log": gm.log, "sqrt": gm.sqrt,
         "conj": gm.conj, "real": gm.real, "imag": gm.imag, "abs2": gm.abs2}
TINY = np.finfo(float).tiny


def _nonzero(values):
    """The entries with each zero replaced by a 2.5 of its type, so that a
    division by them divides every entry."""
    return [type(v)(2.5) if v == 0 else v for v in values]


# the second operands of a binary operation: an array of each entry set,
# with and without zeros, or a constant on either side
OPERANDS = {**{name: ("array", values) for name, values in ENTRY_SETS.items()},
            **{f"nonzero {name}": ("array", _nonzero(values))
               for name, values in ENTRY_SETS.items()},
            **{repr(c): ("constant", c) for c in CONSTANTS}}


def _scalar(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def _finite(x):
    return bool(np.isfinite(complex(x)))


def _named_gap(fn, args, want, got):
    """Whether the entry ``got`` is one of the named cases where it is not
    finite and the point's own value ``want`` is, or the reverse:

    * a complex zero divided by a subnormal: NumPy divides through the
      divisor's overflowing reciprocal, which gives NaN where Python gives 0;
    * a negative float to a non-integer power: a float array gives NaN
      where Python gives a complex number;
    * at a non-finite input, which no chart point has, a finite entry where
      the point's value is not: the imaginary part of a non-finite float
      (0.0 on a float array, 0.0 * x on a Python float), and a negative
      integer power of a complex infinity (0 on an array, where Python's
      repeated product meets 0 * inf), and an infinity to a complex power
      with a negative real part through ``dual.power`` (0 on an array,
      where Python raises ZeroDivisionError).
    """
    if fn is operator.truediv:
        a, b = args
        return (isinstance(a, complex) or isinstance(b, complex)) and a == 0 \
            and 0 < abs(b) < TINY and np.isnan(got)
    if fn is operator.pow:
        a, p = args
        if isinstance(a, float):
            return a < 0 and isinstance(want, complex) and p != int(p) and np.isnan(got)
        return not _finite(a) and p == int(p) < 0 and got == 0
    if fn is gm.power:
        a, p = args
        return not _finite(a) and p.real < 0 and want is ZeroDivisionError and got == 0
    if fn is gm.imag:
        return isinstance(args[0], float) and not _finite(args[0]) and got == 0
    return False


def _budget(fn, args):
    """The ulps an entry may differ from its point's value: ULP_BUDGET, and
    for a complex number to a non-integer power, or any number to a
    complex one, that many ulps of its exponent p log z.  NumPy takes
    exp(p log z), whose rounding of p log|z| grows with it (158 ulps at
    (1e300 + 1e300j) ** -0.5), where Python raises |z| to the power p."""
    z, p = args if fn in (operator.pow, gm.power) else (None, 0)
    if (isinstance(z, complex) or isinstance(p, complex)) and z != 0 \
            and p != int(p.real):
        return ULP_BUDGET * max(1.0, abs(p * math.log(abs(z))))
    return ULP_BUDGET


def _assert_entries(fn, array_args, point_args):
    """fn on arrays gives, entry by entry, fn on the Python numbers of that
    point: within ULP_BUDGET where the point's value is finite, and not
    finite where it is not or where the point's call raises one of
    ``NUMBER_ERRORS``, but for the cases ``_named_gap`` names."""
    point_args = list(point_args)
    want = [_scalar(fn, *args) for args in point_args]
    assert not any(w is ValueError for w in want)
    with np.errstate(all="ignore"):
        got = np.broadcast_to(fn(*array_args), (len(want),))
    for g, w, args in zip(got, want, point_args):
        if isinstance(w, type):
            assert issubclass(w, NUMBER_ERRORS), (args, w, g)
            assert not _finite(g) or _named_gap(fn, args, w, g), (args, w, g)
        elif _named_gap(fn, args, w, g):
            continue
        elif not _finite(w):
            assert not _finite(g), (args, w, g)
        else:
            assert _finite(g), (args, w, g)
            assert_within_ulps(complex(g), complex(w), _budget(fn, args))


@pytest.mark.parametrize("operand", OPERANDS)
@pytest.mark.parametrize("entries", ENTRY_SETS)
@pytest.mark.parametrize("op", FIELD_OPS)
def test_an_operator_acts_entry_by_entry(op, entries, operand):
    fn, values = FIELD_OPS[op], ENTRY_SETS[entries]
    kind, other = OPERANDS[operand]
    if kind == "array":
        _assert_entries(fn, (np.array(values), np.array(other)), zip(values, other))
    else:
        _assert_entries(fn, (np.array(values), other), [(v, other) for v in values])
        _assert_entries(fn, (other, np.array(values)), [(other, v) for v in values])


@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("entries", ENTRY_SETS)
def test_a_power_acts_entry_by_entry(entries, exponent):
    values = ENTRY_SETS[entries]
    _assert_entries(operator.pow, (np.array(values), exponent),
                    [(v, exponent) for v in values])


@pytest.mark.parametrize("exponent", COMPLEX_EXPONENTS)
@pytest.mark.parametrize("entries", ENTRY_SETS)
def test_a_complex_power_acts_entry_by_entry(entries, exponent):
    # 0 to a power with a nonzero imaginary part raises at a point and is
    # NaN on an array (NumPy's own 0 there is replaced)
    values = ENTRY_SETS[entries]
    _assert_entries(gm.power, (np.array(values), exponent),
                    [(v, exponent) for v in values])


def test_an_inline_complex_power_of_zero_is_nan_in_a_stack_as_at_its_point():
    # ``exprs`` compiles ``**`` to ``dual.power``: the stack's entry at the
    # zero is NaN, the value the point's ZeroDivisionError becomes, and
    # every other entry is its point's value
    rule = exprs.compile_rule(("z1 ** (0.5 - 1j) + z2",), ["z1", "z2"])
    points = _stack(3)
    points[1, 0] = 0.0
    got = plain_values(rule, points, (1,))
    want = _one_by_one(rule, points, (1,))
    assert np.isnan(got[1]).all() and np.isnan(want[1]).all()
    assert np.isfinite(got[[0, 2]]).all()
    assert_within_ulps(got[[0, 2]], want[[0, 2]])


def _in_log_domain(values):
    """The values at which ``dual.log`` raises no DomainError."""
    return [v for v in values if _scalar(gm.log, v) is not DomainError]


@pytest.mark.parametrize("domain", ["all entries", "log's domain"])
@pytest.mark.parametrize("entries", ENTRY_SETS)
@pytest.mark.parametrize("name", UNARY)
def test_a_generic_function_acts_entry_by_entry(name, entries, domain):
    fn, values = UNARY[name], ENTRY_SETS[entries]
    if domain == "log's domain":
        values = _in_log_domain(values)
        assert values
    _assert_entries(fn, (np.array(values),), [(v,) for v in values])


# ---------------------------------------------------------------------------
# plain_values at a stack of points against the points one by one

def _stack(count, seed=0):
    return ComplexChart(dim=2, radius=[0.9, 0.9]).sample(np.random.default_rng(seed),
                                                          count=count)


def _one_by_one(rule, points, shape):
    return np.stack([plain_values(rule, p[None], shape)[0] for p in points])


def _counted(rule, seen):
    """The rule, recording the type of each call's first coordinate."""
    def counted(z):
        seen.append(type(z[0]))
        return rule(z)
    return counted


def _chunks(count):
    return -(-count // STACK_CHUNK)


@pytest.mark.parametrize("count", [2, 25, STACK_CHUNK + 1])
def test_a_nan_at_one_point_is_that_points_nan(count):
    # inf - inf at the first point only, in one call per chunk
    points = _stack(count, seed=count)
    centre = complex(points[0, 0])

    def rule(z):
        x = 1 / (gm.abs2(z[0] - centre) + 1e-300)
        return [[1 + (x * x - x * x), gm.conj(z[1]) * (x * x - x * x)]]

    seen = []
    got = plain_values(_counted(rule, seen), points, (1, 2))
    assert seen == [np.ndarray] * _chunks(count)
    assert np.isnan(got[0]).all() and not np.isnan(got[1:]).any()
    assert np.isnan(_one_by_one(rule, points[:1], (1, 2))).all()
    assert_within_ulps(got[1:], _one_by_one(rule, points[1:], (1, 2)))


@pytest.mark.parametrize("count", [2, STACK_CHUNK + 1])
def test_an_arithmetic_error_escapes_from_a_stack(count):
    # a rule's own exception is not a number error: no chunk turns it into
    # NaN or evaluates its points again one by one
    points = _stack(count)
    bad = complex(points[-1, 0])

    def rule(z):
        if np.any(np.asarray(z[0]) == bad):
            raise ArithmeticError(f"deliberate at {bad}")
        return [[1 + gm.abs2(z[0])]]

    seen = []
    with pytest.raises(ArithmeticError, match=re.escape(f"deliberate at {bad}")):
        plain_values(_counted(rule, seen), points, (1, 1))
    assert seen == [np.ndarray] * _chunks(count)
    assert_within_ulps(plain_values(rule, points[:-1], (1, 1)),
                       _one_by_one(rule, points[:-1], (1, 1)))


OUTPUTS = {
    "an array": lambda z: np.array([[1.0 + 0 * gm.real(z[0])]]),
    "a constant": lambda z: [[0.5]],
    "an int": lambda z: [[3 + 0 * z[1]]],
    "a NumPy scalar": lambda z: [[np.complex128(0.5 - 1j)]],
    "a constant beside an entry": lambda z: [[0.5, gm.conj(z[1])]],
}


@pytest.mark.parametrize("count", [2, STACK_CHUNK + 3])
@pytest.mark.parametrize("what", OUTPUTS)
def test_an_output_with_constants_is_the_points_values(what, count):
    rule = OUTPUTS[what]
    points = _stack(count)
    shape = np.shape(rule(tuple(points[0].tolist())))
    got = plain_values(rule, points, shape)
    want = np.array([rule(tuple(p)) for p in points.tolist()], complex)
    assert got.shape == want.shape
    assert_within_ulps(got, want)


SHAPELESS = {
    "wrong shape": lambda z: [[z[0], 1.0]],
    "a row too few": lambda z: [[z[0]], [z[1]]][:1],
    "a ragged row": lambda z: [[z[0]], [z[1], 1.0]],
}


@pytest.mark.parametrize("what", SHAPELESS)
def test_an_output_not_nested_as_the_shape_raises_a_rule_shape_error(what):
    with pytest.raises(RuleShapeError):
        plain_values(SHAPELESS[what], _stack(STACK_CHUNK + 3), (2, 2))


@pytest.mark.parametrize("count", [2, STACK_CHUNK + 2])
def test_a_numpy_scalar_constant_is_evaluated_in_the_stacked_call(count):
    def rule(z):
        return [[np.float64(1.5) + gm.abs2(z[1]), np.complex128(0.5j) * z[0]]]

    seen = []
    points = _stack(count)
    got = plain_values(_counted(rule, seen), points, (1, 2))
    assert seen == [np.ndarray] * _chunks(count)
    assert_within_ulps(got, _one_by_one(rule, points, (1, 2)))


@pytest.mark.parametrize("count", [2, STACK_CHUNK + 2])
def test_a_square_root_of_both_signs_is_evaluated_in_the_stacked_call(count):
    # a real coordinate of both signs: Python gives a float root or a
    # complex one, the array a complex root at every point
    def rule(z):
        return [[gm.sqrt(gm.real(z[0])) * z[1]]]

    points = _stack(count)
    points[1, 0], points[-1, 0] = -points[0, 0].conjugate(), -points[-2, 0].conjugate()
    assert (points[:, 0].real < 0).any() and (points[:, 0].real > 0).any()
    seen = []
    got = plain_values(_counted(rule, seen), points, (1, 1))
    assert seen == [np.ndarray] * _chunks(count)
    assert_within_ulps(got, _one_by_one(rule, points, (1, 1)))


@pytest.mark.parametrize("count", [2, STACK_CHUNK + 2])
def test_a_rule_that_branches_on_a_coordinate_is_refused_at_a_stack(count):
    # no point-by-point fallback: the truth value of an array is refused
    def rule(z):
        return [[1.5 if gm.real(z[0]) > 0 else 2.5 + gm.abs2(z[1])]]

    points = _stack(count)
    assert np.isfinite(_one_by_one(rule, points[:2], (1, 1))).all()
    with pytest.raises(ValueError, match="truth value of an array"):
        plain_values(rule, points, (1, 1))


def test_validate_evaluates_its_probe_points_in_one_call():
    seen = []
    chart = ComplexChart(dim=2, radius=[0.9, 0.9])
    metric = HermitianMetricField(chart, _counted(fs_rule(2), seen), name="fs2")
    seen.clear()
    metric.validate(np.random.default_rng(3), count=100)
    assert seen == [np.ndarray]
