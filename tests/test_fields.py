import math
import warnings

import numpy as np
import pytest

from projcurv import config, zoo
from projcurv import dual as gm
from projcurv.charts import ComplexChart, RealChart
from projcurv.errors import ValidationError
from projcurv.fields import (STACK_CHUNK, Form11, HermitianMetricField, RiemannianMetricField,
                             eigenvalues, embedded, plain_values, rule_values)

from conftest import STACK_METRICS, assert_within_ulps, fs_rule, pole_at, stack_metric


class TestForm11:
    def test_evaluate_identity(self):
        form = Form11(np.eye(2))
        assert form.evaluate([1, 0]) == pytest.approx(1.0)

    def test_signature_cancellation(self):
        form = Form11(np.diag([1.0, -1.0]))
        u = np.array([1, 1]) / np.sqrt(2)
        assert form.evaluate(u) == pytest.approx(0.0, abs=1e-14)

    def test_fs_potential_hessian_direction(self):
        from projcurv import diffops
        from projcurv.fields import ScalarField
        chart = ComplexChart(dim=2, radius=[1.0, 1.0])
        F = ScalarField(chart, lambda z: gm.log(1 + gm.abs2(z[0]) + gm.abs2(z[1])))
        form = diffops.wirtinger_hessian(F, [0.0, 0.0])
        assert form.evaluate([1, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_evaluate_always_real(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            form = Form11(A)   # symmetrized on construction
            u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            val = form.evaluate(u)
            assert isinstance(val, float)
            # against the raw quadratic form of the symmetrized matrix
            direct = u.conj() @ form.matrix @ u
            assert abs(direct.imag) < 1e-12

    def test_min_eigenvalue_examples(self):
        assert Form11(np.eye(3)).min_eigenvalue() == pytest.approx(1.0)
        assert Form11(np.zeros((2, 2))).min_eigenvalue() == pytest.approx(0.0)
        assert Form11(np.diag([2.0, -3.0])).min_eigenvalue() == pytest.approx(-3.0)

    def test_eigenvalues_of_a_stack_are_nan_only_where_not_finite(self):
        # eigvalsh reads one triangle, so a NaN in the other one alone would
        # give finite eigenvalues; such a matrix has NaN ones, and the other
        # matrices of its stack keep theirs
        A = np.array([np.diag([1.0, 2.0]), [[1.0, np.nan], [0.0, 1.0]],
                      [[0.0, np.inf], [np.inf, 0.0]], np.diag([-3.0, 4.0])], complex)
        lam = eigenvalues(A)
        assert np.isnan(lam[1:3]).all()
        assert np.array_equal(lam[[0, 3]], np.linalg.eigvalsh(A[[0, 3]]))
        for k, M in enumerate(A):
            assert np.array_equal(eigenvalues(M), lam[k], equal_nan=True)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            Form11(np.eye(2)).evaluate([1, 0, 0])

    def test_the_constructor_is_idempotent(self):
        # 20,000 random forms of dimension 1-3 whose real and imaginary parts
        # are signed zeros, tiny (subnormal or near it) or ordinary numbers:
        # a form built from a form's matrix holds that matrix bit for bit
        rng = np.random.default_rng(29)
        zeros = np.array([0.0, -0.0])
        tiny = np.array([5e-324, 1.5e-323, 2.5e-323, 1e-310, 3e-309, 2.2250738585072014e-308])
        failures = 0
        for _ in range(20000):
            d = int(rng.integers(1, 4))
            shape = (2, d, d)
            parts = np.select([rng.integers(0, 3, shape) == k for k in range(3)],
                              [rng.choice(zeros, shape),
                               rng.choice(tiny, shape) * rng.choice([-1.0, 1.0], shape),
                               rng.standard_normal(shape)])
            A = np.empty((d, d), complex)
            A.real, A.imag = parts
            once = Form11(A).matrix
            failures += Form11(once).matrix.tobytes() != once.tobytes()
        assert failures == 0

    def test_embed(self):
        sub = np.array([[2.0]])
        A = embedded(sub, [1], 3)
        assert A[1, 1] == 2.0
        assert np.count_nonzero(A) == 1
        # each matrix of a stack in its own place
        stack = embedded(np.array([[[2.0]], [[3.0]]]), [1], 3)
        assert np.array_equal(stack, np.stack([A, 1.5 * A]))


class TestMetricValidation:
    def test_hermitian_defect_rejected(self):
        chart = ComplexChart(dim=2, radius=[1.0, 1.0])
        with pytest.raises(ValidationError):
            HermitianMetricField(chart, lambda z: [[1, 0.1], [0, 1]], name="bad")

    def test_non_positive_rejected(self):
        chart = ComplexChart(dim=1, radius=[1.0])
        with pytest.raises(ValidationError):
            HermitianMetricField(chart, lambda z: [[-1.0 + 0j]], name="neg")

    def test_probe_validation(self):
        # positive at the center, degenerate away from it
        chart = ComplexChart(dim=1, radius=[2.0])
        field = HermitianMetricField(chart, lambda z: [[1.0 - gm.abs2(z[0])]],
                                     name="shrinking")
        with pytest.raises(ValidationError):
            field.validate(np.random.default_rng(0), count=100)

    def test_riemannian_symmetry(self):
        chart = RealChart(dim=2, radius=[1.0, 1.0])
        with pytest.raises(ValidationError):
            RiemannianMetricField(chart, lambda x: [[1, 0.2], [0, 1]], name="asym")

    def test_inverse_up_convention(self):
        # h^{a bbar} h_{g bbar} = delta^a_g, i.e. sum_b inv_up[a,b] H[g,b] = I
        chart = ComplexChart(dim=2, radius=[0.8, 0.8])
        rule = lambda z: [[2 + gm.abs2(z[0]), 0.3j + z[0] * gm.conj(z[1])],
                          [-0.3j + z[1] * gm.conj(z[0]), 1 + gm.abs2(z[1])]]
        field = HermitianMetricField(chart, rule, name="generic")
        z = [0.2 + 0.1j, -0.3j]
        up = field.inverse_up(z)
        H = field.matrix(z)
        assert np.allclose(np.einsum("ab,gb->ag", up, H), np.eye(2), atol=1e-12)



def _non_finite_case(kind):
    """(metric, a point where it is non-finite) for the four regression cases."""
    if kind == "steep":
        # finite at the centre; exp overflows where Re z > 0.071
        chart = ComplexChart(dim=1, radius=[0.9])
        field = HermitianMetricField(
            chart, lambda z: [[1 + gm.exp(1e4 * gm.real(z[0]))]], name="steep")
        return field, np.array([0.5 + 0.1j])
    if kind == "half-nan":
        chart = ComplexChart(dim=1, radius=[1.0])
        field = HermitianMetricField(
            chart, lambda z: [[np.where(gm.real(z[0]) > 0, np.nan, 1.0)]],
            name="half-nan")
        return field, np.array([0.3 + 0.1j])
    if kind == "all-nan":
        chart = RealChart(dim=2, radius=[1.0, 1.0])
        field = RiemannianMetricField(
            chart, lambda x: [[np.nan * (1 + x[0] * x[0]), 0], [0, 1]],
            name="all-nan", validate_on_init=False)
        return field, np.array([0.2, -0.1])
    chart = ComplexChart(dim=2, radius=[1.0, 1.0])
    field = HermitianMetricField(
        chart, lambda z: [[1 + gm.abs2(z[0]), 0], [0, np.inf]],
        name="inf-entry", validate_on_init=False)
    return field, np.array([0.1j, 0.2])


NON_FINITE_CASES = ["steep", "half-nan", "all-nan", "inf-entry"]


class TestNonFiniteMetrics:
    """A NaN or inf metric entry used to pass both checks: a NaN defect or
    eigenvalue compares False with the tolerance.  Every warning is an
    error here, as under ``python -W error``: an overflow in the rule or
    inf - inf in a Hermitian defect must still fail as the ValidationError
    that names the metric and the point."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("kind", NON_FINITE_CASES)
    def test_check_at_rejects(self, kind):
        field, z = _non_finite_case(kind)
        with pytest.raises(ValidationError) as err:
            field.check_at(z)
        assert str(err.value) == f"metric {kind!r} has non-finite entries at {z}"

    @pytest.mark.parametrize("kind", NON_FINITE_CASES)
    def test_validate_rejects_naming_the_first_bad_point(self, kind):
        field, _ = _non_finite_case(kind)
        rng = np.random.default_rng(5)
        bad = [z for z in (field.chart.sample(rng) for _ in range(100))
               if not np.isfinite(field.matrix(z)).all()]
        with pytest.raises(ValidationError) as err:
            field.validate(np.random.default_rng(5), count=100)
        assert str(err.value) == f"metric {kind!r} has non-finite entries at {bad[0]}"


def _catalog_metric(name):
    """A zoo metric by name, or ``inline``: a metric given in a plan."""
    if name != "inline":
        return zoo.build_entry(name).obj
    return config.parse_config("""
pair:
  source: {dim: 2, radius: 0.7, metric: [["2+abs2(z1)", "0.1*z1"], ["0.1*conj(z1)", "1+abs2(z2)"]]}
  target: {zoo: flat, dim: 2}
  map: {zoo: identity}
suites: [S1]
""").resolved_pair().h


CATALOG_METRICS = (zoo.catalog_names()["hermitian-metric"]
                   + zoo.catalog_names()["riemannian-metric"] + ("inline",))


def _spiked(chart, k, seed, entry, value, real=False):
    """A 2 x 2 metric that is the identity except at the k-th of the 100
    points ``validate(default_rng(seed))`` probes, where ``entry`` is
    ``value``; it records the shape of every coordinate array it gets."""
    P = chart.sample(np.random.default_rng(seed), count=100)
    calls = []

    def rule(z):
        calls.append(np.shape(z[0]))
        hit = z[0] == P[k, 0]
        return [[np.where(hit, value, float(a == b)) if (a, b) == entry
                 else float(a == b) for b in range(2)] for a in range(2)]

    cls = RiemannianMetricField if real else HermitianMetricField
    field = cls(chart, rule, name="spiked", validate_on_init=False)
    return field, P[k], calls


class TestStackedValidation:
    @pytest.mark.parametrize("name", CATALOG_METRICS)
    def test_stacked_draw_is_the_sequential_draw(self, name):
        field = _catalog_metric(name)
        stacked_rng, seq_rng, validate_rng = (np.random.default_rng(11) for _ in range(3))
        stacked = field.chart.sample(stacked_rng, count=100)
        seq = np.array([field.chart.sample(seq_rng) for _ in range(100)])
        assert stacked.dtype == seq.dtype and stacked.shape == seq.shape
        assert stacked.tobytes() == seq.tobytes()
        assert stacked_rng.bit_generator.state == seq_rng.bit_generator.state
        field.validate(validate_rng, count=100)
        assert validate_rng.bit_generator.state == seq_rng.bit_generator.state
        # one rule call on the stack gives the pointwise values
        d = field.dim
        stack = rule_values(field.rule(tuple(stacked.T)), (d, d), 100)
        np.testing.assert_allclose(np.moveaxis(stack, -1, 0),
                                   np.stack([field._raw_matrix(z) for z in seq]),
                                   rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("real, entry, value, wording", [
        (False, (0, 0), -2.0, "not positive definite at {}: min eigenvalue -2.000e+00"),
        (False, (0, 1), 0.5, "not Hermitian at {}: defect 5.000e-01"),
        (True, (0, 1), 0.5, "not symmetric at {}: defect 5.000e-01"),
        (True, (0, 1), 0.5j, "has complex entries at {}"),
        (False, (0, 1), np.nan, "has non-finite entries at {}"),
    ], ids=["positive", "hermitian", "symmetric", "real", "finite"])
    @pytest.mark.parametrize("k", [0, 37, 99])
    def test_invalid_only_at_one_probe_point(self, k, real, entry, value, wording):
        chart = (RealChart(dim=2, radius=[1.0, 1.0]) if real
                 else ComplexChart(dim=2, radius=[1.0, 1.0]))
        field, point, calls = _spiked(chart, k, 4, entry, value, real)
        with pytest.raises(ValidationError) as err:
            field.validate(np.random.default_rng(4), count=100)
        # one rule call on the whole stack: the failing point is not re-evaluated
        assert calls == [(100,)]
        assert str(err.value) == "metric 'spiked' " + wording.format(point)
        # the wording is that of the one-point check
        with pytest.raises(ValidationError) as scalar:
            field.check_at(point)
        assert str(scalar.value) == str(err.value)

    def test_first_failing_point_wins_across_checks(self):
        # point 37 fails positivity, point 60 symmetry: the points are
        # checked in order, so 37 is named, as the one-by-one check did
        chart = ComplexChart(dim=2, radius=[1.0, 1.0])
        P = chart.sample(np.random.default_rng(6), count=100)

        def rule(z):
            neg = np.where(z[0] == P[37, 0], -1.0, 1.0)
            skew = np.where(z[0] == P[60, 0], 0.5, 0.0)
            return [[neg, skew], [0, 1]]

        field = HermitianMetricField(chart, rule, name="two-faults",
                                     validate_on_init=False)
        with pytest.raises(ValidationError, match="not positive definite") as err:
            field.validate(np.random.default_rng(6), count=100)
        assert str(P[37]) in str(err.value)

    @pytest.mark.parametrize("real", [False, True])
    def test_constant_entries_validate(self, real):
        cls, chart = ((RiemannianMetricField, RealChart(dim=2, radius=[1.0, 1.0]))
                      if real else (HermitianMetricField,
                                    ComplexChart(dim=2, radius=[1.0, 1.0])))
        for rule in (lambda z: [[2.0, 0.0], [0.0, 1.0]],
                     lambda z: [[1 + z[0] * gm.conj(z[0]), 0], [0, 1]]):
            cls(chart, rule, name="const").validate(np.random.default_rng(0), count=100)

    @pytest.mark.parametrize("rule, shape", [
        (lambda z: [[1 + gm.abs2(z[0]), 0, 0], [0, 1, 0]], (2, 3)),
        (lambda z: [[1 + gm.abs2(z[0])] * 3] * 3, (3, 3)),
        (lambda z: [[1.0, 0.0]], (1, 2)),
        (lambda z: 1 + gm.abs2(z[0]), ()),
    ], ids=["ragged", "array", "constant", "scalar"])
    def test_wrong_shape_raises_the_shape_error(self, rule, shape):
        chart = ComplexChart(dim=2, radius=[1.0, 1.0])
        field = HermitianMetricField(chart, rule, name="wide", validate_on_init=False)
        message = f"metric 'wide': rule returned shape {shape}, expected (2, 2)"
        with pytest.raises(ValidationError) as err:
            field.validate(np.random.default_rng(0), count=100)
        assert str(err.value) == message
        with pytest.raises(ValidationError) as err:
            field.check_at(chart.center)
        assert str(err.value) == message

    def test_check_at_returns_the_matrix(self, fs2, sphere2):
        z = np.array([0.2 + 0.1j, -0.3j])
        H = fs2.check_at(z)
        assert H.dtype == complex and np.array_equal(H, fs2.matrix(z))
        x = np.array([0.3, -0.2])
        G = sphere2.check_at(x)
        assert G.dtype == float and np.array_equal(G, sphere2.matrix(x))


def _deliberate(x):
    raise ArithmeticError("deliberate")


# what a rule computes at its point: Python numbers raise the first two where
# NumPy scalars gave inf or NaN; a bare ArithmeticError is a fault of the rule
FAULTS = {
    "zero-division": lambda x: 1 + 0 / (x - x),
    "overflow": lambda x: 1 + 0 * (1e200 + 0 * x) ** 2,
    "arithmetic": _deliberate,
}


def _one_point_evaluations(fault):
    """Every evaluation that hands a rule one point's Python numbers, by
    name, each on a rule whose one entry is ``fault`` of the first
    coordinate."""
    from projcurv import diffops
    from projcurv.fields import ScalarField
    from projcurv.maps import ChartedMap
    chart = ComplexChart(dim=1, radius=[1.0])
    real_chart = RealChart(dim=1, radius=[1.0])
    h = HermitianMetricField(chart, lambda z: [[fault(z[0])]], name="h",
                             validate_on_init=False)
    g = RiemannianMetricField(real_chart, lambda x: [[fault(x[0])]], name="g",
                              validate_on_init=False)
    f = ChartedMap(chart, chart, lambda z: (fault(z[0]),), name="f", validate_on_init=False)
    z, x = np.array([0.3 + 0.1j]), np.array([0.3])
    return {
        "matrix": lambda: h.matrix(z),
        "real matrix": lambda: g.matrix(x),
        "matrices": lambda: h.matrices(np.stack([z, z])),
        "value": lambda: f.value(z),
        "scalar field": lambda: ScalarField(chart, lambda q: fault(q[0]))(z),
        "dual gradient": lambda: diffops.matrix_jet(h, z, backend="dual", order=1),
        "dual jet": lambda: diffops.matrix_jet(g, x, backend="dual"),
        "jacobians": lambda: f.jacobians(z),
    }


EVALUATIONS = list(_one_point_evaluations(None))


class TestPythonNumberErrors:
    """One-point evaluations run on Python numbers; a division by zero or
    an overflow there gives non-finite values, as NumPy scalars did, and
    any other exception escapes."""

    @pytest.mark.parametrize("fault", ["zero-division", "overflow"])
    @pytest.mark.parametrize("what", EVALUATIONS)
    def test_a_pole_or_overflow_gives_nan(self, what, fault):
        out = _one_point_evaluations(FAULTS[fault])[what]()
        parts = out if isinstance(out, tuple) else (out,)
        assert all(np.isnan(part).all() for part in parts if part is not None)

    @pytest.mark.parametrize("what", EVALUATIONS)
    def test_any_other_arithmetic_error_escapes(self, what):
        with pytest.raises(ArithmeticError, match="deliberate"):
            _one_point_evaluations(FAULTS["arithmetic"])[what]()

    @pytest.mark.parametrize("fault", ["zero-division", "overflow"])
    def test_the_metric_check_names_the_point(self, fault):
        chart = ComplexChart(dim=1, radius=[1.0])
        with pytest.raises(ValidationError,
                           match=r"metric 'pole' has non-finite entries at \[0\.\+0\.j\]"):
            HermitianMetricField(chart, lambda z: [[FAULTS[fault](z[0])]], name="pole")


# ---------------------------------------------------------------------------
# plain values at a stack of points: one rule call per chunk of STACK_CHUNK
# points on NumPy arrays, within ULP_BUDGET of each point's own call on
# Python numbers

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


def _stack(count, seed=0):
    return ComplexChart(dim=2, radius=[0.9, 0.9]).sample(np.random.default_rng(seed),
                                                          count=count)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestStackedValues:
    # 25: the S5 probe's lattice at m = 1
    @pytest.mark.parametrize("count", [2, 25, STACK_CHUNK, STACK_CHUNK + 1])
    @pytest.mark.parametrize("kind,name", STACK_METRICS)
    def test_the_matrices_of_a_stack_are_the_matrices_of_its_points(self, kind, name, count):
        metric = stack_metric(kind, name)
        seen = []
        counted = type(metric)(metric.chart, _counted(metric.rule, seen),
                               metric.name, validate_on_init=False)
        points = _with_signed_zeros(
            metric.chart.sample(np.random.default_rng(count), count=count), metric.chart.center)
        stack = counted.matrices(points)
        assert seen == [np.ndarray] * -(-count // STACK_CHUNK)     # one call per chunk
        alone = np.stack([metric.matrix(x) for x in points])
        assert stack.dtype == alone.dtype
        assert_within_ulps(stack, alone, axes=(-2, -1))
        # a stack of one is the point's own call on Python numbers
        seen.clear()
        x = points[-1]
        assert np.array_equal(_bits(counted.matrices(x[None])[0]), _bits(metric.matrix(x)))
        assert seen in ([complex], [float])

    @pytest.mark.parametrize("count", [2, STACK_CHUNK, STACK_CHUNK + 1])
    @pytest.mark.parametrize("where", [0, -1])
    def test_a_pole_is_not_finite_at_its_point_only(self, count, where):
        points = _stack(count, seed=count)
        got = plain_values(pole_at(fs_rule(2), points[where]), points, (2, 2))
        finite = np.isfinite(got).all(axis=(1, 2))
        assert np.flatnonzero(~finite).tolist() == [count - 1 if where else 0]
        plain = plain_values(fs_rule(2), points, (2, 2))
        assert_within_ulps(got[finite], plain[finite], axes=(-2, -1))

    @pytest.mark.parametrize("count", [2, STACK_CHUNK + 1])
    def test_a_log_domain_error_is_not_finite_at_its_point_only(self, count):
        # gm.log outside its domain raises DomainError at one point, which
        # makes that point NaN; in a stack only that point's entry is NaN
        points = _stack(count)
        points[:, 0] = abs(points[:, 0].real) + 0.1 + 1j * points[:, 0].imag
        points[-1, 0] = -points[-1, 0].real + 1j * points[-1, 0].imag

        def rule(z):
            return [[gm.log(gm.real(z[0]))]]

        got = plain_values(rule, points, (1, 1))
        finite = np.isfinite(got).all(axis=(1, 2))
        assert np.flatnonzero(~finite).tolist() == [count - 1]
        assert np.isnan(plain_values(rule, points[-1:], (1, 1))).all()
        np.testing.assert_array_equal(got[:-1, 0, 0], np.log(points[:-1, 0].real))
