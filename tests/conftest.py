import numpy as np
import pytest

from projcurv import diffops, dual as gm, exprs, zoo
from projcurv.charts import ComplexChart, RealChart
from projcurv.curvature import levi_civita_christoffels
from projcurv.dual import HyperDual
from projcurv.fields import HermitianMetricField, RiemannianMetricField
from projcurv.maps import ChartedMap


# ulps a fiber density value may differ from another evaluation of it: a
# per-point oracle, or the same row in a stack of another size.  The
# density's matrix products group their sums by the shapes of the stacks,
# and a stacked f(z) may round differently from the point alone; the most
# measured is 6, on fs3-to-ball3's pushforward nodes
ULP_BUDGET = 16


def assert_within_ulps(got, want, budget=ULP_BUDGET, axes=None):
    """|got - want| <= budget ulps of the larger modulus, entrywise, or of
    the largest modulus over ``axes``: a metric's matrix is compared in
    ulps of its largest entry, since an entry may cancel to near 0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    larger = np.maximum(np.abs(got), np.abs(want))
    ulp = np.spacing(larger if axes is None else larger.max(axis=axes, keepdims=True))
    gap = np.abs(got - want)
    assert np.all(gap <= budget * ulp), f"{np.max(gap / ulp)} ulps"


def fs_rule(m):
    def rule(z):
        s = 1
        for a in range(m):
            s = s + gm.abs2(z[a])
        return [[(1 if a == b else 0) / s - gm.conj(z[a]) * z[b] / (s * s)
                 for b in range(m)] for a in range(m)]
    return rule


def conformal_real_rule(n, factor):
    def rule(x):
        r2 = 0
        for i in range(n):
            r2 = r2 + x[i] * x[i]
        lam = factor(r2)
        return [[lam if i == j else 0 * lam for j in range(n)] for i in range(n)]
    return rule


@pytest.fixture
def disc():
    return ComplexChart(dim=1, radius=[0.9], name="disc")


@pytest.fixture
def fs1(disc):
    return HermitianMetricField(disc, fs_rule(1), name="fs1")


@pytest.fixture
def poincare1():
    chart = ComplexChart(dim=1, radius=[0.55], name="poincare")
    return HermitianMetricField(
        chart, lambda z: [[1 / (1 - gm.abs2(z[0])) ** 2]], name="poincare")


@pytest.fixture
def flat1():
    chart = ComplexChart(dim=1, radius=[2.0], name="flat1")
    return HermitianMetricField(chart, lambda z: [[1.0 + 0j]], name="flat1")


@pytest.fixture
def flat2():
    chart = ComplexChart(dim=2, radius=[1.0, 1.0], name="flat2")
    return HermitianMetricField(chart, lambda z: [[1, 0], [0, 1]], name="flat2")


@pytest.fixture
def fs2():
    chart = ComplexChart(dim=2, radius=[0.9, 0.9], name="fs2")
    return HermitianMetricField(chart, fs_rule(2), name="fs2")


@pytest.fixture
def euclidean2():
    chart = RealChart(dim=2, radius=[2.0, 2.0])
    return RiemannianMetricField(chart, lambda x: [[1, 0], [0, 1]], name="euclidean2")


@pytest.fixture
def sphere2():
    chart = RealChart(dim=2, radius=[0.9, 0.9])
    return RiemannianMetricField(
        chart, conformal_real_rule(2, lambda r2: 4 / (1 + r2) ** 2), name="sphere")


@pytest.fixture
def hyperbolic2():
    chart = RealChart(dim=2, radius=[0.5, 0.5])
    return RiemannianMetricField(
        chart, conformal_real_rule(2, lambda r2: 4 / (1 - r2) ** 2), name="hyperbolic")


def identity_map(h, g):
    return ChartedMap(h.chart, g.chart, lambda z: tuple(z), holomorphic=True,
                      name="identity")


def nan_on_right_half(x):
    """1 where Re x < 0 and NaN elsewhere, elementwise on numbers, arrays and jets."""
    while isinstance(x, HyperDual):
        x = x.f0
    return np.where(np.real(x) < 0, 1.0, np.nan)


def _on_stencil(z, spare):
    """Whether the coordinates z are arrays (an fd stencil) other than the
    columns of the (N, d) stack of points ``spare``."""
    if not any(isinstance(c, np.ndarray) and c.ndim for c in z):
        return False
    return spare is None or not np.array_equal(np.stack(z, axis=1), spare)


def nan_on_arrays(rule, spare=None):
    """``rule`` with every entry NaN when its coordinates are arrays (the fd
    stencils), and unchanged on numbers, jets and the stack of points
    ``spare`` (the S5 probe's lattice, say)."""
    def wrapped(z):
        out = rule(z)
        if not _on_stencil(z, spare):
            return out
        return [[entry * np.nan for entry in row] for row in out]

    return wrapped


def nan_off_centre(rule, spare=None):
    """``rule`` with every entry NaN at the stencil points of a single
    point's fd jet but its centre (column 0), and unchanged on numbers,
    jets and the stack of points ``spare``: the metric value a jet hands
    on passes its check, and every derivative is NaN."""
    def wrapped(z):
        out = rule(z)
        if not _on_stencil(z, spare):
            return out
        off = np.where(np.arange(np.size(z[0])) == 0, 1.0, np.nan)
        return [[entry * off for entry in row] for row in out]

    return wrapped


def pole_at(rule, point):
    """The metric ``rule`` with 0 / |z - point|^2 added to its first entry:
    a division by zero at ``point``, where Python numbers raise
    ZeroDivisionError and NumPy gives NaN, and an exact 0 elsewhere.  The
    divisor is real: NumPy divides by a complex number of subnormal modulus
    through its overflowing reciprocal, which gives NaN where Python gives 0."""
    point = np.asarray(point).tolist()

    def wrapped(z):
        d2 = 0
        for x, c in zip(z, point):
            d2 = d2 + gm.abs2(x - c)
        out = [list(row) for row in rule(z)]
        out[0][0] = out[0][0] + 0 / gm.real(d2)
        return out

    return wrapped


def inline_metric():
    """A Hermitian metric from inline expressions (``exprs``), with every
    generic function and ``**`` in its entries."""
    entries = [["1 + abs2(z1) + exp(re(z2)) / 4", "0.1 * conj(z1) * z2 + im(z1) ** 2"],
               ["0.1 * z1 * conj(z2) + im(z1) ** 2", "log(2 + abs2(z2)) + sqrt(1 + re(z1))"]]
    chart = ComplexChart(dim=2, radius=[0.5, 0.5], name="inline")
    return HermitianMetricField(chart, exprs.matrix_rule(entries, ["z1", "z2"]),
                                name="inline")


# every zoo metric and the inline one, as (kind, name) for ``stack_metric``
STACK_METRICS = ([("zoo", n) for n in zoo.HERMITIAN_METRICS + zoo.RIEMANNIAN_METRICS]
                 + [("inline", "exprs")])


def stack_metric(kind, name):
    return zoo.build_entry(name).obj if kind == "zoo" else inline_metric()


def fiber_vector(rng, k, idx):
    """A direction in C^k whose largest coordinate is the idx-th."""
    W = 0.6 * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
    W[idx] = 1.0
    return W


def complex_jets(field, z, backend="fd"):
    """(d F, d dbar F, d d F) of a scalar field at one point: its real jet
    through the engine's Wirtinger conversions, with no symmetrization."""
    d = field.chart.dim
    _, grad, hess = diffops._real_jet(field.rule, field.chart, z, backend)
    return (diffops._wirt_grad_from_real(grad, d)[0],
            diffops._wirt_mixed_from_real(hess, d)[0],
            diffops._wirt_holo2_from_real(hess, d)[0])


def compatible_christoffels(metric, x, scale=1.0):
    """``levi_civita_christoffels(metric, x)``, asserted metric-compatible
    at every point: nabla_k g_ij = d_k g_ij - Gamma^s_ki g_sj - Gamma^s_kj g_is
    with d g from an fd ``matrix_jet`` must be at most 1e-6 of max(1, |d g|)
    at each point (a NaN defect fails too).  ``scale`` multiplies Gamma in
    the check only, so that a wrong connection can be shown to fail it."""
    xs, stacked = diffops.point_stack(x, float)
    G, Gamma = levi_civita_christoffels(metric, xs)
    d1 = diffops.matrix_jet(metric, xs, order=1)[1].real
    nabla = (d1 - np.einsum("Zski,Zsj->Zkij", scale * Gamma, G)
             - np.einsum("Zskj,Zis->Zkij", scale * Gamma, G))
    for k, point in enumerate(xs):
        defect = np.abs(nabla[k]).max()
        assert defect <= 1e-6 * max(1.0, np.abs(d1[k]).max()), \
            f"metric compatibility defect {defect:.3e} at {point}"
    return (G, Gamma) if stacked else (G[0], Gamma[0])
