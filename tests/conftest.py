import numpy as np
import pytest

from projcurv import dual as gm
from projcurv.charts import ComplexChart, RealChart
from projcurv.dual import HyperDual
from projcurv.fields import HermitianMetricField, RiemannianMetricField
from projcurv.maps import ChartedMap


# ulps a fiber density value may differ from another evaluation of it: a
# per-point oracle, or the same row in a stack of another size.  The
# density's matrix products group their sums by the shapes of the stacks,
# and a stacked f(z) may round differently from the point alone; the most
# measured is 6, on fs3-to-ball3's pushforward nodes
ULP_BUDGET = 16


def assert_within_ulps(got, want, budget=ULP_BUDGET):
    """|got - want| <= budget ulps of the larger modulus, entrywise."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
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


def nan_on_arrays(rule):
    """``rule`` with every entry NaN when its coordinates are arrays (the fd
    stencils), and unchanged on numbers and jets."""
    def wrapped(z):
        out = rule(z)
        if not any(isinstance(c, np.ndarray) and c.ndim for c in z):
            return out
        return [[entry * np.nan for entry in row] for row in out]

    return wrapped


def nan_off_centre(rule):
    """``rule`` with every entry NaN at the stencil points of a single
    point's fd jet but its centre (column 0), and unchanged on numbers and
    jets: the metric value a jet hands on passes its check, and every
    derivative is NaN."""
    def wrapped(z):
        out = rule(z)
        if not any(isinstance(c, np.ndarray) and c.ndim for c in z):
            return out
        off = np.where(np.arange(np.size(z[0])) == 0, 1.0, np.nan)
        return [[entry * off for entry in row] for row in out]

    return wrapped


def pole_at(rule, point):
    """The metric ``rule`` with 0 / |z - point|^2 added to its first entry:
    a division by zero at ``point``, where Python numbers raise
    ZeroDivisionError and NumPy gives NaN, and an exact 0 elsewhere."""
    point = np.asarray(point).tolist()

    def wrapped(z):
        d2 = 0
        for x, c in zip(z, point):
            d2 = d2 + gm.abs2(x - c)
        out = [list(row) for row in rule(z)]
        out[0][0] = out[0][0] + 0 / d2
        return out

    return wrapped
