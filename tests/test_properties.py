"""Property tests over randomly drawn inputs (hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from projcurv import maps as mp  # noqa: E402
from projcurv.bundle import BundlePoint  # noqa: E402
from projcurv.charts import ComplexChart  # noqa: E402
from projcurv.fields import HermitianMetricField  # noqa: E402

from conftest import fs_rule  # noqa: E402


def _complex(bound):
    part = st.floats(-bound, bound, allow_nan=False)
    return st.builds(complex, part, part)


@st.composite
def fiber_cases(draw):
    """(m, A, z, rows, lam): a map z -> 0.3 A z + 0.1 z^2 of C^m, a base point,
    nonzero fiber directions and a nonzero projective scale."""
    m = draw(st.integers(1, 3))
    A = np.array(draw(st.lists(_complex(1.0), min_size=m * m, max_size=m * m)))
    z = np.array(draw(st.lists(_complex(0.3), min_size=m, max_size=m)))
    rows = draw(st.lists(
        st.lists(_complex(1.0), min_size=m, max_size=m).filter(
            lambda w: max(abs(x) for x in w) > 1e-3),
        min_size=1, max_size=5))
    lam = draw(_complex(3.0).filter(lambda c: abs(c) > 1e-2))
    return m, A.reshape(m, m), z, np.array(rows), lam


def _fs_pair(m, A):
    source = ComplexChart(dim=m, radius=[1.0] * m, name="source")
    target = ComplexChart(dim=m, radius=[1.0] * m, name="target")
    h = HermitianMetricField(source, fs_rule(m), name="fs-source")
    g = HermitianMetricField(target, fs_rule(m), name="fs-target")

    def rule(z):
        return tuple(0.3 * sum(A[i, a] * z[a] for a in range(m)) + 0.1 * z[i] * z[i]
                     for i in range(m))

    f = mp.ChartedMap(source, target, rule, holomorphic=True, name="quadratic",
                      validate_on_init=False)
    return f, h, g


@settings(max_examples=80, deadline=None)
@given(fiber_cases())
def test_fiber_evaluator_equals_generalized_Y_row_by_row(case):
    m, A, z, rows, lam = case
    f, h, g = _fs_pair(m, A)
    # every cyclic shift of a row, so rows sit in different affine charts,
    # and every row again scaled by lam
    Ws = [np.roll(W, k) for W in rows for k in range(m)]
    points = [BundlePoint.make(z, W) for W in Ws + [lam * W for W in Ws]]
    batched = mp.Y_on_fiber(f, h, g, z)(np.array([P.W_affine for P in points]))
    single = np.array([mp.generalized_Y(f, h, g, P) for P in points])
    assert batched.shape == (len(points),)
    # NumPy's einsum may group the n^2 products of a pairing differently over
    # a stack than over one row (it does for n = 2), so rows agree to a few
    # ulps, not bitwise; with the FS metrics at |z| < 1 the pairings are
    # well conditioned and 1e-13 is about 500 ulps
    np.testing.assert_allclose(batched, single, rtol=1e-13, atol=0)
    # projective invariance: the scaled rows give the same density
    half = len(Ws)
    np.testing.assert_allclose(single[half:], single[:half], rtol=1e-12, atol=1e-15)
