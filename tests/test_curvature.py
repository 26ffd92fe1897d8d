import itertools
import warnings

import numpy as np
import pytest

from projcurv import dual as gm
from projcurv import curvature as cv
from projcurv import zoo
from projcurv.charts import ComplexChart, RealChart
from projcurv.dual import HyperDual
from projcurv.errors import ValidationError
from projcurv.fields import HermitianMetricField, RiemannianMetricField

from conftest import compatible_christoffels, conformal_real_rule, fs_rule, nan_off_centre


class TestChernCurvature:
    def test_flat_zero(self, flat2):
        t = cv.chern_curvature(flat2, [0.2 + 0.1j, -0.3j])
        assert np.max(np.abs(t.array)) < 1e-12

    def test_fubini_study_value(self, fs1):
        # hand expansion h = 1 - 2|z|^2 + O(|z|^4) gives R_1111(0) = 2
        t = cv.chern_curvature(fs1, [0.0])
        assert t.array[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-8)

    def test_poincare_value(self, poincare1):
        t = cv.chern_curvature(poincare1, [0.0])
        assert t.array[0, 0, 0, 0] == pytest.approx(-2.0, abs=1e-8)

    def test_hermitian_symmetry_invariant(self, fs2):
        rng = np.random.default_rng(2)
        for _ in range(5):
            t = cv.chern_curvature(fs2, fs2.chart.sample(rng))
            assert t.hermitian_defect() < 1e-8

    def test_kahler_symmetry(self, fs2):
        rng = np.random.default_rng(4)
        for _ in range(5):
            t = cv.chern_curvature(fs2, fs2.chart.sample(rng))
            assert t.kahler_defect() < 1e-6

    def test_hopf_is_not_kahler(self):
        chart = ComplexChart(dim=2, center=[1.0, 0.3], radius=[0.25, 0.25])

        def hopf(z):
            r2 = gm.abs2(z[0]) + gm.abs2(z[1])
            return [[(1 if a == b else 0) / r2 for b in range(2)] for a in range(2)]

        field = HermitianMetricField(chart, hopf, name="hopf")
        t = cv.chern_curvature(field, [1.0, 0.3])
        assert t.kahler_defect() > 1e-2
        assert t.hermitian_defect() < 1e-8


class TestSectionalCurvatures:
    def test_hsc_flat(self, flat2):
        assert cv.holomorphic_sectional_curvature(flat2, [0.1, 0.2j],
                                                  [1, 1j]) == pytest.approx(0.0, abs=1e-12)

    def test_hsc_constant_fubini_study(self, fs1):
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = fs1.chart.sample(rng, 0.55)
            v = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            assert cv.holomorphic_sectional_curvature(fs1, z, v) == \
                pytest.approx(2.0, abs=1e-6)

    def test_hsc_constant_poincare(self, poincare1):
        rng = np.random.default_rng(8)
        for _ in range(10):
            z = poincare1.chart.sample(rng, 0.6)
            v = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            assert cv.holomorphic_sectional_curvature(poincare1, z, v) == \
                pytest.approx(-2.0, abs=1e-6)

    @pytest.mark.parametrize("lam", [2.0, 1j, 1 + 1j])
    def test_hsc_scale_invariance(self, fs2, lam):
        z = [0.2 + 0.1j, -0.15j]
        v = np.array([1.0, 0.5 - 0.2j])
        a = cv.holomorphic_sectional_curvature(fs2, z, v)
        b = cv.holomorphic_sectional_curvature(fs2, z, lam * v)
        assert abs(a - b) < 1e-10

    def test_hsc_zero_vector(self, fs1):
        with pytest.raises(ValidationError):
            cv.holomorphic_sectional_curvature(fs1, [0.0], [0.0])

    def test_bisectional_cross_term(self, fs2):
        # R(e1, e1bar, e2, e2bar) / (|e1|^2 |e2|^2) = 1 at the FS origin
        t = cv.chern_curvature(fs2, [0, 0])
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert np.real(t.contract(u, u, v, v)) == pytest.approx(1.0, abs=1e-8)


class TestChristoffels:
    def test_euclidean_zero(self, euclidean2):
        _, G = cv.levi_civita_christoffels(euclidean2, [0.3, -0.4])
        assert np.max(np.abs(G)) < 1e-12

    def test_hyperbolic_origin(self, hyperbolic2):
        _, G = cv.levi_civita_christoffels(hyperbolic2, [0.0, 0.0])
        assert np.max(np.abs(G)) < 1e-10

    def test_sphere_conformal_oracle(self, sphere2):
        # conformal metric e^{2p} delta: Gamma^i_jk = d_ij p_k + d_ik p_j - d_jk p_i
        # with p = log 2 - log(1+r^2): p_i = -2 x_i / (1+r^2)
        _, G = compatible_christoffels(sphere2, [0.2, 0.0])
        p1 = -0.4 / 1.04
        assert G[0, 0, 0] == pytest.approx(p1, abs=1e-9)
        assert G[0, 1, 1] == pytest.approx(-p1, abs=1e-9)
        assert G[1, 0, 1] == pytest.approx(p1, abs=1e-9)
        assert G[1, 1, 0] == pytest.approx(p1, abs=1e-9)
        assert G[0, 0, 1] == pytest.approx(0.0, abs=1e-9)
        assert G[1, 0, 0] == pytest.approx(0.0, abs=1e-9)
        assert G[1, 1, 1] == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_lower_indices(self, sphere2):
        rng = np.random.default_rng(9)
        _, G = cv.levi_civita_christoffels(sphere2, sphere2.chart.sample(rng))
        assert np.max(np.abs(G - G.transpose(0, 2, 1))) < 1e-12


class TestRiemannCurvature:
    def test_euclidean_zero(self, euclidean2):
        t = cv.riemann_curvature(euclidean2, [0.5, 0.2])
        assert np.max(np.abs(t.array)) < 1e-12

    def test_sphere_sectional(self, sphere2):
        rng = np.random.default_rng(10)
        for _ in range(8):
            x = sphere2.chart.sample(rng, 0.5)
            assert cv.riemannian_sectional_curvature(sphere2, x, [1, 0], [0, 1]) == \
                pytest.approx(1.0, abs=1e-5)

    def test_hyperbolic_sectional(self, hyperbolic2):
        rng = np.random.default_rng(12)
        for _ in range(8):
            x = hyperbolic2.chart.sample(rng, 0.6)
            X = rng.standard_normal(2)
            Y = rng.standard_normal(2)
            if abs(X[0] * Y[1] - X[1] * Y[0]) < 0.1:
                continue
            assert cv.riemannian_sectional_curvature(hyperbolic2, x, X, Y) == \
                pytest.approx(-1.0, abs=1e-5)

    def test_tensor_symmetries(self, sphere2, hyperbolic2):
        rng = np.random.default_rng(13)
        for metric in (sphere2, hyperbolic2):
            t = cv.riemann_curvature(metric, metric.chart.sample(rng, 0.5))
            assert t.antisymmetry_defect() < 1e-6
            assert t.pair_symmetry_defect() < 1e-6
            assert t.bianchi_defect() < 1e-6

    def test_plane_basis_invariance(self, sphere2):
        x = [0.1, 0.3]
        a = cv.riemannian_sectional_curvature(sphere2, x, [1, 0], [0, 1])
        b = cv.riemannian_sectional_curvature(sphere2, x, [2, 1], [1, 1])
        assert a == pytest.approx(b, abs=1e-6)

    def test_dependent_vectors_rejected(self, sphere2):
        with pytest.raises(ValidationError):
            cv.riemannian_sectional_curvature(sphere2, [0, 0], [1, 1], [2, 2])

    def test_product_mixed_plane_flat(self):
        chart = RealChart(dim=3, radius=[0.9] * 3)

        def rule(x):
            r2 = x[0] * x[0] + x[1] * x[1]
            lam = 4 / (1 + r2) ** 2
            z = 0 * lam
            return [[lam, z, z], [z, lam, z], [z, z, 1.0 + z]]

        metric = RiemannianMetricField(chart, rule, name="sphere-line")
        rng = np.random.default_rng(14)
        for _ in range(5):
            x = chart.sample(rng, 0.5)
            K = cv.riemannian_sectional_curvature(metric, x, [1, 0, 0], [0, 0, 1])
            assert abs(K) < 1e-6


class TestComplexSectional:
    def test_euclidean_zero(self, euclidean2):
        assert cv.complex_sectional_curvature(euclidean2, [0.1, 0.2],
                                              [1, 1j], [1j, 1]) == \
            pytest.approx(0.0, abs=1e-12)

    def test_real_reduction(self, sphere2):
        x = [0.2, -0.1]
        X = np.array([1.0, 0.4])
        Y = np.array([-0.3, 1.0])
        t = cv.riemann_curvature(sphere2, x)
        numerator = float(np.real(t.contract(X, Y, Y, X)))
        csc = cv.complex_sectional_curvature(sphere2, x, X, Y)
        assert csc == pytest.approx(numerator, abs=1e-10)

    def test_hyperbolic3_nonpositive_and_bruteforce(self):
        chart = RealChart(dim=3, radius=[0.8] * 3)
        metric = RiemannianMetricField(
            chart, conformal_real_rule(3, lambda r2: 4 / (1 - r2) ** 2), name="h3")
        rng = np.random.default_rng(15)
        Z = np.array([1.0, 1j, 0.0])
        W = np.array([0.0, 0.0, 1.0])
        val0 = cv.complex_sectional_curvature(metric, [0.0, 0.0, 0.0], Z, W)
        # constant curvature -1 with g(0) = 4 delta: -(4*8 - 0) = -32
        assert val0 == pytest.approx(-32.0, abs=1e-6)
        for _ in range(5):
            x = chart.sample(rng, 0.4)
            Z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            W = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            val = cv.complex_sectional_curvature(metric, x, Z, W)
            assert val <= 1e-10
            # brute-force expansion of the complexification into 16 real-slot
            # contractions of R(Z, Wbar, W, Zbar)
            R = cv.riemann_curvature(metric, x)
            X1, X2 = Z.real, Z.imag
            Y1, Y2 = W.real, W.imag
            expansion = sum(
                c1 * c2 * c3 * c4 * float(np.real(R.contract(V1, V2, V3, V4)))
                for c1, V1 in ((1, X1), (1j, X2))
                for c2, V2 in ((1, Y1), (-1j, Y2))
                for c3, V3 in ((1, Y1), (1j, Y2))
                for c4, V4 in ((1, X1), (-1j, X2)))
            assert val == pytest.approx(float(np.real(expansion)), abs=1e-8)


class TestKey3:
    def test_euclidean(self, euclidean2):
        assert cv.key3_check(euclidean2, [0.3, 0.1]) < 1e-12

    def test_sphere_normal_chart(self):
        chart = RealChart(dim=2, radius=[0.9, 0.9])
        metric = RiemannianMetricField(
            chart, conformal_real_rule(2, lambda r2: 1 / (1 + r2 / 4) ** 2),
            name="sphere-normal")
        assert cv.key3_check(metric, [0.0, 0.0]) < 1e-6

    def test_hyperbolic_normal_chart(self):
        chart = RealChart(dim=2, radius=[0.9, 0.9])
        metric = RiemannianMetricField(
            chart, conformal_real_rule(2, lambda r2: 1 / (1 - r2 / 4) ** 2),
            name="hyperbolic-normal")
        assert cv.key3_check(metric, [0.0, 0.0]) < 1e-6

    def test_precondition_enforced(self, sphere2):
        # 4 delta at the origin violates g = identity
        with pytest.raises(ValidationError):
            cv.key3_check(sphere2, [0.0, 0.0])

    def test_metric_jets_taken_once(self):
        # key3 builds R from the jets it has: one Hessian stencil, whose
        # centre column is the metric value it checks; taking the jets again
        # made it 2 point evaluations and 2 stencils
        g = zoo.build_entry("round-sphere-normal").obj
        metric, calls = TestMetricEvaluatedOnce._counted(g)
        assert cv.key3_check(metric, np.zeros(g.dim)) == cv.key3_check(g, np.zeros(g.dim))
        assert calls == [1]

    @pytest.mark.parametrize("name", ["round-sphere-normal", "hyperbolic-normal",
                                      "euclidean"])
    def test_matches_the_index_loop(self, name):
        # the transposes pick the entries the four-index loop picked
        g = zoo.build_entry(name).obj
        x = np.zeros(g.dim)
        _, _, d2, _, dGamma = (part[0] for part in cv._christoffel_jets(g, x[None]))
        R = cv.riemann_curvature(g, x).array
        n = g.dim
        worst = 0.0
        for i, j, k, l in itertools.product(range(n), repeat=4):
            lhs = d2[i, j, k, l] - dGamma[k, l, i, j] - dGamma[l, k, i, j]
            rhs = -(R[i, l, k, j] + R[i, k, l, j])
            worst = max(worst, abs(lhs - rhs))
        assert cv.key3_check(g, x) == worst


class TestNormalCoordinates:
    def test_flat_identity_transformation(self, flat2):
        frame = cv.hermitian_normal_coordinates(flat2, [0.2, 0.1j])
        assert np.allclose(frame.linear, np.eye(2), atol=1e-12)
        assert np.max(np.abs(frame.quadratic)) < 1e-12

    def test_fs_at_origin(self, fs2):
        frame = cv.hermitian_normal_coordinates(fs2, [0.0, 0.0])
        assert np.allclose(frame.linear, np.eye(2), atol=1e-10)
        assert np.max(np.abs(frame.quadratic)) < 1e-10

    def test_perturbed_metric_postconditions(self):
        chart = ComplexChart(dim=2, radius=[0.9, 0.9])
        B = np.array([[1.0, 0.5], [-0.3, 1.2]])

        def rule(z):
            v = [B[0, 0] * z[0] + B[0, 1] * z[1], B[1, 0] * z[0] + B[1, 1] * z[1]]
            return [[(1 if a == b else 0) + 0.1 * v[a] * gm.conj(v[b])
                     for b in range(2)] for a in range(2)]

        metric = HermitianMetricField(chart, rule, name="perturbed")
        # post-conditions are checked inside the constructor call
        frame = cv.hermitian_normal_coordinates(metric, [0.2, -0.1 + 0.1j])
        H0 = frame.metric.matrix(np.zeros(2))
        assert np.allclose(H0, np.eye(2), atol=1e-10)

    def test_quadratic_is_the_symmetrized_jet(self, fs2):
        # b[d, a, g] = -(c[g, a, d] + c[a, g, d]) / 2 entry by entry, c the
        # exact first jet after the linear change
        p = np.array([0.2 + 0.1j, -0.3j])
        frame = cv.hermitian_normal_coordinates(fs2, p)
        A, c = cv._linear_stage(fs2, p)
        np.testing.assert_array_equal(A, frame.linear)
        for d, a, g in itertools.product(range(2), repeat=3):
            assert frame.quadratic[d, a, g] == -0.5 * (c[g, a, d] + c[a, g, d])

    def test_point_roundtrip(self, fs2):
        frame = cv.hermitian_normal_coordinates(fs2, [0.2 + 0.1j, -0.3j])
        assert np.allclose(frame.to_old_point(np.zeros(2)),
                           [0.2 + 0.1j, -0.3j], atol=1e-14)

    def test_riemannian_normal(self, sphere2):
        frame = cv.riemannian_normal_coordinates(sphere2, [0.2, -0.1])
        G0 = frame.metric.matrix(np.zeros(2))
        assert np.allclose(G0, np.eye(2), atol=1e-10)
        # key3 now holds at the image point
        assert cv.key3_check(frame.metric, np.zeros(2)) < 1e-6

    @pytest.mark.parametrize("x0", [[0.2, -0.1], [-0.35, 0.3]])
    def test_riemannian_frame_maps(self, sphere2, x0):
        frame = cv.riemannian_normal_coordinates(sphere2, x0)
        assert isinstance(frame, cv.NormalFrame)
        old = frame.to_old_point(np.zeros(2))
        assert old.dtype == float
        np.testing.assert_array_equal(old, x0)
        v = np.array([0.7, -1.3])
        new = frame.to_new_vector(frame.linear @ v)
        assert new.dtype == float
        np.testing.assert_allclose(new, v, rtol=1e-13)
        # quadratic holds -Gamma, symmetric in its lower indices
        np.testing.assert_array_equal(frame.quadratic,
                                      frame.quadratic.transpose(0, 2, 1))
        _, Gamma = cv.levi_civita_christoffels(sphere2, x0)
        A = frame.linear
        # Gamma of the linear stage is A^{-1} Gamma(A., A.) at the center
        expected = np.einsum("ip,pjk,ja,kb->iab", np.linalg.inv(A), Gamma, A, A)
        np.testing.assert_allclose(-frame.quadratic, expected, atol=1e-6)

    def test_one_frame_type(self, fs2, sphere2):
        h = cv.hermitian_normal_coordinates(fs2, [0.1, 0.2j])
        r = cv.riemannian_normal_coordinates(sphere2, [0.1, 0.2])
        assert type(h) is type(r) is cv.NormalFrame
        assert type(h.metric.chart) is ComplexChart
        assert type(r.metric.chart) is RealChart
        assert h.to_old_point(np.zeros(2)).dtype == complex


class TestCurvatureChecksFailClosed:
    """A NaN defect compares False with every tolerance; the Chern tensor's
    symmetry check and the Levi-Civita compatibility check raise on it."""

    def test_nan_chern_tensor(self):
        H, dz = np.eye(2, dtype=complex), np.zeros((2, 2, 2), complex)
        mixed = np.full((2, 2, 2, 2), np.nan, complex)
        with pytest.raises(ValidationError, match="Hermitian-symmetry defect nan"):
            cv.chern_arrays(H[None], dz[None], mixed[None], np.zeros((1, 2)))

    def test_nan_chern_jet(self):
        # g checks out at the point (the stencil centre), its jet is NaN
        chart = ComplexChart(dim=1, radius=[0.9])
        metric = HermitianMetricField(chart, nan_off_centre(fs_rule(1)), name="nan-jet",
                                      validate_on_init=False)
        with pytest.raises(ValidationError, match="Hermitian-symmetry defect nan"):
            cv.chern_curvature(metric, [0.2 + 0.1j])

    def test_overflowing_stencil_where_warnings_are_errors(self):
        # finite at the point, overflowing at a stencil point beside it: the
        # fd jet is quietly non-finite and the symmetry check names it, also
        # where warnings are errors (no np.errstate in this test)
        chart = ComplexChart(dim=1, radius=[0.9])
        metric = HermitianMetricField(
            chart, lambda z: [[1 + gm.exp(1e4 * gm.real(z[0]))]], name="steep",
            validate_on_init=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(metric.check_at([0.0709781])).all()
            with pytest.raises(ValidationError, match="Hermitian-symmetry defect nan"):
                cv.chern_curvature(metric, [0.0709781])

    def test_nan_levi_civita_compatibility(self, sphere2):
        # the symbols of a NaN jet are NaN, and the compatibility oracle
        # fails on them
        metric = RiemannianMetricField(sphere2.chart, nan_off_centre(sphere2.rule),
                                       name="nan-jet", validate_on_init=False)
        assert np.isnan(cv.levi_civita_christoffels(metric, [0.2, -0.1])[1]).all()
        with pytest.raises(AssertionError, match="metric compatibility defect nan"):
            compatible_christoffels(metric, [0.2, -0.1])

    @pytest.mark.parametrize("x", [[0.2, -0.1], [[0.2, -0.1], [-0.4, 0.3]]])
    def test_a_wrong_connection_fails_the_compatibility_oracle(self, sphere2, x):
        # the oracle passes the Levi-Civita symbols and fails them scaled by 1.01
        compatible_christoffels(sphere2, x)
        with pytest.raises(AssertionError, match="metric compatibility defect"):
            compatible_christoffels(sphere2, x, scale=1.01)


class TestNormalFrameChecksFailClosed:
    """A NaN defect compares False with NORMAL_POST_TOL; each post-check of
    the normal-frame construction must raise on it all the same.  The NaN
    is put into the new chart's metric value or first jet alone: part 0 or
    part 1 of its ``matrix_jet``, from which both checks read."""

    @staticmethod
    def nan_on_normal_chart(original, part=1):
        def patched(metric, *args, **kwargs):
            out = original(metric, *args, **kwargs)
            if metric.chart.name != "normal":
                return out
            out = list(out)                 # matrix_jet's (M, jet, None)
            out[part] = np.full_like(out[part], np.nan)
            return tuple(out)

        return patched

    def test_identity_check(self, monkeypatch, fs2):
        monkeypatch.setattr(cv.diffops, "matrix_jet",
                            self.nan_on_normal_chart(cv.diffops.matrix_jet, part=0))
        with pytest.raises(ValidationError, match="not identity at center"):
            cv.hermitian_normal_coordinates(fs2, [0.1, 0.2j])

    @pytest.mark.parametrize("side,match", [
        ("hermitian", "antisymmetry defect nan"),
        ("riemannian", "first derivatives do not vanish")])
    def test_first_jet_checks(self, monkeypatch, fs2, sphere2, side, match):
        monkeypatch.setattr(cv.diffops, "matrix_jet",
                            self.nan_on_normal_chart(cv.diffops.matrix_jet))
        with pytest.raises(ValidationError, match=match):
            if side == "hermitian":
                cv.hermitian_normal_coordinates(fs2, [0.1, 0.2j])
            else:
                cv.riemannian_normal_coordinates(sphere2, [0.2, -0.1])


def _pullback_per_entry(metric, p, A, b=None):
    """The reference pullback rule: the per-entry formula, with every entry
    of J, conj(J) and J M recomputed in each term it appears in."""
    idx = range(metric.dim)

    def rule(zs):
        if b is None:
            vec, J = zs, A
        else:
            q = [0.5 * sum(b[d, a, g] * zs[a] * zs[g] for a in idx for g in idx)
                 for d in idx]
            vec = [zs[d] + q[d] for d in idx]
            J = [[sum(A[r, d] * ((1.0 if d == a else 0.0)
                                 + sum(b[d, a, g] * zs[g] for g in idx))
                      for d in idx) for a in idx] for r in idx]
        old = []
        for r in idx:
            acc = p[r]
            for c in idx:
                acc = acc + A[r, c] * vec[c]
            old.append(acc)
        M = metric.matrix_generic(old)
        return [[sum(J[r][a] * M[r][s] * gm.conj(J[s][c]) for r in idx for s in idx)
                 for c in idx] for a in idx]

    return rule


def _bits(entries):
    return np.asarray(entries, complex).view(np.uint64)


class TestPullbackRule:
    """The pullback rule computes each shared sub-expression once and is bit
    for bit the per-entry formula on Python numbers, stencil arrays and
    hyper-duals, for the linear stage (b = None) and the normal frame's b."""

    CASES = [("fubini-study", 1), ("fubini-study", 2), ("fubini-study", 3),
             ("poincare-ball", 1), ("poincare-ball", 2), ("poincare-ball", 3),
             ("round-sphere", 2), ("round-sphere", 3)]

    @staticmethod
    def rules(name, n, quadratic):
        metric = zoo.build_entry(name, {"dim": n}).obj
        rng = np.random.default_rng(n)
        p = metric.chart.sample(rng, 0.5)
        normal = (cv.riemannian_normal_coordinates if name == "round-sphere"
                  else cv.hermitian_normal_coordinates)
        frame = normal(metric, p)
        b = frame.quadratic if quadratic else None
        points = frame.metric.chart.sample(rng, 0.8, count=7)
        return (cv._pullback_rule(metric, frame.center, frame.linear, b),
                _pullback_per_entry(metric, frame.center, frame.linear, b), points)

    @pytest.mark.parametrize("quadratic", [False, True], ids=["linear", "normal"])
    @pytest.mark.parametrize("name,n", CASES)
    def test_numbers_and_arrays(self, name, n, quadratic):
        new, old, points = self.rules(name, n, quadratic)
        for x in points.tolist():
            np.testing.assert_array_equal(_bits(new(tuple(x))), _bits(old(tuple(x))))
        cols = tuple(np.ascontiguousarray(points.T))
        np.testing.assert_array_equal(_bits(new(cols)), _bits(old(cols)))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("quadratic", [False, True], ids=["linear", "normal"])
    @pytest.mark.parametrize("name,n", CASES)
    def test_hyper_duals(self, name, n, quadratic, order):
        new, old, points = self.rules(name, n, quadratic)
        is_complex = name != "round-sphere"
        seeds, _, _ = cv.diffops._dual_seeds(n, is_complex, order)
        coords = tuple(HyperDual(v, *slots) for v, slots in zip(points[0].tolist(), seeds))
        got, want = (cv.diffops._flat_entries(rule(coords), (n, n)) for rule in (new, old))
        K = seeds[0][0].size          # the seeded directions
        for slot in ("f0", "f1", "f2", "f12"):
            if getattr(want[0], slot) is None:
                continue
            np.testing.assert_array_equal(
                _bits([np.broadcast_to(getattr(v, slot), K) for v in got]),
                _bits([np.broadcast_to(getattr(v, slot), K) for v in want]))

    @pytest.mark.parametrize("n,bound", [(2, 62), (3, 228)])
    def test_dual_pass_multiplications(self, monkeypatch, n, bound):
        # one order-1 dual jet of the pullback with b on a constant metric:
        # the per-entry formula made 78 (n = 2) and 336 (n = 3)
        metric = zoo.build_entry("flat", {"dim": n}).obj
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
        b = b + b.transpose(0, 2, 1)
        stage = HermitianMetricField(
            ComplexChart(dim=n), cv._pullback_rule(metric, np.zeros(n, complex), A, b),
            validate_on_init=False)
        # the pass itself: the dual seeds are built on the first jet and kept
        cv.diffops.matrix_jet(stage, np.zeros(n), backend="dual", order=1)
        count = 0
        mul = HyperDual.__mul__

        def counted(self, other):
            nonlocal count
            count += 1
            return mul(self, other)

        monkeypatch.setattr(HyperDual, "__mul__", counted)
        monkeypatch.setattr(HyperDual, "__rmul__", counted)
        cv.diffops.matrix_jet(stage, np.zeros(n), backend="dual", order=1)
        assert count <= bound


class TestRCPositiveRiemannian:
    """RC-positivity of a Riemannian curvature tensor at a point: every
    direction Z has a W with R(Z, W, W, Z) > 0, seen through sectional
    curvatures."""

    DIRECTIONS = [np.array([np.cos(t), np.sin(t)])
                  for t in np.linspace(0.0, np.pi, 8, endpoint=False)]

    def test_sphere_positive(self, sphere2):
        for x in ([0.0, 0.0], [0.2, 0.1]):
            for Z in self.DIRECTIONS:
                W = np.array([-Z[1], Z[0]])
                assert cv.riemannian_sectional_curvature(sphere2, x, Z, W) > 1e-10

    def test_euclidean_all_zero(self, euclidean2):
        for Z in self.DIRECTIONS:
            W = np.array([-Z[1], Z[0]])
            K = cv.riemannian_sectional_curvature(euclidean2, [0.1, 0.2], Z, W)
            assert abs(K) < 1e-12

    def test_product_flat_direction(self):
        chart = RealChart(dim=3, radius=[0.9] * 3)

        def rule(x):
            r2 = x[0] * x[0] + x[1] * x[1]
            lam = 4 / (1 + r2) ** 2
            z = 0 * lam
            return [[lam, z, z], [z, lam, z], [z, z, 1.0 + z]]

        metric = RiemannianMetricField(chart, rule, name="sphere-line")
        Z = [0.0, 0.0, 1.0]                      # the line factor
        rng = np.random.default_rng(0)
        for _ in range(16):
            W = rng.standard_normal(3)
            W[2] = 0.0                           # independent of Z
            K = cv.riemannian_sectional_curvature(metric, [0.0, 0.0, 0.0], Z, W)
            assert K == pytest.approx(0.0, abs=1e-10)


class TestMetricEvaluatedOnce:
    """Each curvature call evaluates the metric once, on the stencil arrays
    of its jet, and checks and reuses the jet's centre column as the
    matrix at the point: no evaluation at the point of its own (there was
    one per point, through ``check_at``)."""

    @staticmethod
    def _counted(metric):
        calls = []

        def rule(z):
            calls.append(np.ndim(z[0]))
            return metric.rule(z)

        cls = type(metric)
        return cls(metric.chart, rule, name=metric.name, validate_on_init=False), calls

    def test_chern(self):
        chart = ComplexChart(dim=1, radius=[0.9])
        metric, calls = self._counted(HermitianMetricField(chart, fs_rule(1)))
        cv.chern_curvature(metric, [0.2 + 0.1j])
        assert calls == [1]

    @pytest.mark.parametrize("call", [
        lambda g, x: cv.riemann_curvature(g, x),
        lambda g, x: cv.levi_civita_christoffels(g, x),
    ], ids=["riemann", "levi_civita"])
    def test_riemannian(self, call):
        chart = RealChart(dim=2, radius=[0.9, 0.9])
        sphere = RiemannianMetricField(
            chart, conformal_real_rule(2, lambda r2: 4 / (1 + r2) ** 2))
        metric, calls = self._counted(sphere)
        call(metric, [0.2, -0.1])
        assert calls == [1]
