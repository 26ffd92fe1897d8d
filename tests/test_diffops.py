import cmath
import math
import warnings

import numpy as np
import pytest

from projcurv import dual as gm
from projcurv import diffops, zoo
from projcurv.bundle import BundlePoint
from projcurv.charts import ComplexChart
from projcurv.dual import HyperDual
from projcurv.errors import BackendMismatchError, ChartDomainError, DomainError
from projcurv.fields import HermitianMetricField, ScalarField
from projcurv.maps import ChartedMap, Y_field, _generic_inverse_up

from conftest import complex_jets


def field(rule, dim=1, radius=2.0):
    return ScalarField(ComplexChart(dim=dim, radius=[radius] * dim), rule)


class TestWirtingerGradient:
    def test_overflowing_stencil_where_warnings_are_errors(self):
        # the gradient stencil overflows beside a finite point: a non-finite
        # gradient, not a RuntimeWarning (no np.errstate in this test)
        F = field(lambda z: gm.exp(1e4 * gm.real(z[0])), radius=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = diffops.wirtinger_gradient(F, [0.0709781])
        assert not np.isfinite(g).all()

    def test_abs_squared(self):
        F = field(lambda z: gm.abs2(z[0]))
        g = diffops.wirtinger_gradient(F, [1.0])
        assert g[0] == pytest.approx(1.0, abs=1e-10)   # = conj(z)

    def test_real_part(self):
        F = field(lambda z: gm.real(z[0]))
        for z in (0.3, -0.5 + 0.2j, 1.1j):
            g = diffops.wirtinger_gradient(F, [z])
            assert g[0] == pytest.approx(0.5, abs=1e-10)

    def test_log_potential_symbolic_oracle(self):
        # d/dz log(1+|z|^2) = conj(z) / (1+|z|^2)
        F = field(lambda z: gm.log(1 + gm.abs2(z[0])))
        g = diffops.wirtinger_gradient(F, [0.3])
        assert g[0] == pytest.approx(0.3 / 1.09, abs=1e-9)
        z = 0.2 + 0.1j
        g = diffops.wirtinger_gradient(F, [z])
        assert g[0] == pytest.approx(np.conj(z) / (1 + abs(z) ** 2), abs=1e-9)

    def test_gradient_bar_conjugate_rule(self):
        # dbar G = conj(d conj(G)): for G = z^2 zbar, dbar G = z^2
        G = field(lambda z: z[0] * z[0] * gm.conj(z[0]))
        conj_G = field(lambda z: gm.conj(G.rule(z)))
        z = 0.4 - 0.2j
        gb = np.conj(diffops.wirtinger_gradient(conj_G, [z]))
        assert gb[0] == pytest.approx(z * z, abs=1e-9)

    def test_margin_enforced(self):
        F = field(lambda z: gm.abs2(z[0]), radius=0.5)
        with pytest.raises(ChartDomainError):
            diffops.wirtinger_gradient(F, [0.4999])


class TestWirtingerHessian:
    def test_flat_potential(self):
        F = field(lambda z: gm.abs2(z[0]))
        H = diffops.wirtinger_hessian(F, [0.3 + 0.4j])
        assert H.matrix[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_pluriharmonic_re_z3(self):
        F = field(lambda z: gm.real(z[0] ** 3))
        H = diffops.wirtinger_hessian(F, [0.4 + 0.2j])
        assert abs(H.matrix[0, 0]) < 1e-10

    def test_log_potential_at_zero(self):
        F = field(lambda z: gm.log(1 + gm.abs2(z[0])))
        H = diffops.wirtinger_hessian(F, [0.0])
        assert H.matrix[0, 0] == pytest.approx(1.0, abs=1e-9)
        # general point: 1/(1+|z|^2)^2
        z = 0.25 - 0.35j
        H = diffops.wirtinger_hessian(F, [z])
        assert H.matrix[0, 0] == pytest.approx(1 / (1 + abs(z) ** 2) ** 2, abs=1e-9)

    def test_holomorphic_polynomial_real_parts(self):
        # ddbar Re(p(z)) = 0 for holomorphic polynomials
        rng = np.random.default_rng(11)
        chart = ComplexChart(dim=2, radius=[1.5, 1.5])
        for _ in range(10):
            coef = rng.standard_normal(4) + 1j * rng.standard_normal(4)

            def rule(z, c=coef):
                p = c[0] * z[0] ** 3 + c[1] * z[0] * z[1] + c[2] * z[1] ** 2 + c[3]
                return gm.real(p)

            F = ScalarField(chart, rule)
            z = chart.sample(rng)
            H = diffops.wirtinger_hessian(F, z)
            assert np.max(np.abs(H.matrix)) < 1e-8

    def test_second_holo_of_z_squared(self):
        F = field(lambda z: z[0] ** 2)
        _, mixed, holo2 = complex_jets(F, [0.3 + 0.1j])
        assert holo2[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert abs(mixed[0, 0]) < 1e-9


class TestBackendAgreement:
    def test_cross_check_small_defect(self):
        rng = np.random.default_rng(5)
        chart = ComplexChart(dim=2, radius=[0.9, 0.9])
        rules = [
            lambda z: gm.log(1 + gm.abs2(z[0]) + gm.abs2(z[1])),
            lambda z: gm.exp(gm.real(z[0] * z[1])) + gm.abs2(z[1]) ** 2,
            lambda z: gm.abs2(z[0] - 0.3 * z[1]) / (1 + gm.abs2(z[1])),
        ]
        for rule in rules:
            F = ScalarField(chart, rule)
            for _ in range(5):
                z = chart.sample(rng, 0.6)
                defect = diffops.cross_check(F, z)
                assert defect <= diffops.CROSS_CHECK_RTOL

    def test_mismatch_raises(self):
        # a rule that lies to one backend: discontinuous branch choice
        chart = ComplexChart(dim=1, radius=[2.0])

        def rule(z):
            from projcurv.dual import HyperDual
            if isinstance(z[0], HyperDual):
                return z[0] * 0.0
            return gm.abs2(z[0])

        F = ScalarField(chart, rule)
        with pytest.raises(BackendMismatchError):
            diffops.cross_check(F, [0.7])

    def test_nan_on_one_backend_raises(self):
        # NaN on the fd stencils only: the NaN defect compared False with
        # rtol and came back as the defect instead of a mismatch
        def rule(z):
            nan = np.nan if isinstance(z[0], np.ndarray) else 0.0
            return gm.abs2(z[0]) + nan

        with pytest.raises(BackendMismatchError, match="relative defect nan"):
            diffops.cross_check(field(rule), [0.7])

    def test_dual_backend_hessian_matches_fd(self):
        F = field(lambda z: gm.log(1 + gm.abs2(z[0])))
        z = [0.3 - 0.2j]
        H_fd = diffops.wirtinger_hessian(F, z, backend="fd")
        H_dual = diffops.wirtinger_hessian(F, z, backend="dual")
        assert np.max(np.abs(H_fd.matrix - H_dual.matrix)) < 1e-9


class TestJacobianPair:
    def test_mixed_holomorphic_antiholomorphic(self):
        rule = lambda z: (z[0] ** 2, gm.conj(z[0]))
        holo, anti, value = diffops.jacobian_pair(rule, [0.5 + 0.1j], 1, 2)
        # the first pass's value slot is the plain call, bit for bit
        assert value.tolist() == [(0.5 + 0.1j) ** 2, 0.5 - 0.1j]
        assert holo[0, 0] == pytest.approx(1.0 + 0.2j, abs=1e-9)
        assert abs(holo[1, 0]) < 1e-9
        assert abs(anti[0, 0]) < 1e-9
        assert anti[1, 0] == pytest.approx(1.0, abs=1e-9)

    def test_real_component_conjugate_symmetry(self):
        rule = lambda z: (gm.real(z[0] ** 2), gm.imag(z[0]))
        holo, anti, _ = diffops.jacobian_pair(rule, [0.4 - 0.3j], 1, 2)
        assert np.allclose(anti, np.conj(holo), atol=1e-12)


def fs3_to_ball3():
    """Fubini-Study (dim 3) to the Poincare ball (dim 3) by z -> 0.4 z."""
    h = zoo.build_entry("fubini-study", {"dim": 3, "radius": 0.9}).obj
    g = zoo.build_entry("poincare-ball", {"dim": 3, "radius": 0.38}).obj
    f = zoo.build_map("linear", {"matrix": (0.4 * np.eye(3)).tolist()},
                      h.chart, g.chart)
    return f, h, g


def m3_bundle_point(h, seed):
    rng = np.random.default_rng(seed)
    return BundlePoint.make(h.chart.sample(rng, 0.5),
                            rng.standard_normal(3) + 1j * rng.standard_normal(3))


class TestArrayAwareDual:
    def test_ndarray_operand_defers_to_hyperdual(self):
        x = HyperDual(0.5, 1.0, 0.0, 0.0)
        arr = np.array([1.0, 2.0])
        for out in (arr + x, arr - x, arr * x, arr / x,
                    np.float64(2.0) * x, np.complex128(1j) + x):
            assert isinstance(out, HyperDual)
        # d/dx (arr * x) = arr, d/dx (arr / x) = -arr / x^2
        np.testing.assert_array_equal((arr * x).f1, arr)
        np.testing.assert_allclose((arr / x).f1, -arr / 0.25, rtol=1e-15)

    def test_conj_real_imag_on_arrays(self):
        a = np.array([1 + 2j, -0.5 - 0.25j])
        np.testing.assert_array_equal(gm.conj(a), [1 - 2j, -0.5 + 0.25j])
        np.testing.assert_array_equal(gm.real(a), [1.0, -0.5])
        np.testing.assert_array_equal(gm.imag(a), [2.0, -0.25])
        r = np.array([0.3, -0.7])
        np.testing.assert_array_equal(gm.conj(r), r)
        np.testing.assert_array_equal(gm.real(r), r)
        np.testing.assert_array_equal(gm.imag(r), [0.0, 0.0])

    def test_conj_of_array_valued_jet(self):
        x = HyperDual(np.array([1j, 2.0]), np.array([1j, 1.0 - 1j]))
        c = gm.conj(x)
        np.testing.assert_array_equal(c.f0, [-1j, 2.0])
        np.testing.assert_array_equal(c.f1, [-1j, 1.0 + 1j])

    def test_log_sqrt_exp_match_scalar_functions(self):
        r = np.array([0.5, 2.0, 7.25])
        c = np.array([0.5 - 1j, -2.0 + 0.1j, 3j])
        np.testing.assert_allclose(gm.log(r), [math.log(v) for v in r], rtol=1e-15)
        np.testing.assert_allclose(gm.log(c), [cmath.log(v) for v in c], rtol=1e-15)
        np.testing.assert_allclose(gm.sqrt(r), [math.sqrt(v) for v in r], rtol=1e-15)
        np.testing.assert_allclose(gm.sqrt(c), [cmath.sqrt(v) for v in c], rtol=1e-15)
        np.testing.assert_allclose(gm.exp(c), [cmath.exp(v) for v in c], rtol=1e-15)
        # a negative real argument gives the principal complex root, as on scalars
        np.testing.assert_allclose(gm.sqrt(np.array([4.0, -4.0])),
                                   [gm.sqrt(4.0), gm.sqrt(-4.0)], rtol=1e-15)

    def test_log_domain_errors_raise_at_a_point_and_are_nan_in_arrays(self):
        # a point outside the domain raises DomainError, a ValueError as
        # math.log's; in an array only its own entry is NaN, with no warning
        for bad in (0.0, -2.0, 0, 0j):
            with pytest.raises(DomainError, match="math domain error"):
                gm.log(bad)
        for bad in (np.array([1.0, 0.0]), np.array([1.0, -2.0]), np.array([1j, 0j])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = gm.log(bad)
            assert got.dtype == bad.dtype
            assert np.isnan(got[1]) and got[0] == np.log(bad[0])


class TestBatchedEngine:
    def test_batched_rule_values_match_pointwise(self):
        # one call over many points equals the point-by-point values
        f, h, g = fs3_to_ball3()
        P = m3_bundle_point(h, 1)
        field = Y_field(f, h, g, P.chart_index)
        def F(p):
            return field.rule(diffops._complex_coords(p, field.chart.dim))

        rng = np.random.default_rng(2)
        pts = diffops._split_real(P.combined())[:, None] \
            + 0.05 * rng.uniform(-1, 1, (10, 25))
        batched = np.asarray(F(pts))
        pointwise = np.array([complex(F(pts[:, k])) for k in range(pts.shape[1])])
        np.testing.assert_allclose(batched, pointwise, rtol=1e-14, atol=0)
        zs = diffops._complex_coords(pts[:6], 3)
        Hb = np.asarray(h.matrix_generic(zs))
        for k in range(pts.shape[1]):
            np.testing.assert_allclose(Hb[:, :, k], h.matrix(pts[:3, k] + 1j * pts[3:6, k]),
                                       rtol=1e-14, atol=1e-15)

    def test_constant_rules_broadcast(self):
        F = field(lambda z: 2.5)
        assert np.max(np.abs(diffops.wirtinger_hessian(F, [0.1]).matrix)) == 0
        assert np.max(np.abs(diffops.wirtinger_gradient(F, [0.1]))) == 0
        chart = ComplexChart(dim=2, radius=[1.0, 1.0])
        metric = HermitianMetricField(
            chart, lambda z: [[1.0, 0], [0, 1 + gm.abs2(z[0])]], name="mixed")
        for backend in ("fd", "dual"):
            M, dz, mixed = diffops.matrix_jet(metric, [0.2 - 0.1j, 0.3], backend=backend)
            # the constant entries of the value broadcast too
            np.testing.assert_allclose(M, [[1.0, 0.0], [0.0, 1.05]], rtol=1e-15)
            expected_dz = np.zeros((2, 2, 2), complex)
            expected_dz[0, 1, 1] = 0.2 + 0.1j           # conj(z0)
            expected_mixed = np.zeros((2, 2, 2, 2), complex)
            expected_mixed[0, 0, 1, 1] = 1.0
            np.testing.assert_allclose(dz, expected_dz, atol=1e-9)
            np.testing.assert_allclose(mixed, expected_mixed, atol=1e-8)

    def test_matrix_jet_matches_entry_loop(self, fs2):
        # the matrix helper against one differentiation per entry
        z = np.array([0.25 + 0.1j, -0.2j])
        for backend in ("fd", "dual"):
            M, dz, mixed = diffops.matrix_jet(fs2, z, backend=backend)
            np.testing.assert_allclose(M, fs2.matrix(z), rtol=1e-15)
            for a in range(2):
                for b in range(2):
                    entry = ScalarField(fs2.chart,
                                        lambda zs, a=a, b=b: fs2.matrix_generic(zs)[a][b])
                    grad, mix, _ = complex_jets(entry, z, backend)
                    np.testing.assert_allclose(dz[:, a, b], grad, rtol=1e-12, atol=1e-14)
                    np.testing.assert_allclose(mixed[:, :, a, b], mix, rtol=1e-12, atol=1e-14)

    def test_riemannian_matrix_jet_matches_entry_loop(self, sphere2):
        x = np.array([0.2, -0.1])
        s = diffops.step_for(sphere2.chart)
        G, d1, d2 = diffops.matrix_jet(sphere2, x)
        np.testing.assert_allclose(G, sphere2.matrix(x), rtol=1e-15)
        for i in range(2):
            for j in range(2):
                def entry(p, i=i, j=j):
                    return sphere2.matrix_generic(tuple(p))[i][j]
                # the fd primitive takes a stack of points; this is the stack of one
                _, (grad,), (hess,) = diffops._real_jet_fd(entry, x[None], s)
                np.testing.assert_allclose(d1[:, i, j], grad, rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(d2[:, :, i, j], hess, rtol=1e-12, atol=1e-14)
        G1, g1, none = diffops.matrix_jet(sphere2, x, backend="dual", order=1)
        assert none is None
        np.testing.assert_allclose(g1, d1, atol=1e-9)
        np.testing.assert_allclose(G1, G, rtol=1e-15)

    def test_batched_dual_seeds_match_per_pair_seeding(self):
        def F(p):
            return gm.exp(p[0] * p[1]) + p[2] ** 3 * p[0] / (1 + p[1] * p[1])

        p = np.array([0.3, -0.7, 1.1])
        _, grad, hess = diffops._real_jet_dual(F, p)
        for a in range(3):
            for b in range(a, 3):
                q = list(p)
                q[a] = HyperDual(p[a], 1.0, 1.0 if a == b else 0.0, 0.0)
                if b != a:
                    q[b] = HyperDual(p[b], 0.0, 1.0, 0.0)
                out = F(q)
                assert hess[a, b] == pytest.approx(out.f12, rel=1e-14)
                assert hess[b, a] == hess[a, b]
                if a == b:
                    assert grad[a] == pytest.approx(out.f1, rel=1e-14)

    def test_generic_inverse_stacked_beyond_adjugates(self):
        rng = np.random.default_rng(4)
        n, N = 4, 6
        X = rng.standard_normal((N, n, n)) + 1j * rng.standard_normal((N, n, n))
        mats = X @ X.conj().transpose(0, 2, 1) + n * np.eye(n)
        M = [[mats[:, a, b] for b in range(n)] for a in range(n)]
        M[0][3] = M[3][0] = 0.0                     # constant entries broadcast
        mats[:, 0, 3] = mats[:, 3, 0] = 0.0
        up = _generic_inverse_up(M, n)
        for k in range(N):
            got = np.array([[up[a][b][k] for b in range(n)] for a in range(n)])
            np.testing.assert_allclose(got, np.linalg.inv(mats[k]).conj(), rtol=1e-12)
        single = _generic_inverse_up(mats[0].tolist(), n)
        np.testing.assert_allclose(np.array(single, complex),
                                   np.linalg.inv(mats[0]).conj(), rtol=1e-12)


def per_entry_dual_jet(rule, z, shape, order):
    """The dual jet at one point of a complex chart as the engine once built
    it: real coordinates seeded one HyperDual each and combined into complex
    ones in the pass, and every slot of every entry assigned into its
    place on its own."""
    d = len(z)
    p = [c.real for c in z] + [c.imag for c in z]
    n = 2 * d
    A, B, diag, first, second = diffops._pair_seeds(n)
    if order == 2:
        K = A.size
        real = [HyperDual(p[c], first[c], second[c], 0.0) for c in range(n)]
    else:
        K = n
        real = [HyperDual(p[c], np.eye(n)[c], None, None) for c in range(n)]
    out = rule(diffops._complex_coords(real, d))
    f0 = np.empty(shape, complex)
    f1 = np.zeros((K,) + shape, complex)
    f12 = np.zeros((K,) + shape, complex)
    for idx in np.ndindex(*shape):
        v = out
        for i in idx:
            v = v[i]
        if isinstance(v, HyperDual):
            f0[idx] = v.f0
            f1[(slice(None),) + idx] = v.f1
            if order == 2:
                f12[(slice(None),) + idx] = v.f12
        else:
            f0[idx] = v
    if order == 1:
        return f0, f1
    hess = np.empty((n, n) + shape, complex)
    hess[A, B] = f12
    hess[B, A] = f12
    return f0, f1[diag], hess


def mixed_kinds_rule(z):
    """Three kinds of entry in one output: a HyperDual whose slots are all
    arrays, a HyperDual whose mixed slot is still the scalar it was seeded
    with (only linear operations reached it), and a plain constant."""
    return [[z[0] * z[1] + gm.conj(z[0]), 2.0 * z[0] - z[1], 0.5 + 0.25j],
            [-z[1], 3.0, gm.exp(z[0]) * gm.conj(z[1])]]


class TestDualSlotRead:
    """The slots of all entries are read in one conversion per kind; the
    result is the per-entry assignment bit for bit."""

    CHART = ComplexChart(dim=2, radius=[1.0, 1.0])
    POINTS = ([0.3 - 0.2j, -0.1 + 0.45j], [-0.0, 0.25 - 0.0j])

    @staticmethod
    def bits(arrays):
        return [np.ascontiguousarray(a).tobytes() for a in arrays]

    def test_the_rule_mixes_the_three_kinds(self):
        A, _, _, first, second = diffops._pair_seeds(4)
        real = [HyperDual(0.1 * c, first[c], second[c], 0.0) for c in range(4)]
        out = mixed_kinds_rule(diffops._complex_coords(real, 2))
        assert isinstance(out[0][0].f12, np.ndarray) and out[0][0].f12.shape == (A.size,)
        assert isinstance(out[0][1], HyperDual) and not isinstance(out[0][1].f12, np.ndarray)
        assert not isinstance(out[0][2], HyperDual) and not isinstance(out[1][1], HyperDual)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("shape,rule", [
        ((2, 3), mixed_kinds_rule),
        ((3,), lambda z: mixed_kinds_rule(z)[0]),
        ((), lambda z: mixed_kinds_rule(z)[0][1]),
        ((), lambda z: 0.5 + 0.25j)])
    def test_a_dual_jet_is_the_per_entry_read(self, order, shape, rule):
        for z in self.POINTS:
            got = diffops._real_jet(rule, self.CHART, z, "dual", order, shape)
            want = per_entry_dual_jet(rule, z, shape, order)
            assert self.bits(part[0] for part in got[:1 + order]) == self.bits(want), z

    def test_map_second_derivatives_of_mixed_kinds(self):
        # two outputs over ten seeded pairs: the mixed slot of the linear
        # component is a scalar, which the read repeats along the pairs
        def rule(z):
            return mixed_kinds_rule(z)[0][:2]

        for z in self.POINTS:
            mixed, holo2 = diffops.map_jet2(rule, self.CHART, z, 2)
            _, _, hess = per_entry_dual_jet(rule, z, (2,), 2)
            H = hess[None]
            want = [np.moveaxis(wirt(H, 2)[0], -1, 0) for wirt in
                    (diffops._wirt_mixed_from_real, diffops._wirt_holo2_from_real)]
            assert self.bits([mixed, holo2]) == self.bits(want), z
            assert np.array_equal(mixed[1], np.zeros((2, 2)))

    def test_an_output_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match="does not have shape"):
            diffops._real_jet(lambda z: [z[0], z[1]], self.CHART, [0.1, 0.2], "dual",
                              shape=(3,))


class TestBackendAgreementM3:
    def test_y_field_m3(self):
        f, h, g = fs3_to_ball3()
        for seed in (1, 2):
            P = m3_bundle_point(h, seed)
            field = Y_field(f, h, g, P.chart_index)
            assert diffops.cross_check(field, P.combined()) <= diffops.CROSS_CHECK_RTOL

    def test_chern_entry_jets_fs3(self):
        _, h, _ = fs3_to_ball3()
        z = h.chart.sample(np.random.default_rng(3), 0.5)
        for a in range(3):
            for b in range(3):
                entry = ScalarField(h.chart,
                                    lambda zs, a=a, b=b: h.matrix_generic(zs)[a][b])
                assert diffops.cross_check(entry, z) <= diffops.CROSS_CHECK_RTOL
        _, dz_fd, mixed_fd = diffops.matrix_jet(h, z, backend="fd")
        _, dz_dual, mixed_dual = diffops.matrix_jet(h, z, backend="dual")
        assert np.max(np.abs(dz_fd - dz_dual)) <= diffops.CROSS_CHECK_RTOL
        assert np.max(np.abs(mixed_fd - mixed_dual)) <= diffops.CROSS_CHECK_RTOL
