import dataclasses
from collections import Counter

import numpy as np
import pytest

from projcurv import dual as gm
from projcurv import bundle as bd
from projcurv import zoo
from projcurv.charts import ComplexChart
from projcurv.curvature import (chern_curvature, hermitian_normal_coordinates,
                                holomorphic_sectional_curvature)
from projcurv.errors import QuadratureError, ValidationError
from projcurv.fields import Form11, HermitianMetricField
from projcurv.maps import ChartedMap, generalized_Y

from conftest import fs_rule, identity_map


class TestBundlePoint:
    def test_chart_selection_largest_modulus(self):
        P = bd.BundlePoint.make([0.0], np.array([1.0, 2j, 0.5]))
        assert P.chart_index == 1
        assert np.allclose(P.W_affine[1], 1.0)
        assert P.w.size == 2

    def test_zero_fiber_rejected(self):
        with pytest.raises(ValidationError):
            bd.BundlePoint.make([0.0], [0.0, 0.0])

    def test_combined_coordinates(self):
        P = bd.BundlePoint.make([0.3 + 0.1j], np.array([2.0, 1.0]))
        assert P.combined().shape == (2,)


class TestTautologicalH:
    def test_flat_unit_vector(self, flat2):
        tm = bd.TautologicalMetric(flat2)
        P = bd.BundlePoint.make([0.0, 0.0], [1.0, 0.0])
        assert bd.tautological_H(tm, P) == pytest.approx(1.0)

    def test_flat_general_vector(self, flat2):
        tm = bd.TautologicalMetric(flat2)
        P = bd.BundlePoint.make([0.0, 0.0], [1.0, 2j], chart_index=0)
        assert bd.tautological_H(tm, P) == pytest.approx(5.0)

    def test_fs_origin(self, fs2):
        tm = bd.TautologicalMetric(fs2)
        P = bd.BundlePoint.make([0.0, 0.0], [1.0, 0.0])
        assert bd.tautological_H(tm, P) == pytest.approx(1.0)

    def test_homogeneity(self, fs2):
        tm = bd.TautologicalMetric(fs2)
        z = [0.2 + 0.1j, -0.3j]
        W = np.array([1.0, 0.7 - 0.2j])
        lam = 1.7 - 0.4j
        a = bd.tautological_H(tm, bd.BundlePoint.make(z, W, chart_index=0))
        b = bd.tautological_H(tm, bd.BundlePoint.make(z, lam * W, chart_index=0))
        # the affine representative divides the scale out again
        assert b == pytest.approx(a, rel=1e-12)

    def test_chart_switch_ratio_exact(self, fs2):
        tm = bd.TautologicalMetric(fs2)
        z = [0.2 + 0.1j, -0.3j]
        W = np.array([1.0, 0.7 - 0.2j])
        P0 = bd.BundlePoint.make(z, W, chart_index=0)
        P1 = bd.BundlePoint.make(z, W, chart_index=1)
        r = bd.tautological_H(tm, P0) / bd.tautological_H(tm, P1)
        assert r == pytest.approx(abs(W[1] / W[0]) ** 2, rel=1e-12)

    def test_density_chart_stability(self, fs1, poincare1):
        f = identity_map(fs1, poincare1)
        z = [0.2 - 0.1j]
        W = np.array([0.4 + 0.2j, 1.0])
        # m = 1 has a trivial fiber; use an m = 2 pair instead
        chart2 = ComplexChart(dim=2, radius=[0.9, 0.9])
        fs2 = HermitianMetricField(chart2, fs_rule(2), name="fs2")
        tgt = ComplexChart(dim=2, radius=[3.0, 3.0])
        flat = HermitianMetricField(tgt, lambda z: [[1, 0], [0, 1]], name="flat")
        f2 = ChartedMap(chart2, tgt, lambda z: (z[0] + 0.3 * z[1], z[1]),
                        holomorphic=True)
        z2 = [0.2 + 0.1j, -0.3j]
        ya = generalized_Y(f2, fs2, flat, bd.BundlePoint.make(z2, W, chart_index=0))
        yb = generalized_Y(f2, fs2, flat, bd.BundlePoint.make(z2, W, chart_index=1))
        assert abs(ya - yb) < 1e-10


class TestTautologicalCurvature:
    def test_flat_fiber_block_is_negative_fs(self, flat2):
        tm = bd.TautologicalMetric(flat2)
        w = 0.3 - 0.2j
        P = bd.BundlePoint.make([0.1, 0.2j], [1.0, w], chart_index=0)
        form = bd.tautological_curvature(tm, P)
        # base block vanishes for the flat metric
        assert np.max(np.abs(form.matrix[:2, :2])) < 1e-9
        # fiber block is minus the Fubini-Study form of the w chart
        fs_val = 1 / (1 + abs(w) ** 2) ** 2
        assert form.matrix[2, 2] == pytest.approx(-fs_val, abs=1e-9)

    def test_m1_reduces_to_base_curvature(self, fs1):
        tm = bd.TautologicalMetric(fs1)
        z = 0.2 + 0.1j
        P = bd.BundlePoint.make([z], [1.0])
        form = bd.tautological_curvature(tm, P)
        # -ddbar log h = +2 ddbar log(1+|z|^2) for the FS chart metric
        expected = 2 / (1 + abs(z) ** 2) ** 2
        assert form.matrix[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_constant_weight_is_noop(self, fs2):
        z = [0.1 + 0.1j, -0.2j]
        P = bd.BundlePoint.make(z, [1.0, 0.4])
        a = bd.tautological_curvature(bd.TautologicalMetric(fs2), P)
        b = bd.tautological_curvature(
            bd.TautologicalMetric(fs2, weight=lambda zs, Ws: 0.7), P)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-9

    def test_fiber_restriction_negative_definite(self, fs2):
        tm = bd.TautologicalMetric(fs2)
        P = bd.BundlePoint.make([0.2, 0.1j], [1.0, 0.5 - 0.1j])
        form = bd.tautological_curvature(tm, P)
        fiber = form.matrix[2:, 2:]
        assert np.linalg.eigvalsh(0.5 * (fiber + fiber.conj().T))[-1] < 0


class TestHorizontalValue:
    def test_flat_zero(self, flat2):
        tm = bd.TautologicalMetric(flat2)
        P = bd.BundlePoint.make([0.1, 0.2], [1.0, 0.3])
        assert bd.horizontal_curvature_value(tm, P) == pytest.approx(0.0, abs=1e-9)

    def test_fs_value(self, fs1):
        tm = bd.TautologicalMetric(fs1)
        P = bd.BundlePoint.make([0.0], [1.0])
        assert bd.horizontal_curvature_value(tm, P) == pytest.approx(2.0, abs=1e-8)

    def test_poincare_value(self, poincare1):
        tm = bd.TautologicalMetric(poincare1)
        P = bd.BundlePoint.make([0.0], [1.0])
        assert bd.horizontal_curvature_value(tm, P) == pytest.approx(-2.0, abs=1e-8)

    def test_normality_enforced(self, fs1):
        tm = bd.TautologicalMetric(fs1)
        P = bd.BundlePoint.make([0.4], [1.0])   # h(0.4) != identity
        with pytest.raises(ValidationError):
            bd.horizontal_curvature_value(tm, P)

    def test_nan_metric_is_not_normal(self, fs1):
        # a NaN h(z) - I compared False with the tolerance, so the value was
        # formed from a NaN metric instead of being refused
        nan_h = HermitianMetricField(fs1.chart, lambda z: [[np.nan + 0j]], name="nan",
                                     validate_on_init=False)
        P = bd.BundlePoint.make([0.0], [1.0])
        with pytest.raises(ValidationError, match="needs base-normal coordinates"):
            bd.horizontal_curvature_value(bd.TautologicalMetric(nan_h), P)

    @pytest.mark.parametrize("name", ["fs", "poincare", "perturbed"])
    def test_agrees_with_fourfold_contraction(self, name, fs2):
        chart = ComplexChart(dim=2, radius=[0.9, 0.9])
        if name == "fs":
            metric, p = fs2, [0.25 + 0.1j, -0.2j]
        elif name == "poincare":
            pchart = ComplexChart(dim=2, radius=[0.4, 0.4])

            def rule(z):
                s = 1 - gm.abs2(z[0]) - gm.abs2(z[1])
                return [[(1 if a == b else 0) / s + gm.conj(z[a]) * z[b] / (s * s)
                         for b in range(2)] for a in range(2)]

            metric, p = HermitianMetricField(pchart, rule, name="pball"), [0.15, 0.1j]
        else:
            B = np.array([[1.0, 0.4], [0.2, 0.9]])

            def rule(z):
                v = [B[0, 0] * z[0] + B[0, 1] * z[1],
                     B[1, 0] * z[0] + B[1, 1] * z[1]]
                return [[(1 if a == b else 0) + 0.1 * v[a] * gm.conj(v[b])
                         for b in range(2)] for a in range(2)]

            metric, p = HermitianMetricField(chart, rule, name="pert"), [0.2, -0.1 + 0.1j]

        frame = hermitian_normal_coordinates(metric, p)
        W = np.array([1.0, 0.6 - 0.3j])
        W_new = frame.to_new_vector(W)
        P = bd.BundlePoint.make(np.zeros(2), W_new)
        tm = bd.TautologicalMetric(frame.metric)
        via_bundle = bd.horizontal_curvature_value(tm, P)
        t = chern_curvature(frame.metric, np.zeros(2))
        Wa = P.W_affine
        via_tensor = float(np.real(t.contract(Wa, Wa, Wa, Wa))) / \
            float(np.linalg.norm(Wa) ** 2)
        assert via_bundle == pytest.approx(via_tensor, abs=1e-5)
        # and both equal HSC * |W|^2 at the normal point
        hsc = holomorphic_sectional_curvature(frame.metric, np.zeros(2), Wa)
        assert via_bundle == pytest.approx(hsc * np.linalg.norm(Wa) ** 2, abs=1e-5)


class TestRCPositiveLineBundle:
    """RC-positivity of (O(-1), H e^{-phi}) at a point: its witness is the
    largest eigenvalue of the tautological curvature form."""

    @staticmethod
    def points(metric, seed):
        rng = np.random.default_rng(seed)
        return [bd.BundlePoint.make(metric.chart.sample(rng, 0.5),
                                    rng.standard_normal(2) + 1j * rng.standard_normal(2))
                for _ in range(6)]

    def test_fs_positive_everywhere(self, fs2):
        tm = bd.TautologicalMetric(fs2)
        for P in self.points(fs2, 21):
            assert bd.tautological_curvature(tm, P).max_eigenvalue() > 1e-8

    def test_flat_torus_not_positive(self, flat2):
        tm = bd.TautologicalMetric(flat2)
        for P in self.points(flat2, 22):
            form = bd.tautological_curvature(tm, P)
            base_block = Form11(form.matrix[:2, :2])
            assert base_block.max_eigenvalue() <= 1e-8
            assert form.max_eigenvalue() <= 1e-8

    def test_weight_flips_verdict(self, flat2):
        # a plurisubharmonic weight c |z_1|^2 adds c to the base block
        tm0 = bd.TautologicalMetric(flat2)
        tm1 = bd.TautologicalMetric(
            flat2, weight=lambda zs, Ws: 10.0 * gm.abs2(zs[0]))
        P = bd.BundlePoint.make([0.2, 0.1], [1.0, 0.4])
        assert bd.tautological_curvature(tm0, P).max_eigenvalue() <= 1e-8
        assert bd.tautological_curvature(tm1, P).max_eigenvalue() == \
            pytest.approx(10.0, abs=1e-6)


class TestFiberIntegration:
    def test_constant_density(self, flat2, fs2):
        for h in (flat2, fs2):
            val = bd.fiber_integrate(h.matrix([0.1, 0.05j]), lambda W: np.full(len(W), 3.25),
                                     order=4)
            assert val == pytest.approx(3.25, abs=1e-12)

    def test_constant_m1_and_m3(self, flat1):
        assert bd.fiber_integrate(flat1.matrix([0.1]), lambda W: np.full(len(W), 2.0),
                                  order=4) == 2.0
        chart3 = ComplexChart(dim=3, radius=[1.0] * 3)
        flat3 = HermitianMetricField(chart3, lambda z: np.eye(3).tolist(), name="f3")
        val = bd.fiber_integrate(flat3.matrix([0, 0, 0]), lambda W: np.ones(len(W)), order=4)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("m", [2, 3])
    def test_moment_identity(self, m):
        chart = ComplexChart(dim=m, radius=[1.0] * m)
        flat = HermitianMetricField(chart, lambda z: np.eye(m).tolist(), name="flat")
        for a in range(m):
            for b in range(m):
                def density(W, a=a, b=b):
                    return (W[:, a] * np.conj(W[:, b])).real / np.linalg.norm(W, axis=1) ** 2

                val = bd.fiber_integrate(flat.matrix(np.zeros(m)), density, order=6)
                expected = (1.0 / m) if a == b else 0.0
                assert val == pytest.approx(expected, abs=1e-6)

    def test_twisted_metric_volume(self, fs2):
        # total fiber volume stays 1 for a non-flat h
        val = bd.fiber_integrate(fs2.matrix([0.3 + 0.2j, -0.1j]), lambda W: np.ones(len(W)),
                                 order=8)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_nonconvergence_raises(self, flat2):
        # a sharp angular ridge that a 2-point rule cannot see
        def needle(W):
            # affine rows: the smaller coordinate is the ratio of the two
            w = np.where(abs(W[:, 0]) > abs(W[:, 1]), W[:, 1], W[:, 0])
            return np.exp(3 * np.cos(7 * np.angle(w + 1e-12)))

        with pytest.raises(QuadratureError):
            bd.fiber_integrate(flat2.matrix([0.0, 0.0]), needle, order=2, tol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density_raises(self, flat2, bad):
        # a NaN integral compares False with the order-doubling tolerance, so
        # an all-NaN density used to integrate to NaN without an error
        with pytest.raises(QuadratureError, match=r"order 4, node 0 "):
            bd.fiber_integrate(flat2.matrix([0.1, 0.2]), lambda W: np.full(len(W), bad),
                               order=4)

    @staticmethod
    def nan_at(row):
        """A density that is NaN exactly at the fiber direction ``row``,
        wherever that row sits among the nodes of the density call."""
        def density(W):
            vals = np.ones(len(W))
            vals[(W == row).all(axis=1)] = np.nan
            return vals
        return density

    def test_single_non_finite_node_raises(self, flat1, flat2):
        # one NaN node at the first order used to return the second order's
        # finite value.  The flat metric's frame is the identity, so the
        # rows the density sees are the affine nodes themselves
        row = bd.affine_rows(bd._fiber_nodes(2, 4)[0])[5]
        with pytest.raises(QuadratureError, match=r"at order 4, node 5 "):
            bd.fiber_integrate(flat2.matrix([0.1, 0.2]), self.nan_at(row), order=4)
        # m = 1: both orders have the one node [1]; the lower order is named
        with pytest.raises(QuadratureError, match=r"order 4, node 0 "):
            bd.fiber_integrate(flat1.matrix([0.1]), self.nan_at(np.ones(1)), order=4)

    def test_non_finite_node_of_the_doubled_order_raises(self, flat2):
        # both orders share one density call; a NaN among the 2k-order nodes
        # alone is named with its own order and node
        row = bd.affine_rows(bd._fiber_nodes(2, 8)[0])[7]
        with pytest.raises(QuadratureError, match=r"at order 8, node 7 "):
            bd.fiber_integrate(flat2.matrix([0.1, 0.2]), self.nan_at(row), order=4)


class TestPushforward:
    def test_constant_map(self, fs1, flat1):
        f = ChartedMap(fs1.chart, flat1.chart, lambda z: (0.7 + 0j,),
                       holomorphic=True, name="const")
        pushed, u, resid = bd.pushforward_energy_check(f, fs1, flat1, [0.2])
        assert pushed == pytest.approx(0.0, abs=1e-14)
        assert u == pytest.approx(0.0, abs=1e-14)

    def test_identity_flat2(self, flat2):
        f = identity_map(flat2, flat2)
        pushed, u, resid = bd.pushforward_energy_check(f, flat2, flat2, [0.1, 0.2])
        assert pushed == pytest.approx(2.0, abs=1e-10)
        assert u == pytest.approx(2.0, abs=1e-12)

    def test_square_map(self, flat1):
        f = ChartedMap(flat1.chart, flat1.chart, lambda z: (z[0] ** 2,),
                       holomorphic=True, name="square")
        pushed, u, resid = bd.pushforward_energy_check(f, flat1, flat1, [0.5])
        assert pushed == pytest.approx(1.0, abs=1e-10)  # |2z|^2 at z = 0.5
        assert u == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [4, 8])
    def test_one_jacobian_per_base_point(self, monkeypatch, order):
        # df(z) is shared by every fiber node and both quadrature orders: one
        # call for the density, one for the classical energy u
        p = zoo.build_entry("fs2-to-ball").obj
        calls = []
        jacobians = ChartedMap.jacobians

        def counted(self, z):
            calls.append(z)
            return jacobians(self, z)

        monkeypatch.setattr(ChartedMap, "jacobians", counted)
        _, _, resid = bd.pushforward_energy_check(p.f, p.h, p.g, [0.1, 0.05j],
                                                  order=order)
        assert len(calls) <= 2
        assert resid <= 1e-6

    @pytest.mark.parametrize("order", [4, 8])
    def test_base_point_evaluated_once(self, order):
        # df, f(z), g(f(z)) and h(z) feed Y, the fiber integral's metric and
        # u from one evaluation each: f 2 dual passes (m = 2), whose first
        # value slot is f(z), and no plain call, g 1 and h 1, where the
        # check made f 4 + 2, g 2 and h 4
        p = zoo.build_entry("fs2-to-ball").obj
        counts = Counter()

        def counted(rule, label):
            def wrapped(zs):
                dual = any(isinstance(v, gm.HyperDual) for v in zs)
                counts[label, "dual" if dual else "plain"] += 1
                return rule(zs)
            return wrapped

        f, h, g = (dataclasses.replace(x, rule=counted(x.rule, label), validate_on_init=False)
                   for x, label in ((p.f, "f"), (p.h, "h"), (p.g, "g")))
        _, _, resid = bd.pushforward_energy_check(f, h, g, [0.1, 0.05j], order=order)
        assert counts == {("f", "dual"): 2, ("g", "plain"): 1, ("h", "plain"): 1}
        assert resid <= 1e-6
