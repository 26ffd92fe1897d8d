import dataclasses

import numpy as np
import pytest

from projcurv import diffops, verify, zoo
from projcurv import dual as gm
from projcurv import maps as mp
from projcurv.bundle import BundlePoint
from projcurv.charts import ComplexChart, RealChart
from projcurv.errors import ChartDomainError, ValidationError
from projcurv.fields import RiemannianMetricField, ScalarField

from conftest import (complex_jets, conformal_real_rule, identity_map, nan_off_centre,
                      nan_on_arrays, nan_on_right_half)


def square_map(flat1):
    return mp.ChartedMap(flat1.chart, flat1.chart, lambda z: (z[0] ** 2,),
                         holomorphic=True, name="square")


class TestChartMargin:
    # a NaN coordinate gives a NaN margin, and NaN < needed is False, so a
    # NaN point used to pass every margin check

    @pytest.mark.parametrize("chart,z", [
        (ComplexChart(dim=2, radius=[0.5, 0.5], name="box"), [np.nan, 0.1]),
        (ComplexChart(dim=2, radius=[0.5, 0.5], name="box"), [0.1, complex(0.2, np.nan)]),
        (RealChart(dim=2, radius=[0.5, 0.5], name="box"), [0.1, np.nan])])
    def test_a_nan_point_fails_closed(self, chart, z):
        assert np.isnan(chart.margin(z))
        with pytest.raises(ChartDomainError, match=r"point \[.*nan.*\] is not a finite "
                                                    r"point of chart box"):
            chart.require_margin(np.array(z), 0.01)
        # and as a row of a stack, after a row that passes
        with pytest.raises(ChartDomainError, match="not a finite point"):
            chart.require_margin(np.array([np.zeros(2), z]), 0.01)

    def test_a_nan_point_has_no_jacobian(self):
        f = zoo.build_entry("fs-to-poincare").obj.f
        with pytest.raises(ChartDomainError, match="not a finite point"):
            f.jacobians([np.nan])
        with pytest.raises(ChartDomainError, match="not a finite point"):
            f.jacobians(np.array([[0.1], [np.nan]]))

    def test_stack_margins_are_the_rows_margins(self):
        chart = ComplexChart(dim=2, center=[0.1, -0.2j], radius=[0.5, 0.3])
        zs = np.array([[0.3 + 0.1j, 0.0], [-0.5, 0.2 - 0.4j], [0.1, -0.2j]])
        assert np.array_equal(chart.margin(zs), [chart.margin(z) for z in zs])
        with pytest.raises(ChartDomainError, match=r"margin -1\.000e-01 < required"):
            chart.require_margin(zs, 0.01)
        chart.require_margin(zs[[0, 2]], 0.01)


class TestChartedMap:
    def test_holomorphic_flag_violation_is_constructor_error(self, flat1):
        with pytest.raises(ValidationError):
            mp.ChartedMap(flat1.chart, flat1.chart, lambda z: (gm.conj(z[0]),),
                          holomorphic=True, name="conj")

    def test_nan_jacobian_is_constructor_error(self, fs1):
        # NaN compares False with the flag tolerance, so a map that is NaN on
        # half the chart (the center included) used to pass as holomorphic
        with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="nan"):
            mp.ChartedMap(fs1.chart, fs1.chart,
                          lambda z: (0.4 * z[0] * nan_on_right_half(z[0]),),
                          holomorphic=True, name="half-nan")

    def test_complex_valued_map_into_real_chart_is_constructor_error(self, flat1):
        # value() keeps only Re f, but the Jacobians are those of the complex
        # function, so 0.5 z used to certify pluri-harmonic suites on
        # numbers that belong to no real map
        chart1r = RealChart(dim=1, radius=[9.0])
        with pytest.raises(ValidationError,
                           match=r"map 'half-z' into a real chart is not real-valued"):
            mp.ChartedMap(flat1.chart, chart1r, lambda z: (0.5 * z[0],), name="half-z")
        with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="nan"):
            mp.ChartedMap(flat1.chart, chart1r,
                          lambda z: (gm.real(z[0]) * nan_on_right_half(z[0]),),
                          name="half-nan")
        # a real-valued map passes, holomorphic (constant) or not
        mp.ChartedMap(flat1.chart, chart1r, lambda z: (gm.real(z[0]),), name="re")
        mp.ChartedMap(flat1.chart, chart1r, lambda z: (0.2,), holomorphic=True,
                      name="const")

    def test_anti_derivatives_vanish_for_holomorphic(self, flat1):
        f = square_map(flat1)
        rng = np.random.default_rng(1)
        for _ in range(5):
            _, anti, _ = f.jacobians(flat1.chart.sample(rng))
            assert np.max(np.abs(anti)) < 1e-8

    def test_real_target_values_real(self, flat1, euclidean2):
        f = mp.ChartedMap(flat1.chart, euclidean2.chart,
                          lambda z: (gm.real(z[0]), gm.imag(z[0])), name="realify")
        v = f.value([0.3 + 0.4j])
        assert v.dtype.kind == "f"
        assert np.allclose(v, [0.3, 0.4])
        # the value read from the Jacobian's dual pass is real too
        assert np.array_equal(f.jacobians([0.3 + 0.4j])[2], v)

    def test_second_mixed_of_abs2(self, flat1, euclidean2):
        chart1r = RealChart(dim=1, radius=[9.0])
        eucl1 = RiemannianMetricField(chart1r, lambda x: [[1.0]], name="e1")
        f = mp.ChartedMap(flat1.chart, chart1r, lambda z: (gm.abs2(z[0]),),
                          name="abs2")
        sec = f.second_mixed([0.5 - 0.2j])
        assert sec[0, 0, 0] == pytest.approx(1.0, abs=1e-9)


def zoo_maps():
    """Every zoo map, on the charts of the zoo pairs that use it; the
    constant map (which no pair uses) on both kinds of target."""
    maps = {}
    for name in zoo.catalog_names()["map-pair"]:
        p = zoo.build_entry(name).obj
        maps[p.f.name] = p.f
    disc = zoo.build_entry("fubini-study", {"dim": 2}).obj.chart
    for target in ("poincare-disc", "euclidean"):
        chart = zoo.build_entry(target).obj.chart
        maps[f"constant-{target}"] = zoo.build_map("constant", {}, disc, chart)
    return maps


class TestSecondDerivatives:
    @pytest.mark.parametrize("name", sorted(zoo_maps()))
    def test_one_jet_equals_per_component_jets(self, name):
        # the reference is the old route: one scalar dual jet per component
        f = zoo_maps()[name]
        rng = np.random.default_rng(8)
        for z in (f.source.center, f.source.sample(rng, 0.5)):
            mixed = np.empty((f.n, f.m, f.m), complex)
            holo2 = np.empty((f.n, f.m, f.m), complex)
            for i in range(f.n):
                field = ScalarField(f.source, lambda zs, i=i: f.rule(zs)[i])
                _, mixed[i], holo2[i] = complex_jets(field, z, "dual")
            np.testing.assert_array_equal(f.second_mixed(z), mixed)
            np.testing.assert_array_equal(f.second_holo(z), holo2)

    def test_every_zoo_map_is_covered(self):
        # constant, line-inclusion (zero padding) and realify-slice (a
        # constant offset) return components that ignore the seeds
        assert {f.name for f in zoo_maps().values()} == set(zoo.catalog_names()["map"])

    def test_second_holo_is_one_rule_call(self):
        h = zoo.build_entry("fubini-study", {"dim": 3, "radius": 0.9}).obj
        g = zoo.build_entry("poincare-ball", {"dim": 3, "radius": 0.38}).obj
        f = zoo.build_map("linear", {"matrix": (0.4 * np.eye(3)).tolist()},
                          h.chart, g.chart)
        calls = []

        def counted(zs):
            calls.append(zs)
            return f.rule(zs)

        counted_f = mp.ChartedMap(h.chart, g.chart, counted, holomorphic=True,
                                  validate_on_init=False)
        sec = counted_f.second_holo(h.chart.sample(np.random.default_rng(2), 0.5))
        assert len(calls) == 1
        assert sec.shape == (3, 3, 3) and np.max(np.abs(sec)) == 0


class TestClassicalDensity:
    def test_constant_map(self, fs1, flat1):
        f = mp.ChartedMap(fs1.chart, flat1.chart, lambda z: (0.3 + 0j,),
                          holomorphic=True, name="const")
        assert mp.classical_energy_density(f, fs1, flat1, [0.2]) == \
            pytest.approx(0.0, abs=1e-14)

    def test_identity_flat_gives_dimension(self, flat2):
        f = identity_map(flat2, flat2)
        assert mp.classical_energy_density(f, flat2, flat2, [0.1, 0.2j]) == \
            pytest.approx(2.0, abs=1e-12)

    def test_doubling_map(self, flat1):
        f = mp.ChartedMap(flat1.chart, flat1.chart, lambda z: (2 * z[0],),
                          holomorphic=True, name="2z")
        assert mp.classical_energy_density(f, flat1, flat1, [0.3]) == \
            pytest.approx(4.0, abs=1e-12)


    def test_u_field_backends_agree_at_m4(self):
        # the raised-index inverse of a 4 x 4 metric used to go through numpy,
        # which raises TypeError on hyper-dual entries
        h = zoo.build_entry("fubini-study", {"dim": 4, "radius": 0.9}).obj
        g = zoo.build_entry("poincare-ball", {"dim": 4, "radius": 0.3}).obj
        f = zoo.build_map("linear", {"matrix": (0.4 * np.eye(4)).tolist()},
                          h.chart, g.chart)
        z = h.chart.sample(np.random.default_rng(4), 0.5)
        field = mp.u_field(f, h, g)
        assert diffops.cross_check(field, z) < 1e-6
        assert np.real(field(z)) == pytest.approx(
            mp.classical_energy_density(f, h, g, z), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_generic_inverse_up(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = A @ A.conj().T + n * np.eye(n)
        up = np.array(mp._generic_inverse_up(M.tolist(), n), complex)
        np.testing.assert_allclose(up, np.linalg.inv(M).conj(), rtol=0, atol=1e-13)


class TestGeneralizedY:
    def test_constant_map_vanishes_on_fiber(self, flat2):
        f = mp.ChartedMap(flat2.chart, flat2.chart, lambda z: (0.1 + 0j, 0.2j),
                          holomorphic=True, name="const")
        rng = np.random.default_rng(2)
        for _ in range(5):
            W = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            P = BundlePoint.make([0.1, 0.2], W)
            assert mp.generalized_Y(f, flat2, flat2, P) == pytest.approx(0.0, abs=1e-14)

    def test_identity_same_metric_is_one(self, fs2):
        f = identity_map(fs2, fs2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            P = BundlePoint.make(fs2.chart.sample(rng, 0.5),
                                 rng.standard_normal(2) + 1j * rng.standard_normal(2))
            assert mp.generalized_Y(f, fs2, fs2, P) == pytest.approx(1.0, abs=1e-10)

    def test_square_map_value(self, flat1):
        f = square_map(flat1)
        P = BundlePoint.make([0.5], [1.0])
        assert mp.generalized_Y(f, flat1, flat1, P) == pytest.approx(1.0, abs=1e-12)

    def test_projective_invariance(self, fs2, flat2):
        f = mp.ChartedMap(fs2.chart, flat2.chart,
                          lambda z: (z[0] + 0.5 * z[1] ** 2, z[1]),
                          holomorphic=True)
        z = [0.2 + 0.1j, -0.3j]
        W = np.array([1.0, 0.7 - 0.2j])
        vals = [mp.generalized_Y(f, fs2, flat2, BundlePoint.make(z, lam * W,
                                                                 chart_index=0))
                for lam in (1.0, 2.0, 1j, 0.3 - 0.8j)]
        assert np.ptp(vals) < 1e-10


def counted_map(f):
    """f with a rule that records, per call, whether it was a dual pass
    (some coordinate a HyperDual) or a plain call."""
    calls = []

    def rule(zs):
        calls.append("dual" if any(isinstance(v, gm.HyperDual) for v in zs) else "plain")
        return f.rule(zs)

    return dataclasses.replace(f, rule=rule, validate_on_init=False), calls


class TestFReadFromTheDualPass:
    @pytest.mark.parametrize("name", ["fs-to-poincare", "fs2-to-ball"])
    def test_a_density_stencil_calls_f_m_times_all_dual(self, name):
        # f(z) is the value slot of the Jacobian's first pass: one Y_field
        # stencil evaluation makes the m dual passes and no plain f call
        p = zoo.build_entry(name).obj
        f, calls = counted_map(p.f)
        P = BundlePoint.make(f.source.sample(np.random.default_rng(3), 0.5), np.ones(f.m))
        diffops.wirtinger_hessian(mp.Y_field(f, p.h, p.g, P.chart_index), P.combined())
        assert calls == ["dual"] * f.m

    def test_the_probe_makes_no_plain_f_call(self):
        # the lattice's f(z) and the argmax's come from their Jacobians' dual
        # passes: m for the lattice stack, m at the argmax
        p = zoo.build_entry("fs2-to-ball").obj
        f, calls = counted_map(p.f)
        zs, Ws = verify._probe_grid(p)
        verify.maximum_principle_probe(f, p.h, p.g, zs, Ws)
        assert calls == ["dual"] * (2 * f.m)


def y1(f, h, g, Q):
    """Y1 at Q = (z, [X]) through the field the S2 suite differentiates."""
    return np.real(mp.Y1_field(f, h, g, Q.chart_index)(Q.combined()))


def y2(f, h, g, R):
    """Y2 at R = (z, [W], [X]) through the field the S3 suite differentiates."""
    return np.real(mp.Y2_field(f, h, g, R.P.chart_index, R.Q.chart_index)(R.combined()))


class TestY1Y2:
    def test_y1_values(self, flat1, flat2):
        f = mp.ChartedMap(flat1.chart, flat2.chart, lambda z: (z[0], 2 * z[0]),
                          holomorphic=True, name="(z,2z)")
        Q = BundlePoint.make([0.2], [0.0, 1.0])    # X = e_2
        assert y1(f, flat1, flat2, Q) == pytest.approx(4.0, abs=1e-10)
        fid = identity_map(flat2, flat2)
        Q2 = BundlePoint.make([0.1, 0.1], [1.0, 0.0])
        assert y1(fid, flat2, flat2, Q2) == pytest.approx(1.0, abs=1e-10)

    def test_y1_scale_invariance(self, fs1, fs2):
        f = mp.ChartedMap(fs1.chart, fs2.chart, lambda z: (z[0], 0.3 * z[0] ** 2),
                          holomorphic=True)
        z = [0.2 - 0.3j]
        X = np.array([0.5, 1.0 + 0.5j])
        vals = [y1(f, fs1, fs2, BundlePoint.make(z, lam * X, chart_index=1))
                for lam in (1.0, 3.0, 1j)]
        assert np.ptp(vals) < 1e-10

    def test_y2_values(self, flat1, flat2):
        fid = identity_map(flat2, flat2)
        R = mp.NestedBundlePoint.make([0.1, 0.2], [1.0, 0.0], [1.0, 0.0])
        assert y2(fid, flat2, flat2, R) == pytest.approx(1.0, abs=1e-10)
        f2 = mp.ChartedMap(flat1.chart, flat1.chart, lambda z: (2 * z[0],),
                           holomorphic=True)
        R1 = mp.NestedBundlePoint.make([0.3], [1.0], [1.0])
        assert y2(f2, flat1, flat1, R1) == pytest.approx(4.0, abs=1e-10)

    def test_y2_biscale_invariance(self, flat2):
        fid = identity_map(flat2, flat2)
        z = [0.1, -0.2j]
        W = np.array([1.0, 0.4 + 0.1j])
        X = np.array([0.3 - 0.2j, 1.0])
        vals = []
        for lw in (1.0, 2j):
            for lx in (1.0, 0.5 - 0.5j):
                R = mp.NestedBundlePoint.make(z, lw * W, lx * X)
                vals.append(y2(fid, flat2, flat2, R))
        assert np.ptp(vals) < 1e-10


class TestConformalY:
    """Y_phi = e^phi Y through ``Y_field(weight=phi)``, the field S03
    differentiates, against the pointwise ``generalized_Y``."""

    @staticmethod
    def y_phi(f, h, g, P, phi):
        return np.real(mp.Y_field(f, h, g, P.chart_index, weight=phi)(P.combined()))

    def test_zero_weight(self, fs1, poincare1):
        f = identity_map(fs1, poincare1)
        P = BundlePoint.make([0.2], [1.0])
        y = mp.generalized_Y(f, fs1, poincare1, P)
        assert self.y_phi(f, fs1, poincare1, P, lambda z, W: 0.0) == \
            pytest.approx(y, rel=1e-14)

    def test_log2_weight_doubles(self, fs1, poincare1):
        f = identity_map(fs1, poincare1)
        P = BundlePoint.make([0.2], [1.0])
        y = mp.generalized_Y(f, fs1, poincare1, P)
        assert self.y_phi(f, fs1, poincare1, P, lambda z, W: np.log(2.0)) == \
            pytest.approx(2 * y, rel=1e-12)

    def test_constant_map_stays_zero(self, fs1, poincare1):
        f = mp.ChartedMap(fs1.chart, poincare1.chart, lambda z: (0.1 + 0j,),
                          holomorphic=True)
        P = BundlePoint.make([0.2], [1.0])
        assert self.y_phi(f, fs1, poincare1, P, lambda z, W: 5.0) == \
            pytest.approx(0.0, abs=1e-14)

    def test_field_route_matches_pointwise_route(self, fs1, poincare1):
        f = identity_map(fs1, poincare1)
        phi = lambda zs, Ws: 0.3 * gm.real(zs[0]) + 0.1 * gm.abs2(zs[0])
        P = BundlePoint.make([0.25 - 0.15j], [1.0])
        direct = np.exp(np.real(phi(tuple(P.z), tuple(P.W_affine)))) * \
            mp.generalized_Y(f, fs1, poincare1, P)
        assert self.y_phi(f, fs1, poincare1, P, phi) == pytest.approx(direct, rel=1e-12)


class TestHarmonicResiduals:
    def test_constant_map(self, fs1, euclidean2):
        f = mp.ChartedMap(fs1.chart, euclidean2.chart, lambda z: (0.3, -0.1),
                          name="const")
        res = mp.pluriharmonic_residual(f, euclidean2, [0.2])
        assert np.max(np.abs(res)) < 1e-14

    def test_holomorphic_into_flat(self, flat1):
        chart3 = RealChart(dim=3, radius=[9.0] * 3)
        eucl3 = RiemannianMetricField(chart3, lambda x: np.eye(3).tolist(), name="e3")
        f = mp.ChartedMap(flat1.chart, chart3,
                          lambda z: (gm.real(z[0] ** 2), gm.imag(z[0] ** 2),
                                     gm.real(z[0])), name="holo-parts")
        res = mp.pluriharmonic_residual(f, eucl3, [0.4 - 0.1j])
        assert np.max(np.abs(res)) < 1e-9

    def test_identity_into_poincare_riem(self, flat1):
        chart2 = RealChart(dim=2, radius=[0.9, 0.9])
        poinr = RiemannianMetricField(
            chart2, conformal_real_rule(2, lambda r2: 2 / (1 - r2) ** 2),
            name="poincare-riem")
        f = mp.ChartedMap(flat1.chart, chart2,
                          lambda z: (gm.real(z[0]), gm.imag(z[0])), name="realify")
        res = mp.pluriharmonic_residual(f, poinr, [0.3 - 0.2j])
        assert np.max(np.abs(res)) < 1e-6

    def test_chern_connection_variant(self, fs1, poincare1):
        # holomorphic maps into complex targets are pluri-harmonic for the
        # Chern-connection definition
        f = identity_map(fs1, poincare1)
        res = mp.pluriharmonic_residual(f, poincare1, [0.25 + 0.1j])
        assert np.max(np.abs(res)) < 1e-8

    def test_hermitian_harmonic_trace(self, fs1):
        chart1r = RealChart(dim=1, radius=[9.0])
        eucl1 = RiemannianMetricField(chart1r, lambda x: [[1.0]], name="e1")
        f = mp.ChartedMap(fs1.chart, chart1r, lambda z: (gm.real(z[0]),),
                          name="re")
        v = mp.hermitian_harmonic_residual(f, fs1, eucl1, [0.3 + 0.2j])
        assert np.max(np.abs(v)) < 1e-10

    def test_hermitian_harmonic_without_pluriharmonic(self, flat2):
        # |z1|^2 - |z2|^2 has f_{1 1bar} = -f_{2 2bar} = 1: the trace against
        # the flat metric vanishes while the full residual does not
        chart1r = RealChart(dim=1, radius=[9.0])
        eucl1 = RiemannianMetricField(chart1r, lambda x: [[1.0]], name="e1")
        f = mp.ChartedMap(flat2.chart, chart1r,
                          lambda z: (gm.abs2(z[0]) - gm.abs2(z[1]),),
                          name="saddle")
        z = [0.2 + 0.1j, -0.3j]
        trace = mp.hermitian_harmonic_residual(f, flat2, eucl1, z)
        full = mp.pluriharmonic_residual(f, eucl1, z)
        assert np.max(np.abs(trace)) < 1e-10
        assert np.max(np.abs(full)) > 0.9


class TestConstraintAndHatC:
    def test_a_nan_residual_is_an_error_not_a_no(self):
        # the Levi-Civita connection of g comes from an fd jet; NaN there
        # made the residual NaN, which read as "not pluri-harmonic".  The
        # jet's centre column is g at the point, checked first: NaN there
        # is the metric's own error, NaN beside it the residual's
        base = zoo.build_entry("pluri-poincare").obj
        z = base.f.source.center
        for wrap, match in ((nan_off_centre, "pluri-harmonic residual of map .* is not finite"),
                            (nan_on_arrays, "has non-finite entries at")):
            g = dataclasses.replace(base.g, rule=wrap(base.g.rule))
            for check in (mp.is_pluriharmonic, mp.constraint_D_check):
                with pytest.raises(ValidationError, match=match):
                    check(base.f, g, z)

    def test_euclidean_target_zero(self, flat1):
        chart3 = RealChart(dim=3, radius=[9.0] * 3)
        eucl3 = RiemannianMetricField(chart3, lambda x: np.eye(3).tolist(), name="e3")
        f = mp.ChartedMap(flat1.chart, chart3,
                          lambda z: (gm.real(z[0] ** 2), gm.imag(z[0] ** 2),
                                     gm.real(z[0])))
        out = mp.constraint_D_check(f, eucl3, [0.3])
        assert out["applicable"]
        assert out["max_residual"] < 1e-12
        assert mp.hatC_value(f, flat1, eucl3, [0.3]) == pytest.approx(0.0, abs=1e-12)

    def test_pluriharmonic_into_poincare(self, flat1):
        chart2 = RealChart(dim=2, radius=[0.9, 0.9])
        poinr = RiemannianMetricField(
            chart2, conformal_real_rule(2, lambda r2: 2 / (1 - r2) ** 2),
            name="poincare-riem")
        f = mp.ChartedMap(flat1.chart, chart2,
                          lambda z: (gm.real(z[0]), gm.imag(z[0])))
        out = mp.constraint_D_check(f, poinr, [0.2 + 0.3j])
        assert out["applicable"]
        assert out["max_residual"] < 1e-6
        assert abs(mp.hatC_value(f, flat1, poinr, [0.2 + 0.3j])) < 1e-6

    def test_not_applicable_reported(self, flat1):
        chart2 = RealChart(dim=2, radius=[2.0, 2.0])
        # curved target and a non-pluri-harmonic smooth map
        hyp = RiemannianMetricField(
            RealChart(dim=2, radius=[0.9, 0.9]),
            conformal_real_rule(2, lambda r2: 4 / (1 - r2) ** 2), name="hyp")
        f = mp.ChartedMap(flat1.chart, hyp.chart,
                          lambda z: (0.3 * gm.abs2(z[0]), gm.real(z[0])),
                          name="bump")
        out = mp.constraint_D_check(f, hyp, [0.4 + 0.1j])
        assert not out["applicable"]
        assert out["max_residual"] is None

    def test_hatC_nonpositive_into_hyperbolic(self, flat1):
        hyp = RiemannianMetricField(
            RealChart(dim=2, radius=[0.9, 0.9]),
            conformal_real_rule(2, lambda r2: 4 / (1 - r2) ** 2), name="hyp")
        rng = np.random.default_rng(6)
        f = mp.ChartedMap(flat1.chart, hyp.chart,
                          lambda z: (0.3 * gm.abs2(z[0]), gm.real(z[0]) * 0.5),
                          name="bump")
        for _ in range(5):
            z = flat1.chart.sample(rng, 0.4)
            assert mp.hatC_value(f, flat1, hyp, z) <= 1e-8
