import dataclasses
import itertools
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from projcurv import dual as gm
from projcurv import verify as V
from projcurv import maps as maps_mod
from projcurv import zoo
from projcurv.bundle import BundlePoint, TautologicalMetric
from projcurv.charts import ComplexChart
from projcurv.errors import ChartDomainError, NotApplicable, ValidationError
from projcurv.fields import HermitianMetricField
from projcurv.maps import ChartedMap, covector_metric_field, generalized_Y

from conftest import (fs_rule, identity_map, nan_off_centre, nan_on_arrays, nan_on_right_half,
                      pole_at)


def pair(name):
    return zoo.build_entry(name).obj


def sample_points(p, seed, count):
    return V._draw_points("S1", p, np.random.default_rng(seed), count)


# the suites with sample points: all but the S5 probe
SAMPLED = [tag for tag, row in V.SUITES.items() if row.point is not None]

OK, HOLO, FN, RIEM = ("", "requires a holomorphic map", "requires a holomorphic function to C",
                      "requires a Riemannian target")
# why each suite of V.SUITE_TAGS does not apply to each zoo pair ("" where it
# does), recorded before the suites became rows of V.SUITES
ZOO_ROUTING = {
    "flat-identity": (OK, FN, OK, OK, OK, OK, OK, RIEM, RIEM, RIEM, OK, RIEM, OK, OK),
    "flat-torus-identity": (OK, OK, OK, OK, OK, OK, OK, RIEM, RIEM, RIEM, OK, RIEM, OK, OK),
    "fs-to-poincare": (OK, OK, OK, OK, OK, OK, OK, RIEM, RIEM, RIEM, OK, RIEM, OK, OK),
    "disc-square-to-poincare": (OK, OK, OK, OK, OK, OK, OK, RIEM, RIEM, RIEM, OK, RIEM, OK, OK),
    "fs2-to-ball": (OK, FN, OK, OK, OK, OK, OK, RIEM, RIEM, RIEM, OK, RIEM, OK, OK),
    "hopf-function": (OK, OK, OK, OK, OK, OK, OK, RIEM, RIEM, RIEM, OK, RIEM, OK, OK),
    "fs-line-in-plane": (OK, FN, OK, OK, OK, OK, OK, RIEM, RIEM, RIEM, OK, RIEM, OK, OK),
    "realpart-flat": (HOLO, FN, HOLO, HOLO, HOLO, HOLO, HOLO, OK, OK, OK, HOLO, OK, OK, HOLO),
    "pluri-flat3": (HOLO, FN, HOLO, HOLO, HOLO, HOLO, HOLO, OK, OK, OK, HOLO, OK, OK, HOLO),
    "pluri-poincare": (HOLO, FN, HOLO, HOLO, HOLO, HOLO, HOLO, OK, OK, OK, HOLO, OK, OK, HOLO),
    "pluri-m2-flat": (HOLO, FN, HOLO, HOLO, HOLO, HOLO, HOLO, OK, OK, OK, HOLO, OK, OK, HOLO),
    "pluri-sphere-slice": (HOLO, FN, HOLO, HOLO, HOLO, HOLO, HOLO, OK, OK, OK, HOLO, OK, OK,
                           HOLO),
}


class TestSuiteTable:
    def test_suite_tags_keep_their_order(self):
        # run_suite seeds each suite's samples with its index in SUITE_TAGS:
        # a reordered table would silently redraw every suite's samples
        assert V.SUITE_TAGS == ("S1", "S_minus1", "S01", "S02", "S2", "S3", "S03", "S11",
                                "hessian", "hessian2", "exact_holo", "exact_pluri",
                                "W_psd", "S5_probe")
        # and each row keeps its band
        bands = {tag: row.band for tag, row in V.SUITES.items()}
        assert [tag for tag, band in bands.items() if band is V._EIGEN] == \
            ["S1", "S_minus1", "S01", "S2", "S3", "S03", "S11", "hessian"]
        assert [tag for tag, band in bands.items() if band is V._TRACE] == ["S02", "hessian2"]
        assert [tag for tag, band in bands.items() if band is V._EXACT] == \
            ["exact_holo", "exact_pluri"]

    def test_zoo_routing(self):
        # a changed routing predicate fails here by pair and suite
        assert set(ZOO_ROUTING) == set(zoo.catalog_names()["map-pair"])
        applies = []
        for name, reasons in ZOO_ROUTING.items():
            p = pair(name)
            for suite, why in zip(V.SUITE_TAGS, reasons, strict=True):
                assert V.suite_applicable(suite, p) == (not why, why), (name, suite)
                applies.append(not why)
        assert (applies.count(True), applies.count(False)) == (92, 76)

    def test_routing_reasons_no_zoo_pair_gives(self, fs1, poincare1):
        # a holomorphic constant into a Riemannian target, and a map into a
        # complex target that is not holomorphic
        riemannian = pair("pluri-poincare")
        const = dataclasses.replace(riemannian, f=ChartedMap(
            riemannian.h.chart, riemannian.g.chart, lambda z: (0.1, 0.2), holomorphic=True,
            name="const"))
        conj = V.PairContext(ChartedMap(fs1.chart, poincare1.chart,
                                        lambda z: (0.5 * gm.conj(z[0]),), name="conj"),
                             fs1, poincare1)
        for p, suite, why in ((const, "S1", "requires a complex target"),
                              (const, "W_psd", OK),
                              (conj, "S11", RIEM),
                              (conj, "W_psd", "requires holomorphic or pluri-harmonic input")):
            assert V.suite_applicable(suite, p) == (not why, why), (p.f.name, suite)
        for bad in ("S99", ["S1"], None):
            with pytest.raises(ValidationError, match="unknown suite"):
                V.suite_applicable(bad, const)


class TestWForm:
    def test_constant_map_zero_form(self, fs1, poincare1):
        f = ChartedMap(fs1.chart, poincare1.chart, lambda z: (0.2 + 0j,),
                       holomorphic=True)
        P = BundlePoint.make([0.1], [1.0])
        form = V.assemble_W_form(f, fs1, poincare1, P)
        assert np.max(np.abs(form.matrix)) < 1e-14

    def test_flat_identity_psd_and_rank(self, flat2):
        f = identity_map(flat2, flat2)
        P = BundlePoint.make([0.1, 0.2j], [1.0, 0.4])
        form = V.assemble_W_form(f, flat2, flat2, P)
        assert form.min_eigenvalue() >= -1e-12
        # Gram matrix of n = 2 vectors in dimension 3
        assert np.linalg.matrix_rank(form.matrix, tol=1e-10) <= 2

    def test_square_map_psd(self, flat1):
        f = ChartedMap(flat1.chart, flat1.chart, lambda z: (z[0] ** 2,),
                       holomorphic=True)
        P = BundlePoint.make([0.3], [1.0])
        form = V.assemble_W_form(f, flat1, flat1, P)
        assert form.min_eigenvalue() >= -1e-8

    def test_nonholomorphic_map_into_complex_target_rejected(self, fs1, poincare1):
        f = ChartedMap(fs1.chart, poincare1.chart,
                       lambda z: (0.5 * gm.conj(z[0]),), name="conj")
        P = BundlePoint.make([0.1], [1.0])
        with pytest.raises(ValidationError, match="needs a holomorphic map"):
            V.assemble_W_form(f, fs1, poincare1, P)

    def test_psd_on_zoo_pairs(self):
        for name in ("fs-to-poincare", "fs2-to-ball", "pluri-poincare",
                     "pluri-flat3"):
            p = pair(name)
            for P in sample_points(p, 31, 5):
                form = V.assemble_W_form(p.f, p.h, p.g, P)
                assert form.min_eigenvalue() >= -1e-8, name
                # W_psd's residual is the smallest eigenvalue of that form
                out = V.evaluate_suite("W_psd", p.f, p.h, p.g, [P])[0]
                assert out["min_eigenvalue"] == form.min_eigenvalue(), name


class TestExactIdentity:
    @pytest.mark.parametrize("name", ["flat-identity", "fs-to-poincare",
                                      "fs2-to-ball", "hopf-function",
                                      "disc-square-to-poincare"])
    def test_holomorphic_catalog(self, name):
        p = pair(name)
        for P in sample_points(p, 17, 6):
            out = V.evaluate_suite("exact_holo", p.f, p.h, p.g, [P])[0]
            assert out["residual"] <= 1e-4, (name, out["residual"])

    @pytest.mark.parametrize("name", ["pluri-flat3", "pluri-poincare",
                                      "pluri-m2-flat", "pluri-sphere-slice"])
    def test_pluriharmonic_catalog(self, name):
        p = pair(name)
        for P in sample_points(p, 19, 6):
            out = V.evaluate_suite("exact_pluri", p.f, p.h, p.g, [P])[0]
            assert out["residual"] <= 1e-4, (name, out["residual"])

    def test_weighted_identity(self):
        p = pair("fs-to-poincare")

        def phi(zs, Ws):
            return 0.3 * gm.real(zs[0]) + 0.1 * gm.abs2(zs[0])

        for P in sample_points(p, 23, 3):
            out = V.evaluate_suite("exact_holo", p.f, p.h, p.g, [P], weight=phi)[0]
            assert out["residual"] <= 1e-4

    def test_type_routing(self):
        p = pair("pluri-poincare")
        P = sample_points(p, 29, 1)[0]
        with pytest.raises(NotApplicable):
            V.evaluate_suite("exact_holo", p.f, p.h, p.g, [P])

    def test_exact_holo_on_riemannian_target_not_applicable(self):
        # a constant map is holomorphic; the Riemannian target alone rules
        # exact_holo out, before any Hessian is taken (it used to raise
        # ValidationError from the W form after computing the LHS)
        p = pair("pluri-poincare")
        f = ChartedMap(p.h.chart, p.g.chart, lambda z: (0.1, 0.2),
                       holomorphic=True, name="const")
        P = sample_points(p, 29, 1)[0]
        with pytest.raises(NotApplicable, match="complex target"):
            V.evaluate_suite("exact_holo", f, p.h, p.g, [P])


class TestFormInequalities:
    @pytest.mark.parametrize("suite,name", [
        ("S1", "flat-identity"), ("S1", "fs-to-poincare"), ("S1", "fs2-to-ball"),
        ("S1", "hopf-function"), ("S_minus1", "hopf-function"),
        ("S01", "fs-to-poincare"), ("S01", "fs2-to-ball"),
        ("S01", "disc-square-to-poincare"), ("S01", "hopf-function"),
        ("S2", "fs-to-poincare"), ("S2", "fs2-to-ball"),
        ("S3", "fs2-to-ball"), ("S3", "disc-square-to-poincare"),
        ("S03", "fs-to-poincare"),
        ("S11", "pluri-poincare"), ("S11", "pluri-flat3"),
        ("hessian", "pluri-poincare"), ("hessian", "pluri-m2-flat"),
    ])
    def test_inequality_band(self, suite, name):
        p = pair(name)
        rng = np.random.default_rng(41)
        for _ in range(5):
            pt = V._draw_points(suite, p, rng, 1)[0]
            out = V.evaluate_suite(suite, p.f, p.h, p.g, [pt],
                                   V._default_phi if suite == "S03" else None)[0]
            assert out["min_eigenvalue"] >= -1e-6 * out["scale"], (suite, name)

    def test_s1_flat_identity_equality(self, flat2):
        # both sides coincide with the tautological term; residual is zero
        f = identity_map(flat2, flat2)
        P = BundlePoint.make([0.1, -0.2j], [1.0, 0.5 + 0.2j])
        out = V.evaluate_suite("S1", f, flat2, flat2, [P])[0]
        assert abs(out["min_eigenvalue"]) < 1e-8

    def test_constant_map_all_zero(self, fs1, poincare1):
        f = ChartedMap(fs1.chart, poincare1.chart, lambda z: (0.1 + 0j,),
                       holomorphic=True)
        P = BundlePoint.make([0.2], [1.0])
        for suite in ("S1", "S03"):
            out = V.evaluate_suite(suite, f, fs1, poincare1, [P],
                                   V._default_phi if suite == "S03" else None)[0]
            assert out["min_eigenvalue"] >= -1e-10

    def test_decomposition_matches_curvature_term(self):
        # LHS - (taut term) - W/H reproduces exactly the curvature term
        p = pair("fs-to-poincare")
        for P in sample_points(p, 43, 4):
            out = V.evaluate_suite("S1", p.f, p.h, p.g, [P])[0]
            Wform = V.assemble_W_form(p.f, p.h, p.g, P)
            H = TautologicalMetric(p.h).H_value(P)
            resid = out["residual_form"].matrix - Wform.matrix / H
            assert np.max(np.abs(resid)) < 1e-5

    def test_s03_zero_weight_matches_s1(self):
        p = pair("fs-to-poincare")
        for P in sample_points(p, 47, 3):
            a = V.evaluate_suite("S1", p.f, p.h, p.g, [P])[0]
            b = V.evaluate_suite("S03", p.f, p.h, p.g, [P], weight=lambda zs, Ws: 0.0)[0]
            diff = np.max(np.abs(a["residual_form"].matrix
                                 - b["residual_form"].matrix))
            assert diff < 1e-10

    def test_s11_matches_s1_after_complexification(self, fs1):
        # holomorphic identity into the Poincare disc, run through both the
        # complex route (S1) and the realified route (S11)
        src = HermitianMetricField(ComplexChart(dim=1, radius=[0.5]), fs_rule(1),
                                   name="fs")
        cplx = pair("fs-to-poincare")
        real = pair("pluri-poincare")
        rng = np.random.default_rng(53)
        for _ in range(3):
            z = src.chart.sample(rng, 0.5)
            P = BundlePoint.make(z, [1.0])
            ya = generalized_Y(cplx.f, cplx.h, cplx.g, P)
            yb = generalized_Y(real.f, real.h, real.g, P)
            assert ya == pytest.approx(yb, rel=1e-10)
            a = V.evaluate_suite("S1", cplx.f, cplx.h, cplx.g, [P])[0]
            b = V.evaluate_suite("S11", real.f, real.h, real.g, [P])[0]
            diff = np.max(np.abs(a["residual_form"].matrix
                                 - b["residual_form"].matrix))
            assert diff < 1e-5


class TestBackendsOnDensityFields:
    # the density fields nest the dual backend (the inner Jacobian runs on
    # outer-seeded points); both backends must still agree
    @pytest.mark.parametrize("name", ["fs-to-poincare", "fs2-to-ball",
                                      "disc-square-to-poincare",
                                      "pluri-poincare"])
    def test_y_field_cross_check(self, name):
        from projcurv import diffops
        from projcurv.maps import Y_field
        p = pair(name)
        P = sample_points(p, 61, 1)[0]
        field = Y_field(p.f, p.h, p.g, P.chart_index)
        assert diffops.cross_check(field, P.combined()) <= 1e-5

    def test_y1_and_u_field_cross_check(self):
        from projcurv import diffops
        from projcurv.maps import Y1_field, u_field
        p = pair("fs2-to-ball")
        rng = np.random.default_rng(62)
        Q = V._draw_points("S2", p, rng, 1)[0]
        f1 = Y1_field(p.f, p.h, p.g, Q.chart_index)
        assert diffops.cross_check(f1, np.concatenate([Q.z, Q.w])) <= 1e-5
        fu = u_field(p.f, p.h, p.g)
        assert diffops.cross_check(fu, p.f.source.sample(rng, 0.4)) <= 1e-5


class TestHigherDimension:
    def _m3_triple(self):
        from projcurv.fields import HermitianMetricField
        ch3 = ComplexChart(dim=3, radius=[0.9] * 3)
        fs3 = HermitianMetricField(ch3, fs_rule(3), name="fs3")
        tch3 = ComplexChart(dim=3, radius=[4.0] * 3)
        flat3 = HermitianMetricField(tch3, lambda z: np.eye(3).tolist(),
                                     name="flat3")
        A = np.array([[1.0, 0.3j, 0.0], [0.1, -0.8, 0.2], [0.0, 0.4j, 1.1]])
        f = ChartedMap(ch3, tch3,
                       lambda z: tuple(sum(A[i, a] * z[a] for a in range(3))
                                       for i in range(3)),
                       holomorphic=True, name="lin3")
        return f, fs3, flat3

    def test_m3_exact_identity_and_inequality(self):
        f, fs3, flat3 = self._m3_triple()
        rng = np.random.default_rng(63)
        for _ in range(2):
            P = BundlePoint.make(fs3.chart.sample(rng, 0.4),
                                 rng.standard_normal(3) + 1j * rng.standard_normal(3))
            out = V.evaluate_suite("exact_holo", f, fs3, flat3, [P])[0]
            assert out["residual"] <= 1e-4
            ineq = V.evaluate_suite("S1", f, fs3, flat3, [P])[0]
            assert ineq["min_eigenvalue"] >= -1e-6 * ineq["scale"]
            assert ineq["residual_form"].dim == 5   # combined (z, w) chart


class TestTraceInequalities:
    @pytest.mark.parametrize("suite,name", [
        ("S02", "fs-to-poincare"), ("S02", "fs2-to-ball"),
        ("hessian2", "pluri-poincare"), ("hessian2", "pluri-m2-flat"),
    ])
    def test_trace_band(self, suite, name):
        p = pair(name)
        rng = np.random.default_rng(59)
        for _ in range(5):
            z = p.f.source.sample(rng, 0.5)
            out = V.evaluate_suite(suite, p.f, p.h, p.g, [z])[0]
            assert out["residual"] >= -1e-6 * out["scale"]

    def test_flat_identity_zero(self, flat2):
        f = identity_map(flat2, flat2)
        out = V.evaluate_suite("S02", f, flat2, flat2, [[0.1, 0.2]])[0]
        assert out["residual"] == pytest.approx(0.0, abs=1e-10)


class TestProbe:
    def test_constant_map_vacuous(self, fs1, poincare1):
        f = ChartedMap(fs1.chart, poincare1.chart, lambda z: (0.1 + 0j,),
                       holomorphic=True)
        zs = [[0.1 * k - 0.2] for k in range(5)]
        out = V.maximum_principle_probe(f, fs1, poincare1, zs, [[1.0]])
        assert out["status"] == "vacuous"

    @pytest.mark.parametrize("zs, Ws, match", [
        ([], [[1.0, 0.0]], "nonempty"),
        ([[0.1, 0.2]], [], "nonempty"),
        ([[0.1, 0.2]], [[1.0, 0.0], [0.0, 0.0]], "nonzero"),
    ])
    def test_empty_or_zero_fiber_rejected(self, zs, Ws, match):
        p = pair("fs2-to-ball")
        with pytest.raises(ValidationError, match=match):
            V.maximum_principle_probe(p.f, p.h, p.g, zs, Ws)

    def test_fs_to_poincare_contradiction_shape(self):
        p = pair("fs-to-poincare")
        out = V.maximum_principle_probe(p.f, p.h, p.g, *V._probe_grid(p),
                                        compact=p.compact)
        assert out["pattern"] == "contradiction-shaped"
        assert out["term1"] > 0
        assert out["term2"] < 0
        assert "non-compact" in out["conclusion"]

    def test_flat_torus_degenerate(self):
        p = pair("flat-torus-identity")
        out = V.maximum_principle_probe(p.f, p.h, p.g, *V._probe_grid(p),
                                        compact=p.compact)
        assert out["pattern"] == "degenerate"
        assert abs(out["term1"]) < 1e-8
        assert abs(out["term2"]) < 1e-8

    def test_grouped_argmax_matches_strict_scan(self):
        # Y is constant on flat-identity, so every grid point ties: the first
        # one must win, as in a strict-max scan over z-major x W order
        p = pair("flat-identity")
        zs, Ws = V._probe_grid(p)
        best, best_val = None, -np.inf
        for z in zs:
            for W in Ws:
                P = BundlePoint.make(z, W)
                val = generalized_Y(p.f, p.h, p.g, P)
                if val > best_val:
                    best, best_val = P, val
        out = V.maximum_principle_probe(p.f, p.h, p.g, zs, Ws, compact=p.compact)
        assert np.array_equal(out["argmax"].z, best.z)
        assert np.array_equal(out["argmax"].W, best.W)
        assert np.array_equal(best.z, zs[0]) and np.array_equal(best.W, Ws[0])
        assert out["y_max"] == best_val

    @pytest.mark.parametrize("name", zoo.catalog_names()["map-pair"] + ("m3",))
    def test_grid_is_the_product_lattice(self, name):
        # the lattice as itertools.product over (re_1..re_m, im_1..im_m) built it
        if name == "m3":
            chart = ComplexChart(dim=3, center=[0.1, -0.2j, 0.3 + 0.1j],
                                 radius=[0.4, 0.7, 0.25])
            p = SimpleNamespace(f=SimpleNamespace(source=chart))
        else:
            p = pair(name)
            chart = p.f.source
        m = chart.dim
        axes = [np.linspace(-r, r, V.PROBE_GRID_SIZE) for r in chart.radius * 0.55]
        expected = np.array([chart.center + np.array(c[:m]) + 1j * np.array(c[m:])
                             for c in itertools.product(*axes * 2)])
        zs, _ = V._probe_grid(p)
        assert zs.dtype == expected.dtype and zs.shape == expected.shape
        assert zs.tobytes() == expected.tobytes()

    def test_grid_is_kept_on_the_pair(self):
        # built once per pair, read-only, and equal to _probe_grid's arrays
        p = pair("fs2-to-ball")
        grid = p.probe_grid
        assert p.probe_grid is grid
        for kept, built in zip(grid, V._probe_grid(p)):
            assert not kept.flags.writeable
            assert kept.tobytes() == built.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            grid[0][0] = 0
        # a pair made from it builds its own grid, for its own source chart
        same = dataclasses.replace(p, f=dataclasses.replace(p.f))
        assert same.probe_grid is not grid
        assert same.probe_grid[0].tobytes() == grid[0].tobytes()
        chart = ComplexChart(dim=2, center=[0.1, -0.1j], radius=[0.3, 0.2])
        other = dataclasses.replace(
            p, f=ChartedMap(chart, p.f.target, p.f.rule, holomorphic=True),
            h=HermitianMetricField(chart, p.h.rule, name="fs2-moved"))
        assert other.probe_grid[0].tobytes() == V._probe_grid(other)[0].tobytes()
        assert not np.array_equal(other.probe_grid[0], grid[0])

    def test_runner_builds_the_grid_once_per_pair(self, monkeypatch):
        built = []
        probe_grid = V._probe_grid
        monkeypatch.setattr(V, "_probe_grid", lambda p: built.append(p) or probe_grid(p))
        p = pair("fs-to-poincare")
        for seed in (0, 1):
            [rep] = V.run_suite(p, ["S5_probe"], seed=seed)
            assert rep.status == "pass"
        assert built == [p]


class TestRunSuite:
    def test_empty_suite_list(self):
        p = pair("flat-identity")
        assert V.run_suite(p, [], samples=3) == []

    def test_flat_identity_all_applicable_pass(self):
        p = pair("flat-identity")
        suites = ["S1", "S_minus1", "S01", "S02", "S2", "S3", "S03",
                  "exact_holo", "W_psd", "S5_probe"]
        reports = V.run_suite(p, suites, samples=3, seed=5)
        by = {r.suite: r for r in reports}
        assert by["S_minus1"].status == "not_applicable"   # n = 2 target
        for s in suites:
            if s == "S_minus1":
                continue
            assert by[s].status == "pass", (s, by[s].message)

    def test_not_applicable_routing(self):
        p = pair("pluri-poincare")
        reports = V.run_suite(p, ["S1", "S11"], samples=2, seed=5)
        assert reports[0].status == "not_applicable"
        assert reports[1].status == "pass"

    @pytest.mark.parametrize("name,routed_out,suite", [
        ("pluri-poincare", ["S1", "S01", "S5_probe", "exact_holo"], "S11"),
        ("fs-to-poincare", ["S11", "hessian", "exact_pluri"], "S1"),
        ("realpart-flat", ["S1", "S2", "S03"], "W_psd")])
    def test_routing_draws_no_randomness(self, name, routed_out, suite):
        # an applicable suite's report is byte for byte the same alone and
        # after suites routed not applicable in the same call
        p = pair(name)
        alone = V.run_suite(p, [suite], samples=3, seed=9)
        after = V.run_suite(p, routed_out + [suite], samples=3, seed=9)
        assert [r.status for r in after[:-1]] == ["not_applicable"] * len(routed_out)
        assert alone[0].status in ("pass", "fail")
        assert json.dumps(after[-1].to_dict(), sort_keys=True) == \
            json.dumps(alone[0].to_dict(), sort_keys=True)

    def test_unknown_suite_rejected(self):
        p = pair("flat-identity")
        with pytest.raises(ValidationError):
            V.run_suite(p, ["S99"], samples=2)

    def test_reproducible_bitwise(self):
        p = pair("fs-to-poincare")
        a = V.run_suite(p, ["S1", "exact_holo"], samples=4, seed=11)
        b = V.run_suite(p, ["S1", "exact_holo"], samples=4, seed=11)
        for ra, rb in zip(a, b):
            assert ra.residuals == rb.residuals
            assert ra.points == rb.points

    def test_workers_do_not_change_results(self):
        p = pair("fs-to-poincare")
        a = V.run_suite(p, ["S1"], samples=4, seed=11, workers=1)
        b = V.run_suite(p, ["S1"], samples=4, seed=11)
        assert a[0].residuals == b[0].residuals
        for workers in (2, 3):
            with pytest.raises(ValidationError, match="workers"):
                V.run_suite(p, ["S1"], samples=4, seed=11, workers=workers)

    @pytest.mark.parametrize("suite", SAMPLED)
    def test_residuals_equal_direct_evaluation(self, suite):
        # every sampled suite, on the first of three pairs it applies to: the
        # runner's residuals, worst sample and worst eigenvector are those of
        # evaluate_suite at each point alone
        p = next(p for p in map(pair, ("fs2-to-ball", "hopf-function", "pluri-m2-flat"))
                 if V.suite_applicable(suite, p)[0])
        row = V.SUITES[suite]
        rep = V.run_suite(p, [suite], samples=3, seed=4)[0]
        rng = np.random.default_rng([4, V.SUITE_TAGS.index(suite)])
        weight = V._default_phi if row.weighted else None
        outs = [V.evaluate_suite(suite, p.f, p.h, p.g, [pt], weight)[0]
                for pt in V._draw_points(suite, p, rng, 3)]
        direct = [out[row.band.key] for out in outs]
        assert rep.status == "pass"
        assert rep.residuals == direct
        worst = max(range(3), key=lambda k: row.band.sign * direct[k])
        assert rep.worst["residual"] == direct[worst]
        assert rep.worst["point"] == rep.points[worst]
        if "residual_form" in outs[worst]:
            vec = np.linalg.eigh(outs[worst]["residual_form"].matrix)[1][:, 0]
            assert rep.worst["eigenvector"] == V._c2l(vec)
        else:
            assert "eigenvector" not in rep.worst

    def test_evaluate_suite_refuses_the_probe_and_unknown_tags(self):
        p = pair("fs-to-poincare")
        P = sample_points(p, 5, 1)[0]
        for suite, points, match in (
                ("S5_probe", [P], "S5_probe has no sample points; call "
                                  "maximum_principle_probe"),
                ("S99", [P], "unknown suite 'S99'"),
                (["S1"], [P], r"unknown suite \['S1'\]")):
            with pytest.raises(ValidationError, match=match):
                V.evaluate_suite(suite, p.f, p.h, p.g, points)
        # no points give no outputs
        assert V.evaluate_suite("S1", p.f, p.h, p.g, []) == []

    def test_suite_error_does_not_erase_other_suites(self):
        # 3 z leaves the target chart: a ChartDomainError used to abort the
        # whole run and lose every report
        base = pair("fs-to-poincare")
        f = ChartedMap(base.h.chart, base.g.chart, lambda z: (3 * z[0],),
                       holomorphic=True, name="triple")
        p = V.PairContext(f=f, h=base.h, g=base.g, name="triple")
        reports = V.run_suite(p, ["S1", "S11", "W_psd"], samples=3, seed=0)
        assert [r.status for r in reports] == ["error", "not_applicable", "error"]
        for rep in (reports[0], reports[2]):
            assert rep.message.startswith("ChartDomainError: "), rep.message
            json.dumps(rep.to_dict())

    RIEMANNIAN_SUITES = ["S11", "hessian", "hessian2", "exact_pluri", "W_psd"]

    def test_map_leaving_a_real_target_chart_is_an_error(self):
        # z -> 5 z (realified) sends the source chart far outside the 0.55
        # target box; the Riemannian curvature used to be evaluated there
        # anyway and every suite reported pass
        base = pair("pluri-poincare")
        f = ChartedMap(base.h.chart, base.g.chart,
                       lambda z: (5 * gm.real(z[0]), 5 * gm.imag(z[0])), name="five")
        p = V.PairContext(f=f, h=base.h, g=base.g, name="five")
        reports = V.run_suite(p, self.RIEMANNIAN_SUITES, samples=2, seed=0)
        assert [r.status for r in reports] == ["error"] * 5
        for rep in reports:
            assert rep.message.startswith("ChartDomainError: "), rep.message
        reports = V.run_suite(base, self.RIEMANNIAN_SUITES, samples=2, seed=0)
        assert [r.status for r in reports] == ["pass"] * 5

    def test_routing_error_is_a_suite_error(self):
        # routing a pluri-harmonic suite evaluates the map; a geometry error
        # raised there belongs to that suite alone
        base = pair("pluri-poincare")

        def rule(z):
            raise ChartDomainError("outside the chart")

        f = ChartedMap(base.h.chart, base.g.chart, rule, name="raises",
                       validate_on_init=False)
        p = V.PairContext(f=f, h=base.h, g=base.g, name="raises")
        reports = V.run_suite(p, ["S11", "S1"], samples=2, seed=0)
        assert [r.status for r in reports] == ["error", "not_applicable"]
        assert reports[0].message == "ChartDomainError: outside the chart"

    def test_non_pluriharmonic_map_is_routed_out_at_every_seed(self):
        # re(z)^2 is smooth but not pluri-harmonic: d^2/dz dzbar = 1/2
        h = zoo.build_entry("flat", {"dim": 1}).obj
        g = zoo.build_entry("euclidean", {"dim": 1}).obj
        f = ChartedMap(h.chart, g.chart, lambda z: (gm.real(z[0]) * gm.real(z[0]),),
                       name="re-squared")
        p = V.PairContext(f=f, h=h, g=g, name="re-squared")
        for seed in (0, 3):
            reports = V.run_suite(p, self.RIEMANNIAN_SUITES, samples=2, seed=seed)
            assert [r.status for r in reports] == ["not_applicable"] * 5
            assert [r.message for r in reports] == (
                ["map is not pluri-harmonic"] * 4
                + ["map is neither holomorphic nor pluri-harmonic"])
        # a pair with another map is a new pair and gets its own decision
        harmonic = ChartedMap(h.chart, g.chart, lambda z: (gm.real(z[0]),),
                              name="real-part")
        q = dataclasses.replace(p, f=harmonic)
        reports = V.run_suite(q, self.RIEMANNIAN_SUITES, samples=2, seed=0)
        assert [r.status for r in reports] == ["pass"] * 5

    def test_pluriharmonic_check_runs_once_per_pair(self, monkeypatch):
        from projcurv import maps
        calls = []
        residual = maps.pluriharmonic_residual

        def counted(*args, **kwargs):
            calls.append(args[2])
            return residual(*args, **kwargs)

        monkeypatch.setattr(maps, "pluriharmonic_residual", counted)
        p = pair("pluri-poincare")
        reports = V.run_suite(p, V.SUITE_TAGS, samples=1, seed=0)
        assert len(calls) == 3
        assert {r.suite for r in reports if r.status == "pass"} >= set(
            self.RIEMANNIAN_SUITES)
        V.run_suite(p, V.SUITE_TAGS, samples=1, seed=3)
        assert len(calls) == 3

    @pytest.mark.parametrize("name,suites", [
        ("fs-to-poincare", ["exact_holo", "S1"]),
        ("pluri-poincare", ["exact_pluri", "S11"])])
    def test_exact_identities_take_df_and_f_once_per_sample(self, monkeypatch,
                                                           name, suites):
        # the W form reuses the curvature term's df and f(z); both used to be
        # evaluated twice per sample (4 Jacobians and 4 values at 2 samples),
        # and f(z) now comes from the Jacobian's dual pass
        p = pair(name)
        p.pluriharmonic       # routing's own map evaluations are not counted
        calls = {"jacobians": 0, "value": 0, "w_form": 0}

        def counting(owner, attr, key):
            original = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        counting(ChartedMap, "jacobians", "jacobians")
        counting(ChartedMap, "value", "value")
        counting(V, "_w_forms", "w_form")
        for suite in suites:
            for key in calls:
                calls[key] = 0
            [rep] = V.run_suite(p, [suite], samples=2, seed=0)
            assert rep.status == "pass"
            assert (calls["jacobians"], calls["value"]) == (2, 0), suite
            # the exact identities take the W forms of both samples (m = 1:
            # one fiber chart, one group) in one stacked pass
            assert calls["w_form"] == (1 if suite.startswith("exact") else 0)

    def test_trace_suites_invert_h_once_per_sample(self, monkeypatch):
        # the trace used to invert h again after the RHS had (4 inverse_up
        # calls at 2 samples for hessian2 against 2 for hessian).  h now
        # comes from the u stencil's centre: one stencil evaluation of h and
        # no plain one, and the trace inverts no more often than the form
        base = pair("pluri-poincare")
        evals = []

        def rule(z):
            evals.append(np.ndim(z[0]))
            return base.h.rule(z)

        p = dataclasses.replace(base, h=dataclasses.replace(base.h, rule=rule))
        p.pluriharmonic
        calls = {"inverse_up": 0, "inv": 0}

        def counting(owner, attr):
            original = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls[attr] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        counting(HermitianMetricField, "inverse_up")
        counting(np.linalg, "inv")
        counts = {}
        for suite in ("hessian", "hessian2"):
            evals.clear()
            calls.update(inverse_up=0, inv=0)
            [rep] = V.run_suite(p, [suite], samples=2, seed=0)
            assert rep.status == "pass"
            assert evals == [1] and calls["inverse_up"] == 0, suite
            counts[suite] = calls["inv"]
        assert counts["hessian2"] == counts["hessian"]


class TestFailClosed:
    def test_nan_residuals_are_errors(self):
        # NaN compares False with every band, so a map that is NaN on half
        # the chart used to pass S1, S01, exact_holo and W_psd
        base = pair("fs-to-poincare")
        f = ChartedMap(base.h.chart, base.g.chart,
                       lambda z: (0.4 * z[0] * nan_on_right_half(z[0]),),
                       holomorphic=True, name="half-nan", validate_on_init=False)
        p = V.PairContext(f=f, h=base.h, g=base.g, name="half-nan")
        suites = ["S1", "S01", "S02", "S2", "S3", "S03", "exact_holo", "W_psd"]
        with np.errstate(invalid="ignore", divide="ignore"):
            reports = V.run_suite(p, suites, samples=6, seed=3)
        for rep in reports:
            assert rep.status == "error", (rep.suite, rep.status)
            bad = [k for k, r in enumerate(rep.residuals) if not np.isfinite(r)]
            assert bad, rep.suite
            assert f"sample {bad[0]}" in rep.message
            json.dumps(rep.to_dict())            # the report still serializes

    @pytest.mark.parametrize("scale", [
        lambda z: np.nan * z,          # NaN everywhere: used to pass as "vacuous"
        nan_on_right_half,             # NaN points used to be skipped by the argmax
    ])
    def test_nan_density_probe_is_error(self, scale):
        base = pair("fs-to-poincare")
        f = ChartedMap(base.h.chart, base.g.chart,
                       lambda z: (0.4 * z[0] * scale(z[0]),),
                       holomorphic=True, name="nan-map", validate_on_init=False)
        p = V.PairContext(f=f, h=base.h, g=base.g, name="nan-map")
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidationError, match="not finite at probe point"):
                V.maximum_principle_probe(f, p.h, p.g, *V._probe_grid(p))
            rep = V.run_suite(p, ["S5_probe"], samples=1, seed=0)[0]
        assert rep.status == "error"
        assert "not finite at probe point z = " in rep.message
        json.dumps(rep.to_dict())

    @pytest.mark.parametrize("side,wrap,error", [
        ("h", nan_on_arrays, r"probe term1 is not finite at the argmax z = \["),
        ("g", nan_on_arrays, r"metric 'poincare-disc' has non-finite entries at \["),
        ("g", nan_off_centre, r"Chern curvature Hermitian-symmetry defect nan at \[")],
        ids=["h-term1", "g-term2", "g-jet"])
    def test_nan_probe_term_is_error(self, side, wrap, error):
        # term1 takes an fd log-H Hessian of h, term2 the Chern tensor of g at
        # f(argmax), both from stencil arrays; a NaN term compared False with
        # both signs and the probe passed as "consistent".  g's value at
        # f(argmax) is the stencil centre and is checked, and a NaN Chern
        # tensor fails its own symmetry check, before term2 is formed.  The
        # metric keeps its values on the probe lattice (h at zs, g at f(zs)),
        # whose NaN would stop the probe before either term
        base = pair("fs-to-poincare")
        metric = getattr(base, side)
        zs, _ = V._probe_grid(base)
        lattice = zs if side == "h" else base.f.jacobians(zs)[2]
        p = dataclasses.replace(base, **{side: dataclasses.replace(
            metric, rule=wrap(metric.rule, spare=lattice))})
        with pytest.raises(ValidationError, match=error):
            V.maximum_principle_probe(p.f, p.h, p.g, *V._probe_grid(p))
        rep = V.run_suite(p, ["S5_probe"], samples=1, seed=0)[0]
        assert rep.status == "error"
        assert rep.message.startswith("ValidationError: ")
        assert re.search(error, rep.message)
        json.dumps(rep.to_dict())

    def test_nan_target_connection_is_a_routing_error(self):
        # a NaN pluri-harmonic residual is not a map that fails to be
        # pluri-harmonic: the suites routed on it are errors, not "not
        # applicable" with exit 0
        base = pair("pluri-poincare")
        # NaN beside the stencil centre: g itself passes its check at f(z)
        p = dataclasses.replace(base, g=dataclasses.replace(
            base.g, rule=nan_off_centre(base.g.rule)))
        reports = V.run_suite(p, ["S11", "W_psd", "S1"], samples=2, seed=0)
        assert [r.status for r in reports] == ["error", "error", "not_applicable"]
        for rep in reports[:2]:
            assert rep.message.startswith(
                "ValidationError: pluri-harmonic residual of map 'realify' is not finite")

    def test_nan_curvature_term_is_not_hermitian(self):
        C = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="target curvature term is not Hermitian"):
            V._require_hermitian(C[None], "target curvature term")

    def test_error_is_not_downgraded_by_later_samples(self):
        rep = V.VerificationReport(suite="S1", pair="p", status="pass", seed=0,
                                   samples=3, tolerances={})
        pt = BundlePoint.make([0.1], [1.0])
        assert V._record_sample(rep, 0, pt, float("nan"), False) is False
        assert V._record_sample(rep, 1, pt, -1.0, True) is True
        assert V._record_sample(rep, 2, pt, float("inf"), False) is False
        assert rep.status == "error"
        assert "sample 0" in rep.message

    def test_raising_sample_keeps_the_others(self):
        # f(z) is NaN at some samples; the target curvature's jet there fails
        # the chart margin (a ChartDomainError, before g is evaluated), the
        # error belongs to that sample, and the finite samples keep their
        # residuals
        base = pair("fs-to-poincare")
        f = ChartedMap(base.h.chart, base.g.chart,
                       lambda z: (0.4 * z[0] * nan_on_right_half(z[0]),),
                       holomorphic=True, name="half-nan", validate_on_init=False)
        p = V.PairContext(f=f, h=base.h, g=base.g, name="half-nan")
        with np.errstate(invalid="ignore"):
            rep = V.run_suite(p, ["S1"], samples=6, seed=3)[0]
        clean = V.run_suite(base, ["S1"], samples=6, seed=3)[0]
        assert rep.status == "error" and len(rep.residuals) == 6
        bad = [k for k, r in enumerate(rep.residuals) if not np.isfinite(r)]
        assert bad and len(bad) < 6
        assert rep.message.startswith(
            "ChartDomainError: point [nan+nanj] is not a finite point of chart poincare-disc ")
        assert f"at sample {bad[0]}, point {rep.points[bad[0]]}" in rep.message
        assert rep.points == clean.points
        assert rep.worst["residual"] in rep.residuals

    def test_a_pole_at_the_point_of_a_dual_pass_names_the_point(self):
        # the W form's Chern Christoffels take one hyper-dual pass of g at
        # f(z) on Python numbers: a pole of g there is a ZeroDivisionError,
        # which gives NaN slots, and the connection's metric check names f(z)
        base = pair("fs2-to-ball")
        rng = np.random.default_rng([0, V.SUITE_TAGS.index("W_psd")])
        [P] = V._draw_points("W_psd", base, rng, 1)
        _, [fz] = V._map_jets(base.f, [P.z])
        p = dataclasses.replace(base, g=dataclasses.replace(
            base.g, rule=pole_at(base.g.rule, fz), validate_on_init=False))
        named = f"metric 'poincare-ball' has non-finite entries at {fz}"
        with pytest.raises(ValidationError) as raised:
            maps_mod.target_christoffels(p.g, fz)
        assert str(raised.value) == named
        [rep] = V.run_suite(p, ["W_psd"], samples=1, seed=0)
        assert rep.status == "error"
        assert rep.message.startswith(f"ValidationError: {named} at sample 0, point ")

    @pytest.mark.parametrize("suite", ["S1", "W_psd", "S5_probe"])
    def test_a_rule_raising_an_arithmetic_error_escapes(self, suite):
        # only a division by zero or an overflow becomes a NaN value; any
        # other ArithmeticError of a rule is a fault that escapes run_suite
        def broken(zs):
            raise ArithmeticError("deliberate")

        base = pair("fs-to-poincare")
        p = dataclasses.replace(base, g=dataclasses.replace(base.g, rule=broken,
                                                            validate_on_init=False))
        with pytest.raises(ArithmeticError, match="deliberate"):
            V.run_suite(p, [suite], samples=2, seed=3)

    def test_a_log_domain_error_is_the_error_of_its_samples_only(self):
        # log(0.05 - re z) is outside its domain where re z >= 0.05: math.log's
        # ValueError used to end the whole run_suite call and lose every
        # finite sample.  Now such a sample is a NaN error, the others keep
        # their residuals, and W_psd reads the same alone and beside S1
        base = pair("fs-to-poincare")
        f = dataclasses.replace(
            base.f, rule=lambda z: (0.5 * z[0] + 0 * gm.log(0.05 - gm.real(z[0])),),
            validate_on_init=False)
        p = dataclasses.replace(base, f=f)
        w_psd, s1 = V.run_suite(p, ["W_psd", "S1"], samples=6, seed=0)
        [alone] = V.run_suite(p, ["W_psd"], samples=6, seed=0)
        for rep, kept in ((w_psd, [0, 1]), (s1, [2, 5]), (alone, [0, 1])):
            assert rep.status == "error"
            assert [k for k, r in enumerate(rep.residuals) if np.isfinite(r)] == kept
            assert rep.message.startswith("ChartDomainError: ")
        np.testing.assert_array_equal(alone.residuals, w_psd.residuals)


class TestCovectorBundle:
    def test_pairing_matrix_sized_by_target(self):
        p = pair("fs-line-in-plane")
        field = covector_metric_field(p.f, p.g)
        assert field.dim == p.f.n == 2
        tm = TautologicalMetric(field)
        assert tm.combined_chart().dim == p.f.m + p.f.n - 1

    def test_s2_s3_on_line_in_plane(self):
        # m = 1 source, n = 2 target: sizing the covector pairing by the base
        # dimension made S2 and S3 raise IndexError or ValueError
        p = pair("fs-line-in-plane")
        for seed in range(4):
            for rep in V.run_suite(p, ["S2", "S3"], samples=2, seed=seed):
                assert rep.status == "pass", (seed, rep.suite, rep.message)
                assert np.all(np.isfinite(rep.residuals))
