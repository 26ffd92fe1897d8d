"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import re
import time

import numpy as np
import pytest

from projcurv import cli, curvature as cv, dual as gm, maps as mp, verify as V, zoo
from projcurv.bundle import (BundlePoint, TautologicalMetric, fiber_integrate,
                             horizontal_curvature_value, pushforward_energy_check,
                             tautological_curvature)
from projcurv.charts import ComplexChart
from projcurv.curvature import hermitian_normal_coordinates
from projcurv.fields import HermitianMetricField


def _report(n, text):
    print(f"\nACCEPTANCE {n:2d}: PASS - {text}")


def _pair(name):
    return zoo.build_entry(name).obj


def _bundle_points(pair, seed, count):
    return V._draw_points("S1", pair, np.random.default_rng(seed), count)


def test_criterion_01_flat_baselines():
    t0 = time.perf_counter()
    flat = zoo.build_entry("flat", {"dim": 2}).obj
    eucl = zoo.build_entry("euclidean", {"dim": 3}).obj
    z = [0.2 + 0.1j, -0.3j]
    x = [0.3, -0.2, 0.5]
    assert np.max(np.abs(cv.chern_curvature(flat, z).array)) < 1e-10
    assert abs(cv.holomorphic_sectional_curvature(flat, z, [1, 2j])) < 1e-10
    assert abs(cv.chern_curvature(flat, z).contract([1, 0], [1, 0], [0, 1], [0, 1])) < 1e-10
    assert np.max(np.abs(cv.levi_civita_christoffels(eucl, x)[1])) < 1e-10
    assert np.max(np.abs(cv.riemann_curvature(eucl, x).array)) < 1e-10
    assert abs(cv.riemannian_sectional_curvature(eucl, x, [1, 0, 0], [0, 1, 0])) < 1e-10
    assert abs(cv.complex_sectional_curvature(eucl, x, [1, 1j, 0], [0, 0, 1])) < 1e-10
    assert cv.key3_check(eucl, x) < 1e-10
    tm = TautologicalMetric(flat)
    P = BundlePoint.make(z, [1.0, 0.4 - 0.2j])
    assert abs(horizontal_curvature_value(tm, P)) < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"flat baselines took {elapsed:.2f}s"
    _report(1, f"all flat curvature operations vanish to 1e-10 ({elapsed:.2f}s)")


def test_criterion_02_constant_curvature_goldens():
    rng = np.random.default_rng(2)
    fs = zoo.build_entry("fubini-study", {"dim": 1}).obj
    poin = zoo.build_entry("poincare-disc").obj
    for _ in range(100):
        v = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        hsc = cv.holomorphic_sectional_curvature(fs, fs.chart.sample(rng, 0.6), v)
        assert hsc == pytest.approx(2.0, abs=1e-6)
        hsc = cv.holomorphic_sectional_curvature(poin, poin.chart.sample(rng, 0.6), v)
        assert hsc == pytest.approx(-2.0, abs=1e-6)
    sph = zoo.build_entry("round-sphere").obj
    hyp = zoo.build_entry("hyperbolic").obj
    for _ in range(100):
        X, Y = rng.standard_normal(2), rng.standard_normal(2)
        if abs(X[0] * Y[1] - X[1] * Y[0]) < 0.05:
            continue
        K = cv.riemannian_sectional_curvature(sph, sph.chart.sample(rng, 0.6), X, Y)
        assert K == pytest.approx(1.0, abs=1e-5)
        K = cv.riemannian_sectional_curvature(hyp, hyp.chart.sample(rng, 0.6), X, Y)
        assert K == pytest.approx(-1.0, abs=1e-5)
    _report(2, "FS HSC = +2, Poincare HSC = -2 (1e-6); sphere K = +1, "
               "hyperbolic K = -1 (1e-5) at 100 seeded points")


def test_criterion_03_fubini_study_moment_identity():
    for m in (2, 3):
        flat = zoo.build_entry("flat", {"dim": m}).obj
        H = flat.matrix(np.zeros(m))
        vol = fiber_integrate(H, lambda W: np.ones(len(W)), order=6)
        assert vol == pytest.approx(1.0, abs=1e-8)
        for a in range(m):
            for b in range(m):
                def density(W, a=a, b=b):
                    return (W[:, a] * np.conj(W[:, b])).real / np.linalg.norm(W, axis=1) ** 2

                val = fiber_integrate(H, density, order=6)
                assert val == pytest.approx(1.0 / m if a == b else 0.0, abs=1e-6)
    _report(3, "moment integrals = delta/m (1e-6) and fiber volume = 1 (1e-8) "
               "for m in {2, 3}")


def test_criterion_04_pushforward_identity():
    cases = ["flat-identity", "fs-to-poincare", "disc-square-to-poincare",
             "fs-line-in-plane", "realpart-flat", "pluri-flat3"]
    rng = np.random.default_rng(4)
    smooth = 0
    for name in cases:
        p = _pair(name)
        if not p.f.holomorphic:
            smooth += 1
        for _ in range(3):
            z = p.f.source.sample(rng, 0.5)
            _, _, resid = pushforward_energy_check(p.f, p.h, p.g, z, order=8)
            assert resid <= 1e-5, (name, resid)
    assert smooth >= 1
    _report(4, f"|df|^2 = m pi_*(Y) within 1e-5 on {len(cases)} catalog maps "
               f"({smooth} non-holomorphic)")


def test_criterion_05_exact_identity_holomorphic():
    triples = ["flat-identity", "fs-to-poincare", "fs2-to-ball", "hopf-function"]
    t0 = time.perf_counter()
    worst = 0.0
    for name in triples:
        p = _pair(name)
        for P in _bundle_points(p, 5, 50):
            out = V.verify_exact_identity("exact_holo", p.f, p.h, p.g, P)
            worst = max(worst, out["residual"])
            assert out["residual"] <= 1e-4, (name, out["residual"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"holomorphic exact identities took {elapsed:.1f}s"
    _report(5, f"two-route identity residual <= 1e-4 on {len(triples)} triples x "
               f"50 points (worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_06_exact_identity_pluriharmonic():
    worst = 0.0
    for name in ("pluri-flat3", "pluri-poincare", "pluri-m2-flat"):
        p = _pair(name)
        for P in _bundle_points(p, 6, 50):
            out = V.verify_exact_identity("exact_pluri", p.f, p.h, p.g, P)
            worst = max(worst, out["residual"])
            assert out["residual"] <= 1e-4, (name, out["residual"])
    _report(6, f"pluri-harmonic identity residual <= 1e-4 on 3 maps x 50 points "
               f"(worst {worst:.2e})")


def test_criterion_07_w_form_semipositivity():
    worst = 0.0
    for name in ("flat-identity", "fs-to-poincare", "fs2-to-ball",
                 "disc-square-to-poincare"):
        p = _pair(name)
        for P in _bundle_points(p, 7, 25):
            mineig = V.assemble_W_form(p.f, p.h, p.g, P).min_eigenvalue()
            worst = min(worst, mineig)
            assert mineig >= -1e-8
    for name in ("pluri-flat3", "pluri-poincare", "pluri-m2-flat"):
        p = _pair(name)
        for P in _bundle_points(p, 7, 25):
            mineig = V.assemble_W_form(p.f, p.h, p.g, P).min_eigenvalue()
            worst = min(worst, mineig)
            assert mineig >= -1e-8
    _report(7, f"assembled form semi-positive to -1e-8 in both variants "
               f"(worst eigenvalue {worst:.2e})")


SUITE_PAIRS = {
    "S1": "fs-to-poincare",
    "S_minus1": "hopf-function",
    "S01": "fs-to-poincare",
    "S02": "fs2-to-ball",
    "S2": "fs2-to-ball",
    "S3": "fs2-to-ball",
    "S03": "fs-to-poincare",
    "S11": "pluri-poincare",
    "hessian": "pluri-m2-flat",
    "hessian2": "pluri-poincare",
}


def test_criterion_08_inequality_suites():
    for suite, name in SUITE_PAIRS.items():
        p = _pair(name)
        reports = V.run_suite(p, [suite], samples=50, seed=8)
        assert reports[0].status == "pass", (suite, name, reports[0].message)
    # the conformal variant with zero weight reproduces the base suite
    p = _pair("fs-to-poincare")
    for P in _bundle_points(p, 88, 5):
        a = V.verify_form_inequality("S1", p.f, p.h, p.g, P)
        b = V.verify_form_inequality("S03", p.f, p.h, p.g, P,
                                     phi=lambda zs, Ws: 0.0)
        assert np.max(np.abs(a["residual_form"].matrix
                             - b["residual_form"].matrix)) < 1e-10
    _report(8, "all ten inequality suites PSD within -1e-6 x scale at 50 points; "
               "zero-weight conformal variant matches the base suite to 1e-10")


def test_criterion_09_horizontal_value_agreement():
    rng = np.random.default_rng(9)
    chart = ComplexChart(dim=2, radius=[0.9, 0.9])
    B = np.array([[1.0, 0.4], [0.2, 0.9]])

    def perturbed(z):
        v = [B[0, 0] * z[0] + B[0, 1] * z[1], B[1, 0] * z[0] + B[1, 1] * z[1]]
        return [[(1 if a == b else 0) + 0.1 * v[a] * gm.conj(v[b])
                 for b in range(2)] for a in range(2)]

    metrics = [zoo.build_entry("fubini-study", {"dim": 2}).obj,
               zoo.build_entry("poincare-ball", {"dim": 2}).obj,
               HermitianMetricField(chart, perturbed, name="perturbed")]
    for metric in metrics:
        for _ in range(3):
            p = metric.chart.sample(rng, 0.4)
            frame = hermitian_normal_coordinates(metric, p)
            W = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            P = BundlePoint.make(np.zeros(2), frame.to_new_vector(W))
            Wa = P.W_affine
            via_bundle = horizontal_curvature_value(TautologicalMetric(frame.metric), P)
            t = cv.chern_curvature(frame.metric, np.zeros(2))
            via_tensor = float(np.real(t.contract(Wa, Wa, Wa, Wa))) \
                / float(np.linalg.norm(Wa) ** 2)
            assert via_bundle == pytest.approx(via_tensor, abs=1e-5)
    _report(9, "bundle-curvature route matches the four-fold contraction to 1e-5 "
               "at normal points of FS, Poincare ball and a perturbed metric")


def test_criterion_10_constraint_and_integrand():
    rng = np.random.default_rng(10)
    for name in ("pluri-flat3", "pluri-poincare", "pluri-m2-flat"):
        p = _pair(name)
        for _ in range(5):
            z = p.f.source.sample(rng, 0.5)
            out = mp.constraint_D_check(p.f, p.g, z)
            assert out["applicable"]
            assert out["max_residual"] <= 1e-6, (name, out)
            assert abs(mp.hatC_value(p.f, p.h, p.g, z)) <= 1e-6
    # hatC sign on a non-pluri-harmonic map into a nonpositive-csc target
    flat1 = zoo.build_entry("flat", {"dim": 1}).obj
    hyp = zoo.build_entry("hyperbolic", {"dim": 2}).obj
    f = mp.ChartedMap(flat1.chart, hyp.chart,
                      lambda z: (0.3 * gm.abs2(z[0]), 0.5 * gm.real(z[0])),
                      name="bump")
    for _ in range(10):
        z = flat1.chart.sample(rng, 0.4)
        assert mp.hatC_value(f, flat1, hyp, z) <= 1e-8
    _report(10, "constraint contraction <= 1e-6 on pluri-harmonic maps; "
                "hatC <= 1e-8 into nonpositive complex-sectional targets")


def test_criterion_11_key3_identity():
    eucl = zoo.build_entry("euclidean", {"dim": 2}).obj
    sphn = zoo.build_entry("round-sphere-normal").obj
    hypn = zoo.build_entry("hyperbolic-normal").obj
    assert cv.key3_check(eucl, [0.2, -0.4]) <= 1e-6
    assert cv.key3_check(sphn, [0.0, 0.0]) <= 1e-6
    assert cv.key3_check(hypn, [0.0, 0.0]) <= 1e-6
    _report(11, "metric/Christoffel/curvature identity residual <= 1e-6 at "
                "normal points of the sphere, hyperbolic plane and flat space")


def test_criterion_12_rc_positivity_sampling():
    # the RC-positivity witness of (O(-1), H) at a point is the largest
    # eigenvalue of its curvature form
    rng = np.random.default_rng(12)
    fs2 = zoo.build_entry("fubini-study", {"dim": 2}).obj
    pts = [BundlePoint.make(fs2.chart.sample(rng, 0.5),
                            rng.standard_normal(2) + 1j * rng.standard_normal(2))
           for _ in range(10)]
    tm = TautologicalMetric(fs2)
    assert min(tautological_curvature(tm, P).max_eigenvalue() for P in pts) > 1e-8

    torus = zoo.build_entry("flat-torus", {"dim": 2}).obj
    pts = [BundlePoint.make(torus.chart.sample(rng, 0.5),
                            rng.standard_normal(2) + 1j * rng.standard_normal(2))
           for _ in range(10)]
    forms = [tautological_curvature(TautologicalMetric(torus), P) for P in pts]
    assert all(form.max_eigenvalue() <= 1e-8 for form in forms)
    assert all(np.linalg.eigvalsh(form.matrix[:2, :2])[-1] <= 1e-8 for form in forms)

    # a Riemannian tensor is RC-positive at x when every direction Z has a W
    # with R(Z, W, W, Z) > 0; in dimension 2 the plane (Z, Z^perp) decides
    sph = zoo.build_entry("round-sphere").obj
    eucl = zoo.build_entry("euclidean", {"dim": 2}).obj
    samples = [sph.chart.sample(rng, 0.5) for _ in range(5)]
    directions = [np.array([np.cos(t), np.sin(t)])
                  for t in np.linspace(0.0, np.pi, 12, endpoint=False)]
    for x in samples:
        for Z in directions:
            W = np.array([-Z[1], Z[0]])
            assert cv.riemannian_sectional_curvature(sph, x, Z, W) > 1e-10
            assert abs(cv.riemannian_sectional_curvature(eucl, x, Z, W)) < 1e-12
    _report(12, "FS plane bundle RC-positive at all samples; flat torus is not "
                "(base block <= 1e-8); sphere passes and flat space fails the "
                "Riemannian check with sectional curvature 0")


def test_criterion_13_maximum_principle_probe():
    p = _pair("fs-to-poincare")
    out = V.maximum_principle_probe(p.f, p.h, p.g, *V._probe_grid(p),
                                    compact=p.compact)
    assert out["pattern"] == "contradiction-shaped"
    assert out["term1"] > 0 and out["term2"] < 0

    p = _pair("flat-torus-identity")
    out = V.maximum_principle_probe(p.f, p.h, p.g, *V._probe_grid(p),
                                    compact=p.compact)
    assert abs(out["term1"]) <= 1e-8 and abs(out["term2"]) <= 1e-8
    _report(13, "probe shows term1 > 0 > term2 at the argmax for FS -> Poincare "
                "and a doubly vanishing pattern on the flat torus")


def test_criterion_14_determinism_and_cli(tmp_path):
    plan = tmp_path / "plan.yaml"
    base = "seed: 7\nsamples: 3\nsuites: [S1, W_psd]\npair: fs-to-poincare\n"
    docs = []
    for k in range(2):
        report = tmp_path / f"r{k}.json"
        plan.write_text(base + f"report: {report}\n")
        assert cli.main(["verify", "--config", str(plan)]) == 0
        raw = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"',
                     report.read_text())
        docs.append(raw)
    assert docs[0] == docs[1]

    plan.write_text("seed: 7\nsamples: 2\nsuites: [S1]\npair: pluri-poincare\n")
    assert cli.main(["verify", "--config", str(plan)]) == 0  # not applicable

    plan.write_text("""
suites: [S1]
samples: 2
pair:
  source: {dim: 2, radius: 0.5, metric: [["1", "z1"], ["0", "1"]]}
  target: {zoo: flat, dim: 2}
  map: {zoo: identity}
""")
    assert cli.main(["verify", "--config", str(plan)]) == 2

    plan.write_text("seed: 7\nsamples: 2\nsuites: [exact_holo]\n"
                    "pair: fs-to-poincare\ntol_exact: 1.0e-30\n")
    assert cli.main(["verify", "--config", str(plan)]) == 1
    _report(14, "reports byte-identical modulo timestamp; exit codes 0/1/2 "
                "honored on the scripted scenarios")
