import re

import numpy as np
import pytest

from projcurv import curvature as cv
from projcurv import diffops, zoo
from projcurv import dual as gm
from projcurv import maps as mp
from projcurv.dual import HyperDual
from projcurv.errors import ConfigError, ValidationError

PROBE_COUNT = 100


def _check_fact(entry, fact, rng):
    kind = fact["fact"]
    obj = entry.obj
    if kind == "chern_zero":
        for _ in range(8):
            t = cv.chern_curvature(obj, obj.chart.sample(rng, 0.6))
            assert np.max(np.abs(t.array)) < fact["tol"]
    elif kind == "hsc_constant":
        for _ in range(PROBE_COUNT):
            z = obj.chart.sample(rng, 0.6)
            v = rng.standard_normal(obj.dim) + 1j * rng.standard_normal(obj.dim)
            hsc = cv.holomorphic_sectional_curvature(obj, z, v)
            assert hsc == pytest.approx(fact["value"], abs=fact["tol"])
    elif kind == "kahler":
        for _ in range(8):
            t = cv.chern_curvature(obj, obj.chart.sample(rng, 0.6))
            assert t.kahler_defect() < fact["tol"]
    elif kind == "non_kahler":
        t = cv.chern_curvature(obj, obj.chart.center)
        assert t.kahler_defect() > fact["threshold"]
    elif kind == "positive_definite":
        obj.validate(rng, count=PROBE_COUNT)
    elif kind == "riemann_zero":
        for _ in range(8):
            t = cv.riemann_curvature(obj, obj.chart.sample(rng, 0.6))
            assert np.max(np.abs(t.array)) < fact["tol"]
    elif kind == "sectional_constant":
        for _ in range(PROBE_COUNT):
            x = obj.chart.sample(rng, 0.6)
            X = rng.standard_normal(obj.dim)
            Y = rng.standard_normal(obj.dim)
            gram = (X @ X) * (Y @ Y) - (X @ Y) ** 2
            if gram < 0.05:
                continue
            K = cv.riemannian_sectional_curvature(obj, x, X, Y)
            assert K == pytest.approx(fact["value"], abs=fact["tol"])
    elif kind == "normal_at_origin":
        n = obj.dim
        G0 = obj.matrix(np.zeros(n))
        assert np.max(np.abs(G0 - np.eye(n))) < fact["tol"]
        assert cv.key3_check(obj, np.zeros(n)) < 1e-6
    elif kind == "mixed_plane_flat":
        for _ in range(12):
            x = obj.chart.sample(rng, 0.6)
            K = cv.riemannian_sectional_curvature(obj, x, [1, 0, 0], [0, 0, 1])
            assert abs(K) < fact["tol"]
    elif kind == "pluriharmonic":
        pair = obj
        for _ in range(8):
            z = pair.f.source.sample(rng, 0.5)
            res = mp.pluriharmonic_residual(pair.f, pair.g, z)
            assert np.max(np.abs(res)) < fact["tol"]
    elif kind == "hatC_nonpositive":
        pair = obj
        for _ in range(8):
            z = pair.f.source.sample(rng, 0.5)
            assert mp.hatC_value(pair.f, pair.h, pair.g, z) <= fact["tol"]
    else:
        raise AssertionError(f"fact {kind!r} has no checker")


def all_fact_cases():
    cases = []
    names = zoo.catalog_names()
    for kind in ("hermitian-metric", "riemannian-metric", "map-pair"):
        for name in names[kind]:
            for k, fact in enumerate(zoo.catalog_facts(name)):
                cases.append(pytest.param(name, k, id=f"{name}-{fact['fact']}"))
    return cases


@pytest.mark.parametrize("name,fact_index", all_fact_cases())
def test_documented_facts(name, fact_index):
    entry = zoo.build_entry(name)
    fact = list(entry.facts)[fact_index]
    rng = np.random.default_rng([20250809, fact_index])
    _check_fact(entry, fact, rng)


class TestBuilders:
    def test_flat_is_identity_matrix(self):
        entry = zoo.build_entry("flat", {"dim": 2})
        assert np.allclose(entry.obj.matrix([0.3, 0.1j]), np.eye(2))

    def test_type_invariants_at_probe_points(self):
        rng = np.random.default_rng(1)
        for name in zoo.catalog_names()["hermitian-metric"]:
            zoo.build_entry(name).obj.validate(rng, count=PROBE_COUNT)
        for name in zoo.catalog_names()["riemannian-metric"]:
            zoo.build_entry(name).obj.validate(rng, count=PROBE_COUNT)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            zoo.build_entry("quintic-surface")

    def test_hopf_puncture_guard(self):
        with pytest.raises(ConfigError):
            zoo.build_entry("hopf", {"dim": 2, "center": [0.1, 0.0],
                                     "radius": 0.25})

    def test_poincare_radius_guard(self):
        with pytest.raises(ConfigError):
            zoo.build_entry("poincare-disc", {"dim": 1, "radius": 1.2})

    @pytest.mark.parametrize("name, params", [
        ("poincare-disc", {"radius": 0.8}),              # corner at |z| = 1.13
        ("poincare-ball", {"dim": 2, "radius": 0.6}),    # corner at |z| = 1.2
        ("poincare-ball", {"dim": 4, "radius": 0.38})])  # corner at |z| = 1.075
    def test_poincare_guard_sees_the_box_corner(self, name, params):
        # the guard used to test r sqrt(m), the reach of the real parts only
        with pytest.raises(ConfigError, match=f"{name}.radius: .* past the singular set"):
            zoo.build_entry(name, params)

    @pytest.mark.parametrize("name, params", [
        ("fubini-study", {"dim": 1.5}), ("fubini-study", {"dim": True}),
        ("euclidean", {"dim": 2.5}), ("hopf", {"dim": False}),
        ("poincare-disc", {"radius": True}), ("round-sphere", {"scale": "big"})])
    def test_parameters_follow_the_numeric_rule(self, name, params):
        # dim: 1.5 used to run at dim 1 and dim: true at dim 1
        (key, value), = params.items()
        with pytest.raises(ConfigError, match=f"{name}.{key}: expected an? "):
            zoo.build_entry(name, params)

    @pytest.mark.parametrize("name, key", [
        ("fubini-study", "dimension"), ("euclidean", "radius_"),
        ("fubini-study", "center"), ("hopf", "scale"), ("round-sphere", "center"),
        ("flat", "fundamental_domain"), ("flat-torus", "fundamental_domain")])
    def test_unread_parameters_rejected(self, name, key):
        # a key the metric does not read used to be ignored
        with pytest.raises(ConfigError, match=f"{name}.{key}: {name} has no parameter"):
            zoo.build_entry(name, {key: 2})

    def test_extra_parameters_are_read(self):
        sphere = zoo.build_entry("round-sphere", {"scale": 2.0}).obj
        assert np.allclose(sphere.matrix([0.0, 0.0]), 16 * np.eye(2))
        hopf = zoo.build_entry("hopf", {"center": [0.0, 2.0]}).obj
        assert hopf.chart.center.tolist() == [0, 2]
        with pytest.raises(ConfigError, match="hopf.center: expected 2 coordinates"):
            zoo.build_entry("hopf", {"center": [1.0]})

    @pytest.mark.parametrize("name, dim", [
        ("poincare-disc", 2), ("hopf", 1), ("sphere-line-product", 2),
        ("fubini-study", 0), ("euclidean", -1)])
    def test_dimension_constraints(self, name, dim):
        with pytest.raises(ConfigError, match=f"{name}.dim: "):
            zoo.build_entry(name, {"dim": dim})

    def test_torus_compactness_is_a_pair_fact(self):
        # the S5 probe reads the pair's compact flag; the torus metric row
        # has no metadata, and its fundamental_domain, which nothing read, is
        # an unread key (test_unread_parameters_rejected)
        assert zoo.build_entry("flat-torus-identity").obj.compact is True
        entry = zoo.build_entry("flat-torus", {"dim": 1})
        assert (entry.name, entry.facts) == ("flat-torus", tuple(zoo.catalog_facts("flat-torus")))

    def test_pair_objects_wired(self):
        p = zoo.build_entry("fs-to-poincare").obj
        assert p.f.holomorphic
        assert p.h.name.startswith("fubini")
        assert not p.compact

    def test_catalog_facts_unknown(self):
        with pytest.raises(ConfigError):
            zoo.catalog_facts("nonexistent")

    @pytest.mark.parametrize("name, params, message", [
        ("power", {"exponent": 2.5}, r"power\.exponent: expected an integer, got 2\.5"),
        ("power", {"exponent": True}, r"power\.exponent: expected a number, got True"),
        ("power", {"scale": "big"}, r"power\.scale: expected a number, got 'big'"),
        ("power", {"exponet": 3},
         r"power\.exponet: power has no parameter 'exponet' \(it reads exponent, scale\)"),
        ("identity", {"exponent": 2},
         r"identity\.exponent: identity has no parameter 'exponent' \(it reads no "),
        ("linear", {}, r"linear\.matrix: required parameter is missing"),
        ("linear", {"matrix": [[1.0, "x"]]}, r"linear\.matrix: expected a number, got 'x'"),
        ("linear", {"matrix": [[1.0, 0.0]]}, r"linear\.matrix: expected a 2 x 2 array"),
        ("constant", {"value": [False, 0.0]}, r"constant\.value: expected a number, got False"),
        ("constant", {"value": [0.1]}, r"constant\.value: expected 2 coordinates, got 1"),
        ("realify-slice", {"offset": None}, r"realify-slice\.offset: expected a number")])
    def test_map_parameters_fail_closed(self, name, params, message):
        # exponent: 2.5 ran exponent 2, and exponet: 3 was ignored
        flat2 = zoo.build_entry("flat", {"dim": 2}).obj
        with pytest.raises(ConfigError, match=message):
            zoo.build_map(name, params, flat2.chart, flat2.chart)

    @pytest.mark.parametrize("name", zoo.catalog_names()["map"])
    def test_every_map_names_an_unknown_parameter(self, name):
        # one read-check serves every row of the map table, before any
        # parameter is read
        flat2 = zoo.build_entry("flat", {"dim": 2}).obj
        reads = ", ".join(zoo._MAPS[name].reads) or "no parameters"
        with pytest.raises(ConfigError, match=re.escape(
                f"{name}.bogus: {name} has no parameter 'bogus' (it reads {reads})")):
            zoo.build_map(name, {"bogus": 1}, flat2.chart, flat2.chart)

    def test_map_parameters_are_read(self):
        flat = zoo.build_entry("flat", {"dim": 1}).obj
        f = zoo.build_map("power", {"exponent": 3, "scale": 2}, flat.chart, flat.chart)
        assert f.value([0.5]).tolist() == [0.25 + 0j]
        f = zoo.build_map("constant", {"value": 0.5j}, flat.chart, flat.chart)
        assert f.value([0.1]).tolist() == [0.5j]

    def test_constant_map_into_real_chart_must_be_real(self):
        # value() keeps only Re f and the derivatives of a constant are 0, so
        # a complex constant into a real chart used to evaluate as its real part
        flat = zoo.build_entry("flat", {"dim": 1}).obj
        euclidean = zoo.build_entry("euclidean", {"dim": 1}).obj
        with pytest.raises(ValidationError, match=r"map 'constant' into a real chart "
                           r"is not real-valued: max \|Im f\(z\)\| = 2\.000e-01"):
            zoo.build_map("constant", {"value": [0.1 + 0.2j]}, flat.chart, euclidean.chart)
        with pytest.raises(ValidationError, match="nan"):
            zoo.build_map("constant", {"value": [complex(0.1, float("nan"))]},
                          flat.chart, euclidean.chart)
        f = zoo.build_map("constant", {"value": [0.1]}, flat.chart, euclidean.chart)
        assert f.value([0]).tolist() == [0.1]


def textbook_rule(m, sign):
    """The per-entry formula delta_ab / s - sign conj(z_a) z_b / (s s) with
    s = 1 + sign |z|^2, written as the zoo rules were before they shared
    1/s, s*s and conj(z_a) across entries."""
    def rule(z):
        s = 1
        for a in range(m):
            s = s + gm.abs2(z[a]) if sign > 0 else s - gm.abs2(z[a])
        if sign > 0:
            return [[(1 if a == b else 0) / s - gm.conj(z[a]) * z[b] / (s * s)
                     for b in range(m)] for a in range(m)]
        return [[(1 if a == b else 0) / s + gm.conj(z[a]) * z[b] / (s * s)
                 for b in range(m)] for a in range(m)]
    return rule


def _hoisting_inputs(m):
    rng = np.random.default_rng(m)
    z = 0.3 * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))
    stencil = z[:, None] + 0.01 * rng.standard_normal((m, 7))
    _, _, _, first, second = diffops._pair_seeds(2 * m)
    jets = [HyperDual(z[a], first[a] + 1j * first[a + m], second[a] - 1j * second[a + m],
                      0.0) for a in range(m)]
    untracked = [HyperDual(z[a], np.eye(m)[a], None, None) for a in range(m)]
    return {"scalars": tuple(z), "python": tuple(complex(v) for v in z),
            "stencil": tuple(stencil), "jets": jets, "untracked": untracked}


def _same(x, y):
    if isinstance(x, HyperDual):
        return isinstance(y, HyperDual) and all(
            (u is None and v is None) or (u is not None and v is not None and _same(u, v))
            for u, v in zip((x.f0, x.f1, x.f2, x.f12), (y.f0, y.f1, y.f2, y.f12)))
    return not isinstance(y, HyperDual) and np.array_equal(x, y)


class TestHoistedPotentialRules:
    @pytest.mark.parametrize("kind", ["scalars", "python", "stencil", "jets", "untracked"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("rule,sign", [(zoo._fs_rule, 1), (zoo._poincare_rule, -1)],
                             ids=["fubini-study", "poincare"])
    def test_bitwise_equal_to_per_entry_formula(self, rule, sign, m, kind):
        z = _hoisting_inputs(m)[kind]
        got, ref = rule(m)(z), textbook_rule(m, sign)(z)
        for a in range(m):
            for b in range(m):
                assert _same(got[a][b], ref[a][b]), (a, b)


# distance from the chart centre to the singular set, by hand from each metric
SINGULAR_DISTANCE = {
    "poincare-disc": lambda c: 1.0, "poincare-ball": lambda c: 1.0,
    "hyperbolic": lambda c: 1.0, "poincare-riem": lambda c: 1.0,
    "hyperbolic-normal": lambda c: 2.0,           # 1 / (1 - |x|^2/4)^2
    "hopf": lambda c: float(np.linalg.norm(c)),   # the puncture at z = 0
}


def test_every_bounded_metric_is_covered():
    tables = {**zoo._HERMITIAN, **zoo._RIEMANNIAN}
    assert {name for name, row in tables.items() if row.reach} == set(SINGULAR_DISTANCE)


@pytest.mark.parametrize("name", sorted(SINGULAR_DISTANCE))
def test_chart_guard(name):
    chart = zoo.build_entry(name).obj.chart
    reals = chart.dim * (2 if name in zoo.HERMITIAN_METRICS else 1)
    distance = SINGULAR_DISTANCE[name](chart.center)
    # the default chart's farthest point stays short of the singular set
    assert np.linalg.norm(np.full(reals, chart.radius[0])) < distance
    past = distance / np.sqrt(reals) * (1 + 1e-12)
    with pytest.raises(ConfigError, match=f"{name}.radius: "):
        zoo.build_entry(name, {"radius": past})
