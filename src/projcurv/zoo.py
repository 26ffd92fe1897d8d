"""Catalog of named metrics, maps and pairs with known curvature behavior.

Each entry documents machine-checkable facts with the oracle that justifies
them; the test suite re-derives every fact at seeded probe points.  The
constant-curvature normalizations are fixed here once:

    fubini-study   potential log(1 + |z|^2)      HSC  = +2
    poincare-*     potential -log(1 - |z|^2)     HSC  = -2
    round-sphere   4 delta / (1 + |x|^2)^2       sect = +1
    hyperbolic     4 delta / (1 - |x|^2)^2       sect = -1
    poincare-riem  2 delta / (1 - |x|^2)^2       sect = -2  (background metric
                   of the Poincare disc)

The ``*-normal`` charts are the same geometries rescaled so that the origin
satisfies g = delta, dg = 0, which the normal-point identities need.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import dual as gm
from .charts import ComplexChart, RealChart
from .errors import ConfigError
from .fields import HermitianMetricField, RiemannianMetricField
from .maps import ChartedMap
from .verify import PairContext


@dataclass(frozen=True)
class ZooEntry:
    name: str
    kind: str            # hermitian-metric | riemannian-metric | holo-map | smooth-map | map-pair
    params: dict
    obj: object
    facts: tuple = ()
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# metric rules

def _potential_rule(m, grow, correct):
    """h_ab = correct(delta_ab / s, conj(z_a) z_b / (s s)) with
    s = grow(1, |z|^2), where ``grow`` and ``correct`` are opposite signs.

    1/s, s*s and each conj(z_a) are computed once, and 0/s only when there
    are off-diagonal entries; every entry rounds as the per-entry formula
    does, since each of those terms is the same operation on the same
    operands wherever it appears."""
    def rule(z):
        zbar = [gm.conj(z[a]) for a in range(m)]
        s = 1
        for a in range(m):
            s = grow(s, z[a] * zbar[a])         # abs2(z[a])
        diag = 1 / s
        off = 0 / s if m > 1 else None
        ss = s * s
        return [[correct(diag if a == b else off, zbar[a] * z[b] / ss)
                 for b in range(m)] for a in range(m)]
    return rule


def _fs_rule(m):
    return _potential_rule(m, operator.add, operator.sub)


def _poincare_rule(m):
    return _potential_rule(m, operator.sub, operator.add)


def _delta_rule(m):
    def rule(z):
        return [[1.0 if a == b else 0.0 for b in range(m)] for a in range(m)]
    return rule


def _hopf_rule(m):
    def rule(z):
        r2 = 0
        for a in range(m):
            r2 = r2 + gm.abs2(z[a])
        return [[(1 if a == b else 0) / r2 for b in range(m)] for a in range(m)]
    return rule


def _conformal_real_rule(n, factor):
    def rule(x):
        r2 = 0
        for i in range(n):
            r2 = r2 + x[i] * x[i]
        lam = factor(r2)
        return [[lam if i == j else 0 * lam for j in range(n)] for i in range(n)]
    return rule


def _sphere_line_rule():
    def rule(x):
        r2 = x[0] * x[0] + x[1] * x[1]
        lam = 4 / (1 + r2) ** 2
        z = 0 * lam
        return [[lam, z, z], [z, lam, z], [z, z, 1.0 + z]]
    return rule


# ---------------------------------------------------------------------------
# builders

def _build_hermitian(name, params):
    m = int(params.get("dim", 2 if name == "hopf" else 1))
    radius = float(params.get("radius", _default_radius(name)))
    if m < 1:
        raise ConfigError(f"{name}: dimension must be >= 1")
    if name == "flat":
        chart = ComplexChart(dim=m, radius=np.full(m, radius), name=name)
        return HermitianMetricField(chart, _delta_rule(m), name=name)
    if name == "fubini-study":
        chart = ComplexChart(dim=m, radius=np.full(m, radius), name=name)
        return HermitianMetricField(chart, _fs_rule(m), name=name)
    if name in ("poincare-disc", "poincare-ball"):
        if name == "poincare-disc" and m != 1:
            raise ConfigError("poincare-disc: dimension is 1; use poincare-ball")
        if radius * np.sqrt(m) >= 1.0:
            raise ConfigError(f"{name}: chart radius {radius} reaches |z| = 1")
        chart = ComplexChart(dim=m, radius=np.full(m, radius), name=name)
        return HermitianMetricField(chart, _poincare_rule(m), name=name)
    if name == "flat-torus":
        chart = ComplexChart(dim=m, radius=np.full(m, radius), name=name)
        return HermitianMetricField(chart, _delta_rule(m), name=name)
    if name == "hopf":
        if m < 2:
            raise ConfigError("hopf: dimension must be >= 2")
        center = np.asarray(params.get("center", [1.0] + [0.3] * (m - 1)), complex)
        if radius * np.sqrt(2 * m) >= float(np.linalg.norm(center)):
            raise ConfigError("hopf: chart touches the puncture at z = 0")
        chart = ComplexChart(dim=m, center=center, radius=np.full(m, radius),
                             name=name)
        return HermitianMetricField(chart, _hopf_rule(m), name=name)
    raise ConfigError(f"unknown Hermitian metric {name!r}")


def _build_riemannian(name, params):
    n = int(params.get("dim", 3 if name == "sphere-line-product" else 2))
    radius = float(params.get("radius", _default_radius(name)))
    if n < 1:
        raise ConfigError(f"{name}: dimension must be >= 1")
    chart = RealChart(dim=n, radius=np.full(n, radius), name=name)
    if name == "euclidean":
        return RiemannianMetricField(chart, _delta_rule(n), name=name)
    if name == "round-sphere":
        a = float(params.get("scale", 1.0))
        return RiemannianMetricField(
            chart, _conformal_real_rule(n, lambda r2: 4 * a * a / (1 + r2) ** 2),
            name=name)
    if name == "round-sphere-normal":
        return RiemannianMetricField(
            chart, _conformal_real_rule(n, lambda r2: 1 / (1 + r2 / 4) ** 2),
            name=name)
    if name == "hyperbolic":
        if radius * np.sqrt(n) >= 1.0:
            raise ConfigError(f"{name}: chart radius {radius} reaches |x| = 1")
        return RiemannianMetricField(
            chart, _conformal_real_rule(n, lambda r2: 4 / (1 - r2) ** 2), name=name)
    if name == "hyperbolic-normal":
        if radius * np.sqrt(n) >= 2.0:
            raise ConfigError(f"{name}: chart radius {radius} reaches |x| = 2")
        return RiemannianMetricField(
            chart, _conformal_real_rule(n, lambda r2: 1 / (1 - r2 / 4) ** 2),
            name=name)
    if name == "poincare-riem":
        if radius * np.sqrt(n) >= 1.0:
            raise ConfigError(f"{name}: chart radius {radius} reaches |x| = 1")
        return RiemannianMetricField(
            chart, _conformal_real_rule(n, lambda r2: 2 / (1 - r2) ** 2), name=name)
    if name == "sphere-line-product":
        if n != 3:
            raise ConfigError("sphere-line-product: dimension is 3")
        return RiemannianMetricField(chart, _sphere_line_rule(), name=name)
    raise ConfigError(f"unknown Riemannian metric {name!r}")


def _build_map(name, params, source_chart, target_chart):
    m = source_chart.dim
    if name == "constant":
        c = params.get("value", None)
        if c is None:
            c = [0.0] * target_chart.dim
        vals = tuple(complex(v) for v in np.atleast_1d(c))
        return ChartedMap(source_chart, target_chart, lambda z: vals,
                          holomorphic=isinstance(target_chart, ComplexChart),
                          name=name)
    if name == "identity":
        return ChartedMap(source_chart, target_chart, lambda z: tuple(z),
                          holomorphic=True, name=name)
    if name == "linear":
        A = np.asarray(params["matrix"], complex)
        return ChartedMap(
            source_chart, target_chart,
            lambda z: tuple(sum(A[i, a] * z[a] for a in range(m))
                            for i in range(A.shape[0])),
            holomorphic=True, name=name)
    if name == "power":
        k = int(params.get("exponent", 2))
        scale = complex(params.get("scale", 1.0))
        return ChartedMap(source_chart, target_chart,
                          lambda z: (scale * z[0] ** k,), holomorphic=True,
                          name=name)
    if name == "line-inclusion":
        pad = target_chart.dim - m
        return ChartedMap(source_chart, target_chart,
                          lambda z: tuple(z) + (0.0,) * pad, holomorphic=True,
                          name=name)
    if name == "factor-projection":
        return ChartedMap(source_chart, target_chart, lambda z: (z[0],),
                          holomorphic=True, name=name)
    if name == "real-part":
        return ChartedMap(source_chart, target_chart,
                          lambda z: (gm.real(z[0]),), name=name)
    if name == "realify":
        return ChartedMap(source_chart, target_chart,
                          lambda z: (gm.real(z[0]), gm.imag(z[0])), name=name)
    if name == "holo-parts":
        return ChartedMap(source_chart, target_chart,
                          lambda z: (gm.real(z[0] ** 2), gm.imag(z[0] ** 2),
                                     gm.real(z[0])), name=name)
    if name == "pluri-m2":
        return ChartedMap(source_chart, target_chart,
                          lambda z: (gm.real(z[0] * z[1]), gm.imag(z[0] * z[1]),
                                     gm.real(z[0])), name=name)
    if name == "realify-slice":
        # realified identity followed by the totally geodesic slice x3 = c
        c = float(params.get("offset", 0.3))
        return ChartedMap(source_chart, target_chart,
                          lambda z: (gm.real(z[0]), gm.imag(z[0]),
                                     c + 0 * gm.real(z[0])), name=name)
    raise ConfigError(f"unknown map {name!r}")


def _default_radius(name):
    return {
        "flat": 1.0, "fubini-study": 0.9, "poincare-disc": 0.55,
        "poincare-ball": 0.38, "flat-torus": 0.45, "hopf": 0.25,
        "euclidean": 1.0, "round-sphere": 0.9, "round-sphere-normal": 0.9,
        "hyperbolic": 0.5, "hyperbolic-normal": 0.9, "poincare-riem": 0.55,
        "sphere-line-product": 0.9,
    }.get(name, 0.9)


# ---------------------------------------------------------------------------
# registry

HERMITIAN_METRICS = ("flat", "fubini-study", "poincare-disc", "poincare-ball",
                     "flat-torus", "hopf")
RIEMANNIAN_METRICS = ("euclidean", "round-sphere", "round-sphere-normal",
                      "hyperbolic", "hyperbolic-normal", "poincare-riem",
                      "sphere-line-product")
MAPS = ("constant", "identity", "linear", "power", "line-inclusion",
        "factor-projection", "real-part", "realify", "holo-parts", "pluri-m2",
        "realify-slice")

_FACTS = {
    "flat": ({"fact": "chern_zero", "tol": 1e-10, "oracle": "constant entries"},
             {"fact": "kahler", "tol": 1e-8}),
    "fubini-study": ({"fact": "hsc_constant", "value": 2.0, "tol": 1e-5,
                      "oracle": "hand expansion of the potential at 0 plus homogeneity"},
                     {"fact": "kahler", "tol": 1e-6}),
    "poincare-disc": ({"fact": "hsc_constant", "value": -2.0, "tol": 1e-5,
                       "oracle": "hand expansion of the potential at 0"},
                      {"fact": "kahler", "tol": 1e-6}),
    "poincare-ball": ({"fact": "hsc_constant", "value": -2.0, "tol": 1e-5,
                       "oracle": "hand expansion of the potential at 0"},
                      {"fact": "kahler", "tol": 1e-6}),
    "flat-torus": ({"fact": "chern_zero", "tol": 1e-10, "oracle": "constant entries"},),
    "hopf": ({"fact": "positive_definite", "oracle": "eigenvalues 1/|z|^2"},
             {"fact": "non_kahler", "threshold": 1e-2}),
    "euclidean": ({"fact": "riemann_zero", "tol": 1e-10, "oracle": "constant entries"},),
    "round-sphere": ({"fact": "sectional_constant", "value": 1.0, "tol": 1e-5,
                      "oracle": "conformal factor formula K = -e^{-2p} Lap p"},),
    "round-sphere-normal": ({"fact": "sectional_constant", "value": 1.0, "tol": 1e-5,
                             "oracle": "same geometry, rescaled chart"},
                            {"fact": "normal_at_origin", "tol": 1e-10}),
    "hyperbolic": ({"fact": "sectional_constant", "value": -1.0, "tol": 1e-5,
                    "oracle": "conformal factor formula"},),
    "hyperbolic-normal": ({"fact": "sectional_constant", "value": -1.0, "tol": 1e-5,
                           "oracle": "same geometry, rescaled chart"},
                          {"fact": "normal_at_origin", "tol": 1e-10}),
    "poincare-riem": ({"fact": "sectional_constant", "value": -2.0, "tol": 1e-5,
                       "oracle": "conformal factor formula"},),
    "sphere-line-product": ({"fact": "mixed_plane_flat", "tol": 1e-6,
                             "oracle": "product metrics have no mixed curvature"},),
}

_PAIRS = {
    # name: (source metric, source params, target metric, target params,
    #        map name, map params, compact)
    "flat-identity": ("flat", {"dim": 2}, "flat", {"dim": 2, "radius": 3.0},
                      "identity", {}, False),
    "flat-torus-identity": ("flat-torus", {"dim": 1},
                            "flat-torus", {"dim": 1, "radius": 0.9},
                            "identity", {}, True),
    "fs-to-poincare": ("fubini-study", {"dim": 1, "radius": 0.5},
                       "poincare-disc", {"dim": 1, "radius": 0.55},
                       "identity", {}, False),
    "disc-square-to-poincare": ("flat", {"dim": 1, "radius": 0.7},
                                "poincare-disc", {"dim": 1, "radius": 0.55},
                                "power", {"exponent": 2}, False),
    "fs2-to-ball": ("fubini-study", {"dim": 2, "radius": 0.9},
                    "poincare-ball", {"dim": 2, "radius": 0.38},
                    "linear", {"matrix": [[0.4, 0.0], [0.0, 0.4]]}, False),
    "hopf-function": ("hopf", {"dim": 2, "radius": 0.25},
                      "flat", {"dim": 1, "radius": 3.0},
                      "factor-projection", {}, False),
    "fs-line-in-plane": ("fubini-study", {"dim": 1, "radius": 0.9},
                         "fubini-study", {"dim": 2, "radius": 1.2},
                         "line-inclusion", {}, False),
    "realpart-flat": ("flat", {"dim": 1, "radius": 0.9},
                      "euclidean", {"dim": 1, "radius": 2.0},
                      "real-part", {}, False),
    "pluri-flat3": ("fubini-study", {"dim": 1, "radius": 0.9},
                    "euclidean", {"dim": 3, "radius": 5.0},
                    "holo-parts", {}, False),
    "pluri-poincare": ("fubini-study", {"dim": 1, "radius": 0.5},
                       "poincare-riem", {"dim": 2, "radius": 0.55},
                       "realify", {}, False),
    "pluri-m2-flat": ("fubini-study", {"dim": 2, "radius": 0.7},
                      "euclidean", {"dim": 3, "radius": 5.0},
                      "pluri-m2", {}, False),
    "pluri-sphere-slice": ("flat", {"dim": 1, "radius": 0.7},
                           "sphere-line-product", {"dim": 3, "radius": 0.9},
                           "realify-slice", {}, False),
}

_PAIR_FACTS = {
    "pluri-flat3": ({"fact": "pluriharmonic", "tol": 1e-6},),
    "pluri-poincare": ({"fact": "pluriharmonic", "tol": 1e-6},
                       {"fact": "hatC_nonpositive", "tol": 1e-8}),
    "pluri-m2-flat": ({"fact": "pluriharmonic", "tol": 1e-6},),
    # a pluri-harmonic curve composed with a totally geodesic product slice
    "pluri-sphere-slice": ({"fact": "pluriharmonic", "tol": 1e-6},),
}


def catalog_names():
    return {
        "hermitian-metric": HERMITIAN_METRICS,
        "riemannian-metric": RIEMANNIAN_METRICS,
        "map": MAPS,
        "map-pair": tuple(_PAIRS),
    }


def build_entry(name: str, params: dict | None = None) -> ZooEntry:
    """Construct a catalog entry; unknown names and bad parameters raise.

    Metric entries are probe-validated at 100 seeded points before release.
    """
    params = dict(params or {})
    rng = np.random.default_rng(20250809)
    if name in HERMITIAN_METRICS:
        obj = _build_hermitian(name, params)
        obj.validate(rng, count=100)
        meta = {"compact": name == "flat-torus"}
        if name == "flat-torus":
            meta["fundamental_domain"] = params.get("fundamental_domain", 1.0)
        return ZooEntry(name, "hermitian-metric", params, obj,
                        _FACTS.get(name, ()), meta)
    if name in RIEMANNIAN_METRICS:
        obj = _build_riemannian(name, params)
        obj.validate(rng, count=100)
        return ZooEntry(name, "riemannian-metric", params, obj,
                        _FACTS.get(name, ()), {})
    if name in _PAIRS:
        src, sp, tgt, tp, mp, mparams, compact = _PAIRS[name]
        sp = {**sp, **params.get("source", {})}
        tp = {**tp, **params.get("target", {})}
        h = build_entry(src, sp).obj
        g_entry = build_entry(tgt, tp)
        g = g_entry.obj
        f = _build_map(mp, mparams, h.chart, g.chart)
        pair = PairContext(f=f, h=h, g=g, name=name,
                           compact=compact or g_entry.meta.get("compact", False))
        kind = "map-pair"
        return ZooEntry(name, kind, params, pair, _PAIR_FACTS.get(name, ()),
                        {"compact": pair.compact})
    raise ConfigError(f"unknown zoo entry {name!r}")


def build_map(name: str, params: dict, source_chart, target_chart) -> ChartedMap:
    if name not in MAPS:
        raise ConfigError(f"unknown zoo map {name!r}")
    return _build_map(name, params or {}, source_chart, target_chart)


def catalog_facts(name: str):
    """Documented, machine-checkable facts for an entry, with oracle tags."""
    if name in _FACTS:
        return list(_FACTS[name])
    if name in _PAIR_FACTS:
        return list(_PAIR_FACTS[name])
    if name in HERMITIAN_METRICS + RIEMANNIAN_METRICS or name in _PAIRS:
        return []
    raise ConfigError(f"unknown zoo entry {name!r}")
