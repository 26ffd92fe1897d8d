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

Each metric is one row of ``_HERMITIAN`` or ``_RIEMANNIAN``: its ``rule`` as
a function of the dimension (round-sphere's also of its scale), the default
``dim`` and ``radius``, ``reach``, the distance from the chart centre to the
singular set as a function of the centre (None: there is none), the allowed
``dims``, and the ``extras`` it reads beyond dim and radius with their
defaults.  Any other parameter is a ConfigError.  One guard serves every
bounded metric: the chart box's farthest point from its centre, r sqrt(2m)
on a complex chart and r sqrt(n) on a real one, must stay short of
``reach``.

Each map is one row of ``_MAPS``: the parameters it ``reads``, its ``rule``
as a function of (params, the "<name>." prefix of its ConfigErrors, source
dimension, target dimension), which reads and checks its parameters once
and returns the component rule, and its ``holomorphic`` flag (None: when
its target is complex).  Any other parameter is a ConfigError.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import dual as gm
from .charts import ComplexChart, RealChart
from .errors import ConfigError, chart_params, number
from .fields import HermitianMetricField, RiemannianMetricField
from .maps import ChartedMap, _sum_terms
from .verify import PairContext


@dataclass(frozen=True)
class ZooEntry:
    name: str
    obj: object          # the metric field or the PairContext
    facts: tuple


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


def _conformal_rule(factor):
    """The rule of factor(|x|^2) delta as a function of the dimension."""
    def of_dim(n):
        def rule(x):
            r2 = 0
            for i in range(n):
                r2 = r2 + x[i] * x[i]
            lam = factor(r2)
            return [[lam if i == j else 0 * lam for j in range(n)] for i in range(n)]
        return rule
    return of_dim


def _sphere_line_rule(n):       # n is 3
    def rule(x):
        r2 = x[0] * x[0] + x[1] * x[1]
        lam = 4 / (1 + r2) ** 2
        z = 0 * lam
        return [[lam, z, z], [z, lam, z], [z, z, 1.0 + z]]
    return rule


# ---------------------------------------------------------------------------
# the metric tables

@dataclass(frozen=True)
class _Metric:
    """One row of a metric table; the module docstring describes the columns."""
    rule: Callable
    dim: int
    radius: float
    reach: Callable | None = None
    dims: tuple = (1, None)
    extras: dict = field(default_factory=dict)


def _ball(radius):
    """reach of the sphere of the given radius about the origin."""
    return lambda center: radius - float(np.linalg.norm(center))


_HERMITIAN = {
    "flat": _Metric(_delta_rule, 1, 1.0),
    "fubini-study": _Metric(_fs_rule, 1, 0.9),
    "poincare-disc": _Metric(_poincare_rule, 1, 0.55, _ball(1.0), dims=(1, 1)),
    "poincare-ball": _Metric(_poincare_rule, 1, 0.38, _ball(1.0)),
    "flat-torus": _Metric(_delta_rule, 1, 0.45),
    # the singular set is the puncture at z = 0
    "hopf": _Metric(_hopf_rule, 2, 0.25, lambda c: float(np.linalg.norm(c)),
                    dims=(2, None), extras={"center": lambda m: [1.0] + [0.3] * (m - 1)}),
}

_RIEMANNIAN = {
    "euclidean": _Metric(_delta_rule, 2, 1.0),
    "round-sphere": _Metric(
        lambda n, a: _conformal_rule(lambda r2: 4 * a * a / (1 + r2) ** 2)(n),
        2, 0.9, extras={"scale": 1.0}),
    "round-sphere-normal": _Metric(_conformal_rule(lambda r2: 1 / (1 + r2 / 4) ** 2),
                                   2, 0.9),
    "hyperbolic": _Metric(_conformal_rule(lambda r2: 4 / (1 - r2) ** 2), 2, 0.5,
                          _ball(1.0)),
    "hyperbolic-normal": _Metric(_conformal_rule(lambda r2: 1 / (1 - r2 / 4) ** 2),
                                 2, 0.9, _ball(2.0)),
    "poincare-riem": _Metric(_conformal_rule(lambda r2: 2 / (1 - r2) ** 2), 2, 0.55,
                             _ball(1.0)),
    "sphere-line-product": _Metric(_sphere_line_rule, 3, 0.9, dims=(3, 3)),
}

# per metric kind: table, chart type, field type, real coordinates per chart coordinate
_KINDS = ((_HERMITIAN, ComplexChart, HermitianMetricField, 2),
          (_RIEMANNIAN, RealChart, RiemannianMetricField, 1))


def _build_metric(name, row: _Metric, params, chart_type, field_type, reals):
    """The metric field of a table row."""
    where, reads = f"{name}.", ("dim", "radius", *row.extras)
    for key in params:
        if key not in reads:
            raise ConfigError(f"{where}{key}: {name} has no parameter {key!r} "
                              f"(it reads {', '.join(reads)})")
    m, radius = chart_params(params, where, row.dim, row.radius)
    lo, hi = row.dims
    if m < lo or (hi is not None and m > hi):
        raise ConfigError(f"{where}dim: {name} has dimension "
                          f"{lo if lo == hi else f'>= {lo}'}, got {m}")
    center = np.zeros(m)
    if "center" in row.extras:
        center = _complex_array(params, "center", row.extras["center"](m), where)
        if center.shape != (m,):
            raise ConfigError(f"{where}center: expected {m} coordinates")
        if not np.isfinite(center).all():
            raise ConfigError(f"{where}center: expected finite coordinates, "
                              f"got {center.tolist()}")
    # the guard; a NaN reach fails it too
    corner = radius * np.sqrt(reals * m)
    if row.reach is not None and not corner < row.reach(center):
        raise ConfigError(f"{where}radius: a chart of radius {radius} reaches {corner:.4g} "
                          f"from its centre, past the singular set of {name}")
    rule = row.rule(m, number(params, "scale", row.extras["scale"], float, where)) \
        if "scale" in row.extras else row.rule(m)
    chart = chart_type(dim=m, center=center, radius=np.full(m, radius), name=name)
    return field_type(chart, rule, name=name)


# ---------------------------------------------------------------------------
# map rules and the map table

def _complex_array(params, key, default, where) -> np.ndarray:
    """``params[key]`` (or the default) as a complex array, each entry read
    by :func:`~projcurv.errors.number`."""
    raw = np.asarray(params.get(key, default), dtype=object)
    return np.array([number({key: v}, key, None, complex, where) for v in raw.ravel()],
                    complex).reshape(raw.shape)


def _constant_rule(params, where, m, n):
    vals = tuple(complex(v) for v in
                 np.atleast_1d(_complex_array(params, "value", [0.0] * n, where)))
    if len(vals) != n:
        raise ConfigError(f"{where}value: expected {n} coordinates, got {len(vals)}")
    return lambda z: vals


def _linear_rule(params, where, m, n):
    if "matrix" not in params:
        raise ConfigError(f"{where}matrix: required parameter is missing")
    A = _complex_array(params, "matrix", None, where)
    if A.shape != (n, m):
        raise ConfigError(f"{where}matrix: expected a {n} x {m} array, "
                          f"got shape {A.shape}")
    rows = [list(row) for row in A]         # the NumPy scalars A[i, a], read once
    return lambda z: tuple(_sum_terms(row[a] * z[a] for a in range(m)) for row in rows)


def _power_rule(params, where, m, n):
    k = number(params, "exponent", 2, int, where)
    scale = number(params, "scale", 1.0, complex, where)
    return lambda z: (scale * z[0] ** k,)


def _slice_rule(params, where, m, n):
    # realified identity followed by the totally geodesic slice x3 = c
    c = number(params, "offset", 0.3, float, where)
    return lambda z: (gm.real(z[0]), gm.imag(z[0]), c + 0 * gm.real(z[0]))


@dataclass(frozen=True)
class _Map:
    """One row of ``_MAPS``; the module docstring describes the columns."""
    reads: tuple
    rule: Callable
    holomorphic: bool | None = True


_MAPS = {
    "constant": _Map(("value",), _constant_rule, None),
    "identity": _Map((), lambda *_: lambda z: tuple(z)),
    "linear": _Map(("matrix",), _linear_rule),
    "power": _Map(("exponent", "scale"), _power_rule),
    "line-inclusion": _Map((), lambda _p, _w, m, n: lambda z: tuple(z) + (0.0,) * (n - m)),
    "factor-projection": _Map((), lambda *_: lambda z: (z[0],)),
    "real-part": _Map((), lambda *_: lambda z: (gm.real(z[0]),), False),
    "realify": _Map((), lambda *_: lambda z: (gm.real(z[0]), gm.imag(z[0])), False),
    "holo-parts": _Map((), lambda *_: lambda z: (gm.real(z[0] ** 2), gm.imag(z[0] ** 2),
                                                 gm.real(z[0])), False),
    "pluri-m2": _Map((), lambda *_: lambda z: (gm.real(z[0] * z[1]), gm.imag(z[0] * z[1]),
                                               gm.real(z[0])), False),
    "realify-slice": _Map(("offset",), _slice_rule, False),
}


# ---------------------------------------------------------------------------
# registry

HERMITIAN_METRICS = tuple(_HERMITIAN)
RIEMANNIAN_METRICS = tuple(_RIEMANNIAN)

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
        "map": tuple(_MAPS),
        "map-pair": tuple(_PAIRS),
    }


def build_entry(name: str, params: dict | None = None) -> ZooEntry:
    """Construct a catalog entry; unknown names and bad parameters raise
    (a map pair reads none).

    Metric entries are probe-validated at 100 seeded points before release.
    """
    params = dict(params or {})
    for table, chart_type, field_type, reals in _KINDS:
        if name in table:
            obj = _build_metric(name, table[name], params, chart_type, field_type, reals)
            obj.validate(np.random.default_rng(20250809), count=100)
            return ZooEntry(name, obj, _FACTS.get(name, ()))
    if name in _PAIRS:
        if params:
            key = next(iter(params))
            raise ConfigError(f"{name}.{key}: {name} has no parameter {key!r} "
                              "(it reads no parameters)")
        src, sp, tgt, tp, mp, mparams, compact = _PAIRS[name]
        h = build_entry(src, sp).obj
        g = build_entry(tgt, tp).obj
        f = build_map(mp, mparams, h.chart, g.chart)
        pair = PairContext(f=f, h=h, g=g, name=name, compact=compact)
        return ZooEntry(name, pair, _PAIR_FACTS.get(name, ()))
    raise ConfigError(f"unknown zoo entry {name!r}")


def build_map(name: str, params: dict, source_chart, target_chart) -> ChartedMap:
    """The zoo map ``name`` between two charts; unknown names and bad
    parameters raise ConfigError."""
    if name not in _MAPS:
        raise ConfigError(f"unknown zoo map {name!r}")
    row, where, params = _MAPS[name], f"{name}.", params or {}
    for key in params:
        if key not in row.reads:
            raise ConfigError(f"{where}{key}: {name} has no parameter {key!r} "
                              f"(it reads {', '.join(row.reads) or 'no parameters'})")
    holomorphic = isinstance(target_chart, ComplexChart) if row.holomorphic is None \
        else row.holomorphic
    return ChartedMap(source_chart, target_chart,
                      row.rule(params, where, source_chart.dim, target_chart.dim),
                      holomorphic=holomorphic, name=name)


def catalog_facts(name: str):
    """Documented, machine-checkable facts for an entry, with oracle tags."""
    if name in _FACTS:
        return list(_FACTS[name])
    if name in _PAIR_FACTS:
        return list(_PAIR_FACTS[name])
    if name in HERMITIAN_METRICS + RIEMANNIAN_METRICS or name in _PAIRS:
        return []
    raise ConfigError(f"unknown zoo entry {name!r}")
