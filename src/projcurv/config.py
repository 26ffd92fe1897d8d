"""Run-plan parsing, validation and resolution into executable objects.

A plan is a YAML key/value tree.  Example:

    seed: 7
    samples: 25
    suites: [S1, S01, exact_holo, W_psd]
    pair: fs-to-poincare            # a zoo pair name, or an inline table:
    # pair:
    #   source: {zoo: fubini-study, dim: 1, radius: 0.9}
    #   target: {dim: 1, radius: 0.55, metric: [["1/(1-abs2(z1))**2"]]}
    #   map: {components: ["z1"], holomorphic: true}
    phi: "0.2*re(z1)"               # optional weight for S03
    report: report.json
    format: structured              # or text

Semantic errors name the offending key, e.g. "suites[2]: unknown suite 'S99'".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import exprs, zoo
from .charts import ComplexChart, RealChart
from .errors import ConfigError, chart_params, number
from .fields import HermitianMetricField, RiemannianMetricField
from .maps import ChartedMap
from .verify import (DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TOL_EXACT,
                     DEFAULT_TOL_RELATIVE, SUITE_TAGS, PairContext)


@dataclass
class RunConfig:
    pair_spec: object
    suites: list
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    tol_relative: float = DEFAULT_TOL_RELATIVE
    tol_exact: float = DEFAULT_TOL_EXACT
    phi: str | None = None
    report: str | None = None
    format: str = "structured"

    def resolved_pair(self) -> PairContext:
        return _resolve_pair(self.pair_spec, self.phi)


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a YAML plan; malformed input and unknown names raise.

    ``overrides`` (plan key -> value, e.g. from command-line flags) replace
    the plan's values before validation, so they pass the same checks.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not well-formed YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a key/value tree")
    raw.update(overrides or {})

    known = {"pair", "suites", "samples", "seed", "tol_relative", "tol_exact",
             "phi", "report", "format"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration key")

    if "pair" not in raw:
        raise ConfigError("pair: required key is missing")
    suites = raw.get("suites", [])
    if not isinstance(suites, list):
        raise ConfigError("suites: must be an array of suite names")
    for k, s in enumerate(suites):
        if s not in SUITE_TAGS:
            raise ConfigError(f"suites[{k}]: unknown suite {s!r}")

    samples = number(raw, "samples", DEFAULT_SAMPLES, int)
    if samples < 1:
        raise ConfigError("samples: must be >= 1")
    seed = number(raw, "seed", DEFAULT_SEED, int)
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    tol_relative = number(raw, "tol_relative", DEFAULT_TOL_RELATIVE, float)
    tol_exact = number(raw, "tol_exact", DEFAULT_TOL_EXACT, float)
    if not (0 < tol_relative < math.inf and 0 < tol_exact < math.inf):
        raise ConfigError("tol_relative/tol_exact: tolerances must be positive and finite")
    fmt = raw.get("format", "structured")
    if fmt not in ("structured", "text"):
        raise ConfigError(f"format: must be 'structured' or 'text', got {fmt!r}")

    pair_spec = raw["pair"]
    _validate_pair_spec(pair_spec)

    return RunConfig(pair_spec=pair_spec, suites=list(suites), samples=samples,
                     seed=seed, tol_relative=tol_relative,
                     tol_exact=tol_exact, phi=raw.get("phi"),
                     report=raw.get("report"), format=fmt)


def _validate_pair_spec(spec):
    if isinstance(spec, str):
        if spec not in zoo.catalog_names()["map-pair"]:
            raise ConfigError(f"pair: unknown zoo pair {spec!r}")
        return
    if not isinstance(spec, dict):
        raise ConfigError("pair: must be a zoo pair name or a table")
    _require_known(spec, "pair", "an inline pair", ("source", "target", "map", "name",
                                                    "compact"))
    for part in ("source", "target", "map"):
        if part not in spec:
            raise ConfigError(f"pair.{part}: required key is missing")
    _require_boolean(spec, "compact", "pair.")
    for part in ("source", "target"):
        sub = spec[part]
        if not isinstance(sub, dict):
            raise ConfigError(f"pair.{part}: must be a table")
        if "zoo" in sub:
            name = sub["zoo"]
            names = zoo.catalog_names()
            if name not in names["hermitian-metric"] + names["riemannian-metric"]:
                raise ConfigError(f"pair.{part}.zoo: unknown metric {name!r}")
        elif "metric" not in sub or "dim" not in sub:
            raise ConfigError(f"pair.{part}: needs either zoo: <name> or "
                              "dim: + metric: [[...]]")
    mp = spec["map"]
    if not isinstance(mp, dict):
        raise ConfigError("pair.map: must be a table")
    if "zoo" in mp:
        if mp["zoo"] not in zoo.catalog_names()["map"]:
            raise ConfigError(f"pair.map.zoo: unknown map {mp['zoo']!r}")
    elif "components" not in mp:
        raise ConfigError("pair.map: needs either zoo: <name> or components: [...]")
    else:
        _require_known(mp, "pair.map", "an inline map", ("components", "holomorphic"))
        _require_boolean(mp, "holomorphic", "pair.map.")


def _require_known(table: dict, where: str, what: str, keys: tuple):
    for key in table:
        if key not in keys:
            raise ConfigError(f"{where}.{key}: {what} has no key {key!r} "
                              f"(it reads {', '.join(keys)})")


def _require_boolean(table: dict, key: str, where: str):
    if key in table and not isinstance(table[key], bool):
        raise ConfigError(f"{where}{key}: expected true or false, got {table[key]!r}")


def _resolve_metric(spec: dict, key: str):
    if "zoo" in spec:
        params = {k: v for k, v in spec.items() if k != "zoo"}
        return zoo.build_entry(spec["zoo"], params).obj
    for k in spec:
        if k not in ("dim", "radius", "metric", "real"):
            raise ConfigError(f"pair.{key}.{k}: an inline metric has no parameter {k!r} "
                              "(it reads dim, radius, metric, real)")
    _require_boolean(spec, "real", f"pair.{key}.")
    dim, radius = chart_params(spec, f"pair.{key}.", None, 0.9)
    entries = spec["metric"]
    if len(entries) != dim or any(len(row) != dim for row in entries):
        raise ConfigError(f"pair.{key}.metric: expected a {dim} x {dim} array")
    if spec.get("real"):
        names = exprs.coordinate_names("x", dim)
        chart = RealChart(dim=dim, radius=np.full(dim, radius))
        field = RiemannianMetricField(chart, exprs.matrix_rule(entries, names),
                                      name=f"inline-{key}")
    else:
        names = exprs.coordinate_names("z", dim)
        chart = ComplexChart(dim=dim, radius=np.full(dim, radius))
        field = HermitianMetricField(chart, exprs.matrix_rule(entries, names),
                                     name=f"inline-{key}")
    field.validate(np.random.default_rng(20250809), count=100)
    return field


def _resolve_pair(spec, phi_text=None) -> PairContext:
    if isinstance(spec, str):
        pair = zoo.build_entry(spec).obj
    else:
        h = _resolve_metric(spec["source"], "source")
        if not isinstance(h, HermitianMetricField):
            raise ConfigError("pair.source: source metric must be Hermitian")
        g = _resolve_metric(spec["target"], "target")
        mp = spec["map"]
        if "zoo" in mp:
            params = {k: v for k, v in mp.items() if k != "zoo"}
            f = zoo.build_map(mp["zoo"], params, h.chart, g.chart)
        else:
            names = exprs.coordinate_names("z", h.chart.dim)
            rule = exprs.vector_rule(list(mp["components"]), names)
            if len(mp["components"]) != g.chart.dim:
                raise ConfigError("pair.map.components: arity does not match "
                                  "the target dimension")
            f = ChartedMap(h.chart, g.chart, rule,
                           holomorphic=mp.get("holomorphic", False),
                           name=str(spec.get("name", "inline-map")))
        pair = PairContext(f=f, h=h, g=g, name=str(spec.get("name", "inline")),
                           compact=spec.get("compact", False))
    if phi_text:
        names = exprs.coordinate_names("z", pair.f.m) \
            + exprs.coordinate_names("W", pair.f.m)
        compiled = exprs.parse_expression(phi_text, names)

        def phi(zs, Ws, _c=compiled):
            from . import dual as gm
            return gm.real(_c(tuple(zs) + tuple(Ws)))

        pair = replace(pair, phi=phi)
    return pair
