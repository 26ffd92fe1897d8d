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
    phi: "0.2*re(z1)"               # optional weight for S03, in z1..zm, W1..Wm
    report: report.json
    format: structured              # or text

Errors are ConfigErrors that name the offending key, e.g. "suites[2]:
unknown suite 'S99'".  ``parse_config`` checks the plan's own keys (``report``
a file path, ``phi`` an expression string, ``pair`` a zoo pair name or a
table) before anything runs.  ``RunConfig.resolved_pair`` is the one walk
over ``pair``: it checks each key of the pair where it reads it and builds
the metrics, the map and the weight as it goes, so a mistake in a pair is
raised while the run resolves it.  Every expression entry must be a string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import dual as gm, exprs, zoo
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
        """The plan's pair: a zoo pair, or the inline table's source and
        target metrics and map, each key checked as it is read; with the
        plan's weight ``phi`` compiled in z1..zm, W1..Wm."""
        spec = self.pair_spec
        if isinstance(spec, str):
            if spec not in zoo.catalog_names()["map-pair"]:
                raise ConfigError(f"pair: unknown zoo pair {spec!r}")
            pair = zoo.build_entry(spec).obj
        else:
            _require_known(spec, "pair", "an inline pair has no key",
                           ("source", "target", "map", "name", "compact"))
            for part in ("source", "target", "map"):
                if not isinstance(spec.get(part), dict):
                    raise ConfigError(f"pair.{part}: " + ("must be a table" if part in spec
                                                          else "required key is missing"))
            compact = _flag(spec, "compact", "pair.")
            name = spec.get("name", "inline")
            if not isinstance(name, str):
                raise ConfigError(f"pair.name: expected a string, got {name!r}")
            h = _metric(spec["source"], "source")
            if not isinstance(h, HermitianMetricField):
                raise ConfigError("pair.source: source metric must be Hermitian")
            g = _metric(spec["target"], "target")
            mp = spec["map"]
            if "zoo" in mp:
                if mp["zoo"] not in zoo.catalog_names()["map"]:
                    raise ConfigError(f"pair.map.zoo: unknown map {mp['zoo']!r}")
                params = {k: v for k, v in mp.items() if k != "zoo"}
                f = zoo.build_map(mp["zoo"], params, h.chart, g.chart)
            elif "components" not in mp:
                raise ConfigError("pair.map: needs either zoo: <name> or components: [...]")
            else:
                _require_known(mp, "pair.map", "an inline map has no key",
                               ("components", "holomorphic"))
                holomorphic = _flag(mp, "holomorphic", "pair.map.")
                components = mp["components"]
                if not isinstance(components, list):
                    raise ConfigError("pair.map.components: expected a list of "
                                      f"expressions, got {components!r}")
                rule = _compiled(tuple(components), "z", h.chart.dim, "pair.map.components")
                if len(components) != g.chart.dim:
                    raise ConfigError("pair.map.components: arity does not match "
                                      "the target dimension")
                f = ChartedMap(h.chart, g.chart, rule, holomorphic=holomorphic,
                               name=spec.get("name", "inline-map"))
            pair = PairContext(f=f, h=h, g=g, name=name, compact=compact)
        if self.phi:
            compiled = _compiled(self.phi, "zW", pair.f.m, "phi")

            def phi(zs, Ws):
                return gm.real(compiled(tuple(zs) + tuple(Ws)))

            pair = replace(pair, phi=phi)
        return pair


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a YAML plan's own keys; malformed input and
    unknown names raise.  The keys of ``pair`` are checked as
    :meth:`RunConfig.resolved_pair` reads them.

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
    if not isinstance(raw["pair"], (str, dict)):
        raise ConfigError("pair: must be a zoo pair name or a table")
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
    for key, what in (("phi", "an expression string"), ("report", "a file path")):
        if raw.get(key) is not None and not isinstance(raw[key], str):
            raise ConfigError(f"{key}: expected {what}, got {raw[key]!r}")

    return RunConfig(pair_spec=raw["pair"], suites=list(suites), samples=samples,
                     seed=seed, tol_relative=tol_relative,
                     tol_exact=tol_exact, phi=raw.get("phi"),
                     report=raw.get("report"), format=fmt)


def _require_known(table: dict, where: str, what: str, keys: tuple):
    for key in table:
        if key not in keys:
            raise ConfigError(f"{where}.{key}: {what} {key!r} "
                              f"(it reads {', '.join(keys)})")


def _flag(table: dict, key: str, where: str) -> bool:
    """``table[key]``, false when absent; anything but a boolean raises."""
    value = table.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}{key}: expected true or false, got {value!r}")
    return value


def _compiled(entries, letters: str, dim: int, where: str):
    """``exprs.compile_rule`` of ``entries`` in each letter's coordinates
    1..dim, its ConfigError prefixed with the key ``where``."""
    names = [name for letter in letters for name in exprs.coordinate_names(letter, dim)]
    try:
        return exprs.compile_rule(entries, names)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _metric(spec: dict, key: str):
    """The metric ``pair.<key>`` names: a zoo metric with its parameters, or
    an inline one (dim, radius, metric, real) probe-validated at 100 points."""
    if "zoo" in spec:
        names = zoo.catalog_names()
        if spec["zoo"] not in names["hermitian-metric"] + names["riemannian-metric"]:
            raise ConfigError(f"pair.{key}.zoo: unknown metric {spec['zoo']!r}")
        params = {k: v for k, v in spec.items() if k != "zoo"}
        return zoo.build_entry(spec["zoo"], params).obj
    if "metric" not in spec or "dim" not in spec:
        raise ConfigError(f"pair.{key}: needs either zoo: <name> or "
                          "dim: + metric: [[...]]")
    _require_known(spec, f"pair.{key}", "an inline metric has no parameter",
                   ("dim", "radius", "metric", "real"))
    real = _flag(spec, "real", f"pair.{key}.")
    dim, radius = chart_params(spec, f"pair.{key}.", None, 0.9)
    entries = spec["metric"]
    if not (isinstance(entries, list) and len(entries) == dim
            and all(isinstance(row, list) and len(row) == dim for row in entries)):
        raise ConfigError(f"pair.{key}.metric: expected a {dim} x {dim} array")
    letter, chart_type, field_type = (("x", RealChart, RiemannianMetricField) if real
                                      else ("z", ComplexChart, HermitianMetricField))
    field = field_type(chart_type(dim=dim, radius=np.full(dim, radius)),
                       _compiled(entries, letter, dim, f"pair.{key}.metric"),
                       name=f"inline-{key}")
    field.validate(np.random.default_rng(20250809), count=100)
    return field
