"""Configuration-driven verification runner.

Exit codes: 0 when every requested suite passes or is routed not-applicable,
1 when any suite fails its tolerance band and nothing else, 2 on
configuration or evaluation errors (including unwritable report paths and
unexpected exceptions, which the report's "error" names by type).

The machine-readable report is JSON with a schema_version field; reruns with
the same plan and seed are byte-identical apart from the timestamp.  Schema
version 2 dropped ``tolerances.quadrature_order`` from every suite report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import config as config_mod
from .errors import GeometryError
from .verify import SUITE_TAGS, run_suite

SCHEMA_VERSION = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projcurv",
        description="certify curvature inequalities for energy densities "
                    "on projectivized tangent bundles")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run verification suites from a plan")
    v.add_argument("--config", required=True, help="path to the YAML plan")
    v.add_argument("--suite", nargs="*", default=None, metavar="NAME",
                   help="override the plan's suite list "
                        f"(known: {', '.join(SUITE_TAGS)})")
    v.add_argument("--samples", type=int, default=None,
                   help="override the sample count")
    v.add_argument("--seed", type=int, default=None, help="override the seed")
    v.add_argument("--tol-relative", type=float, default=None,
                   help="override the relative tolerance band")
    v.add_argument("--report", default=None, help="override the report path")
    v.add_argument("--format", choices=("text", "structured"), default=None,
                   help="report file format")
    return parser


def execute(cfg: config_mod.RunConfig) -> tuple[int, dict]:
    """Run a resolved plan; returns (exit_code, report_document)."""
    doc = {"schema_version": SCHEMA_VERSION, "reports": []}
    try:
        pair = cfg.resolved_pair()
        reports = run_suite(pair, cfg.suites, samples=cfg.samples, seed=cfg.seed,
                            tol_relative=cfg.tol_relative, tol_exact=cfg.tol_exact)
        doc["reports"] = [rep.to_dict() for rep in reports]
    except GeometryError as exc:
        doc["error"] = str(exc)
    except Exception as exc:       # exit 1 must mean "a band was violated"
        doc["error"] = f"{type(exc).__name__}: {exc}"
    statuses = {rep["status"] for rep in doc["reports"]}
    if "error" in doc or "error" in statuses:
        code, doc["verdict"] = 2, "error"
    elif "fail" in statuses:
        code, doc["verdict"] = 1, "fail"
    else:
        code, doc["verdict"] = 0, "pass"
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return code, doc


def _human_summary(doc: dict) -> str:
    lines = []
    for rep in doc.get("reports", []):
        status = rep["status"].upper().replace("_", "-")
        extra = ""
        if rep["residuals"]:
            worst = rep.get("worst", {}).get("residual")
            if worst is not None:
                extra = f"  worst residual {worst: .3e}"
        if rep.get("message"):
            extra += f"  [{rep['message']}]"
        lines.append(f"{rep['suite']:<12} {rep['pair']:<24} {status:<14}{extra}")
    lines.append(f"verdict: {doc.get('verdict', 'error')}")
    if "error" in doc:
        lines.append(f"error: {doc['error']}")
    return "\n".join(lines)


def _render_text_report(doc: dict) -> str:
    lines = [f"schema_version: {doc['schema_version']}",
             f"timestamp: {doc['timestamp']}",
             f"verdict: {doc['verdict']}"]
    for rep in doc.get("reports", []):
        lines.append(f"suite {rep['suite']} pair {rep['pair']} "
                     f"status {rep['status']} samples {rep['samples']}")
        if rep["residuals"]:
            lines.append(f"  residual range [{min(rep['residuals']):.6e}, "
                         f"{max(rep['residuals']):.6e}]")
    if "error" in doc:
        lines.append(f"error: {doc['error']}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in (
        ("suites", args.suite), ("samples", args.samples), ("seed", args.seed),
        ("tol_relative", args.tol_relative), ("report", args.report),
        ("format", args.format)) if value is not None}
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = config_mod.parse_config(fh.read(), overrides)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    code, doc = execute(cfg)

    for rep in doc.get("reports", []):
        if rep["status"] == "not_applicable":
            print(f"warning: suite {rep['suite']} not applicable: "
                  f"{rep['message']}", file=sys.stderr)

    if cfg.report:
        try:
            payload = (json.dumps(doc, sort_keys=True, indent=2) + "\n"
                       if cfg.format == "structured" else _render_text_report(doc))
            with open(cfg.report, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2

    print(_human_summary(doc))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
