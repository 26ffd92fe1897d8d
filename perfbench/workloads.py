"""The three certification workloads, the op list a seed draws for each, how
one op runs, and how its output is checked against the committed reference.

An op is one call into a library entry point: ``verify.run_suite`` on one pair
and one suite, or ``bundle.pushforward_energy_check`` at one base point.  A
sample is one point that reached a verdict: a suite sample, a pushforward base
point, or one S5_probe run.

Every input an op uses comes from a fixed pool: suite ops take a run_suite
seed from ``range(POOL)`` and pushforward ops a base point from a pool of
``POOL`` points per pair.  The workload seed only chooses from the pools and
orders the ops, so every op a run can draw has a committed reference outcome.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from projcurv import bundle, verify, zoo

from tracing import NullTracer, RuleCounter

POOL = 16
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Largest accepted deviation of a residual from its reference, relative to
# max(1, |reference|).  The engine's own backends already disagree by 1.6e-10
# (m=3 Y Hessian) and 2.7e-9 (Chern tensor), so a reordering of the
# arithmetic may move residuals by that much; 1e-7 leaves a factor 37 above
# the larger defect and stays a factor 10 below the 1e-6 verdict band, so a
# deviation the gate lets through cannot flip a verdict.
RESID_TOL = 1e-7
# pushforward_energy_check's own quadrature tolerance, used for the identity
# |m pi_*(Y) - u| <= PUSH_TOL * max(1, |u|).
PUSH_TOL = 1e-6

AUDIT_PAIRS = ("fs-to-poincare", "disc-square-to-poincare", "flat-torus-identity",
               "fs-line-in-plane", "realpart-flat", "pluri-flat3",
               "pluri-poincare", "pluri-sphere-slice")
HOLO_SUITES = ("S1", "S01", "S02", "S2", "S3", "S03", "exact_holo", "W_psd")
PROBE_PAIRS = ("fs2-to-ball", "flat-identity", "hopf-function")
# run_suite samples per audit_m1 op; fixed per-call cost dominates at this size
AUDIT_SAMPLES = 2
# pushforward pair -> (quadrature order, base-point ops per pass)
PUSH_PLAN = {"fs3-to-ball3": (4, 1), "fs2-to-ball": (8, 24)}


def build_fs3_to_ball3() -> verify.PairContext:
    """Fubini-Study (dim 3) to the Poincare ball (dim 3) by z -> 0.4 z; the zoo
    has no m = 3 pair, so it is assembled from zoo entries."""
    h = zoo.build_entry("fubini-study", {"dim": 3, "radius": 0.9}).obj
    g = zoo.build_entry("poincare-ball", {"dim": 3, "radius": 0.38}).obj
    f = zoo.build_map("linear", {"matrix": (0.4 * np.eye(3)).tolist()},
                      h.chart, g.chart)
    return verify.PairContext(f=f, h=h, g=g, name="fs3-to-ball3")


def _build_pair(name: str) -> verify.PairContext:
    return build_fs3_to_ball3() if name == "fs3-to-ball3" else zoo.build_entry(name).obj


WORKLOADS = ("audit_m1", "holo_m3", "fiber_density")


def op_kinds(name: str) -> list:
    """(op without its pool index, ops of that kind per pass) for a workload."""
    if name == "audit_m1":
        return [(("suite", p, s), 1) for p in AUDIT_PAIRS for s in verify.SUITE_TAGS]
    if name == "holo_m3":
        return [(("suite", "fs3-to-ball3", s), 1) for s in HOLO_SUITES]
    return ([(("suite", p, "S5_probe"), 1) for p in PROBE_PAIRS]
            + [(("push", p), per_pass) for p, (_, per_pass) in PUSH_PLAN.items()])


@dataclass
class Workload:
    name: str
    pairs: dict                  # pair name -> PairContext with counted rules
    counter: RuleCounter
    samples: int = 1             # run_suite samples per suite op
    base_points: dict = field(default_factory=dict)

    def pass_ops(self, rng) -> list:
        """One pass: every op kind of the workload as often as its weight,
        with pool entries and order drawn from ``rng``."""
        ops = [kind + (int(rng.integers(POOL)),)
               for kind, per_pass in op_kinds(self.name) for _ in range(per_pass)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def all_ops(self) -> list:
        """Every op any seed can draw (the reference's key set)."""
        return [kind + (k,) for kind, _ in op_kinds(self.name) for k in range(POOL)]


def build(name: str) -> Workload:
    """Construct the workload's pairs (zoo builds with their validation) and
    wrap their rules with evaluation counters."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    counter = RuleCounter()
    names = dict.fromkeys(kind[1] for kind, _ in op_kinds(name))
    pairs = {n: counter.wrap_pair(_build_pair(n)) for n in names}
    wl = Workload(name, pairs, counter, samples=AUDIT_SAMPLES if name == "audit_m1" else 1)
    for i, p in enumerate(PUSH_PLAN):
        if p in pairs:
            chart = pairs[p].h.chart
            wl.base_points[p] = [chart.sample(np.random.default_rng([1810, i, k]), 0.5)
                                 for k in range(POOL)]
    return wl


def op_key(op) -> str:
    return "|".join(str(x) for x in op)


@dataclass
class Outcome:
    """What one op produced: a report status with its residuals, or the type
    of the exception it raised."""

    status: str = ""
    values: tuple = ()
    raised: str = ""
    message: str = ""

    def signature(self):
        return (self.status, self.values, self.raised)


def _report(rep) -> dict:
    d = rep.to_dict()
    json.dumps(d)
    return d


def run_op(wl: Workload, op, tracer=NullTracer) -> Outcome:
    """Execute one op; any exception is caught here and recorded by type."""
    try:
        if op[0] == "suite":
            _, pair_name, suite, seed = op
            rep = tracer.call("verify.run_suite", verify.run_suite,
                              wl.pairs[pair_name], [suite], samples=wl.samples,
                              seed=seed, workers=1)[0]
            d = tracer.call("verify.report", _report, rep)
            return Outcome(status=d["status"], values=tuple(d["residuals"]))
        _, pair_name, k = op
        pair = wl.pairs[pair_name]
        pushed, u, _ = tracer.call(
            "bundle.pushforward", bundle.pushforward_energy_check,
            pair.f, pair.h, pair.g, wl.base_points[pair_name][k],
            order=PUSH_PLAN[pair_name][0], tol=PUSH_TOL)
        return Outcome(status="pass", values=(pushed, u))
    except Exception as exc:       # the op boundary: a run never aborts
        return Outcome(raised=type(exc).__name__, message=str(exc)[:200])


def sample_count(op, out: Outcome) -> int:
    """Points that reached a verdict."""
    if out.raised or out.status not in ("pass", "fail"):
        return 0
    if op[0] == "push" or op[2] == "S5_probe":
        return 1
    return len(out.values)


def is_failed_op(out: Outcome) -> bool:
    return bool(out.raised) or out.status == "error"


def _rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def check(op, out: Outcome, ref: dict) -> tuple[bool, float, str]:
    """Compare an op's outcome with its reference entry.

    Returns (ok, largest relative residual deviation, reason when not ok).
    A reference that records an exception accepts that exception type, or a
    finite "pass" verdict should the defect behind it be fixed.
    """
    if ref is None:
        return False, 0.0, "no reference entry"
    vals = out.values
    if any(not math.isfinite(v) for v in vals):
        return False, math.inf, "non-finite value"
    if "raises" in ref:
        if out.raised == ref["raises"] or (not out.raised and out.status == "pass"):
            return True, 0.0, ""
        return False, 0.0, f"expected {ref['raises']}, got {out.raised or out.status}"
    if out.raised:
        return False, 0.0, f"raised {out.raised}: {out.message}"
    if out.status != ref["status"]:
        return False, 0.0, f"status {out.status}, reference {ref['status']}"
    ref_vals = ref["values"]
    if len(vals) != len(ref_vals):
        return False, math.inf, f"{len(vals)} values, reference {len(ref_vals)}"
    dev = max((_rel_dev(a, b) for a, b in zip(vals, ref_vals)), default=0.0)
    if dev > RESID_TOL:
        return False, dev, f"residual deviation {dev:.3e} > {RESID_TOL:.0e}"
    if op[0] == "push":
        pushed, u = vals
        if abs(pushed - u) > PUSH_TOL * max(1.0, abs(u)):
            return False, dev, f"|m pi_*Y - u| = {abs(pushed - u):.3e}"
    return True, dev, ""


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["ops"]


def reference_entry(out: Outcome) -> dict:
    if out.raised:
        return {"raises": out.raised}
    return {"status": out.status, "values": list(out.values)}
