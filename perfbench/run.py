"""projcurv benchmark: closed-loop certification workloads, one process, workers=1.

    python3 perfbench/run.py --workload audit_m1 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The untraced run (--trace 0) measures the
end-to-end metrics; the traced run (--trace 1) repeats the same passes with
span wrappers installed and reports the per-layer metrics.  Both check every
op's output against perfbench/reference.json.  Times are corrected for the
host's speed drift with the interleaved kernel of yardstick.py; the summary
lines also give the uncorrected figures.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Metric names
and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# NumPy, projcurv and the modules beside this file are imported inside
# functions: a set-up probe must time those imports itself.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
# op time between two kernel slices; each slice costs about 10 ms
SLICE_EVERY_S = 0.2


def import_library():
    """Import projcurv from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import projcurv
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import projcurv from {SRC}: {exc}")
    if Path(projcurv.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: projcurv imported from {projcurv.__file__}, "
                         f"not from {SRC}")
    return projcurv


def setup_workload(name: str, trace: bool = False):
    """Import the library and build the workload; returns (workload, seconds,
    setup counters).  Setup is import, zoo/pair construction with its metric
    validation and holomorphic checks, and rule wrapping."""
    t0 = time.perf_counter()
    import_library()
    import tracing
    import workloads
    counts = Counter()
    if trace:
        t_build = time.perf_counter()
        with tracing.counting_validation(counts):
            wl = workloads.build(name)
        counts["zoo.build_ms"] = (time.perf_counter() - t_build) * 1e3
    else:
        wl = workloads.build(name)
    return wl, time.perf_counter() - t0, counts


def measure_setup(name: str) -> tuple[float, float]:
    """Median set-up time over fresh interpreter processes: (corrected, raw)."""
    corrected, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        corrected.append(probe["setup_s"])
        raw.append(probe["setup_raw_s"])
    return statistics.median(corrected), statistics.median(raw)


def setup_probe(name: str) -> dict:
    """Set up once in this fresh process, then take kernel slices on the same
    core to correct the set-up time for the host's speed."""
    _, raw, _ = setup_workload(name)
    import yardstick
    speed = yardstick.SpeedLog()
    speed.take()
    speed.take()
    return {"setup_s": raw * speed.factor_at(speed.ends[0]), "setup_raw_s": raw}


class Phase:
    """Ops run, checked and tallied over whole passes, with the kernel slices
    taken between them."""

    def __init__(self):
        import yardstick
        self.speed = yardstick.SpeedLog()
        self.passes = []
        self.ops = 0
        self.samples = 0
        self.failed_ops = 0
        self.failed_checks = 0
        self.dev_max = 0.0
        self.op_starts = []
        self.latencies_s = []
        self.raised = Counter()
        self.problems = []
        self.signatures = []
        self.rule_counts = Counter()

    def latencies_ms(self, corrected: bool = True) -> list:
        if not corrected:
            return [d * 1e3 for d in self.latencies_s]
        f = self.speed.factor_at
        return [d * f(t) * 1e3 for t, d in zip(self.op_starts, self.latencies_s)]

    def wall_s(self, corrected: bool = True) -> float:
        return self.speed.corrected_wall() if corrected else self.speed.raw_wall()


def run_passes(wl, passes, reference, tracer=None, seconds=None) -> Phase:
    """Run ``passes`` (an iterable of op lists) in order, checking each op.

    With ``seconds``, stop after the first whole pass that ends at least that
    long after the start.
    """
    import tracing
    import workloads
    tr = tracer or tracing.NullTracer
    ph = Phase()
    wl.counter.counts.clear()
    ph.speed.take()
    t_start = time.perf_counter()
    since_slice = 0.0
    for ops in passes:
        ph.passes.append(ops)
        for op in ops:
            t0 = time.perf_counter()
            out = workloads.run_op(wl, op, tr)
            dt = time.perf_counter() - t0
            ph.op_starts.append(t0)
            ph.latencies_s.append(dt)
            ok, dev, why = workloads.check(op, out, reference.get(workloads.op_key(op)))
            ph.ops += 1
            ph.dev_max = max(ph.dev_max, dev)
            ph.signatures.append(out.signature())
            if out.raised:
                ph.raised[out.raised] += 1
            if not ok:
                ph.failed_checks += 1
                if len(ph.problems) < 10:
                    ph.problems.append(f"{workloads.op_key(op)}: {why}")
            if workloads.is_failed_op(out) or not ok:
                ph.failed_ops += 1
            else:
                ph.samples += workloads.sample_count(op, out)
            since_slice += dt
            if since_slice >= SLICE_EVERY_S:
                ph.speed.take()
                since_slice = 0.0
        if seconds is not None and time.perf_counter() - t_start >= seconds:
            break
    ph.speed.take()
    ph.rule_counts = wl.counter.snapshot()
    return ph


def _pass_stream(wl, rng):
    while True:
        yield wl.pass_ops(rng)


def end_to_end(ph: Phase, setup_s: float, corrected: bool = True) -> dict:
    lat = ph.latencies_ms(corrected)
    return {
        "samples_per_s": ph.samples / ph.wall_s(corrected),
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "verdict_op_share": 1.0 - ph.failed_ops / ph.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(tracer, traced: Phase, untraced: Phase, setup_counts) -> dict:
    """Per-sample layer metrics of the traced phase.  Layer times are span
    self times, each corrected by the speed factor at the span's start."""
    factor = traced.speed.factor_at
    self_s = Counter()
    calls = Counter()
    for (name, t0, _, _), ns in zip(tracer.spans, tracer.self_ns()):
        self_s[name] += ns * 1e-9 * factor(t0 * 1e-9)
        calls[name] += 1
    per = 1.0 / max(traced.samples, 1)
    out = {}
    for span, s in self_s.items():
        if span.startswith("diffops.hessian."):
            name = "diffops.hessian_ms." + span.split(".", 2)[2]
        elif span == "verify.run_suite":
            name = "verify.runner_self_ms"
        else:
            name = span + "_ms"
        out[name] = out.get(name, 0.0) + s * 1e3 * per
    out["diffops.hessian_calls"] = per * sum(
        c for s, c in calls.items() if s.startswith("diffops.hessian."))
    for span in ("curvature.chern", "maps.jacobians", "maps.generalized_Y"):
        out[span + "_calls"] = calls[span] * per
    out["bundle.fiber_nodes"] = per * tracer.count_children(
        "maps.generalized_Y", "bundle.fiber_integrate")
    for key, n in traced.rule_counts.items():
        out[key] = n * per
    out["zoo.build_ms"] = setup_counts["zoo.build_ms"]
    out["zoo.validate_points"] = setup_counts["zoo.validate_points"]
    out["trace.overhead"] = traced.wall_s() / untraced.wall_s()
    out["verify.resid_dev_max"] = max(traced.dev_max, untraced.dev_max)
    out["failed_op_share"] = traced.failed_ops / traced.ops
    return out


def declared_metrics(kind: str) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def write_spans(tracer, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, (name, t0, t1, parent) in enumerate(tracer.spans):
            fh.write(json.dumps([i, name, t0, t1, parent]) + "\n")
    return path


def summary(name, seed, ph: Phase, metrics: dict, raw: dict) -> str:
    raised = ", ".join(f"{k} {v}" for k, v in sorted(ph.raised.items())) or "none"
    lines = [f"perfbench {name} seed={seed}: {ph.ops} ops in {len(ph.passes)} passes, "
             f"{ph.samples} samples, {ph.wall_s(False):.2f} s measured "
             f"({ph.wall_s():.2f} s at reference speed)",
             f"  failed_op_share = {ph.failed_ops / ph.ops:.6g} ({ph.failed_ops} ops; "
             f"raised: {raised}; failed output checks: {ph.failed_checks})"]
    lines += [f"  {k} = {v:.6g}" + (f"  (uncorrected {raw[k]:.6g})" if raw.get(k, v) != v else "")
              for k, v in metrics.items()]
    lines += [f"  check: {p}" for p in ph.problems]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up and print the set-up time (internal)")
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload)))
        return 0

    wl, _, setup_counts = setup_workload(args.workload, trace=bool(args.trace))
    import numpy as np
    import tracing
    import workloads
    reference = workloads.load_reference()
    setup_s, setup_raw = measure_setup(args.workload)

    warm = run_passes(wl, [wl.pass_ops(np.random.default_rng([args.seed, 1]))],
                      reference)
    seconds = args.seconds / 2 if args.trace else args.seconds
    ph = run_passes(wl, _pass_stream(wl, np.random.default_rng([args.seed, 0])),
                    reference, seconds=seconds)
    correct = warm.failed_checks == 0 and ph.failed_checks == 0

    raw = {}
    if not args.trace:
        values = end_to_end(ph, setup_s)
        raw = end_to_end(ph, setup_raw, corrected=False)
        attempted, failed = ph.ops, ph.failed_checks
        kind = "end_to_end"
    else:
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            tph = run_passes(wl, ph.passes, reference, tracer)
        identical = tph.signatures == ph.signatures
        counts_repeat = tph.rule_counts == ph.rule_counts
        if not identical:
            print("perfbench: traced outcomes differ from untraced ones", file=sys.stderr)
        if not counts_repeat:
            print("perfbench: rule counts differ between two runs of the same ops",
                  file=sys.stderr)
        correct = correct and tph.failed_checks == 0 and identical and counts_repeat
        values = per_layer(tracer, tph, ph, setup_counts)
        path = write_spans(tracer, args.workload, args.seed)
        print(f"perfbench: {len(tracer.spans)} spans written to "
              f"{path.relative_to(ROOT)}")
        attempted = ph.ops + tph.ops
        failed = ph.failed_checks + tph.failed_checks
        kind = "per_layer"

    metrics = {}
    for m in declared_metrics(kind):
        # a per-layer metric is absent when its layer never ran on this workload
        value = values[m["name"]] if kind == "end_to_end" else values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    print(summary(args.workload, args.seed, ph,
                  {k: v["value"] for k, v in metrics.items()}, raw))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
