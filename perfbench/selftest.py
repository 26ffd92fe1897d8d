"""Self-tests of the benchmark harness (not of the library).

    python3 perfbench/selftest.py

They check that a seed fixes the op list, that a failing op is counted and
never raised, that tracing changes no outcome and no rule count, that the
output check rejects a residual moved beyond its tolerance, and that the
command prints the result line it promises.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

import run

run.import_library()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# cheap audit ops: one per suite family, including a known-defect op
SMALL_OPS = [("suite", "fs-to-poincare", "S1", 3),
             ("suite", "fs-to-poincare", "S02", 5),
             ("suite", "realpart-flat", "hessian", 1),
             ("suite", "realpart-flat", "S1", 2),
             ("suite", "fs-line-in-plane", "S3", 0),
             ("suite", "flat-torus-identity", "S5_probe", 7)]


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.audit = workloads.build("audit_m1")
        cls.reference = workloads.load_reference()

    def test_op_list_is_fixed_by_the_seed(self):
        for name in workloads.WORKLOADS:
            wl = workloads.Workload(name, {}, tracing.RuleCounter())
            a = [wl.pass_ops(np.random.default_rng([9, 0])) for _ in range(3)]
            b = [wl.pass_ops(np.random.default_rng([9, 0])) for _ in range(3)]
            c = wl.pass_ops(np.random.default_rng([10, 0]))
            self.assertEqual(a, b)
            self.assertNotEqual(a[0], c)
            # another seed draws other pool entries but the same op kinds
            self.assertEqual(sorted(op[:-1] for op in a[0]),
                             sorted(op[:-1] for op in c))
            keys = {workloads.op_key(op) for op in wl.all_ops()}
            self.assertTrue(all(workloads.op_key(op) in keys for op in c))

    def test_every_drawable_op_has_a_reference(self):
        for name in workloads.WORKLOADS:
            wl = workloads.Workload(name, {}, tracing.RuleCounter())
            missing = [op for op in wl.all_ops()
                       if workloads.op_key(op) not in self.reference]
            self.assertEqual(missing, [])

    def test_failing_op_is_counted_not_raised(self):
        def broken(zs):
            raise ArithmeticError("deliberate")
        pair = self.audit.pairs["fs-to-poincare"]
        bad = dataclasses.replace(pair, g=dataclasses.replace(pair.g, rule=broken))
        wl = dataclasses.replace(self.audit, pairs={**self.audit.pairs,
                                                    "fs-to-poincare": bad})
        op = ("suite", "fs-to-poincare", "S1", 3)
        ph = run.run_passes(wl, [[op, ("suite", "realpart-flat", "hessian", 1)]],
                            self.reference)
        self.assertEqual(ph.ops, 2)
        self.assertEqual(ph.failed_ops, 1)
        self.assertEqual(ph.failed_checks, 1)
        self.assertEqual(ph.raised["ArithmeticError"], 1)
        self.assertEqual(ph.samples, 2)

    def test_known_defect_op_is_a_failed_op_with_a_matching_check(self):
        ph = run.run_passes(self.audit, [[("suite", "fs-line-in-plane", "S3", 0)]],
                            self.reference)
        self.assertEqual((ph.failed_ops, ph.failed_checks), (1, 0))

    def test_tracing_changes_no_outcome_and_no_rule_count(self):
        plain = run.run_passes(self.audit, [SMALL_OPS], self.reference)
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced = run.run_passes(self.audit, [SMALL_OPS], self.reference, tracer)
        again = run.run_passes(self.audit, [SMALL_OPS], self.reference)
        self.assertEqual(plain.signatures, traced.signatures)
        self.assertEqual(plain.rule_counts, traced.rule_counts)
        self.assertEqual(plain.rule_counts, again.rule_counts)
        self.assertGreater(plain.rule_counts["rules.f_evals.dual"], 0)
        self.assertEqual(plain.failed_checks, 0)
        self.assertTrue(tracer.spans)
        self.assertTrue(all(s is not None for s in tracer.spans))
        # wrappers are removed on exit
        from projcurv import diffops
        self.assertEqual(diffops.wirtinger_hessian.__module__, "projcurv.diffops")

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        tracer.call("outer", lambda: tracer.call("inner", sum, range(10000)))
        (_, o0, o1, _), (_, i0, i1, parent) = tracer.spans
        self.assertEqual(parent, 0)
        self.assertEqual(tracer.self_ns(), [(o1 - o0) - (i1 - i0), i1 - i0])

    def test_check_rejects_moved_residual(self):
        op = ("suite", "fs-to-poincare", "S1", 3)
        ref = self.reference[workloads.op_key(op)]
        out = workloads.Outcome(status=ref["status"], values=tuple(ref["values"]))
        self.assertTrue(workloads.check(op, out, ref)[0])
        moved = tuple(v + 1e-5 for v in ref["values"])
        self.assertFalse(workloads.check(
            op, workloads.Outcome(status=ref["status"], values=moved), ref)[0])
        small = tuple(v + 1e-9 for v in ref["values"])
        self.assertTrue(workloads.check(
            op, workloads.Outcome(status=ref["status"], values=small), ref)[0])
        nan = workloads.Outcome(status=ref["status"], values=(float("nan"),) * len(moved))
        self.assertFalse(workloads.check(op, nan, ref)[0])

    def test_command_prints_result_line(self):
        proc = subprocess.run(
            [sys.executable, str(Path(run.__file__).resolve()), "--workload",
             "audit_m1", "--seed", "2", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=run.ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        declared = {m["name"] for m in run.declared_metrics("end_to_end")}
        self.assertEqual(set(result["metrics"]), declared)


if __name__ == "__main__":
    unittest.main()
