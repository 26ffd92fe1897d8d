"""Regenerate perfbench/reference.json: the outcome of every op any seed can
draw, computed with the library in this checkout.

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to move residuals or statuses, and
say so in the change; the benchmark's output check compares against it.
"""

from __future__ import annotations

import json
import platform
import sys
import time

from run import import_library


def main() -> int:
    import_library()
    import numpy as np
    import workloads

    ops = {}
    for name in workloads.WORKLOADS:
        t0 = time.perf_counter()
        wl = workloads.build(name)
        for op in wl.all_ops():
            key = workloads.op_key(op)
            if key not in ops:
                ops[key] = workloads.reference_entry(workloads.run_op(wl, op))
        print(f"{name}: {len(ops)} entries so far, {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)
    meta = {"python": platform.python_version(), "numpy": np.__version__,
            "pool": workloads.POOL}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        # one op per line, so a regenerated reference diffs op by op
        fh.write('{"meta": %s,\n"ops": {\n' % json.dumps(meta, sort_keys=True))
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(ops[k])}"
                             for k in sorted(ops)))
        fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
