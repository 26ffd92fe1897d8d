"""How far the zoo reports moved between two builds.

    python3 tools/zoo_digest.py --values > new.json      (in each build)
    python3 tools/zoo_compare.py old.json new.json

Reads two outputs of ``tools/zoo_digest.py --values`` and prints, per pair
and suite with a difference, the largest drift of its values over the
suite's reports: the residuals and the scalars of ``worst`` (residual,
y_max, term1, term2).  The pushforward values (pushed, u) at each base
point are compared the same way, as the suite "pushforward".  A value's
drift is |new - old| / max(1, |old|), absolute below 1 and relative above,
as the benchmark measures residual deviations; the absolute drift is
printed beside it.  A summary line follows.

The worst sample's eigenvector is printed apart and not gated: it belongs
to the residual form's smallest eigenvalue, which is fd noise of about
1e-10 on the equality-case pairs, and an eigenvector moves by the
perturbation over the eigenvalue gap, so an ulp in the form turned it
by up to 3.3e-6 on the zoo.

Exits 1 when a drift exceeds DRIFT_TOL, or when anything that is not a
drift changed: a status, a message (it carries the S5 probe's pattern), the
worst point (the argmax of the residuals), a non-numeric entry of
``worst`` (the probe's pattern and conclusion), the number of residuals, a
pushforward base point, a NaN that appeared or went, or the set of pairs,
reports and base points.  Exits 0 otherwise, and 2 when the arguments
or a file are not two ``--values`` outputs (missing, not JSON, or without
both sections).
"""

from __future__ import annotations

import json
import math
import sys

DRIFT_TOL = 1e-12
# the scalars of a report's ``worst``; with the eigenvector these are its
# numeric entries, and the rest (the worst point, the probe's pattern,
# conclusion and status) must not change
SCALAR_WORST = ("residual", "y_max", "term1", "term2")
NUMERIC_WORST = SCALAR_WORST + ("eigenvector",)


def _numbers(report) -> list:
    """The report's gated values in a fixed order: its residuals, then the
    scalars of ``worst``."""
    worst = report["worst"]
    return list(report["residuals"]) + [worst[k] for k in SCALAR_WORST if k in worst]


def _eigenvector(report) -> list:
    return [part for entry in report["worst"].get("eigenvector", ()) for part in entry]


def _fixed(report) -> dict:
    """What must not change at all: status, message, the residual count and
    the non-numeric entries of ``worst`` (the worst point among them)."""
    return {"status": report["status"], "message": report["message"],
            "count": len(report["residuals"]),
            "worst": {k: v for k, v in report["worst"].items() if k not in NUMERIC_WORST},
            "numbers": len(_numbers(report)), "eigenvector": len(_eigenvector(report))}


def _report_parts(key: str, report) -> tuple:
    """(suite, what must not change, gated numbers, eigenvector) of a report."""
    return _suite(key), _fixed(report), _numbers(report), _eigenvector(report)


def _pushforward_parts(key: str, entry) -> tuple:
    """The same for the pushforward check at one base point: its point must
    not change, and (pushed, u) are gated."""
    return "pushforward", {"z": entry["z"]}, [entry["pushed"], entry["u"]], []


SECTIONS = (("reports", _report_parts), ("pushforward", _pushforward_parts))


def _drift(old: float, new: float) -> tuple[float, float]:
    """(drift, absolute drift) of one value; NaN against NaN is no drift."""
    if math.isnan(old) or math.isnan(new):
        return (0.0, 0.0) if math.isnan(old) and math.isnan(new) else (math.inf, math.inf)
    if old == new:
        return 0.0, 0.0
    diff = abs(new - old)
    return diff / max(1.0, abs(old)), diff


def _suite(key: str) -> str:
    return key.split(" ", 1)[0]


def compare(old: dict, new: dict) -> tuple[list, list]:
    """(rows, changes).  rows: (pair, suite, drift, absolute drift, moved
    values, eigenvector drift) for each pair and suite whose numbers moved;
    changes: one line per thing that must not change and did."""
    changes = []
    cells = {}
    for section, parts in SECTIONS:
        a_pairs, b_pairs = old[section], new[section]
        for pair in sorted(set(a_pairs) | set(b_pairs)):
            if pair not in a_pairs or pair not in b_pairs:
                changes.append(f"{pair}: only in the {'new' if pair in b_pairs else 'old'} "
                               f"file's {section}")
                continue
            for key in sorted(set(a_pairs[pair]) | set(b_pairs[pair])):
                a, b = a_pairs[pair].get(key), b_pairs[pair].get(key)
                if a is None or b is None:
                    changes.append(f"{pair} / {key}: only in the "
                                   f"{'new' if a is None else 'old'} file")
                    continue
                suite, fa, xs, va = parts(key, a)
                _, fb, ys, vb = parts(key, b)
                for what in fa:
                    if fa[what] != fb[what]:
                        changes.append(f"{pair} / {key}: {what} {fa[what]!r} -> {fb[what]!r}")
                if fa != fb:
                    continue
                cell = cells.setdefault((pair, suite), [0.0, 0.0, 0, 0.0])
                for x, y in zip(xs, ys):
                    rel, diff = _drift(x, y)
                    if math.isinf(rel):
                        changes.append(f"{pair} / {key}: {x!r} -> {y!r}")
                    if diff:
                        cell[0] = max(cell[0], rel)
                        cell[1] = max(cell[1], diff)
                        cell[2] += 1
                for x, y in zip(va, vb):
                    cell[3] = max(cell[3], _drift(x, y)[1])
    rows = [(pair, suite, *cell) for (pair, suite), cell in sorted(cells.items())
            if cell[2] or cell[3]]
    changes += [f"{pair} / {suite}: drift {rel:.3e} > {DRIFT_TOL:.0e}"
                for pair, suite, rel, *_ in rows if rel > DRIFT_TOL]
    return rows, changes


def total_values(doc: dict) -> int:
    """The number of gated values in a ``--values`` file."""
    return sum(len(parts(key, entry)[2]) for section, parts in SECTIONS
               for entries in doc[section].values()
               for key, entry in entries.items())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: zoo_compare.py OLD.json NEW.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:     # JSONDecodeError is a ValueError
            doc = exc
        if not isinstance(doc, dict):
            why = doc if isinstance(doc, Exception) else f"a JSON {type(doc).__name__}"
            print(f"{path}: not a zoo_digest.py --values output ({why})", file=sys.stderr)
            return 2
        docs.append(doc)
    for path, doc in zip(argv, docs):
        if sorted(doc) != sorted(name for name, _ in SECTIONS):
            print(f"{path}: not a zoo_digest.py --values output (its keys are "
                  f"{sorted(doc)[:4]})", file=sys.stderr)
            return 2
    old, new = docs
    rows, changes = compare(old, new)
    if rows:
        print(f"{'pair':<26} {'suite':<12} {'drift':>10} {'abs drift':>10} {'moved':>6}"
              f" {'eigvec':>10}")
    for pair, suite, rel, diff, moved, vec in rows:
        print(f"{pair:<26} {suite:<12} {rel:10.2e} {diff:10.2e} {moved:6d} {vec:10.2e}")
    total = total_values(old)
    moved = sum(row[4] for row in rows)
    worst = max(rows, key=lambda r: r[2], default=None)
    print(f"{moved} of {total} values moved; max drift "
          + (f"{worst[2]:.2e} ({worst[0]} / {worst[1]})" if worst else "0")
          + f"; {len(changes)} change(s) beyond a drift of {DRIFT_TOL:.0e}")
    for line in changes:
        print(f"CHANGED {line}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
