"""One SHA-256 per zoo pair over its verify.run_suite reports, or the
reports' values as JSON.

    python3 tools/zoo_digest.py
    python3 tools/zoo_digest.py --values > values.json

Run from anywhere; projcurv is imported from this checkout's src/.  Per
pair the digest covers every suite run alone at seeds 0 and 3 (samples 3)
and one call with all suites at seed 5 (samples 3): 42 reports, each
serialized by ``to_dict()`` (which leaves out the run time) as sorted-key
JSON.  Two builds that print the same lines give byte-identical reports on
the whole zoo, so a change meant to leave every number alone can be checked
by diffing this output before and after it, or across two fresh processes.
``tools/zoo_digest.txt`` holds the lines of the current build; CI diffs
against it, so a change that moves a zoo report updates that file too:

    python3 tools/zoo_digest.py | diff tools/zoo_digest.txt -

``--values`` prints the same 42 reports per pair as sorted-key JSON under
"reports", {pair: {report: {status, residuals, worst, message}}}, with the
report keyed "<suite> seed <s>" for a suite run alone and "<suite> seed 5
(all suites)" for the joint call.  Under "pushforward" it adds the values
(pushed, u) of ``bundle.pushforward_energy_check`` at order 8 on 8 seeded
base points of each PUSH_PAIRS pair, {pair: {"point <k>": {z, pushed,
u}}}, which no report carries.  ``tools/zoo_compare.py`` compares two such
files: how far a change that moves bytes moved the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (0, 3)
ALL_SUITES_SEED = 5
SAMPLES = 3
VALUE_KEYS = ("status", "residuals", "worst", "message")
# pushforward checks: pairs, base points per pair (drawn at 0.5 of the source
# chart from default_rng([PUSH_SEED, k])) and quadrature order
PUSH_PAIRS = ("fs2-to-ball", "hopf-function")
PUSH_POINTS = 8
PUSH_SEED = 18
PUSH_ORDER = 8


def pair_reports(verify, pair) -> list:
    """(key, report) for the 42 reports of one pair, in digest order."""
    out = [(f"{suite} seed {seed}", rep)
           for seed in SEEDS for suite in verify.SUITE_TAGS
           for rep in verify.run_suite(pair, [suite], samples=SAMPLES, seed=seed)]
    out += [(f"{rep.suite} seed {ALL_SUITES_SEED} (all suites)", rep)
            for rep in verify.run_suite(pair, verify.SUITE_TAGS, samples=SAMPLES,
                                        seed=ALL_SUITES_SEED)]
    return out


def pushforward_values(bundle, pair) -> dict:
    """{"point <k>": {z, pushed, u}} of the pushforward check on one pair;
    z as [[re, im], ...]."""
    out = {}
    for k in range(PUSH_POINTS):
        z = pair.h.chart.sample(np.random.default_rng([PUSH_SEED, k]), 0.5)
        pushed, u, _ = bundle.pushforward_energy_check(pair.f, pair.h, pair.g, z,
                                                       order=PUSH_ORDER)
        out[f"point {k}"] = {"z": [[c.real, c.imag] for c in z.tolist()],
                             "pushed": pushed, "u": u}
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", action="store_true",
                        help="print the reports' values as JSON instead of digests")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from projcurv import bundle, verify, zoo

    values = {}
    for name in zoo.catalog_names()["map-pair"]:
        reports = pair_reports(verify, zoo.build_entry(name).obj)
        if args.values:
            values[name] = {key: {k: v for k, v in rep.to_dict().items() if k in VALUE_KEYS}
                            for key, rep in reports}
            continue
        digest = hashlib.sha256()
        for _, rep in reports:
            digest.update(json.dumps(rep.to_dict(), sort_keys=True).encode() + b"\n")
        print(f"{digest.hexdigest()}  {name}")
    if args.values:
        pushforward = {name: pushforward_values(bundle, zoo.build_entry(name).obj)
                       for name in PUSH_PAIRS}
        print(json.dumps({"reports": values, "pushforward": pushforward},
                         sort_keys=True, indent=1))


if __name__ == "__main__":
    main()
