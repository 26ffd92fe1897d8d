"""One SHA-256 per zoo pair over its verify.run_suite reports.

    python3 tools/zoo_digest.py

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
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (0, 3)
ALL_SUITES_SEED = 5
SAMPLES = 3


def main() -> None:
    sys.path.insert(0, str(SRC))
    from projcurv import verify, zoo

    for name in zoo.catalog_names()["map-pair"]:
        pair = zoo.build_entry(name).obj
        reports = [rep for seed in SEEDS for suite in verify.SUITE_TAGS
                   for rep in verify.run_suite(pair, [suite], samples=SAMPLES, seed=seed)]
        reports += verify.run_suite(pair, verify.SUITE_TAGS, samples=SAMPLES,
                                    seed=ALL_SUITES_SEED)
        digest = hashlib.sha256()
        for rep in reports:
            digest.update(json.dumps(rep.to_dict(), sort_keys=True).encode() + b"\n")
        print(f"{digest.hexdigest()}  {name}")


if __name__ == "__main__":
    main()
