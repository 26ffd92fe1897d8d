"""tools/zoo_compare.py on synthetic ``zoo_digest.py --values`` outputs: a
drift at or below 1e-12 passes, anything else that moved fails, for the
suite reports and the pushforward values alike; and tools/code_lines.py,
which counts the package's code lines, exported names and parameters with
a default."""

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


zoo_compare = _load("zoo_compare")
code_lines = _load("code_lines")

POINT = {"z": [[0.1, 0.2]], "W": [[1.0, 0.0]]}
REPORTS = {
    "fs-to-poincare": {
        "S1 seed 0": {"status": "pass", "residuals": [0.5, -1e-10, 2.0],
                      "worst": {"residual": -1e-10, "point": POINT,
                                "eigenvector": [[1.0, 0.0], [0.0, 0.0]]},
                      "message": ""},
        "S5_probe seed 0": {"status": "pass", "residuals": [1.5, -0.25],
                            "worst": {"pattern": "contradiction-shaped", "y_max": 0.3,
                                      "term1": 1.5, "term2": -0.25, "conclusion": None,
                                      "status": "evaluated"},
                            "message": "pattern=contradiction-shaped"},
    },
    "flat-identity": {
        "W_psd seed 3": {"status": "not_applicable", "residuals": [], "worst": {},
                         "message": "requires a complex target"},
    },
}
PUSHFORWARD = {
    "fs2-to-ball": {
        "point 0": {"z": [[0.1, 0.2], [0.0, -0.1]], "pushed": 1.25, "u": 1.2500000000000002},
    },
}
BASE = {"reports": REPORTS, "pushforward": PUSHFORWARD}


def moved(edit):
    new = copy.deepcopy(BASE)
    edit(new)
    return new


def run(tmp_path, capsys, new):
    paths = []
    for name, doc in (("old.json", BASE), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    code = zoo_compare.main(paths)
    return code, capsys.readouterr().out


def s1(doc):
    return doc["reports"]["fs-to-poincare"]["S1 seed 0"]


def probe(doc):
    return doc["reports"]["fs-to-poincare"]["S5_probe seed 0"]


def push(doc):
    return doc["pushforward"]["fs2-to-ball"]["point 0"]


def test_identical_files_pass(tmp_path, capsys):
    code, out = run(tmp_path, capsys, copy.deepcopy(BASE))
    assert code == 0
    assert out.splitlines() == [
        "0 of 11 values moved; max drift 0; 0 change(s) beyond a drift of 1e-12"]


def test_ulp_drift_passes_and_is_reported(tmp_path, capsys):
    def edit(doc):
        s1(doc)["residuals"][2] = 2.0 + 2 ** -51        # one ulp: relative above 1
        s1(doc)["residuals"][1] = -1e-10 + 4e-17        # absolute below 1
    code, out = run(tmp_path, capsys, moved(edit))
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("fs-to-poincare"))
    assert row.split()[:2] == ["fs-to-poincare", "S1"]
    assert [float(v) for v in row.split()[2:4]] == [2.22e-16, 4.44e-16]
    assert int(row.split()[4]) == 2
    assert "2 of 11 values moved" in out


def test_pushforward_ulp_drift_passes_and_is_reported(tmp_path, capsys):
    def edit(doc):
        push(doc)["pushed"] = 1.25 + 2 ** -52
    code, out = run(tmp_path, capsys, moved(edit))
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("fs2-to-ball"))
    assert row.split()[:2] == ["fs2-to-ball", "pushforward"]
    assert [float(v) for v in row.split()[2:5]] == [1.78e-16, 2.22e-16, 1]
    assert "1 of 11 values moved" in out


@pytest.mark.parametrize("edit,what", [
    (lambda d: s1(d)["residuals"].__setitem__(0, 0.5 + 2e-12), "drift 2.000e-12 > 1e-12"),
    (lambda d: probe(d)["worst"].__setitem__("y_max", 0.3 * (1 + 1e-9)), "drift"),
    (lambda d: s1(d).__setitem__("status", "fail"), "status 'pass' -> 'fail'"),
    (lambda d: probe(d).__setitem__("message", "pattern=consistent"), "message"),
    (lambda d: probe(d)["worst"].__setitem__("pattern", "consistent"), "worst"),
    (lambda d: s1(d)["worst"].__setitem__("point", {"z": [[0.3, 0.0]], "W": [[1.0, 0.0]]}),
     "worst"),
    (lambda d: s1(d)["residuals"].__setitem__(1, math.nan), "-1e-10 -> nan"),
    (lambda d: s1(d)["residuals"].pop(), "count 3 -> 2"),
    (lambda d: d["reports"]["flat-identity"].pop("W_psd seed 3"), "only in the old file"),
    (lambda d: d["reports"].pop("flat-identity"),
     "flat-identity: only in the old file's reports"),
    (lambda d: push(d).__setitem__("u", 1.25 * (1 + 1e-11)), "drift"),
    (lambda d: push(d).__setitem__("pushed", math.nan), "1.25 -> nan"),
    (lambda d: push(d).__setitem__("z", [[0.1, 0.2], [0.0, 0.1]]), "z "),
    (lambda d: d["pushforward"]["fs2-to-ball"].pop("point 0"), "only in the old file"),
    (lambda d: d["pushforward"].pop("fs2-to-ball"),
     "fs2-to-ball: only in the old file's pushforward"),
], ids=["residual", "probe-scalar", "status", "message", "pattern", "argmax", "nan",
        "count", "report", "pair", "push-drift", "push-nan", "push-point", "push-entry",
        "push-pair"])
def test_any_other_move_fails(tmp_path, capsys, edit, what):
    code, out = run(tmp_path, capsys, moved(edit))
    assert code == 1
    changed = [line for line in out.splitlines() if line.startswith("CHANGED ")]
    assert changed and any(what in line for line in changed), out


def test_eigenvector_is_reported_not_gated(tmp_path, capsys):
    # the worst sample's eigenvector turns by perturbation / eigenvalue gap
    def edit(doc):
        s1(doc)["worst"]["eigenvector"] = [[0.99999, 0.0], [0.0, 0.0045]]
    code, out = run(tmp_path, capsys, moved(edit))
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("fs-to-poincare"))
    assert float(row.split()[2]) == 0 and float(row.split()[5]) == pytest.approx(0.0045)


def test_nan_against_nan_is_no_drift():
    assert zoo_compare._drift(math.nan, math.nan) == (0.0, 0.0)
    assert zoo_compare._drift(1.0, math.nan) == (math.inf, math.inf)
    assert zoo_compare._drift(4.0, 4.0 + 4e-12) == pytest.approx((1e-12, 4e-12))


def test_usage(capsys):
    assert zoo_compare.main(["one.json"]) == 2
    assert "usage" in capsys.readouterr().err


def test_a_file_without_both_sections_is_rejected(tmp_path, capsys):
    # the reports alone at the top level (the layout before the pushforward
    # section) would otherwise compare as zero values
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    paths[0].write_text(json.dumps(REPORTS))
    paths[1].write_text(json.dumps(BASE))
    assert zoo_compare.main([str(p) for p in paths]) == 2
    assert "old.json: not a zoo_digest.py --values output" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{", "", "[1, 2]", "7"],
                         ids=["truncated", "empty", "list", "number"])
def test_a_file_that_is_not_a_values_output_is_exit_two(tmp_path, capsys, text):
    # CI's drift log fails only on exit 2, so a broken file must not read as
    # a drift (exit 1) or a traceback
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    paths[0].write_text(text)
    paths[1].write_text(json.dumps(BASE))
    assert zoo_compare.main([str(p) for p in paths]) == 2
    assert "old.json: not a zoo_digest.py --values output" in capsys.readouterr().err
    assert zoo_compare.main([str(tmp_path / "missing.json"), str(paths[1])]) == 2


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment on a code line


def f(x,
      y):
    """A docstring."""
    # a comment line

    s = """a string that is
    not a docstring"""
    return math.hypot(x, y), s
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, def (two lines), s = (two lines), return
    assert code_lines.code_lines(SOURCE) == 6


def test_code_lines_prints_each_module_and_the_total(capsys):
    assert code_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[:-2]]
    counts = {name: int(count) for count, name in rows}
    modules = sorted(path.name for path in code_lines.SRC.glob("*.py"))
    assert [name for _, name in rows] == modules + ["total"]
    assert counts["total"] == sum(counts[name] for name in modules) > 0
    # then the package's exported names and parameters with a default
    init = (code_lines.SRC / "__init__.py").read_text()
    defaults = sum(code_lines.defaulted_parameters(path.read_text())
                   for path in code_lines.SRC.glob("*.py"))
    assert lines[-2:] == [f"{code_lines.exported_names(init):6d}  names exported by __init__.py",
                          f"{defaults:6d}  parameters with a default value"]


PACKAGE_INIT = '''"""A package."""

from .a import f, g as h
from .b import (C,
                D)
import numpy as np
__version__ = "1"
'''

DEFAULTS = '''
def f(x, y=1, *args, z, w=None, **kw):
    def inner(a=2):
        return a
    return lambda u, v=3: u


class C:
    def method(self, p, q=(), *, r=0.5, s):
        pass

    async def later(self, t=None):
        pass

    size: int = 4       # a class attribute, not a parameter
'''


def test_exported_names_count_the_from_imports():
    # f, h (g renamed), C and D; a plain import and an assignment bind no export
    assert code_lines.exported_names(PACKAGE_INIT) == 4


def test_defaulted_parameters_count_every_function_and_lambda():
    # f: y, w; inner: a; the lambda: v; method: q, r; later: t.  Parameters
    # without a default (x, z, p, s) and *args, **kw are not counted
    assert code_lines.defaulted_parameters(DEFAULTS) == 7
    assert code_lines.defaulted_parameters(SOURCE) == 0
