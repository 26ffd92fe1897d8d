"""The public API stays reachable: every name ``projcurv/__init__.py``
exports is referenced somewhere in ``src/projcurv`` outside its own
definition, unless it is on the short keep-list below, each entry with its
reason.  A function that no suite, probe, CLI path or other library code
calls is dead weight; this test keeps such code from growing back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "projcurv"

# name -> why it is exported with no caller in src/: an entry point, the
# ROADMAP item that will call it, or the test oracle it serves as
KEEP = {
    "generalized_Y": "entry point: Y at one bundle point (README library API)",
    "classical_energy_density": "entry point: u at one base point (README library API); "
                                "pushforward_energy_check's u equals it bit for bit",
    "pushforward_energy_check": "entry point: |df|^2 = m pi_*(Y) at one base point; "
                                "the fiber_density benchmark workload calls it",
    "verify_exact_identity": "entry point: single-point exact identity (README library API)",
    "assemble_W_form": "entry point: the W form at one bundle point (README library API), "
                       "the stack of one of the suites' stacked W forms",
    "wirtinger_hessian": "entry point: the mixed Hessian at one point as a Form11 (README "
                         "library API), the one-point view of the stacked mixed_hessians",
    "verify_form_inequality": "entry point: single-point form inequality (README library API)",
    "verify_trace_inequality": "entry point: single-point trace inequality (README library API)",
    "cross_check": "ROADMAP item 3: the fd/dual defect a suite report records",
    "holomorphic_sectional_curvature": "ROADMAP item 9: the hypotheses block; "
                                       "oracle of the zoo curvature tests",
    "riemannian_sectional_curvature": "ROADMAP item 9: the hypotheses block; "
                                      "oracle of the zoo curvature tests",
    "complex_sectional_curvature": "ROADMAP item 9: the hypotheses block; "
                                   "oracle of the zoo curvature tests",
    "riemannian_normal_coordinates": "ROADMAP item 10: harmonic maps on the real P(T_M)",
    "key3_check": "ROADMAP item 10: harmonic maps on the real P(T_M)",
    "hermitian_harmonic_residual": "ROADMAP item 10: harmonic maps on the real P(T_M)",
    "hatC_value": "test oracle: the zoo's pluri-harmonic pair facts",
    "constraint_D_check": "test oracle: the zoo's pluri-harmonic pair facts",
    "catalog_facts": "test oracle: the facts each zoo pair is checked against",
}


def _exported() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _references() -> set[str]:
    """Every identifier and attribute name used in the package's modules,
    except a top-level definition's uses of its own name."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            used = {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(stmt)
                    if isinstance(node, (ast.Name, ast.Attribute))}
            names |= used - {getattr(stmt, "name", None)}
    return names


def _unreferenced() -> set[str]:
    refs = _references()
    return {name for name in _exported() if name not in refs}


def test_every_export_has_a_caller_or_a_reason():
    dead = sorted(_unreferenced() - set(KEEP))
    assert not dead, (f"exported but referenced nowhere in src/projcurv: {dead}; "
                      "give each a caller, delete it, or add it to KEEP with a reason")


def test_keep_list_is_not_stale():
    # an entry that gained a caller, or is no longer exported, leaves the list
    stale = sorted(set(KEEP) - _unreferenced())
    assert not stale, f"KEEP entries that are referenced or not exported: {stale}"
