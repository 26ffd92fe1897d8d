"""Code lines of the projcurv package, per module and in total, and two
counts of its surface: the names ``__init__.py`` exports and the
parameters with a default value.

    python3 tools/code_lines.py

A code line is a source line that holds a token of code: blank lines,
comment-only lines and the lines of docstrings (the leading string of a
module, class or function body, found with ``ast``) are not counted, and a
statement split over several lines counts each line that holds one of its
tokens (found with ``tokenize``).  This is the count ROADMAP aim 2 quotes
beside ``wc -l src/projcurv/*.py``.  It prints one line per module, then
the total, then the number of exported names (each name a ``from .module
import`` of ``__init__.py`` binds) and the number of parameters with a
default value (of every function and lambda of the package; a default is
an option a caller may set), and exits 0 whatever the numbers are.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "projcurv"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of a module's bodies span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def exported_names(source: str) -> int:
    """The number of names a package ``__init__`` source binds by
    ``from ... import``."""
    return sum(len(node.names) for node in ast.parse(source).body
               if isinstance(node, ast.ImportFrom))


def defaulted_parameters(source: str) -> int:
    """The number of parameters with a default value, positional or
    keyword-only, of the functions and lambdas of a module's source."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def main() -> int:
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    counts = {name: code_lines(source) for name, source in sources.items()}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    print(f"{exported_names(sources['__init__.py']):6d}  names exported by __init__.py")
    print(f"{sum(map(defaulted_parameters, sources.values())):6d}  "
          "parameters with a default value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
