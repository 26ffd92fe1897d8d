"""A small arithmetic expression grammar for inline metrics and maps.

Grammar: numeric literals (including 1j; booleans are not numbers), the
coordinate names (z1..zm on complex charts and x1..xn on real ones; a
weight phi reads z1..zm and the fiber coordinates W1..Wm), the binary
operators + - * / **, unary minus and plus, and the calls exp, log, sqrt,
conj, re, im, abs2.

``compile_rule`` parses each expression with :mod:`ast` and walks it once
against a strict node whitelist.  The checked tree reads each coordinate
from the rule's argument tuple and calls ``dual.power`` for ``**``, and the
whole rule (a scalar, a vector or a matrix of expressions) compiles to one
function, which runs with no builtins and only the grammar's functions in
scope.  Each entry keeps its expression's operations in their order, so a
rule evaluates as the expression reads under both differentiation backends,
on Python numbers and on NumPy stacks.  ``**`` is ``dual.power``: 0 to a
complex power is NaN on a stack, as at a point.
"""

from __future__ import annotations

import ast

from . import dual as gm
from .errors import ConfigError

_FUNCS = {
    "exp": gm.exp,
    "log": gm.log,
    "sqrt": gm.sqrt,
    "conj": gm.conj,
    "re": gm.real,
    "im": gm.imag,
    "abs2": gm.abs2,
}

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)

# the compiled rules' globals; ``power`` and ``args`` are no grammar names,
# so an expression reaches them only as ``**`` and as its coordinates
_SCOPE = {"__builtins__": {}, "power": gm.power, **_FUNCS}
_ARGS = "args"


def _checked(node, text: str, names: list[str]):
    """``node`` with each coordinate read from the argument tuple and ``**``
    a call of ``power``; the first node outside the grammar, in evaluation
    order, raises a ConfigError naming ``text``."""
    def fail(message):
        raise ConfigError(f"expression {_echo(text)}: {message}")

    def check(node):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float, complex)) \
                    and not isinstance(node.value, bool):
                return node
            fail(f"literal {node.value!r} is not a number")
        if isinstance(node, ast.Name):
            if node.id not in names:
                fail(f"unknown name {node.id!r} (coordinates: {', '.join(names)})")
            return ast.Subscript(ast.Name(_ARGS, ast.Load()),
                                 ast.Constant(names.index(node.id)), ast.Load())
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, _BINOPS):
                fail(f"operator {type(node.op).__name__} not allowed")
            lhs, rhs = check(node.left), check(node.right)
            if isinstance(node.op, ast.Pow):
                return ast.Call(ast.Name("power", ast.Load()), [lhs, rhs], [])
            return ast.BinOp(lhs, node.op, rhs)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return ast.UnaryOp(ast.USub(), check(node.operand))
            if isinstance(node.op, ast.UAdd):
                return check(node.operand)
            fail(f"unary operator {type(node.op).__name__} not allowed")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                fail(f"only {', '.join(sorted(_FUNCS))} may be called")
            if node.keywords or len(node.args) != 1:
                fail(f"{node.func.id} takes exactly one positional argument")
            return ast.Call(ast.Name(node.func.id, ast.Load()), [check(node.args[0])], [])
        fail(f"syntax element {type(node).__name__} not allowed")

    return check(node)


def compile_rule(entries, names: list[str]):
    """Compile ``entries`` (an expression, a tuple of expressions or a list of
    rows of expressions) into one function rule(args) that returns a value,
    a tuple or a list of lists, with ``names`` bound in order to ``args``.
    An entry that is not a string, and one nested past the depth that the
    parser, the check or the compiler recurse to, is a ConfigError naming
    it (the whole rule, past the compiler's depth)."""
    def expression(text):
        if not isinstance(text, str):
            raise ConfigError(f"expression {text!r}: not a string")
        try:
            return _checked(ast.parse(text, mode="eval").body, text, names)
        except SyntaxError as exc:
            raise ConfigError(f"expression {_echo(text)}: {exc.msg} at column {exc.offset}")
        except RecursionError:
            raise _too_deep(text) from None

    if isinstance(entries, tuple):
        body = ast.Tuple([expression(e) for e in entries], ast.Load())
    elif isinstance(entries, list):
        body = ast.List([ast.List([expression(e) for e in row], ast.Load())
                         for row in entries], ast.Load())
    else:
        body = expression(entries)
    signature = ast.arguments(posonlyargs=[], args=[ast.arg(_ARGS)], kwonlyargs=[],
                              kw_defaults=[], defaults=[])
    try:
        tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(signature, body)))
        code = compile(tree, "<rule>", "eval")
    except RecursionError:
        raise _too_deep(entries) from None
    return eval(code, _SCOPE)


def _too_deep(text) -> ConfigError:
    return ConfigError(f"expression {_echo(text)}: nested too deeply")


def _echo(text) -> str:
    """``repr`` of an expression for a message, cut to a prefix when long."""
    text = str(text)
    return repr(text) if len(text) <= 60 else f"{text[:40]!r}... ({len(text):,} characters)"


def coordinate_names(prefix: str, dim: int) -> list[str]:
    return [f"{prefix}{k + 1}" for k in range(dim)]
