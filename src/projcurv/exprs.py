"""A small arithmetic expression grammar for inline metrics and maps.

Grammar: numeric literals (including 1j), coordinate names (z1..zm on complex
charts, x1..xn on real charts, w1.. for fiber slots when present), the binary
operators + - * / **, unary minus, and the calls exp, log, sqrt, conj, re,
im, abs2.  Expressions are parsed with :mod:`ast` against a strict node
whitelist and compiled to closures over the generic scalar math, so parsed
rules evaluate under both differentiation backends.  ``**`` is
``dual.power``: 0 to a complex power is NaN on a stack, as at a point.
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

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: gm.power,
}


def parse_expression(text: str, names: list[str]):
    """Compile an expression into rule(scalars) with ``names`` bound in order."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"expression {text!r}: {exc.msg} at column {exc.offset}")
    index = {name: k for k, name in enumerate(names)}

    def compile_node(node):
        if isinstance(node, ast.Expression):
            return compile_node(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float, complex)):
                v = node.value
                return lambda env: v
            raise ConfigError(f"expression {text!r}: literal {node.value!r} "
                              "is not a number")
        if isinstance(node, ast.Name):
            if node.id not in index:
                raise ConfigError(f"expression {text!r}: unknown name "
                                  f"{node.id!r} (coordinates: {', '.join(names)})")
            k = index[node.id]
            return lambda env: env[k]
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise ConfigError(f"expression {text!r}: operator "
                                  f"{type(node.op).__name__} not allowed")
            lhs = compile_node(node.left)
            rhs = compile_node(node.right)
            return lambda env: op(lhs(env), rhs(env))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                sub = compile_node(node.operand)
                return lambda env: -sub(env)
            if isinstance(node.op, ast.UAdd):
                return compile_node(node.operand)
            raise ConfigError(f"expression {text!r}: unary operator "
                              f"{type(node.op).__name__} not allowed")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ConfigError(f"expression {text!r}: only "
                                  f"{', '.join(sorted(_FUNCS))} may be called")
            if node.keywords or len(node.args) != 1:
                raise ConfigError(f"expression {text!r}: {node.func.id} takes "
                                  "exactly one positional argument")
            fn = _FUNCS[node.func.id]
            arg = compile_node(node.args[0])
            return lambda env: fn(arg(env))
        raise ConfigError(f"expression {text!r}: syntax element "
                          f"{type(node).__name__} not allowed")

    return compile_node(tree)


def coordinate_names(prefix: str, dim: int) -> list[str]:
    return [f"{prefix}{k + 1}" for k in range(dim)]


def matrix_rule(entries: list[list[str]], names: list[str]):
    """Rule returning a matrix of expression values; used for inline metrics."""
    compiled = [[parse_expression(e, names) for e in row] for row in entries]

    def rule(scalars):
        return [[c(scalars) for c in row] for row in compiled]

    return rule


def vector_rule(entries: list[str], names: list[str]):
    compiled = [parse_expression(e, names) for e in entries]

    def rule(scalars):
        return tuple(c(scalars) for c in compiled)

    return rule
