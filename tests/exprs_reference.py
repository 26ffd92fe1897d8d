"""The closure interpreter of the inline grammar, kept as the reference that
``exprs.compile_rule`` is checked against: each AST node compiles to one
closure over the generic scalar math, and a rule evaluates by calling the
root's closure on the coordinate tuple.  It accepts what the compiled
rules accept and booleans too, and raises the same ConfigError messages.
"""

from __future__ import annotations

import ast

from projcurv import dual as gm
from projcurv.errors import ConfigError

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
