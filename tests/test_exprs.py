import re
import sys

import numpy as np
import pytest

import exprs_reference
from projcurv import diffops, exprs
from projcurv.charts import ComplexChart
from projcurv.errors import ConfigError
from projcurv.fields import ScalarField


class TestGrammar:
    def test_arithmetic_and_calls(self):
        rule = exprs.compile_rule("2*z1**2 - z2/4 + exp(log(1.5))", ["z1", "z2"])
        assert rule((2.0, 4.0)) == pytest.approx(8.0 - 1.0 + 1.5)

    def test_complex_literals(self):
        rule = exprs.compile_rule("1j*z1 + (2+3j)", ["z1"])
        assert rule((2.0,)) == pytest.approx(2 + 5j)

    def test_conj_abs2_re_im(self):
        rule = exprs.compile_rule("abs2(z1) + re(z1) - im(z1) + conj(z1)", ["z1"])
        z = 0.3 + 0.4j
        assert rule((z,)) == pytest.approx(0.25 + 0.3 - 0.4 + np.conj(z))

    def test_unknown_name_reports_coordinates(self):
        with pytest.raises(ConfigError, match="unknown name 'q'"):
            exprs.compile_rule("q + 1", ["z1"])

    def test_attribute_access_rejected(self):
        with pytest.raises(ConfigError):
            exprs.compile_rule("z1.real", ["z1"])

    def test_dunder_call_rejected(self):
        with pytest.raises(ConfigError):
            exprs.compile_rule("__import__('os').system('true')", ["z1"])

    def test_unlisted_function_rejected(self):
        with pytest.raises(ConfigError):
            exprs.compile_rule("sin(z1)", ["z1"])

    def test_comparison_rejected(self):
        with pytest.raises(ConfigError):
            exprs.compile_rule("z1 if 1 else 0", ["z1"])

    def test_syntax_error_position(self):
        with pytest.raises(ConfigError, match="column"):
            exprs.compile_rule("z1 + ", ["z1"])


class TestBackendCompatibility:
    def test_parsed_field_differentiates_both_ways(self):
        rule = exprs.compile_rule("log(1 + abs2(z1))", ["z1"])
        chart = ComplexChart(dim=1, radius=[2.0])
        F = ScalarField(chart, rule)
        z = [0.3 - 0.2j]
        g_fd = diffops.wirtinger_gradient(F, z, backend="fd")
        g_dual = diffops.wirtinger_gradient(F, z, backend="dual")
        expected = np.conj(z[0]) / (1 + abs(z[0]) ** 2)
        assert g_fd[0] == pytest.approx(expected, abs=1e-9)
        assert g_dual[0] == pytest.approx(expected, abs=1e-12)

    def test_matrix_rule(self):
        rule = exprs.compile_rule([["1/(1-abs2(z1))**2"]], ["z1"])
        out = rule((0.5,))
        assert out[0][0] == pytest.approx(1 / 0.75 ** 2)

    def test_vector_rule(self):
        rule = exprs.compile_rule(("z1**2", "re(z1)"), ["z1"])
        out = rule((2.0 + 1j,))
        assert out[0] == pytest.approx((2 + 1j) ** 2)
        assert out[1] == pytest.approx(2.0)


# inputs outside the grammar, each of which must fail closed with a
# ConfigError that names the expression
REJECTED = [
    "z1.real", "z1[0]", "z1[0:1]",                             # attributes, subscripts
    "lambda: z1", "(lambda: z1)()",                            # lambdas
    "[z1 for q in ()]", "exp(z1 for q in ())", "{q: z1 for q in ()}",
    "exp(x=z1)", "exp(**z1)", "exp(*z1)", "exp(z1, z1)",       # keyword, starred
    "f'{z1}'", "(q := z1)",                                    # f-strings, walrus
    "exp", "exp + 1", "__import__", "__import__('os')",        # bare names
    "'z1'", "b'1'", "None", "...", "z1 + ...",                 # non-numeric constants
    "True", "False", "z1 + True",                              # booleans
    "z1 // 2", "z1 % 2", "~z1", "not z1", "z1 < 1", "z1 and 1", "z1 if 1 else 0",
]


class TestFailClosed:
    @pytest.mark.parametrize("text", REJECTED)
    def test_rejected_naming_the_expression(self, text):
        with pytest.raises(ConfigError, match=re.escape(f"expression {text!r}: ")):
            exprs.compile_rule(text, ["z1"])

    @pytest.mark.parametrize("text", [t for t in REJECTED if "True" not in t
                                      and "False" not in t])
    def test_the_message_is_the_reference_interpreters(self, text):
        with pytest.raises(ConfigError) as want:
            exprs_reference.parse_expression(text, ["z1"])
        with pytest.raises(ConfigError) as got:
            exprs.compile_rule(text, ["z1"])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("text,value", [("True", True), ("False", False),
                                            ("z1 + True", True)])
    def test_booleans_are_not_numbers(self, text, value):
        # the reference interpreter takes them as 1 and 0
        with pytest.raises(ConfigError, match=f"literal {value!r} is not a number"):
            exprs.compile_rule(text, ["z1"])

    @pytest.mark.parametrize("entries, named", [
        (0.5, "0.5"), (None, "None"), (True, "True"), ([[None]], "None"),
        (("z1", 2), "2"), ([["1", 0.5]], "0.5")])
    def test_an_entry_that_is_not_a_string_is_refused(self, entries, named):
        # a number used to reach ast.parse and end in a TypeError
        with pytest.raises(ConfigError, match=re.escape(f"expression {named}: not a string")):
            exprs.compile_rule(entries, ["z1"])

    @pytest.mark.parametrize("text", [
        "-" * 3000 + "z1",                  # past the parser's depth
        "+".join(["z1"] * 20000),           # likewise
        "+".join(["z1"] * 2000)],           # parses; past the check's depth
        ids=["minus-3000", "chain-20000", "chain-2000"])
    @pytest.mark.parametrize("shape", ["scalar", "vector", "matrix"])
    def test_an_expression_nested_too_deeply_is_refused(self, text, shape):
        # it used to end in a RecursionError naming no expression; the
        # message echoes its first 40 characters and its length
        entries = {"scalar": text, "vector": ("z1", text), "matrix": [["z1", text]]}[shape]
        echo = f"expression {text[:40]!r}... ({len(text):,} characters): nested too deeply"
        with pytest.raises(ConfigError, match=re.escape(echo) + "$"):
            exprs.compile_rule(entries, ["z1"])

    @pytest.mark.parametrize("shape", ["scalar", "matrix"])
    def test_no_depth_ends_in_a_recursion_error(self, shape):
        # about the recursion limit, the check could pass an expression that
        # the compile step's location walk could not: every depth compiles
        # or is refused by name
        limit = sys.getrecursionlimit()
        for depth in range(limit - 150, limit + 10):
            text = "-" * depth + "z1"
            try:
                exprs.compile_rule(text if shape == "scalar" else [[text]], ["z1"])
            except ConfigError as exc:
                assert str(exc).endswith("nested too deeply"), depth

    def test_a_long_expression_is_echoed_as_a_prefix(self):
        text = "z1 + " * 30 + "q1"
        with pytest.raises(ConfigError, match=re.escape(
                f"expression {text[:40]!r}... (152 characters): unknown name 'q1'")):
            exprs.compile_rule(text, ["z1"])

    def test_a_rejected_entry_of_a_matrix_is_named(self):
        with pytest.raises(ConfigError, match=re.escape("expression 'z1.imag': ")):
            exprs.compile_rule([["1", "0"], ["0", "z1.imag"]], ["z1"])

    def test_a_rule_runs_without_builtins(self):
        scope = exprs.compile_rule([["z1 ** 2"]], ["z1"]).__globals__
        assert scope["__builtins__"] == {}
        assert set(scope) == {"__builtins__", "power", "exp", "log", "sqrt", "conj",
                              "re", "im", "abs2"}
