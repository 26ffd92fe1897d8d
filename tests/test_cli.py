import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

from projcurv import cli, config, verify
from projcurv.errors import ConfigError

MINIMAL = """
seed: 7
samples: 3
suites: [S1]
pair: fs-to-poincare
"""


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = config.parse_config(MINIMAL)
        assert cfg.samples == 3
        assert cfg.suites == ["S1"]
        pair = cfg.resolved_pair()
        assert pair.name == "fs-to-poincare"

    def test_defaults_are_those_of_run_suite(self):
        # a plan that sets nothing runs what run_suite runs by default
        defaults = inspect.signature(verify.run_suite).parameters
        cfg = config.parse_config("pair: fs-to-poincare\nsuites: [S1]\n")
        for key in ("samples", "seed", "tol_relative", "tol_exact"):
            assert getattr(cfg, key) == defaults[key].default, key
        assert (config.RunConfig(pair_spec="fs-to-poincare", suites=[]).samples
                == defaults["samples"].default)

    def test_empty_suites_valid(self):
        cfg = config.parse_config("pair: flat-identity\nsuites: []\n")
        assert cfg.suites == []

    def test_unknown_suite_names_key(self):
        with pytest.raises(ConfigError, match=r"suites\[1\]"):
            config.parse_config("pair: flat-identity\nsuites: [S1, S99]\n")

    def test_unknown_pair(self):
        with pytest.raises(ConfigError, match="unknown zoo pair"):
            config.parse_config("pair: no-such-pair\nsuites: [S1]\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            config.parse_config("pair: flat-identity\nsuites: []\nfrobnicate: 1\n")

    @pytest.mark.parametrize("key", ["workers", "quadrature_order"])
    def test_removed_keys_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key}: unknown configuration key"):
            config.parse_config(MINIMAL + f"{key}: 2\n")

    def test_malformed_yaml(self):
        with pytest.raises(ConfigError, match="well-formed"):
            config.parse_config("pair: [unclosed\n")

    def test_range_errors(self):
        with pytest.raises(ConfigError, match="samples"):
            config.parse_config("pair: flat-identity\nsuites: []\nsamples: 0\n")
        with pytest.raises(ConfigError, match="tolerances"):
            config.parse_config("pair: flat-identity\nsuites: []\ntol_relative: -1\n")

    @pytest.mark.parametrize("key, value", [
        ("samples", "abc"), ("seed", "abc"), ("tol_relative", "abc"),
        ("tol_exact", "[1]"), ("samples", ".inf")])
    def test_non_numeric_values(self, key, value):
        # bare int()/float() used to raise ValueError, TypeError or OverflowError
        with pytest.raises(ConfigError, match=f"{key}: expected a number, got "):
            config.parse_config(f"pair: flat-identity\nsuites: []\n{key}: {value}\n")

    @pytest.mark.parametrize("key, value", [
        ("samples", "true"), ("seed", "true"), ("seed", "false"),
        ("tol_relative", "true"), ("tol_exact", "true")])
    def test_boolean_values_rejected(self, key, value):
        # int(True) is 1 and float(True) is 1.0: tol_relative: true widened
        # the band to 100%, seed: true ran seed 1
        message = f"{key}: expected a number, got {value.title()}"
        with pytest.raises(ConfigError, match=message):
            config.parse_config(f"pair: flat-identity\nsuites: []\n{key}: {value}\n")

    @pytest.mark.parametrize("key, value", [
        ("samples", "2.7"), ("seed", "0.5"), ("samples", "1.5")])
    def test_non_integral_counts_rejected(self, key, value):
        # int(2.7) is 2: the plan used to run fewer samples than it asked for
        with pytest.raises(ConfigError, match=f"{key}: expected an integer, got "):
            config.parse_config(f"pair: flat-identity\nsuites: []\n{key}: {value}\n")

    def test_integral_values_accepted(self):
        cfg = config.parse_config("pair: flat-identity\nsuites: []\n"
                                  "samples: 3.0\nseed: 4\ntol_exact: 1\n")
        assert (cfg.samples, cfg.seed, cfg.tol_exact) == (3, 4, 1.0)
        assert type(cfg.samples) is int and type(cfg.tol_exact) is float

    @pytest.mark.parametrize("text", ["seed: -1", "seed: -1.0"])
    def test_negative_seed_rejected(self, text):
        # np.random.default_rng raised on it mid-run, naming no key
        with pytest.raises(ConfigError, match="seed: must be >= 0, got -1"):
            config.parse_config(f"pair: flat-identity\nsuites: []\n{text}\n")

    def test_overrides_pass_the_plan_checks(self):
        cfg = config.parse_config(MINIMAL, {"seed": 0, "suites": ["W_psd"]})
        assert (cfg.seed, cfg.suites, cfg.samples) == (0, ["W_psd"], 3)
        with pytest.raises(ConfigError, match="tolerances"):
            config.parse_config(MINIMAL, {"tol_relative": float("nan")})
        with pytest.raises(ConfigError, match=r"suites\[0\]"):
            config.parse_config(MINIMAL, {"suites": ["S99"]})

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_tolerance(self, value):
        # a NaN band compares False with every residual, so nothing could fail
        with pytest.raises(ConfigError, match="tolerances"):
            config.parse_config(f"pair: flat-identity\nsuites: []\ntol_exact: {value}\n")

    def test_inline_pair(self):
        text = """
pair:
  source: {dim: 1, radius: 0.9, metric: [["1/(1+abs2(z1))**2"]]}
  target: {dim: 1, radius: 0.55, metric: [["1/(1-abs2(z1))**2"]]}
  map: {components: ["z1*0.5"], holomorphic: true}
suites: [S1]
samples: 2
"""
        cfg = config.parse_config(text)
        pair = cfg.resolved_pair()
        assert pair.f.holomorphic
        assert pair.h.dim == 1

    @pytest.mark.parametrize("part, spec, message", [
        ("source", "{zoo: fubini-study, dim: 1.5}",
         r"fubini-study\.dim: expected an integer, got 1\.5"),
        ("source", "{zoo: fubini-study, dim: true}",
         r"fubini-study\.dim: expected a number, got True"),
        ("source", "{zoo: fubini-study, dimension: 2}",
         r"fubini-study\.dimension: fubini-study has no parameter 'dimension'"),
        ("target", "{zoo: poincare-disc, dim: 1.5}", r"poincare-disc\.dim: expected an integer"),
        ("target", "{zoo: poincare-disc, radius: 0.8}",
         r"poincare-disc\.radius: .* past the singular set"),
        ("target", "{zoo: flat-torus, fundamental_domain: 1.0}",
         r"flat-torus\.fundamental_domain: flat-torus has no parameter 'fundamental_domain'"),
        ("source", '{dim: 1.9, metric: [["1"]]}',
         r"pair\.source\.dim: expected an integer, got 1\.9"),
        ("source", '{dim: true, metric: [["1"]]}', r"pair\.source\.dim: expected a number"),
        ("source", '{dim: 1, metric: [["1"]], radus: 0.5}',
         r"pair\.source\.radus: an inline metric has no parameter 'radus'"),
        ("target", '{dim: 1, radius: .nan, metric: [["1"]]}',
         r"pair\.target\.radius: must be positive and finite"),
        ("target", '{dim: 1, metric: [["1"]], real: "false"}',
         r"pair\.target\.real: expected true or false, got 'false'")])
    def test_metric_parameters_pass_the_plan_checks(self, part, spec, message):
        # dim: 1.5 ran at dim 1, dim: 1.9 inline truncated to 1, an unknown key
        # was ignored, the Poincare guard let a chart corner leave the disc,
        # and real: "false" made a Riemannian metric
        specs = {"source": "{zoo: flat, dim: 1}", "target": "{zoo: flat, dim: 1}", part: spec}
        cfg = config.parse_config(
            f"pair:\n  source: {specs['source']}\n  target: {specs['target']}\n"
            "  map: {zoo: identity}\nsuites: [S1]\nsamples: 2\n")
        with pytest.raises(ConfigError, match=message):
            cfg.resolved_pair()

    @pytest.mark.parametrize("pair_spec, message", [
        ("source: {zoo: flat, dim: 1}\n  target: {zoo: flat, dim: 1}\n"
         "  map: {zoo: identity}\n  compcat: true",
         r"pair\.compcat: an inline pair has no key 'compcat' \(it reads source, "
         r"target, map, name, compact\)"),
        ("source: {zoo: flat, dim: 1}\n  target: {zoo: flat, dim: 1}\n"
         "  map: {zoo: identity}\n  compact: 'yes'",
         r"pair\.compact: expected true or false, got 'yes'"),
        ("source: {zoo: flat, dim: 1}\n  target: {zoo: flat, dim: 1}\n"
         "  map: {components: ['z1*z1'], holomorfic: true}",
         r"pair\.map\.holomorfic: an inline map has no key 'holomorfic' \(it reads "
         r"components, holomorphic\)"),
        ("source: {zoo: flat, dim: 1}\n  target: {zoo: flat, dim: 1}\n"
         "  map: {components: ['z1*z1'], holomorphic: 1}",
         r"pair\.map\.holomorphic: expected true or false, got 1")])
    def test_inline_pair_keys_fail_closed(self, pair_spec, message):
        # compcat: true resolved to a pair with compact False, and
        # holomorfic: true to a map flagged non-holomorphic, without a word
        with pytest.raises(ConfigError, match=message):
            config.parse_config(f"pair:\n  {pair_spec}\nsuites: [S1]\nsamples: 2\n")

    @pytest.mark.parametrize("map_spec, message", [
        ("{zoo: power, exponent: 2.5}", r"power\.exponent: expected an integer, got 2\.5"),
        ("{zoo: power, exponet: 3}", r"power\.exponet: power has no parameter 'exponet'")])
    def test_inline_zoo_map_parameters_fail_closed(self, map_spec, message):
        # both used to run exponent 2
        cfg = config.parse_config(
            "pair:\n  source: {zoo: flat, dim: 1}\n  target: {zoo: flat, dim: 1}\n"
            f"  map: {map_spec}\nsuites: [S1]\nsamples: 2\n")
        with pytest.raises(ConfigError, match=message):
            cfg.resolved_pair()

    def test_phi_expression(self):
        cfg = config.parse_config(MINIMAL + 'phi: "0.2*re(z1)"\n')
        pair = cfg.resolved_pair()
        assert pair.phi is not None
        assert pair.phi((0.5,), (1.0,)) == pytest.approx(0.1)


class TestCliScenarios:
    def test_all_pass_exit_zero(self, tmp_path):
        plan = tmp_path / "plan.yaml"
        report = tmp_path / "report.json"
        plan.write_text(MINIMAL + f"report: {report}\n")
        code = cli.main(["verify", "--config", str(plan)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["verdict"] == "pass"
        assert all(r["status"] == "pass" for r in doc["reports"])
        assert doc["schema_version"] == 2
        assert "quadrature_order" not in doc["reports"][0]["tolerances"]

    def test_not_applicable_warns_exit_zero(self, tmp_path, capsys):
        plan = tmp_path / "plan.yaml"
        plan.write_text("seed: 7\nsamples: 2\nsuites: [S1]\npair: pluri-poincare\n")
        code = cli.main(["verify", "--config", str(plan)])
        captured = capsys.readouterr()
        assert code == 0
        assert "not applicable" in captured.err

    def test_corrupted_metric_exit_two(self, tmp_path):
        plan = tmp_path / "plan.yaml"
        report = tmp_path / "report.json"
        plan.write_text(f"""
suites: [S1]
samples: 2
pair:
  source: {{dim: 2, radius: 0.5, metric: [["1", "z1"], ["0", "1"]]}}
  target: {{zoo: flat, dim: 2}}
  map: {{zoo: identity}}
report: {report}
""")
        code = cli.main(["verify", "--config", str(plan)])
        assert code == 2
        doc = json.loads(report.read_text())
        assert doc["verdict"] == "error"
        assert "Hermitian" in doc["error"]

    def test_nan_inline_metric_exit_two(self, tmp_path, capsys):
        # 0/0 everywhere: the metric used to resolve and only surface as
        # per-sample NaN errors
        plan = tmp_path / "plan.yaml"
        plan.write_text("""
suites: [S1]
samples: 2
pair:
  source: {dim: 1, radius: 0.9, metric: [["(re(z1)-re(z1))/(re(z1)-re(z1))"]]}
  target: {zoo: flat, dim: 1}
  map: {zoo: identity}
""")
        with np.errstate(invalid="ignore"):
            code = cli.main(["verify", "--config", str(plan)])
        captured = capsys.readouterr()
        assert code == 2
        assert "'inline-source' has non-finite entries" in captured.out + captured.err

    def test_complex_valued_map_into_real_chart_exit_two(self, tmp_path, capsys):
        # 0.5 z into a real chart used to report five PASS with exit 0
        plan = tmp_path / "plan.yaml"
        plan.write_text("""
suites: [S11, hessian, hessian2, exact_pluri, W_psd]
samples: 2
pair:
  source: {zoo: flat, dim: 1}
  target: {zoo: euclidean, dim: 1}
  map: {components: ["0.5*z1"]}
""")
        code = cli.main(["verify", "--config", str(plan)])
        captured = capsys.readouterr()
        assert code == 2
        assert "map 'inline-map' into a real chart is not real-valued" in captured.out

    def test_failing_suite_exit_one(self, tmp_path):
        # an impossible tolerance turns numerical noise into a failure
        plan = tmp_path / "plan.yaml"
        plan.write_text("""
suites: [exact_holo]
samples: 2
pair: fs-to-poincare
tol_exact: 1.0e-30
""")
        code = cli.main(["verify", "--config", str(plan)])
        assert code == 1

    def test_unexpected_exception_exit_two(self, tmp_path, monkeypatch):
        # an exception outside GeometryError used to escape as a traceback
        # with exit code 1, the code of a violated band: a target rule that
        # raises ArithmeticError is exit 2 naming the type
        plan = tmp_path / "plan.yaml"
        report = tmp_path / "report.json"
        plan.write_text(MINIMAL + f"report: {report}\n")
        resolved = config.RunConfig.resolved_pair

        def broken(zs):
            raise ArithmeticError("deliberate")

        def with_broken_target(cfg):
            pair = resolved(cfg)
            return dataclasses.replace(pair, g=dataclasses.replace(
                pair.g, rule=broken, validate_on_init=False))

        monkeypatch.setattr(config.RunConfig, "resolved_pair", with_broken_target)
        assert cli.main(["verify", "--config", str(plan)]) == 2
        doc = json.loads(report.read_text())
        assert doc["verdict"] == "error"
        assert doc["error"] == "ArithmeticError: deliberate"

    def test_log_of_a_negative_real_map_exit_two(self, tmp_path):
        # log of a negative real is a NaN value (DomainError at a point), and
        # the map's check rejects it as not finite, naming the map and point
        plan = tmp_path / "plan.yaml"
        report = tmp_path / "report.json"
        plan.write_text(f"""
suites: [S11]
samples: 2
pair:
  source: {{zoo: flat, dim: 1}}
  target: {{zoo: euclidean, dim: 1}}
  map: {{components: ["log(re(z1) - 1)"]}}
report: {report}
""")
        assert cli.main(["verify", "--config", str(plan)]) == 2
        doc = json.loads(report.read_text())
        assert doc["verdict"] == "error"
        assert doc["error"].startswith("map 'inline-map' is not finite at [0.+0.j]: f(z) = ")

    def test_non_numeric_plan_value_exit_two(self, tmp_path, capsys):
        # used to escape main as a ValueError traceback, exit code 1
        plan = tmp_path / "plan.yaml"
        plan.write_text(MINIMAL.replace("samples: 3", "samples: abc"))
        assert cli.main(["verify", "--config", str(plan)]) == 2
        assert "samples: expected a number, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("part, spec, named", [
        ("target", "{zoo: poincare-disc, radius: 0.8}", "poincare-disc.radius"),
        ("source", "{zoo: fubini-study, dim: 1.5}", "fubini-study.dim"),
        ("source", "{zoo: fubini-study, dimension: 2}", "fubini-study.dimension")])
    def test_bad_metric_parameter_exit_two(self, tmp_path, capsys, part, spec, named):
        # each of these plans used to pass S1 with exit 0
        specs = {"source": "{zoo: fubini-study, dim: 1}",
                 "target": "{zoo: poincare-disc, dim: 1}", part: spec}
        plan = tmp_path / "plan.yaml"
        plan.write_text(f"pair:\n  source: {specs['source']}\n  target: {specs['target']}\n"
                        "  map: {zoo: identity}\nsuites: [S1]\nsamples: 2\n")
        assert cli.main(["verify", "--config", str(plan)]) == 2
        assert f"error: {named}: " in capsys.readouterr().out

    @pytest.mark.parametrize("pair_lines, named", [
        ("  map: {zoo: power, exponet: 3}\n", "power.exponet: "),
        ("  map: {zoo: identity}\n  compcat: true\n", "pair.compcat: ")])
    def test_misspelt_key_exit_two(self, tmp_path, capsys, pair_lines, named):
        # each of these plans used to run with the key ignored
        plan = tmp_path / "plan.yaml"
        plan.write_text("pair:\n  source: {zoo: flat, dim: 1}\n"
                        "  target: {zoo: flat, dim: 1}\n" + pair_lines
                        + "suites: [S1]\nsamples: 2\n")
        assert cli.main(["verify", "--config", str(plan)]) == 2
        captured = capsys.readouterr()
        assert named in captured.out + captured.err

    def test_non_integral_samples_exit_two(self, tmp_path, capsys):
        # used to run 2 samples without a word
        plan = tmp_path / "plan.yaml"
        plan.write_text(MINIMAL.replace("samples: 3", "samples: 2.7"))
        assert cli.main(["verify", "--config", str(plan)]) == 2
        assert "samples: expected an integer, got 2.7" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--quadrature-order"])
    def test_removed_flags_rejected(self, tmp_path, flag):
        plan = tmp_path / "plan.yaml"
        plan.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--config", str(plan), flag, "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol-relative", "nan", "tolerances must be positive and finite"),
        ("--tol-relative", "inf", "tolerances must be positive and finite"),
        ("--tol-relative", "0", "tolerances must be positive and finite"),
        ("--tol-relative", "-1", "tolerances must be positive and finite"),
        ("--seed", "-1", "seed: must be >= 0"),
        ("--samples", "0", "samples: must be >= 1"),
    ])
    def test_flag_values_pass_the_plan_checks(self, tmp_path, capsys, flag, value,
                                              message):
        # flags used to bypass the plan's validation: --tol-relative nan
        # compared False with every residual and reported PASS with exit 0
        plan = tmp_path / "plan.yaml"
        plan.write_text(MINIMAL)
        assert cli.main(["verify", "--config", str(plan), flag, value]) == 2
        assert message in capsys.readouterr().err

    def test_tiny_tolerance_flag_fails(self, tmp_path):
        plan = tmp_path / "plan.yaml"
        plan.write_text("seed: 0\nsamples: 5\nsuites: [S1]\npair: fs-line-in-plane\n")
        assert cli.main(["verify", "--config", str(plan),
                         "--tol-relative", "1e-30"]) == 1

    def test_unknown_config_path(self, tmp_path):
        code = cli.main(["verify", "--config", str(tmp_path / "missing.yaml")])
        assert code == 2

    def test_flag_overrides(self, tmp_path):
        plan = tmp_path / "plan.yaml"
        report = tmp_path / "r.json"
        plan.write_text(MINIMAL)
        code = cli.main(["verify", "--config", str(plan), "--suite", "W_psd",
                         "--samples", "2", "--seed", "3", "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert [r["suite"] for r in doc["reports"]] == ["W_psd"]
        assert doc["reports"][0]["seed"] == 3
        assert doc["reports"][0]["samples"] == 2

    def test_unknown_suite_flag(self, tmp_path, capsys):
        plan = tmp_path / "plan.yaml"
        plan.write_text(MINIMAL)
        assert cli.main(["verify", "--config", str(plan), "--suite", "S99"]) == 2
        assert "suites[0]: unknown suite 'S99'" in capsys.readouterr().err

    def test_text_format_report(self, tmp_path):
        plan = tmp_path / "plan.yaml"
        report = tmp_path / "report.txt"
        plan.write_text(MINIMAL + f"report: {report}\nformat: text\n")
        assert cli.main(["verify", "--config", str(plan)]) == 0
        text = report.read_text()
        assert "verdict: pass" in text
        assert "suite S1" in text


class TestDeterminism:
    def test_reports_byte_identical_modulo_timestamp(self, tmp_path):
        plan = tmp_path / "plan.yaml"
        docs = []
        for k in range(2):
            report = tmp_path / f"report{k}.json"
            plan.write_text(MINIMAL + f"report: {report}\n")
            assert cli.main(["verify", "--config", str(plan)]) == 0
            raw = report.read_text()
            raw = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', raw)
            docs.append(raw)
        assert docs[0] == docs[1]
