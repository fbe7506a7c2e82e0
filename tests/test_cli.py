import json
from pathlib import Path

import jsonschema
import pytest

from nsasym.cli import ConfigError, ExperimentConfig, emit_report, main, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SCHEMA_PATH = Path(__file__).resolve().parent.parent / "src" / "nsasym" / "schemas" / "report.schema.json"


def load_config(name):
    return ExperimentConfig.load(CONFIG_DIR / name)


@pytest.fixture(scope="module")
def two_term_result():
    return run_experiment(load_config("power_two_term.json"))


class TestConfigValidation:
    def test_bundled_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = ExperimentConfig.load(path)
            assert cfg.cutoff >= 1

    def test_falsify_block_validated(self):
        data = json.loads((CONFIG_DIR / "criterion3_falsification.json").read_text())
        assert ExperimentConfig.from_json(data).falsify["n"] == 2
        data["verification"]["falsify"]["n"] = 0
        with pytest.raises(ConfigError, match="falsify"):
            ExperimentConfig.from_json(data)

    def test_unknown_key_rejected(self):
        data = json.loads((CONFIG_DIR / "power_two_term.json").read_text())
        data["extra_knob"] = 1
        with pytest.raises(ConfigError, match="extra_knob"):
            ExperimentConfig.from_json(data)

    def test_invalid_kind_names_field(self):
        data = json.loads((CONFIG_DIR / "power_two_term.json").read_text())
        data["system"]["kind"] = "exponential"
        with pytest.raises(ConfigError, match="system"):
            ExperimentConfig.from_json(data)

    def test_schema_version_enforced(self):
        data = json.loads((CONFIG_DIR / "power_two_term.json").read_text())
        data["schema"] = 99
        with pytest.raises(ConfigError, match="schema"):
            ExperimentConfig.from_json(data)


class TestPipeline:
    def test_bundled_power_config_passes(self, two_term_result):
        assert two_term_result.ok, [c for c in two_term_result.checks if not c["pass"]]

    def test_report_schema_valid(self, two_term_result, tmp_path):
        emit_report(two_term_result, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(report, schema)

    def test_artifacts_written(self, two_term_result, tmp_path):
        written = emit_report(two_term_result, tmp_path)
        names = {p.name for p in written}
        assert {"report.json", "lattice.json", "coefficients.json", "trace.csv",
                "states.json"} <= names
        assert any(n.startswith("remainder_N0") for n in names)
        csv = (tmp_path / "remainder_N0_a0_s0.csv").read_text().strip().splitlines()
        assert len(csv) - 1 == len(two_term_result.trace.times)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = load_config("power_two_term.json")
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        emit_report(a, dir_a)
        emit_report(b, dir_b)
        for name in ("report.json", "coefficients.json", "lattice.json", "states.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_empty_verification_list(self):
        data = json.loads((CONFIG_DIR / "power_two_term.json").read_text())
        data["verification"] = {"orders": [], "gevrey": [[0.0, 0.0]]}
        result = run_experiment(ExperimentConfig.from_json(data))
        assert result.checks == []
        assert result.report_json()["checks"] == [] and result.ok


class TestCommandLine:
    def test_lattice_subcommand(self, capsys):
        rc = main(["lattice", "--config", str(CONFIG_DIR / "power_two_term.json")])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [e["value"] for e in data["entries"]] == [1.0, 2.0, 3.0, 4.0]

    def test_run_subcommand_exit_zero(self, tmp_path, capsys):
        rc = main(["run", "--config", str(CONFIG_DIR / "power_two_term.json"),
                   "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out
        assert (tmp_path / "report.json").exists()

    def test_simulate_states_match_run(self, tmp_path, capsys):
        config = str(CONFIG_DIR / "power_two_term.json")
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "sim")]) == 0
        assert main(["run", "--config", config, "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        for name in ("states.json", "trace.csv"):
            assert (tmp_path / "sim" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()

    def test_bad_config_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": 1}")
        rc = main(["verify", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        (("solver", "t0"), None),
        (("verification", "window"), [20]),
        (("verification", "gevrey"), [0.5]),
        (("solver", "tol"), "abc"),
        (("lattice_cutoff",), "x"),
        (("solver",), 5),
        (("generators",), ["x"]),
        (("verification", "falsify"), {"n": 4}),
        (("force", "terms", 0, "field", "modes", 0, "k"), [1, 0]),
        (("force", "terms", 0, "field", "modes", 0, "re"), ["a", 0, 0]),
        (("force", "terms", 0, "field", "modes", 0, "k"), [9, 0, 0]),
        (("force", "terms", 0, "field", "modes"), 5),
        (("force", "terms", 0, "field", "random", "amplitude"), "x"),
        (("system", "params"), [1]),
        (("solver", "u0"), {"modes": 5}),
        (("force", "terms", 0, "field", "modes", 2),
         {"k": [1, 0, 0], "re": [0.0, 0.01, 0.0], "im": [0.0, 0.0, 0.0]}),
        (("system",), {"kind": "product", "params": {"gamma": 0.7, "gammma": 0.3}}),
        (("system",), {"kind": "power", "params": {"m": 1}}),
    ], ids=["t0_missing", "window_short", "gevrey_flat", "tol_text", "lattice_cutoff_text",
            "solver_not_object", "generator_text", "falsify_past_last_term",
            "mode_k_two_components", "mode_re_text", "mode_k_above_cutoff", "modes_not_list",
            "random_amplitude_text", "system_params_list", "u0_modes_not_list",
            "mode_k_repeated", "product_param_typo", "power_extra_param"])
    def test_malformed_field_exit_two(self, path, value, tmp_path, capsys):
        data = json.loads((CONFIG_DIR / "power_two_term.json").read_text())
        *parents, key = path
        section = data
        for name in parents:
            if name == "random":  # replace the modes field by a random one
                section.clear()
                section[name] = {}
            section = section[name]
        if value is None:
            del section[key]
        elif isinstance(section, list) and key == len(section):
            section.append(value)  # a new entry after the last
        else:
            section[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["verify", "--config", str(bad), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        name = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        assert "config" + name in lines[0]

    @pytest.mark.parametrize("path, value, error", [
        (("generators",), [1.0, 5.0], "ClosureError"),
        (("verification", "window"), [200.0, 300.0], "FitError"),
        (("solver", "t0"), 0.5, "DomainError"),
    ], ids=["generator_above_cutoff", "window_outside_run", "t0_below_t_min"])
    def test_library_failure_exit_three(self, path, value, error, tmp_path, capsys):
        data = json.loads((CONFIG_DIR / "power_two_term.json").read_text())
        *parents, key = path
        section = data
        for name in parents:
            section = section[name]
        section[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["verify", "--config", str(bad), "--out", str(tmp_path)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith(f"error: {error}: ")

    def test_criterion2_config_passes(self, tmp_path, capsys):
        rc = main(["verify", "--config", str(CONFIG_DIR / "criterion2_first_orders.json"),
                   "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0, out
        report = json.loads((tmp_path / "report.json").read_text())
        fitted = {c["case"]: c for c in report["checks"]}
        assert fitted["remainder[N=1,a0_s0]"]["measured"] >= 1.8
        assert fitted["remainder[N=0,a0_s0]"]["measured"] >= 0.9
