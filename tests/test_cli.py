import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from nsasym import cli
from nsasym.cli import ConfigError, ExperimentConfig, emit_report, main, run_experiment
from nsasym.solver import energy_budget

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SCHEMA_PATH = SRC_DIR / "nsasym" / "schemas" / "report.schema.json"


def load_config(name):
    return ExperimentConfig.load(CONFIG_DIR / name)


def mutated(path, value):
    """power_two_term.json with the field at ``path`` set to ``value``
    (deleted when value is None, appended one past the end of a list, and a
    "random" step replaces a modes field by a random one)."""
    data = json.loads((CONFIG_DIR / "power_two_term.json").read_text())
    *parents, key = path
    section = data
    for part in parents:
        if part == "random":
            section.clear()
            section[part] = {}
        section = section[part]
    if value is None:
        del section[key]
    elif isinstance(section, list) and key == len(section):
        section.append(value)
    else:
        section[key] = value
    return data


def mutated_config(tmp_path, path, value):
    """``mutated(path, value)`` written to a file; returns its path."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutated(path, value)))
    return str(bad)


def cli_in_subprocess(data, tmp_path, timeout, command=("lattice",)):
    """`nsasym <command>` on the config ``data``, in a subprocess with a
    timeout so that a closure or a run that runs away fails the test instead
    of hanging the suite; returns the exit code and the stderr lines."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "nsasym.cli", *command, "--config", str(bad)],
                          capture_output=True, text=True, env=env, timeout=timeout)
    return done.returncode, done.stderr.strip().splitlines()


def _paths(node, path=()):
    """Every path below the root of a parsed JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}
TWO_TERM = SHIPPED["power_two_term.json"]
# modes with re parallel to k: the projection leaves exact zero / rounding residue
GRADIENT_EXACT = {"k": [1, 0, 0], "re": [0.05, 0.0, 0.0], "im": [0.02, 0.0, 0.0]}
GRADIENT_ROUNDED = {"k": [1, 2, 0], "re": [0.01, 0.02, 0.0], "im": [0.0, 0.0, 0.0]}
TARGETS = [(name, path) for name, data in SHIPPED.items() for path in _paths(data)]
MODE_TARGETS = [(name, path) for name, path in TARGETS if len(path) > 1 and path[-2] == "modes"]
ODD_VALUES = [None, True, False, "x", -3, 10 ** 18, 10 ** 400, math.nan, math.inf, -math.inf,
              [], {}, [1.0], [1.0, 2.0, 3.0]]
MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(TARGETS),
              st.sampled_from([("drop",)] + [("set", v) for v in ODD_VALUES])),
    st.tuples(st.sampled_from(MODE_TARGETS), st.sampled_from([("mirror",), ("repeat",)])))


def apply_mutation(case) -> dict:
    """A shipped config with one key dropped, one value replaced, or one
    mode appended again (as is, or mirrored to -k)."""
    (name, path), (kind, *value) = case
    data = copy.deepcopy(SHIPPED[name])
    *parents, key = path
    section = data
    for part in parents:
        section = section[part]
    if kind == "drop":
        del section[key]
    elif kind == "set":
        section[key] = copy.deepcopy(value[0])
    else:
        mode = dict(section[key])
        if kind == "mirror":
            mode["k"] = [-x for x in mode["k"]]
        section.append(mode)
    return data


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

    @pytest.mark.parametrize("path, value, field", [
        (("force", "terms", 0, "field", "modes", 0, "k"), [math.inf, 0, 0],
         "config.force.terms[0].field.modes[0].k[0] = inf"),
        (("force", "terms", 0, "field", "modes", 0, "re"), [math.inf, 0.0, 0.0],
         "config.force.terms[0].field.modes[0].re[0] = inf"),
        (("solver", "tol"), math.inf, "config.solver.tol = inf"),
        (("solver", "t1"), math.inf, "config.solver.t1 = inf"),
        (("solver", "t0"), -math.inf, "config.solver.t0 = -inf"),
        (("lattice_cutoff",), math.inf, "config.lattice_cutoff = inf"),
        (("verification", "gevrey"), [[math.nan, 0.0]], "config.verification.gevrey[0][0] = nan"),
        (("generators", 0), math.nan, "config.generators[0] = nan"),
    ], ids=["mode_k", "mode_re", "tol", "t1", "t0", "lattice_cutoff", "gevrey", "generator"])
    def test_non_finite_number_rejected(self, path, value, field):
        # through from_json, not a run: past the loader several of these hang
        # or pass every check (the energy threshold 100 * inf)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_json(mutated(path, value))
        assert str(exc.value) == f"{field} is not a finite number"

    def test_overflowing_literal_rejected(self):
        # json reads 1e400 as inf
        data = json.loads((CONFIG_DIR / "power_two_term.json").read_text()
                          .replace('"tol": 1e-8', '"tol": 1e400'))
        assert data["solver"]["tol"] == math.inf
        with pytest.raises(ConfigError, match=r"^config\.solver\.tol = inf "):
            ExperimentConfig.from_json(data)

    def test_exponents_parsed_on_load(self):
        cfg = load_config("power_two_term.json")
        assert [g.value for g in cfg.generators] == [1.0, 2.0]
        assert [e.value for e, _ in cfg.force_terms] == [1.0, 2.0]

    def test_schema_version_enforced(self):
        data = json.loads((CONFIG_DIR / "power_two_term.json").read_text())
        data["schema"] = 99
        with pytest.raises(ConfigError, match="schema"):
            ExperimentConfig.from_json(data)

    @settings(max_examples=200, deadline=None)
    @given(case=MUTATIONS)
    @example(case=(("power_two_term.json", ("force", "terms", 0, "field", "modes", 0, "k")),
                   ("set", [math.inf, 0, 0])))
    def test_mutated_config_loads_or_fails_closed(self, case):
        # loading only: a mutated config either loads or raises ConfigError,
        # never another exception (full runs cost too much to fuzz)
        try:
            ExperimentConfig.from_json(apply_mutation(case))
        except ConfigError:
            pass


class TestPipeline:
    def test_bundled_power_config_passes(self, two_term_result):
        assert two_term_result.ok, [c for c in two_term_result.checks if not c["pass"]]

    def test_report_schema_valid(self, two_term_result, tmp_path):
        emit_report(two_term_result, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(report, schema)
        # each energy row carries its check's headline value and threshold
        budget = energy_budget(two_term_result.trace)
        rows = [c for c in report["checks"] if c["case"] == "energy"]
        assert [r["property"] for r in rows] == [c.name for c in budget.checks]
        for row, check in zip(rows, budget.checks):
            assert row["measured"] is not None
            assert row["measured"] == next(iter(check.measured.values()))
            assert row["expected"] == check.measured.get("threshold")

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

    def test_random_fields_and_falsify_byte_identical(self, tmp_path):
        # a random force field and a random u0 both draw from the run's seed,
        # and the falsify block adds its own row
        cfg = ExperimentConfig.from_json({
            "schema": 1,
            "system": {"kind": "power", "params": {}},
            "cutoff": 2,
            "lattice_cutoff": 3.5,
            "generators": [1.0],
            "force": {"type": "explicit",
                      "terms": [{"exponent": 1.0, "field": {"random": {"amplitude": 0.05}}}]},
            "solver": {"t0": 5.0, "t1": 300.0, "tol": 1e-8, "sample_ratio": 1.2,
                       "u0": {"random": {"amplitude": 0.01}}},
            "verification": {"orders": [], "gevrey": [[0.0, 0.0]], "window": [50.0, 300.0],
                             "falsify": {"n": 1}},
            "seed": 11,
        })
        results = [run_experiment(cfg), run_experiment(cfg)]
        assert [c["case"] for c in results[0].checks].count("falsify[n=1]") == 1
        written = [emit_report(r, tmp_path / name) for r, name in zip(results, "ab")]
        assert [p.name for p in written[0]] == [p.name for p in written[1]]
        for a, b in zip(*written):
            assert a.read_bytes() == b.read_bytes(), a.name

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
        (("force", "terms", 0, "field", "modes", 0, "k"), [0, 0, 0]),
        (("force", "terms", 0, "field", "modes", 2),
         {"k": [-1, 0, 0], "re": [0.0, 0.02, 0.0], "im": [0.0, 0.0, 0.0]}),
        # force terms the Leray projection zeroes: they would drop out of the
        # run, or divide the round trip by a zero scale when every term does
        (("force", "terms", 1, "field"), {"modes": [GRADIENT_ROUNDED]}),
        (("force", "terms", 1, "field"), {"modes": []}),
        (("force",), {"type": "explicit", "terms": [
            TWO_TERM["force"]["terms"][0],
            {"exponent": 2.0, "field": {"modes": [GRADIENT_ROUNDED]}}]}),
        (("force",), {"type": "manufactured", "terms": [
            {"exponent": 1.0, "field": {"modes": [GRADIENT_EXACT]}},
            {"exponent": 2.0, "field": {"modes": [GRADIENT_ROUNDED]}}]}),
    ], ids=["t0_missing", "window_short", "gevrey_flat", "tol_text", "lattice_cutoff_text",
            "solver_not_object", "generator_text", "falsify_past_last_term",
            "mode_k_two_components", "mode_re_text", "mode_k_above_cutoff", "modes_not_list",
            "random_amplitude_text", "system_params_list", "u0_modes_not_list",
            "mode_k_repeated", "product_param_typo", "power_extra_param",
            "mode_k_zero", "mode_mirror_listed", "force_term_gradient", "force_term_no_modes",
            "explicit_term_gradient", "manufactured_all_gradient"])
    def test_malformed_field_exit_two(self, path, value, tmp_path, capsys):
        bad = mutated_config(tmp_path, path, value)
        rc = main(["verify", "--config", bad, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        name = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        assert "config" + name in lines[0]

    @pytest.mark.parametrize("path, value, field", [
        (("seed",), -1, "config.seed"),
        (("verification", "falsify"), {"n": 1, "relative": "x"},
         "config.verification.falsify.relative"),
        (("verification", "falsify"), {"n": 1, "max_order_fraction": "x"},
         "config.verification.falsify.max_order_fraction"),
        (("solver", "step_growth"), 0, "config.solver.step_growth"),
        (("solver", "step_growth"), -1, "config.solver.step_growth"),
        (("solver", "sample_ratio"), 1.0, "config.solver.sample_ratio"),
        (("verification", "window"), [500.0, 50.0], "config.verification.window"),
        (("verification", "orders"), "1", "config.verification.orders"),
        (("seed",), 2.7, "config.seed"),
        (("verification", "falsify"), {"n": 1.5}, "config.verification.falsify.n"),
        (("force", "terms", 0, "field", "modes", 0, "k"), [math.inf, 0, 0],
         "config.force.terms[0].field.modes[0].k[0]"),
        (("cutoff",), True, "config.cutoff"),
        (("schema",), True, "config.schema"),
        (("verification", "gevrey"), [], "config.verification.gevrey"),
    ], ids=["seed_negative", "falsify_relative_text", "falsify_fraction_text",
            "step_growth_zero", "step_growth_negative", "sample_ratio_one",
            "window_reversed", "orders_text", "seed_fraction", "falsify_n_fraction",
            "mode_k_infinite", "cutoff_bool", "schema_bool", "gevrey_empty"])
    def test_malformed_field_fails_on_load(self, path, value, field, tmp_path, capsys):
        # `lattice` only loads the config, so a field that escapes the loader
        # shows as exit 0 here instead of a failure or hang in a later stage
        rc = main(["lattice", "--config", mutated_config(tmp_path, path, value)])
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {field} ")

    @pytest.mark.parametrize("name, lattice_cutoff", [
        ("power_two_term.json", 1e6), ("power_two_term.json", 1e300), ("product_pair.json", 1e6),
    ], ids=["power_1e6", "power_1e300", "product_1e6"])
    def test_runaway_closure_exits_three_promptly(self, name, lattice_cutoff, tmp_path):
        data = copy.deepcopy(SHIPPED[name])
        data["lattice_cutoff"] = lattice_cutoff
        rc, lines = cli_in_subprocess(data, tmp_path, timeout=10)
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("error: ClosureError: ")

    @pytest.mark.parametrize("generator", [1000.0, 10000.0], ids=["g1e3", "g1e4"])
    def test_huge_vee_family_exits_three_promptly(self, generator, tmp_path):
        # a cutoff just under MAX_ENTRIES generators passes the up-front bound,
        # but the generator's sqrt_shift vee family alone holds ~998 g terms,
        # one per unit step: listed in full, it took seconds at g = 10^3 and
        # ten times as long at g = 10^4
        data = copy.deepcopy(SHIPPED["power_two_term.json"])
        data["system"] = {"kind": "sqrt_shift", "params": {}}
        data["generators"] = [generator]
        data["lattice_cutoff"] = 999.0 * generator
        data["force"]["terms"] = [dict(data["force"]["terms"][0], exponent=generator)]
        rc, lines = cli_in_subprocess(data, tmp_path, timeout=5)
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("error: ClosureError: ")

    @pytest.mark.parametrize("key, value, steps", [
        ("t1", 1e300, "8,955"), ("sample_ratio", 1.000001, "2,995,734"),
    ], ids=["t1_1e300", "sample_ratio_near_one"])
    def test_unreachable_horizon_exits_two_promptly(self, key, value, steps, tmp_path):
        # a horizon that needs more steps than the bound, by step_growth 0.08
        # or by one step per sample, is refused on load instead of running
        # into the solver's step budget
        data = copy.deepcopy(SHIPPED["power_two_term.json"])
        data["solver"][key] = value
        rc, lines = cli_in_subprocess(data, tmp_path, timeout=5,
                                      command=("verify", "--out", str(tmp_path / "out")))
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("config error: config.solver.t1 ")
        assert f"{steps} steps" in lines[0]

    def test_shipped_horizons_far_inside_the_step_bound(self):
        # the bound leaves every shipped config a factor of 10 or more
        least = [math.log(cfg.t1 / cfg.t0)
                 / min(math.log1p(cfg.step_growth), math.log(cfg.sample_ratio))
                 for cfg in (ExperimentConfig.from_json(data) for data in SHIPPED.values())]
        assert 10 * max(least) <= cli.MAX_HORIZON_STEPS

    def test_negative_seed_option_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lattice", "--config", str(CONFIG_DIR / "power_two_term.json"),
                  "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_coeffs_prints_run_coefficients(self, two_term_result, tmp_path, capsys):
        emit_report(two_term_result, tmp_path)
        assert main(["coeffs", "--config", str(CONFIG_DIR / "power_two_term.json")]) == 0
        assert capsys.readouterr().out == (tmp_path / "coefficients.json").read_text()

    def test_coeffs_does_not_integrate(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("coeffs must not run the solver")
        monkeypatch.setattr(cli, "integrate_nse", refuse)
        assert main(["coeffs", "--config", str(CONFIG_DIR / "power_two_term.json")]) == 0
        assert json.loads(capsys.readouterr().out)

    def test_thin_window_only_fails_stages_that_fit(self, tmp_path, capsys):
        # a fit window past the run is a library failure of verify, not of
        # the stages that never fit
        bad = mutated_config(tmp_path, ("verification", "window"), [1e4, 2e4])
        assert main(["coeffs", "--config", bad]) == 0
        assert main(["simulate", "--config", bad, "--out", str(tmp_path / "sim")]) == 0
        assert (tmp_path / "sim" / "states.json").exists()
        assert main(["verify", "--config", bad, "--out", str(tmp_path)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("path, value, error", [
        (("generators",), [1.0, 5.0], "ClosureError"),
        (("verification", "window"), [200.0, 300.0], "FitError"),
        (("solver", "t0"), 0.5, "DomainError"),
    ], ids=["generator_above_cutoff", "window_outside_run", "t0_below_t_min"])
    def test_library_failure_exit_three(self, path, value, error, tmp_path, capsys):
        bad = mutated_config(tmp_path, path, value)
        rc = main(["verify", "--config", bad, "--out", str(tmp_path)])
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
