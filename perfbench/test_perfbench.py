"""Smoke test of the benchmark at tiny sizes: ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import layers  # noqa: E402  (needs the source path first)
import workloads  # noqa: E402
from nsasym import cli, expansion  # noqa: E402

TINY = {
    "galerkin_dense": lambda seed: workloads.prepare_galerkin(
        workloads.dense_config(seed, cutoff=2)),
    "longhaul_planar": lambda seed: workloads.prepare_galerkin(
        workloads.planar_config(seed, cutoff=2, t1=1e5, window=(1000.0, 1e5),
                                sample_ratio=1.3)),
    "lattice_coeffs": lambda seed: workloads.prepare_lattice_cases(
        seed, cutoff=2, product_cutoff=4.0, sqrt_cutoff=5.0),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("seed", [1, 2])
def test_tiny_passes_meet_every_gate(name, seed, tmp_path, capsys):
    inputs = TINY[name](seed)
    outcomes = [workloads.WORKLOADS[name].run_pass(inputs, tmp_path) for _ in range(2)]
    assert run.check_passes(outcomes) == 0, capsys.readouterr().out
    assert outcomes[0].counters["lattice.entries"] > 0
    assert list(tmp_path.iterdir()) == []


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    micro = {key: (1.0, 1) for key in layers.MICRO_SAMPLES}
    originals = (cli.run_experiment, expansion.bilinear_form)
    for name in ("longhaul_planar", "lattice_coeffs"):
        workload, inputs = workloads.WORKLOADS[name], TINY[name](1)
        tracer = layers.Tracer()
        plain = [workload.run_pass(inputs, tmp_path)]
        with tracer.patched(0) as wrap_system:
            traced = [workload.run_pass(inputs, tmp_path, wrap_system)]
        values, drifted = run.layer_metrics(tracer, traced, plain, micro)
        assert drifted == 0
        assert {m["name"] for m in declared} <= set(values)
        assert traced[0].counters == plain[0].counters
        b_calls = values["spectral.b_calls"] - values["solver.n_rhs"]
        assert b_calls == (values["expansion.recursion_b_calls"]
                           + values["expansion.residual_b_calls"]
                           + values["verify.manufacture_b_calls"]) > 0
    assert (cli.run_experiment, expansion.bilinear_form) == originals
    assert values["lattice.wedge_pairs"] == values["expansion.residual_b_calls"]


def test_tripped_gate_and_counter_drift_fail_the_pass(capsys):
    ok = workloads.PassOutcome(1.0, {"solver.n_rhs": 10})
    drift = workloads.PassOutcome(1.0, {"solver.n_rhs": 11})
    gate = workloads.PassOutcome(1.0, {"solver.n_rhs": 10}, ["round trip 1e-3 > 1e-10"])
    assert run.check_passes([ok, drift, gate, None]) == 3
    assert "counters differ" in capsys.readouterr().out


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lattice_coeffs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
