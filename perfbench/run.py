"""The nsasym benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload galerkin_dense --seed 1 --seconds 30 --trace 0

Run from anywhere; nsasym is imported from ``src/`` of the checkout this
file sits in, and scratch output goes to ``.bench_build/perfbench`` there.

With ``--trace 0`` the command runs a fixed number of passes of the
workload (each one a full operation through nsasym's public API), sized to
take about ``--seconds``, and reports the end-to-end metrics declared in
BENCHMARK.json: the wall time of the slowest pass, the median of several
set-up probes, and the peak resident memory of this process.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics instead (see layers.py).

Every pass is checked: ``result.ok``, the fixed residual and round-trip
gates, a byte-identical report.json and identical deterministic counters
across the passes of one seed.  A pass that raises or trips a gate counts as
failed, the result line says ``"correct": false`` and the exit code is 1.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_PROBES = 5     # set-up is timed this many times per run, median reported
MIN_PASSES = 2       # byte-identity and counter checks need two passes
REFERENCE_SECONDS = 30   # Workload.passes is the pass count of a run this long


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the path, or stop."""
    if not (SRC / "nsasym" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: nsasym sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import nsasym
    if SRC not in Path(nsasym.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported nsasym from {nsasym.__file__}, not {SRC}")


def time_setups(workload: str, seed: int) -> list:
    """Seconds from spawning a fresh interpreter until it has imported
    nsasym and prepared (generated and validated) the workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload,
                               str(seed)], stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: set-up probe failed (exit {child.returncode})")
        times.append(ready - start)
    return times


def attempt(run):
    """Run one pass; an exception is reported and makes the pass a failure."""
    try:
        return run()
    except Exception:  # any library failure is a failed operation, not a crash
        traceback.print_exc()
        return None


def check_passes(outcomes: list) -> int:
    """Apply the cross-pass gates and print one line per pass; returns the
    number of failed passes."""
    first = next((o for o in outcomes if o is not None), None)
    failed = 0
    for i, o in enumerate(outcomes, 1):
        if o is None:
            problems = ["raised"]
        else:
            problems = list(o.failures)
            if o.counters != first.counters:
                diff = sorted(k for k in o.counters if o.counters[k] != first.counters.get(k))
                problems.append(f"counters differ from pass 1: {diff}")
            if o.report != first.report:
                problems.append("report.json differs from pass 1")
        failed += bool(problems)
        wall = "-" if o is None else f"{o.wall_s:.4f} s"
        print(f"pass {i}: wall {wall}  {'FAIL ' + '; '.join(problems) if problems else 'ok'}")
    return failed


def pass_count(workload, seconds: float) -> int:
    """Passes in one run.  The count is fixed per workload and scales only
    with ``--seconds``, never with how fast the passes finish, so a faster
    and a slower commit take the same statistic over the same number of
    passes."""
    return max(MIN_PASSES, round(workload.passes * seconds / REFERENCE_SECONDS))


def measure(rounds: int, *passes) -> list:
    """Call every pass function once per round, in order, with the round
    number; returns one outcome list per pass function."""
    outcomes = [[] for _ in passes]
    for i in range(rounds):
        for column, run_pass in zip(outcomes, passes):
            column.append(attempt(lambda: run_pass(i)))
    return outcomes


def layer_metrics(tracer, traced: list, plain: list, micro: dict) -> tuple:
    """Per-layer values (median self times over traced passes, counts and
    derived ratios) and the number of traced passes whose span counts
    differ from the first traced pass."""
    per_pass = [{**tracer.pass_metrics(i), **o.counters}
                for i, o in enumerate(traced) if o is not None]
    counts = [{k: v for k, v in p.items() if isinstance(v, int)} for p in per_pass]
    drifted = sum(c != counts[0] for c in counts)
    if drifted:
        print(f"span counts differ between traced passes: {counts}")
    values = {}
    for name in set().union(*per_pass):
        column = [p.get(name, 0) for p in per_pass]
        values[name] = column[0] if name in counts[0] else statistics.median(column)
    for name in ("solver.n_steps", "solver.n_rejected", "solver.n_rhs",
                 "verify.remainder_points", "cli.report_bytes"):
        values.setdefault(name, 0)
    steps, rejected, rhs = (values[f"solver.{k}"] for k in ("n_steps", "n_rejected", "n_rhs"))
    values["solver.accept_ratio"] = steps / (steps + rejected) if steps + rejected else 0.0
    values["solver.ms_per_rhs"] = 1e3 * values["solver.integrate_s"] / rhs if rhs else 0.0
    values["spectral.b_calls"] = rhs + sum(values[k] for k in (
        "expansion.recursion_b_calls", "expansion.residual_b_calls",
        "verify.manufacture_b_calls"))
    values["cli.tracing_overhead_s"] = (
        statistics.median(o.wall_s for o in traced if o is not None)
        - statistics.median(o.wall_s for o in plain if o is not None))
    for (density, K), (ms, _) in micro.items():
        values[f"spectral.B_ms.{density}.K{K}"] = ms
    return values, drifted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    use_checkout_source()
    import layers
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")

    setups = [] if args.trace else time_setups(args.workload, args.seed)
    inputs = workload.prepare(args.seed)

    if args.trace:
        tracer = layers.Tracer()

        def traced_pass(i):
            with tracer.patched(i) as wrap_system:
                return tracer.wrap("bench.pass", workload.run_pass)(inputs, WORK, wrap_system)

        # an untraced and a traced pass per round, so half as many rounds
        rounds = max(MIN_PASSES, pass_count(workload, args.seconds) // 2)
        plain, outcomes = measure(rounds, lambda i: workload.run_pass(inputs, WORK),
                                  traced_pass)
        failed = check_passes(plain + outcomes)
        attempted = len(plain) + len(outcomes)
        declared = spec["per_layer"]
        values = {}
        if any(o is not None for o in outcomes) and any(o is not None for o in plain):
            micro = layers.micro_timings(args.seed)
            for (density, K), (ms, n) in micro.items():
                print(f"B call {density} K={K}: median {ms:.4f} ms of {n} samples")
            values, drifted = layer_metrics(tracer, outcomes, plain, micro)
            failed += drifted
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        outcomes, = measure(pass_count(workload, args.seconds),
                            lambda i: workload.run_pass(inputs, WORK))
        failed = check_passes(outcomes)
        attempted = len(outcomes)
        declared = spec["end_to_end"]
        walls = [o.wall_s for o in outcomes if o is not None]
        values = {"setup_s": statistics.median(setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if walls:
            # The slowest of a fixed number of passes, not the median: on a
            # shared host the passes of one run swing by up to 1.8x with the
            # load of other tenants, while the fully contended pass time holds
            # steadier from run to run.
            values["wall_s"] = max(walls)
            print(f"pass walls: median {statistics.median(walls):.4f} s, "
                  f"slowest {max(walls):.4f} s of {len(walls)}")
        first = next((o for o in outcomes if o is not None), None)
        for name, value in sorted(first.counters.items() if first else ()):
            print(f"count {name} = {value}")
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted} passes)")

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            failed = max(failed, 1)
            print(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        label = "count" if m["unit"] == "count" else "metric"
        print(f"{label} {m['name']} = {values[m['name']]} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
