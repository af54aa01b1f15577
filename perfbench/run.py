"""Grid benchmark for stagnation-terminated runs.

    python3 perfbench/run.py --workload grid-d3 --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it measures set-up in fresh processes, then repeats the
workload's grid until ``--seconds`` is spent and prints every end-to-end
metric (medians over the repeats).  With ``--trace 1`` it runs the grid once
untraced and once with spans around each layer's public callables, and
prints the per-layer split and the tracing overhead.  Either way it checks
the outputs (pinned digests and counts, repeat and worker-count invariance)
and prints, as its last line, one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import traceback
from time import perf_counter

import bootstrap

# Set-up probes run in every gap of the timed loop (before each grid repeat
# and after the last), so their median spans the whole run, not one moment.
PROBES_PER_GAP = 3


def load_spec(grid):
    """BENCHMARK.json: the declared metric names for each mode and every unit."""
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    units = dict(grid.UNGATED_UNITS)
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    return spec, units


def git_sha() -> str:
    if not (bootstrap.ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(
            ["git", "-C", str(bootstrap.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def print_environment(grid, workload, seed: int, base_seed: int) -> None:
    import numpy
    from stagbench import kernels

    print(f"python {platform.python_version()}  numpy {numpy.__version__}  "
          f"kernels.USING_NUMBA {kernels.USING_NUMBA}  nproc {grid.nproc()}  "
          f"git {git_sha()}")
    print(f"workload {workload.name}: dim {workload.dim}, T {list(workload.T_values)}, "
          f"{workload.runs} run(s) per cell, workers {workload.workers}, "
          f"curves {workload.curves}; seed {seed} -> base seed {base_seed}")


def timed(grid, workload, base_seed: int, seconds: float):
    """Grid repeats until `seconds` is spent, with set-up probes between them.

    Another repeat starts when it is expected to end no later than half a
    grid past `seconds`, so the measured time averages `seconds`.  A pooled
    workload alternates each pooled grid with a 1-worker grid of the same
    inputs: its outputs must match byte for byte, and it gives the per-run
    wall times that a pool hides.
    """
    out = grid.OUT / workload.name

    def probe():
        setup_times.extend(grid.setup_probe(workload, base_seed) for _ in range(PROBES_PER_GAP))

    setup_times, reps, twins = [], [], []
    start = perf_counter()
    while True:
        probe()
        runs = [grid.run_grid(workload, base_seed, workload.workers, out / "timed")]
        if workload.workers > 1:
            runs.append(grid.run_grid(workload, base_seed, 1, out / "one-worker"))
        if reps:
            # Same inputs as the first repeat (byte identity is checked), so
            # its records are shared and peak memory does not grow with the
            # number of repeats.
            for run in runs:
                run.records = reps[0].records
        reps.append(runs[0])
        twins.extend(runs[1:])
        last = sum(run.grid_s for run in runs)
        if perf_counter() - start + last / 2 > seconds:
            break
    probe()
    return setup_times, reps, twins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    bootstrap.prepare()
    import grid  # imports numpy, so only after the thread pools are pinned

    if args.workload not in grid.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(grid.WORKLOADS)}")
    workload = grid.WORKLOADS[args.workload]
    pins = grid.load_pins()
    base_seed = grid.base_seed_for(args.seed)
    print_environment(grid, workload, args.seed, base_seed)
    spec, units = load_spec(grid)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    runs_per_grid = workload.runs_per_grid()

    errors = []
    try:
        if args.trace:
            out = grid.OUT / workload.name
            timed_run = grid.run_grid(workload, base_seed, workload.workers, out / "timed")
            sequential = timed_run
            if workload.workers > 1:
                sequential = grid.run_grid(workload, base_seed, 1, out / "one-worker")
                errors += grid.check_same_bytes("pool vs 1 worker", timed_run, sequential)
            traced, tracer = grid.traced_grid(workload, base_seed, out / "traced")
            tracer.write(out / "spans.csv")
            errors += grid.check_same_bytes("traced vs untraced", traced, sequential)
            counts = grid.exact_counts(traced, tracer)
            if counts["kernel_rows"] != counts["evaluations"]:
                errors.append(f"kernel rows {counts['kernel_rows']} != evaluations {counts['evaluations']}")
            errors += grid.check_pins(workload, base_seed, traced, pins, counts)
            errors += grid.check_records(workload, base_seed, timed_run)
            metrics = grid.per_layer(traced, tracer, sequential, timed_run)
            attempted = runs_per_grid * (3 if workload.workers > 1 else 2)
            headline_run = timed_run
            print(f"traced {traced.grid_s:.3f} s vs untraced sequential "
                  f"{sequential.grid_s:.3f} s; {len(tracer.spans)} spans in {out / 'spans.csv'}")
        else:
            setup_times, reps, twins = timed(grid, workload, base_seed, args.seconds)
            attempted = runs_per_grid * (len(reps) + len(twins))
            for i, rep in enumerate(reps[1:], 2):
                errors += grid.check_same_bytes(f"repeat {i} vs repeat 1", rep, reps[0])
            for i, twin in enumerate(twins, 1):
                errors += grid.check_same_bytes(f"1-worker repeat {i} vs pool", twin, reps[0])
            errors += grid.check_pins(workload, base_seed, reps[0], pins)
            errors += grid.check_records(workload, base_seed, reps[0])
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wall_reps = twins or reps
            metrics = grid.end_to_end(reps, wall_reps, setup_times, peak_rss_mb)
            headline_run = reps[0]
            n = len(wall_reps[0].records)
            tail = grid.tail_index(n)
            print(f"{len(setup_times)} set-up probes; "
                  f"{len(reps)} grid repeat(s) at {workload.workers} worker(s), "
                  f"{len(twins)} at 1 worker; per-run walls from {len(wall_reps)} "
                  f"1-worker grid(s) of {n} runs; run_ms_tail is "
                  f"p{100 * (tail + 1) // n} ({n - tail - 1} runs beyond it)")
    except grid.GridFailed as exc:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": exc.done + 1,
                          "failed": 1, "metrics": {}}))
        return 1

    print(f"headline: {grid.stationarity_headline(workload, base_seed, headline_run):.4f} "
          f"of runs end with |grad f| above the stationarity threshold")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print("checks: " + ("all passed" if not errors else f"{len(errors)} FAILED"))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": 0,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
