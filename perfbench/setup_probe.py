"""Set-up probe for one workload, run in a fresh interpreter.

Imports stagbench, builds the workload's ExperimentConfig and calls
``harness.run_experiment`` on it with ``harness.run_single`` replaced by a
stand-in that prints ``ready`` and raises.  ``run_experiment`` looks
``run_single`` up at call time, in this process or in a forked pool worker,
so the line marks the moment the harness starts its first run: everything
before it (imports, config validation, task preparation and, for a pooled
workload, starting the pool and shipping it the first task) is the set-up a
user pays.  The parent times this process from launch to that line.

    python3 perfbench/setup_probe.py DIM T1,T2,... RUNS SEED WORKERS CURVES
"""

import os
import sys


class FirstRunStarted(Exception):
    """Raised by the stand-in run_single; ends the probe's grid at once."""


def _ready(*args, **kwargs):
    # One write(2) per line: pool workers share the pipe, and a single small
    # write to it is never interleaved with another.
    os.write(1, b"ready\n")
    raise FirstRunStarted()


def main(argv) -> int:
    dim, t_values, runs, seed, workers, curves = argv
    from stagbench import harness

    cfg = harness.ExperimentConfig(
        T_values=tuple(int(t) for t in t_values.split(",")),
        runs=int(runs),
        base_seed=int(seed),
        dim=int(dim),
        capture_curves=curves == "1",
    )
    harness.run_single = _ready
    try:
        harness.run_experiment(cfg, workers=int(workers))
    except FirstRunStarted:
        return 0
    print("run_experiment returned without starting a run", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
