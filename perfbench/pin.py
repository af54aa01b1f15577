"""Regenerate pins.json: output digests and exact counts per pinned base seed.

    python3 perfbench/pin.py

Each workload's grid runs once per base seed 0..BASE_SEEDS-1 (see grid.py),
sequentially and traced, and the sha256 of records.csv and summary.csv plus
the exact counts (generations, evaluations, improvements, kernel calls and
rows, step calls, cap terminations) are written.  Rerun only when a change alters the outputs
on purpose, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import bootstrap


def main() -> int:
    bootstrap.prepare()
    import grid  # imports numpy, so only after the thread pools are pinned

    pins = {}
    for name, workload in grid.WORKLOADS.items():
        pins[name] = {}
        for base_seed in range(grid.BASE_SEEDS):
            run, tracer = grid.traced_grid(workload, base_seed, grid.OUT / name / "pin")
            errors = grid.check_records(workload, base_seed, run)
            if errors:
                sys.exit(f"{name} base seed {base_seed}: " + "; ".join(errors))
            pins[name][str(base_seed)] = {
                "records.csv": run.digests["records.csv"],
                "summary.csv": run.digests["summary.csv"],
                "counts": grid.exact_counts(run, tracer),
            }
            print(f"{name} base seed {base_seed}: {run.grid_s:.2f} s", flush=True)
    grid.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
