"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py

Runs ``run.py --trace 0`` for seeds 1-10 on every workload of BENCHMARK.json,
interleaving workloads and rotating their order from seed to seed so that
slow drift of the host is shared out rather than landing on one workload.
For each metric it prints the median and the interquartile range as a share
of the median (quartiles as ``statistics.quantiles(values, n=4)`` gives
them), next to the bound.  Raw results are appended to
.perfbench_out/spread.jsonl.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    log = ROOT / ".perfbench_out" / "spread.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values = {w: {} for w in workloads}
    for i, seed in enumerate(SEEDS):
        shift = i % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {workload}: correct {result['correct']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':10} {'metric':20} {'median':>14} {'spread':>8} {'bound':>6}")
    for workload in workloads:
        for name, vals in values[workload].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  above bound/3"
            print(f"{workload:10} {name:20} {med:14.6g} {spread:8.4f} {bounds[name]:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
