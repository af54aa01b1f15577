"""Workloads, timed grid runs, their metrics and their correctness checks.

Every grid goes through the public API only: ``harness.run_experiment`` with
a ``progress`` callback, then ``write_records``, ``write_summary`` and, when
curves are captured, ``write_curves``.  Import after ``bootstrap.prepare()``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from stagbench import algorithms as algos
from stagbench import harness

import bootstrap
from tracing import Tracer

HERE = Path(__file__).resolve().parent
OUT = bootstrap.ROOT / ".perfbench_out"
PINS = HERE / "pins.json"
# --seed selects one of this many base seeds, all pinned in pins.json.
BASE_SEEDS = 12


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    """One grid: all 3 functions x 6 algorithms in the default box."""

    name: str
    dim: int
    T_values: tuple
    runs: int
    pooled: bool
    curves: bool

    @property
    def workers(self) -> int:
        return min(2, nproc()) if self.pooled else 1

    def config(self, base_seed: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            T_values=self.T_values,
            runs=self.runs,
            base_seed=base_seed,
            dim=self.dim,
            capture_curves=self.curves,
        )

    def runs_per_grid(self) -> int:
        return len(harness.FUNCTIONS) * len(algos.ALGORITHMS) * len(self.T_values) * self.runs

    def probe_args(self, base_seed: int) -> List[str]:
        return [
            str(self.dim),
            ",".join(str(t) for t in self.T_values),
            str(self.runs),
            str(base_seed),
            str(self.workers),
            "1" if self.curves else "0",
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-d3", dim=3, T_values=(100, 1000), runs=1, pooled=False, curves=False),
        Workload("grid-d10", dim=10, T_values=(100, 300), runs=1, pooled=False, curves=False),
        Workload("grid-pool", dim=3, T_values=(100,), runs=3, pooled=True, curves=True),
    )
}


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def base_seed_for(seed: int) -> int:
    """The seed selects one of the pinned base seeds, so every output is checked."""
    return seed % BASE_SEEDS


class GridFailed(RuntimeError):
    """A run raised; carries how many runs of the grid finished before it."""

    def __init__(self, done: int, total: int):
        super().__init__(f"run {done + 1} of {total} raised")
        self.done = done


@dataclass
class GridRun:
    records: list
    workers: int
    grid_s: float            # run_experiment call to last CSV written
    compute_s: float         # run_experiment call alone
    run_walls: Optional[np.ndarray]  # seconds per record; 1 worker only
    digests: Dict[str, str]  # file name -> sha256
    bytes_written: int


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_grid(workload: Workload, base_seed: int, workers: int, out_dir: Path) -> GridRun:
    """Run the whole grid once and write its CSVs into `out_dir`."""
    cfg = workload.config(base_seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("*.csv"):
        stale.unlink()
    total = workload.runs_per_grid()
    stamps = []
    start = perf_counter()
    try:
        records, rows = harness.run_experiment(
            cfg, workers=workers, progress=lambda rec: stamps.append(perf_counter())
        )
    except Exception as exc:
        raise GridFailed(len(stamps), total) from exc
    computed = perf_counter()
    paths = [out_dir / "records.csv", out_dir / "summary.csv"]
    harness.write_records(records, str(paths[0]))
    harness.write_summary(rows, str(paths[1]))
    if cfg.capture_curves:
        paths += [Path(p) for p in harness.write_curves(records, str(out_dir))]
    end = perf_counter()
    walls = np.diff([start] + stamps) if workers == 1 else None
    return GridRun(
        records=records,
        workers=workers,
        grid_s=end - start,
        compute_s=computed - start,
        run_walls=walls,
        digests={p.name: _sha256(p) for p in paths},
        bytes_written=sum(p.stat().st_size for p in paths),
    )


def traced_grid(workload: Workload, base_seed: int, out_dir: Path):
    """Sequential grid with every layer's public callables wrapped in spans."""
    tracer = Tracer()
    with tracer.installed():
        run = run_grid(workload, base_seed, 1, out_dir)
    return run, tracer


def setup_probe(workload: Workload, base_seed: int) -> float:
    """Wall time of one fresh process from launch to the harness's first run."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), *workload.probe_args(base_seed)],
        stdout=subprocess.PIPE,
        env=bootstrap.child_env(),
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

# End-to-end metrics that are printed but not gated in BENCHMARK.json: the
# work in a grid depends on its inputs (grid_s, run_ms_*), and so does the
# mix of algorithms behind a generation (generations_per_s,
# evaluations_per_s); a run that raises ends the benchmark
# (failed_fraction); and each gen_us.<alg> samples too little of the run to
# stay within the largest allowed bound on the host the bounds were measured
# on.  gen_us_mean, gated, weights the algorithms equally instead.
UNGATED_UNITS = {
    "grid_s": "s",
    "generations_per_s": "1/s",
    "evaluations_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "failed_fraction": "fraction",
    **{f"gen_us.{alg}": "us" for alg in algos.ALGORITHMS},
}


def tail_index(n: int) -> int:
    """Index (ascending order) of the highest percentile with >= 10 runs beyond it."""
    if n < 11:
        raise ValueError("a tail needs at least 11 runs")
    return n - 11


def throughput(run: GridRun) -> Dict[str, float]:
    gens = sum(r.generations for r in run.records)
    evals = sum(r.evaluations for r in run.records)
    return {
        "grid_s": run.grid_s,
        "generations_per_s": gens / run.grid_s,
        "evaluations_per_s": evals / run.grid_s,
    }


def per_run(run: GridRun) -> Dict[str, float]:
    """Per-run wall metrics of a 1-worker grid."""
    walls = run.run_walls
    ordered = np.sort(walls)
    out = {
        "run_ms_p50": 1e3 * float(np.median(walls)),
        "run_ms_tail": 1e3 * float(ordered[tail_index(walls.size)]),
    }
    for alg in algos.ALGORITHMS:
        idx = [i for i, r in enumerate(run.records) if r.algorithm == alg]
        gens = sum(run.records[i].generations for i in idx)
        out[f"gen_us.{alg}"] = 1e6 * float(walls[idx].sum()) / gens
    out["gen_us_mean"] = statistics.mean(out[f"gen_us.{alg}"] for alg in algos.ALGORITHMS)
    return out


def medians(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def end_to_end(reps: List[GridRun], wall_reps: List[GridRun], setup_times: List[float],
               peak_rss_mb: float) -> Dict[str, float]:
    metrics = {"setup_s": statistics.median(setup_times)}
    metrics.update(medians([throughput(r) for r in reps]))
    metrics.update(medians([per_run(r) for r in wall_reps]))
    # A run that raises ends the benchmark (GridFailed), so none of the
    # runs that reach this point failed.
    metrics["failed_fraction"] = 0.0
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def exact_counts(run: GridRun, tracer: Optional[Tracer] = None) -> Dict[str, int]:
    """Counts that must repeat exactly; the span counts need a traced run."""
    counts = {
        "generations": sum(r.generations for r in run.records),
        "evaluations": sum(r.evaluations for r in run.records),
        "cap_terminations": sum(
            r.termination == harness.TERMINATION_CAP for r in run.records
        ),
    }
    if tracer is not None:
        calls, _, _, rows = tracer.totals()
        counts.update(
            improvements=tracer.improvements,
            kernel_calls=calls["kernels.value"],
            kernel_rows=rows["kernels.value"],
            step_calls=sum(calls["algorithms.step." + a] for a in algos.ALGORITHMS),
        )
    return counts


def per_layer(traced: GridRun, tracer: Tracer, sequential: GridRun,
              timed: GridRun) -> Dict[str, float]:
    """Per-layer split of the traced sequential grid.

    `sequential` is an untraced 1-worker grid of the same inputs (tracing
    overhead is measured against it); `timed` is the untraced grid at the
    workload's own worker count.
    """
    calls, dur, self_s, count = tracer.totals()
    run_total = dur["harness.run_single"]
    steps = ["algorithms.step." + a for a in algos.ALGORITHMS]
    m = {
        "kernels.calls": calls["kernels.value"],
        "kernels.rows": count["kernels.value"],
        "kernels.self_s": self_s["kernels.value"],
        "kernels.ns_per_row": 1e9 * self_s["kernels.value"] / count["kernels.value"],
        "kernels.share": self_s["kernels.value"] / run_total,
        "benchmarks.value_batch.self_s": self_s["benchmarks.value_batch"],
        "benchmarks.value_batch.self_us_per_call": (
            1e6 * self_s["benchmarks.value_batch"] / calls["benchmarks.value_batch"]
        ),
        "benchmarks.audit_s": dur["audit"],
        "core.value_batch.self_s": self_s["core.value_batch"],
        "algorithms.step.calls": sum(calls[s] for s in steps),
        "algorithms.step.self_s": sum(self_s[s] for s in steps),
    }
    for alg, s in zip(algos.ALGORITHMS, steps):
        m[f"algorithms.step.self_us.{alg}"] = 1e6 * self_s[s] / calls[s]
    m["algorithms.init_s"] = dur["algorithms.init"]
    for alg, s in zip(algos.ALGORITHMS, steps):
        m[f"algorithms.evals_per_gen.{alg}"] = count[s] / calls[s]
    m["algorithms.improvement_ratio"] = tracer.improvements / sum(
        r.evaluations for r in traced.records
    )
    m["harness.run_single.self_s"] = self_s["harness.run_single"]
    m["harness.loop.self_s"] = self_s["harness.run_until_stagnation"]
    m["harness.summarize_s"] = dur["harness.summarize"]
    m["harness.write_s"] = dur["harness.write"]
    m["harness.bytes_written"] = traced.bytes_written
    m["harness.cap_terminations"] = exact_counts(traced)["cap_terminations"]
    # Sequential compute comes from the untraced 1-worker grid: the traced
    # one is inflated by the tracing overhead itself.
    m["harness.worker_busy_fraction"] = sequential.compute_s / (timed.workers * timed.grid_s)
    m["trace.overhead_s"] = traced.grid_s - sequential.grid_s
    return m


# ---------------------------------------------------------------------------
# correctness checks; each returns a list of failure messages
# ---------------------------------------------------------------------------

def check_records(workload: Workload, base_seed: int, run: GridRun) -> List[str]:
    """Structural checks every record of the grid must pass."""
    cfg = workload.config(base_seed)
    lo, hi = cfg.bounds_lo, cfg.bounds_hi
    errors = []
    expected = workload.runs_per_grid()
    if len(run.records) != expected:
        errors.append(f"{len(run.records)} records, expected {expected}")
    for r in run.records:
        where = f"{r.function}/{r.algorithm}/T={r.T}/run={r.run_index}"
        if r.termination == harness.TERMINATION_STAGNATION:
            if r.generations < r.T:
                errors.append(f"{where}: stagnation after {r.generations} < T generations")
        elif r.termination != harness.TERMINATION_CAP or r.generations != cfg.max_generations:
            errors.append(f"{where}: termination {r.termination} at {r.generations}")
        if not (np.isfinite(r.best_value) and r.best_value >= 0.0):
            errors.append(f"{where}: best value {r.best_value}")
        if not (np.isfinite(r.grad_norm) and r.grad_norm >= 0.0):
            errors.append(f"{where}: gradient norm {r.grad_norm}")
        if not (np.all(r.best_point >= lo) and np.all(r.best_point <= hi)):
            errors.append(f"{where}: best point outside the box")
        if r.evaluations <= r.generations:
            errors.append(f"{where}: {r.evaluations} evaluations in {r.generations} generations")
        if cfg.capture_curves:
            values = np.array([v for _, v in r.curve])
            if len(r.curve) != r.generations + 1 or np.any(np.diff(values) > 0):
                errors.append(f"{where}: curve is not one non-increasing value per generation")
            elif values[-1] != r.best_value:
                errors.append(f"{where}: curve ends at {values[-1]}, best is {r.best_value}")
    return errors


def check_pins(workload: Workload, base_seed: int, run: GridRun, pins: dict,
               counts: Optional[Dict[str, int]] = None) -> List[str]:
    """Pinned digests of records.csv and summary.csv, and pinned exact counts."""
    pin = pins.get(workload.name, {}).get(str(base_seed))
    if pin is None:
        return [f"no pin for {workload.name} base seed {base_seed}; run pin.py"]
    errors = [
        f"{name} sha256 {run.digests[name]} != pinned {pin[name]}"
        for name in ("records.csv", "summary.csv")
        if run.digests[name] != pin[name]
    ]
    for key, value in (counts or exact_counts(run)).items():
        if value != pin["counts"][key]:
            errors.append(f"count {key} = {value}, pinned {pin['counts'][key]}")
    return errors


def check_same_bytes(label: str, a: GridRun, b: GridRun) -> List[str]:
    if a.digests != b.digests:
        diff = sorted(k for k in a.digests.keys() | b.digests.keys()
                      if a.digests.get(k) != b.digests.get(k))
        return [f"{label}: output files differ: {', '.join(diff)}"]
    return []


def stationarity_headline(workload: Workload, base_seed: int, run: GridRun) -> float:
    """Fraction of runs whose gradient norm exceeds the stationarity threshold."""
    threshold = workload.config(base_seed).stationarity_threshold
    return float(np.mean([r.grad_norm > threshold for r in run.records]))
