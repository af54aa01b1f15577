"""Stagnation-terminated experiment harness.

A run steps one algorithm on one benchmark until the best-so-far value has
gone ``T`` consecutive generations without strict improvement (termination
``stagnation``) or a safety cap is hit (``generation_cap``).  The full
experiment executes the (function x algorithm x T x run) grid — each run on
its own deterministic RNG substream — collects per-run records including
the analytic gradient norm at the terminal best point, and aggregates them
into per-cell summary rows.  Results are identical regardless of worker
count or execution order: tasks are keyed, outputs are sorted by key, and
no RNG state leaks across runs.

CSV output renders every float with 17 significant digits, which
round-trips binary64 exactly.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import algorithms as algos
from .benchmarks import FUNCTIONS, objective
from .core import Bounds, derive_stream

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "SummaryRow",
    "run_until_stagnation",
    "run_single",
    "run_experiment",
    "summarize",
    "write_records",
    "write_summary",
    "write_curves",
    "curve_filename",
    "render_summary_table",
    "format_float",
]

TERMINATION_STAGNATION = "stagnation"
TERMINATION_CAP = "generation_cap"


@dataclass(frozen=True)
class ExperimentConfig:
    """The full grid specification plus run-control knobs."""

    functions: Tuple[str, ...] = FUNCTIONS
    algorithms: Tuple[str, ...] = algos.ALGORITHMS
    T_values: Tuple[int, ...] = (100, 200, 300, 500, 1000)
    runs: int = 30
    base_seed: int = 42
    dim: int = 3
    bounds_lo: float = -100.0
    bounds_hi: float = 100.0
    max_generations: int = 20000
    stationarity_threshold: float = 1e-2
    capture_curves: bool = False

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "T_values", tuple(int(t) for t in self.T_values))
        for f in self.functions:
            if f not in FUNCTIONS:
                raise ValueError(f"unknown function {f!r}; expected one of {FUNCTIONS}")
        for a in self.algorithms:
            if a not in algos.ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {a!r}; expected one of {algos.ALGORITHMS}"
                )
        if not self.functions or not self.algorithms or not self.T_values:
            raise ValueError("functions, algorithms and T_values must be non-empty")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if not self.bounds_lo < self.bounds_hi:
            raise ValueError("bounds_lo must be < bounds_hi")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        for t in self.T_values:
            if t < 1:
                raise ValueError("every T must be >= 1")
            if t >= self.max_generations:
                raise ValueError("every T must be < max_generations")
        if not self.stationarity_threshold > 0:
            raise ValueError("stationarity_threshold must be > 0")

    def domain(self) -> Bounds:
        return Bounds.cube(self.bounds_lo, self.bounds_hi, self.dim)


@dataclass(frozen=True)
class RunRecord:
    """Outcome of a single stagnation-terminated run."""

    function: str
    algorithm: str
    T: int
    run_index: int
    seed_path: Tuple
    best_point: np.ndarray
    best_value: float
    grad_norm: float
    generations: int
    evaluations: int
    termination: str
    curve: Tuple[Tuple[int, float], ...] = ()


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate of all runs in one (function, T, algorithm) cell."""

    function: str
    T: int
    algorithm: str
    mean_grad_norm: float
    stationary_fraction: float
    mean_generations: float
    runs: int


def run_until_stagnation(
    state,
    T: int,
    max_generations: int,
    step_fn: Callable = algos.step,
    capture: bool = False,
):
    """Step `state` until stagnation or the generation cap.

    Stagnation fires at the *first* generation g with
    ``g - last_improvement_gen >= T`` (checked before the cap, so a run
    that satisfies both is a stagnation exit).  Returns
    ``(final_state, termination, curve)`` where curve is a tuple of
    ``(generation, best_value)`` per generation (empty unless `capture`).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    curve = [(state.generation, state.tracker.best_value)] if capture else []
    while True:
        g = state.generation
        if g - state.tracker.last_improvement_gen >= T:
            termination = TERMINATION_STAGNATION
            break
        if g >= max_generations:
            termination = TERMINATION_CAP
            break
        state = step_fn(state)
        if capture:
            curve.append((state.generation, state.tracker.best_value))
    return state, termination, tuple(curve)


def run_single(
    function: str,
    algorithm: str,
    T: int,
    run_index: int,
    cfg: ExperimentConfig,
) -> RunRecord:
    """Execute one grid cell run on its own deterministic substream."""
    obj = objective(function, cfg.dim, cfg.domain())
    labels = (function, algorithm, int(T), int(run_index))
    rng = derive_stream(cfg.base_seed, labels)
    params = algos.default_params(
        algorithm, cfg.dim, schedule_horizon=cfg.max_generations
    )
    state = algos.init(algorithm, params, obj, rng)
    state, termination, curve = run_until_stagnation(
        state, T, cfg.max_generations, capture=cfg.capture_curves
    )
    point, value = algos.best(state)
    grad_norm = float(np.linalg.norm(obj.grad(point)))
    return RunRecord(
        function=function,
        algorithm=algorithm,
        T=int(T),
        run_index=int(run_index),
        seed_path=labels,
        best_point=point,
        best_value=value,
        grad_norm=grad_norm,
        generations=state.generation,
        evaluations=state.evaluations,
        termination=termination,
        curve=curve,
    )


def _tasks(cfg: ExperimentConfig):
    for function in cfg.functions:
        for algorithm in cfg.algorithms:
            for T in cfg.T_values:
                for run in range(cfg.runs):
                    yield (function, algorithm, T, run)


def _run_task(args):
    function, algorithm, T, run, cfg = args
    return run_single(function, algorithm, T, run, cfg)


def run_experiment(
    cfg: ExperimentConfig,
    workers: int = 1,
    progress: Optional[Callable[[RunRecord], None]] = None,
) -> Tuple[List[RunRecord], List[SummaryRow]]:
    """Run the whole grid and aggregate.

    `workers` > 1 fans runs out to a process pool of at most one process
    per task; outputs are sorted by grid key afterwards, so results do not
    depend on worker count.
    """
    tasks = [(f, a, t, r, cfg) for (f, a, t, r) in _tasks(cfg)]
    # The fork start method launches every pool worker on the first submit,
    # so a pool wider than the task list only costs processes.
    workers = min(workers, len(tasks))
    if workers <= 1:
        records = []
        for task in tasks:
            rec = _run_task(task)
            if progress is not None:
                progress(rec)
            records.append(rec)
    else:
        records = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rec in pool.map(_run_task, tasks, chunksize=1):
                if progress is not None:
                    progress(rec)
                records.append(rec)
    key = {
        (f, a, t): i
        for i, (f, a, t) in enumerate(
            (f, a, t)
            for f in cfg.functions
            for a in cfg.algorithms
            for t in cfg.T_values
        )
    }
    records.sort(key=lambda r: (key[(r.function, r.algorithm, r.T)], r.run_index))
    return records, summarize(records, cfg)


def summarize(
    records: Sequence[RunRecord], cfg: ExperimentConfig
) -> List[SummaryRow]:
    """Per-(function, T, algorithm) aggregation, ordered by that key
    (functions and algorithms in config order, T ascending)."""
    cells = {}
    for rec in records:
        cells.setdefault((rec.function, rec.T, rec.algorithm), []).append(rec)
    f_order = {f: i for i, f in enumerate(cfg.functions)}
    a_order = {a: i for i, a in enumerate(cfg.algorithms)}
    rows = []
    for (function, T, algorithm) in sorted(
        cells, key=lambda k: (f_order[k[0]], k[1], a_order[k[2]])
    ):
        recs = cells[(function, T, algorithm)]
        grads = np.array([r.grad_norm for r in recs])
        rows.append(
            SummaryRow(
                function=function,
                T=T,
                algorithm=algorithm,
                mean_grad_norm=float(grads.mean()),
                stationary_fraction=float(
                    np.mean(grads <= cfg.stationarity_threshold)
                ),
                mean_generations=float(
                    np.mean([r.generations for r in recs])
                ),
                runs=len(recs),
            )
        )
    return rows


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (binary64 round-trip)."""
    return "%.17g" % float(x)


RECORDS_HEADER = (
    "function,algorithm,T,run,best_value,grad_norm,generations,evaluations,termination"
)
SUMMARY_HEADER = (
    "function,T,algorithm,mean_grad_norm,stationary_fraction,mean_generations,runs"
)
CURVE_HEADER = "run,generation,best_value"


def write_records(records: Sequence[RunRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(RECORDS_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.function},{r.algorithm},{r.T},{r.run_index},"
                f"{format_float(r.best_value)},{format_float(r.grad_norm)},"
                f"{r.generations},{r.evaluations},{r.termination}\n"
            )


def write_summary(rows: Sequence[SummaryRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for s in rows:
            fh.write(
                f"{s.function},{s.T},{s.algorithm},"
                f"{format_float(s.mean_grad_norm)},"
                f"{format_float(s.stationary_fraction)},"
                f"{format_float(s.mean_generations)},{s.runs}\n"
            )


def curve_filename(function: str, algorithm: str, T: int) -> str:
    return f"curve_{function}_{algorithm}_T{T}.csv"


def write_curves(records: Sequence[RunRecord], directory: str) -> List[str]:
    """One curve CSV per (function, algorithm, T); rows sorted by (run, gen).

    Records without captured curves are skipped.  Returns written paths.
    """
    groups = {}
    for r in records:
        if r.curve:
            groups.setdefault((r.function, r.algorithm, r.T), []).append(r)
    paths = []
    for (function, algorithm, T), recs in groups.items():
        path = os.path.join(directory, curve_filename(function, algorithm, T))
        with open(path, "w", newline="") as fh:
            fh.write(CURVE_HEADER + "\n")
            for rec in sorted(recs, key=lambda r: r.run_index):
                for generation, value in rec.curve:
                    fh.write(
                        f"{rec.run_index},{generation},{format_float(value)}\n"
                    )
        paths.append(path)
    return paths


def render_summary_table(rows: Sequence[SummaryRow]) -> str:
    """Fixed-width text table of the summary for terminal display."""
    header = ("function", "T", "algorithm", "mean_grad_norm",
              "stationary_fraction", "mean_generations", "runs")
    cells = [header]
    for s in rows:
        cells.append(
            (
                s.function,
                str(s.T),
                s.algorithm,
                format_float(s.mean_grad_norm),
                format_float(s.stationary_fraction),
                format_float(s.mean_generations),
                str(s.runs),
            )
        )
    widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
