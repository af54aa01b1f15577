"""Stagnation-terminated experiment harness.

A run steps one algorithm on one benchmark until the best-so-far value has
gone ``T`` consecutive generations without strict improvement (termination
``stagnation``) or a safety cap is hit (``generation_cap``).  The full
experiment executes the (function x algorithm x T x run) grid — each run on
its own deterministic RNG substream — collects per-run records including
the analytic gradient norm at the terminal best point, and aggregates them
into per-cell summary rows.  Results are identical regardless of worker
count or execution order: records come back in grid order, each run seeds
its own stream from its grid key, and no RNG state leaks across runs.

With curve capture on, each record carries its best-so-far curve as a
`Curve`, which iterates one ``(generation, best_value)`` pair per
generation and is stored as change points (the start point plus each
generation whose best value differs from the one before).  It costs about
65 bytes of memory and 12 pickled bytes per improvement, whatever the
number of generations, so pool results and the parent's memory grow with
the number of improvements, not of generations.

A grid runs on ``workers`` processes: 0 means one per usable CPU, and any
count is capped at the usable CPUs and at the number of runs.  Only a grid
run on more than one worker imports the process-pool stack
(``multiprocessing`` and what it loads), when its ``multiprocessing.Pool``
starts; importing this module or running a grid on one worker never loads
it.  Pool workers ignore Ctrl-C, as the parent does while it builds the pool:
on an interrupt or a failed run it terminates them, and re-raises.

CSV output renders every float with 17 significant digits, which
round-trips binary64 exactly.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass, fields
from itertools import product
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import algorithms as algos
from .benchmarks import FUNCTIONS, objective
from .core import (Bounds, as_integer, as_real, as_sequence, derive_stream,
                   euclidean_norm)

__all__ = [
    "ExperimentConfig",
    "Curve",
    "RunRecord",
    "SummaryRow",
    "run_until_stagnation",
    "run_single",
    "run_experiment",
    "check_workers",
    "summarize",
    "write_records",
    "write_summary",
    "write_curves",
    "curve_filename",
    "render_summary",
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
        for key in ("functions", "algorithms"):
            object.__setattr__(self, key, as_sequence(key, getattr(self, key), "names"))
        for key, minimum in (
            ("runs", 1), ("dim", None), ("max_generations", 1), ("base_seed", None)
        ):
            object.__setattr__(self, key, as_integer(key, getattr(self, key), minimum))
        T_values = as_sequence("T_values", self.T_values, "integers")
        T_values = tuple(as_integer("every T", t, 1) for t in T_values)
        object.__setattr__(self, "T_values", T_values)
        for key in ("bounds_lo", "bounds_hi", "stationarity_threshold"):
            object.__setattr__(self, key, as_real(key, getattr(self, key)))
        if not isinstance(self.capture_curves, (bool, np.bool_)):
            raise ValueError(
                f"capture_curves must be a bool, got {self.capture_curves!r}"
            )
        object.__setattr__(self, "capture_curves", bool(self.capture_curves))
        # Each run's box, objective and init own these rules; making the
        # same calls here fails a bad grid before any run, in their words.
        domain = self.domain()
        for f in self.functions:
            objective(f, domain)
        for a in self.algorithms:
            algos.check_name(a)
        if not self.functions or not self.algorithms or not self.T_values:
            raise ValueError("functions, algorithms and T_values must be non-empty")
        for key, entries in (
            ("functions", self.functions),
            ("algorithms", self.algorithms),
            ("T", self.T_values),
        ):
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ValueError(f"{key} lists {repeated[0]!r} more than once")
        if max(self.T_values) >= self.max_generations:
            raise ValueError("every T must be < max_generations")
        if not self.stationarity_threshold > 0:
            raise ValueError("stationarity_threshold must be > 0")

    def domain(self) -> Bounds:
        return Bounds(self.bounds_lo, self.bounds_hi, self.dim)


@dataclass(frozen=True, slots=True)
class Curve:
    """Best-so-far curve of one run, stored as change points.

    Reads as ``length`` pairs ``(generation, best_value)``, one per
    generation from ``gens[0]``.  ``gens`` holds that first generation and
    then, ascending, each generation whose best value differs from the one
    before; ``vals[i]`` is the best value from ``gens[i]`` up to the next
    change point.  The values are the tracker's own floats, so they keep
    their bits, and ``len`` is O(1).
    """

    gens: Tuple[int, ...]
    vals: Tuple[float, ...]
    length: int

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        for first, stop, value in self.segments():
            for g in range(first, stop):
                yield g, value

    def segments(self) -> Iterator[Tuple[int, int, float]]:
        """``(first_generation, stop_generation, value)`` for each run of
        generations that share one best value, in generation order."""
        stops = self.gens[1:] + (self.gens[0] + self.length,)
        return zip(self.gens, stops, self.vals)


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outcome of a single stagnation-terminated run."""

    function: str
    algorithm: str
    T: int
    run_index: int
    best_point: np.ndarray
    best_value: float
    grad_norm: float
    generations: int
    evaluations: int
    termination: str
    curve: Union[Curve, Tuple[()]] = ()


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
    ``(final_state, termination, curve)`` where curve is a `Curve` of
    ``(generation, best_value)`` per generation from the starting one, or
    ``()`` unless `capture`.
    """
    T = as_integer("T", T, 1)
    start = state.generation
    gens = [start]
    vals = [state.tracker.best_value]
    while True:
        g = state.generation
        if g - state.tracker.last_improvement_gen >= T:
            termination = TERMINATION_STAGNATION
            break
        if g >= max_generations:
            termination = TERMINATION_CAP
            break
        state = step_fn(state)
        if capture and state.tracker.best_value != vals[-1]:
            gens.append(state.generation)
            vals.append(state.tracker.best_value)
    return state, termination, (
        Curve(tuple(gens), tuple(vals), state.generation - start + 1) if capture else ())


def run_single(
    function: str,
    algorithm: str,
    T: int,
    run_index: int,
    cfg: ExperimentConfig,
) -> RunRecord:
    """Execute one grid cell run on its own deterministic substream.

    Overflow and invalid operations raise no floating-point warnings: the
    non-finite values they make are +inf sentinels by design."""
    T = as_integer("T", T)
    run_index = as_integer("run_index", run_index)
    obj = objective(function, cfg.domain())
    gen = derive_stream(cfg.base_seed, (function, algorithm, T, run_index))
    with np.errstate(over="ignore", invalid="ignore"):
        state = algos.init(algorithm, obj, gen, cfg.max_generations)
        state, termination, curve = run_until_stagnation(
            state, T, cfg.max_generations, capture=cfg.capture_curves
        )
        point, value = algos.best(state)
        grad_norm = euclidean_norm(obj.grad(point))
    return RunRecord(
        function=function,
        algorithm=algorithm,
        T=T,
        run_index=run_index,
        best_point=point,
        best_value=value,
        grad_norm=grad_norm,
        generations=state.generation,
        evaluations=state.evaluations,
        termination=termination,
        curve=curve,
    )


def _run_task(args):
    return run_single(*args)


def check_workers(workers) -> int:
    """`workers` as an int; anything but an integer >= 0 raises ValueError."""
    return as_integer("workers", workers, 0)


def run_experiment(
    cfg: ExperimentConfig,
    workers: int = 1,
    progress: Optional[Callable[[RunRecord], None]] = None,
) -> Tuple[List[RunRecord], List[SummaryRow]]:
    """Run the whole grid and aggregate.

    Records come in grid order (function, algorithm, T, run, as listed in
    `cfg`); `progress`, if given, is called with each as it arrives.
    `workers` processes run the grid: 0 means one per usable CPU (those in
    the affinity mask where the platform reports one), any count is capped
    at the usable CPUs and at the number of runs, and a negative one raises
    ValueError.  A pool reads results back in submit order, so results do
    not depend on worker count.  Only the main thread, which alone sets the
    SIGINT handler that workers begin with, can run a pool.
    """
    workers = check_workers(workers)
    grid = product(cfg.functions, cfg.algorithms, cfg.T_values, range(cfg.runs))
    tasks = [(*key, cfg) for key in grid]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    # Pool forks every worker when it is built, so a pool wider than the
    # CPUs or the task list only costs processes.
    workers = min(workers or cpus, cpus, len(tasks))
    results = map(_run_task, tasks)
    records = []
    with ExitStack() as stack:
        if workers > 1:
            # Only here is the pool stack (multiprocessing, socket, queue,
            # ...) imported, so one-worker runs never load it.  Leaving the
            # block terminates the workers: after Ctrl-C or a failed run, no
            # queued run starts.
            import multiprocessing
            import signal

            # A terminal's Ctrl-C reaches the whole process group, and the
            # parent alone answers it, by stopping the pool.  Workers begin
            # while SIGINT is ignored, so they keep ignoring it, and the
            # parent ignores it only until the stack owns the pool.
            previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
            try:
                pool = stack.enter_context(multiprocessing.Pool(workers))
            finally:
                signal.signal(signal.SIGINT, previous)
            results = pool.imap(_run_task, tasks)
        for rec in results:
            if progress is not None:
                progress(rec)
            records.append(rec)
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
        # The sum can overflow for finite norms; only then, as
        # `euclidean_norm` does, the mean is taken again over scaled terms.
        with np.errstate(over="ignore"):
            mean_grad_norm = float(grads.mean())
            if np.isinf(mean_grad_norm) and np.isfinite(grads).all():
                mean_grad_norm = float(np.add.reduce(grads / grads.size))
        rows.append(
            SummaryRow(
                function=function,
                T=T,
                algorithm=algorithm,
                mean_grad_norm=mean_grad_norm,
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


# (CSV header, RunRecord attribute) per records.csv column, in order.
RECORDS_COLUMNS = (
    ("function", "function"),
    ("algorithm", "algorithm"),
    ("T", "T"),
    ("run", "run_index"),
    ("best_value", "best_value"),
    ("grad_norm", "grad_norm"),
    ("generations", "generations"),
    ("evaluations", "evaluations"),
    ("termination", "termination"),
)
# summary.csv has one column per SummaryRow field, named after it.
SUMMARY_COLUMNS = tuple((f.name, f.name) for f in fields(SummaryRow))
CURVE_HEADER = "run,generation,best_value"


def _write_table(path: str, columns, rows) -> None:
    """Write the header, then each row's cells: a float through
    `format_float`, any other value through `str`."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header for header, _ in columns) + "\n")
        for row in rows:
            cells = (getattr(row, attr) for _, attr in columns)
            fh.write(",".join(format_float(v) if isinstance(v, float) else str(v)
                              for v in cells) + "\n")


def write_records(records: Sequence[RunRecord], path: str) -> None:
    _write_table(path, RECORDS_COLUMNS, records)


def write_summary(rows: Sequence[SummaryRow], path: str) -> None:
    _write_table(path, SUMMARY_COLUMNS, rows)


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
                for first, stop, value in rec.curve.segments():
                    tail = f",{format_float(value)}\n"
                    fh.write("".join(
                        f"{rec.run_index},{g}{tail}" for g in range(first, stop)
                    ))
        paths.append(path)
    return paths


def render_summary(path: str) -> str:
    """The CSV at `path` (a `summary.csv`) as a Markdown table: each cell
    exactly as written, right-aligned in columns padded to one width, so it
    also lines up in a terminal.  An empty file raises ValueError naming
    path, and a line whose cell count differs from the header's, path:lineno."""
    with open(path, newline="") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    if not rows:
        raise ValueError(f"{path}: empty file, expected a header line")
    for lineno, row in enumerate(rows, 1):
        if len(row) != len(rows[0]):
            raise ValueError(
                f"{path}:{lineno}: {len(row)} cells, the header has {len(rows[0])}"
            )
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, ["-" * w for w in widths])
    return "\n".join("| " + " | ".join(map(str.rjust, row, widths)) + " |"
                     for row in rows)
