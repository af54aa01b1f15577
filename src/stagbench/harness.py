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
`Curve`: a read-only sequence of one ``(generation, best_value)`` pair per
generation, stored as change points (the start point plus each generation
whose best value differs from the one before).  It costs about 65 bytes of
memory and 13 pickled bytes per improvement, whatever the number of
generations, so pool results and the parent's memory grow with the number
of improvements, not of generations.

A grid runs on ``workers`` processes: 0 means one per usable CPU, and any
count is capped at the usable CPUs and at the number of runs.  Only a grid
run on more than one worker imports the process-pool stack
(``multiprocessing`` and what it loads), when its ``multiprocessing.Pool``
starts; importing this module or running a grid on one worker never loads
it.  Pool workers ignore Ctrl-C: on an interrupt or a failed run the parent
terminates them, so no queued run starts, and re-raises.

CSV output renders every float with 17 significant digits, which
round-trips binary64 exactly.
"""

from __future__ import annotations

import operator
import os
from bisect import bisect_right
from collections import abc
from contextlib import ExitStack
from dataclasses import dataclass, fields
from itertools import product
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import algorithms as algos
from .benchmarks import FUNCTIONS, objective
from .core import Bounds, as_integer, as_real, derive_stream, euclidean_norm

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
    "render_summary_table",
    "format_float",
]

TERMINATION_STAGNATION = "stagnation"
TERMINATION_CAP = "generation_cap"


def _sequence(field: str, value, kind: str) -> tuple:
    """`value` as a tuple; a str or anything not iterable raises ValueError
    naming `field`."""
    if isinstance(value, str) or not np.iterable(value):
        raise ValueError(f"{field} must be a sequence of {kind}, got {value!r}")
    return tuple(value)


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
            object.__setattr__(self, key, _sequence(key, getattr(self, key), "names"))
        for key in ("runs", "dim", "max_generations", "base_seed"):
            object.__setattr__(self, key, as_integer(key, getattr(self, key)))
        T_values = _sequence("T_values", self.T_values, "integers")
        T_values = tuple(as_integer("every T", t) for t in T_values)
        object.__setattr__(self, "T_values", T_values)
        for key in ("bounds_lo", "bounds_hi", "stationarity_threshold"):
            object.__setattr__(self, key, as_real(key, getattr(self, key)))
        if not isinstance(self.capture_curves, (bool, np.bool_)):
            raise ValueError(
                f"capture_curves must be a bool, got {self.capture_curves!r}"
            )
        object.__setattr__(self, "capture_curves", bool(self.capture_curves))
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
        for key, entries in (
            ("functions", self.functions),
            ("algorithms", self.algorithms),
            ("T", self.T_values),
        ):
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ValueError(f"{key} lists {repeated[0]!r} more than once")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        self.domain()  # validates the box before any run or pool starts
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        for t in self.T_values:
            if t < 1:
                raise ValueError("every T must be >= 1")
            if t >= self.max_generations:
                raise ValueError("every T must be < max_generations")
        if not self.stationarity_threshold > 0:
            raise ValueError("stationarity_threshold must be > 0")
        if self.stationarity_threshold == np.inf:
            raise ValueError("stationarity_threshold must be finite, got inf")

    def domain(self) -> Bounds:
        return Bounds.cube(self.bounds_lo, self.bounds_hi, self.dim)


@dataclass(frozen=True, slots=True)
class Curve(abc.Sequence):
    """Best-so-far curve of one run, stored as change points.

    Reads as ``length`` pairs ``(generation, best_value)``, one per
    generation from ``gens[0]``.  ``gens`` holds that first generation and
    then, ascending, each generation whose best value differs from the one
    before; ``vals[i]`` is the best value from ``gens[i]`` up to the next
    change point.  The values are the tracker's own floats, so they keep
    their bits.  Length is O(1) and indexing O(log changes).
    """

    gens: Tuple[int, ...]
    vals: Tuple[float, ...]
    length: int

    def __post_init__(self):
        if not 1 <= len(self.gens) == len(self.vals):
            raise ValueError("a curve needs one value per change point, at least one")
        if self.gens[-1] - self.gens[0] >= self.length:
            raise ValueError("the last change point lies past the end of the curve")

    def __reduce__(self):
        return Curve, (self.gens, self.vals, self.length)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i) -> Tuple[int, float]:
        i = operator.index(i)
        if i < 0:
            i += self.length
        if not 0 <= i < self.length:
            raise IndexError("curve index out of range")
        g = self.gens[0] + i
        return g, self.vals[bisect_right(self.gens, g) - 1]

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        for first, stop, value in self.segments():
            for g in range(first, stop):
                yield g, value

    def segments(self) -> Iterator[Tuple[int, int, float]]:
        """``(first_generation, stop_generation, value)`` for each run of
        generations that share one best value, in generation order."""
        stops = self.gens[1:] + (self.gens[0] + self.length,)
        return zip(self.gens, stops, self.vals)


@dataclass(frozen=True)
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
    if T < 1:
        raise ValueError("T must be >= 1")
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
    if not capture:
        return state, termination, ()
    curve = Curve(tuple(gens), tuple(vals), state.generation - start + 1)
    return state, termination, curve


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
    obj = objective(function, cfg.dim, cfg.domain())
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


def _ignore_sigint():
    # Pool worker initializer: a terminal's Ctrl-C reaches the whole process
    # group, and the parent alone answers it, by stopping the pool.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


def check_workers(workers) -> int:
    """`workers` as an int; anything but an integer >= 0 raises ValueError."""
    workers = as_integer("workers", workers)
    if workers < 0:
        raise ValueError("workers must be >= 0")
    return workers


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
    not depend on worker count.
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

            pool = multiprocessing.Pool(workers, initializer=_ignore_sigint)
            results = stack.enter_context(pool).imap(_run_task, tasks)
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


def _table(columns, rows) -> Iterator[List[str]]:
    """The header cells, then the cells of each row: a float through
    `format_float`, any other value through `str`."""
    yield [header for header, _ in columns]
    for row in rows:
        cells = (getattr(row, attr) for _, attr in columns)
        yield [format_float(v) if isinstance(v, float) else str(v) for v in cells]


def _write_table(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(cells) + "\n" for cells in _table(columns, rows))


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


def render_summary_table(rows: Sequence[SummaryRow]) -> str:
    """Fixed-width text table of the summary for terminal display."""
    cells = list(_table(SUMMARY_COLUMNS, rows))
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
