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

Only a grid run on more than one worker imports the process-pool stack
(``concurrent.futures``, ``multiprocessing`` and what they load), when its
pool starts; importing this module or running a grid on one worker never
loads it.  Pool workers ignore Ctrl-C: on an interrupt or a failed run the
parent stops them, so no queued run starts, and re-raises.

CSV output renders every float with 17 significant digits, which
round-trips binary64 exactly.
"""

from __future__ import annotations

import operator
import os
from bisect import bisect_right
from collections import abc
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import algorithms as algos
from .benchmarks import FUNCTIONS, objective
from .core import Bounds, derive_stream

__all__ = [
    "ExperimentConfig",
    "Curve",
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
    seed_path: Tuple
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
    obj = objective(function, cfg.dim, cfg.domain())
    labels = (function, algorithm, int(T), int(run_index))
    rng = derive_stream(cfg.base_seed, labels)
    params = algos.default_params(
        algorithm, cfg.dim, schedule_horizon=cfg.max_generations
    )
    with np.errstate(over="ignore", invalid="ignore"):
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


def _ignore_sigint():
    # Pool worker initializer: a terminal's Ctrl-C reaches the whole process
    # group, and the parent alone answers it, by stopping the pool.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


def run_experiment(
    cfg: ExperimentConfig,
    workers: int = 1,
    progress: Optional[Callable[[RunRecord], None]] = None,
) -> Tuple[List[RunRecord], List[SummaryRow]]:
    """Run the whole grid and aggregate.

    Records come in grid order (function, algorithm, T, run, as listed in
    `cfg`).  `workers` > 1 fans runs out to a process pool of at most one
    process per task and reads the results back in submit order, so results
    do not depend on worker count.
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
        # The pool stack (concurrent.futures, multiprocessing, socket,
        # logging, ...) is imported only here, so one-worker runs never
        # load it.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import active_children

        others = set(active_children())
        records = []
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_ignore_sigint
        ) as pool:
            futures = [pool.submit(_run_task, task) for task in tasks]
            try:
                for future in futures:
                    rec = future.result()
                    if progress is not None:
                        progress(rec)
                    records.append(rec)
            except BaseException:
                # On Ctrl-C or a failed run, stop the workers rather than
                # wait for their runs.  That breaks the pool, which then
                # fails every queued run instead of starting it (cancelling
                # them as well would race the pool's own clean-up).
                for proc in set(active_children()) - others:
                    proc.terminate()
                raise
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


def _summary_cells(s: SummaryRow) -> Tuple[str, ...]:
    """The cells of one summary row, in SUMMARY_HEADER order."""
    return (
        s.function,
        str(s.T),
        s.algorithm,
        format_float(s.mean_grad_norm),
        format_float(s.stationary_fraction),
        format_float(s.mean_generations),
        str(s.runs),
    )


def write_summary(rows: Sequence[SummaryRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for s in rows:
            fh.write(",".join(_summary_cells(s)) + "\n")


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
    header = SUMMARY_HEADER.split(",")
    cells = [header] + [_summary_cells(s) for s in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
