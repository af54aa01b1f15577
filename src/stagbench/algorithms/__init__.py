"""Six population metaheuristics behind one init/step/best interface.

Every algorithm is driven the same way::

    params = default_params("gwo", dim=3)
    state = init("gwo", params, objective, rng)
    while not done(state):
        state = step(state)
    point, value = best(state)

``step`` runs one full generation: candidate generation, clamping to the
search box, batch evaluation, selection, adaptive-memory update, and
best-so-far tracking.  Uniform rules shared by all six implementations:

* candidates are clamped to the objective's box right after generation;
* non-finite objective values become +inf sentinels and are never selected;
* ties in selection keep the incumbent (strict improvement only), matching
  the strict best-so-far tracker;
* time-decaying coefficients and population schedules are denominated in
  generations against ``params.schedule_horizon`` (the harness safety cap),
  since runs terminate on stagnation rather than on a fixed budget.

Default parameters come from each algorithm's original publication and are
recorded in ``stagbench/data/algorithm_defaults.txt``, which is the single
source ``default_params`` reads from.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType
from typing import Mapping, Tuple

import numpy as np

from ..core import (
    BestTracker,
    ObjectiveSpec,
    RngStream,
    make_tracker,
    update_best,
)

__all__ = [
    "ALGORITHMS",
    "ParamSet",
    "AlgoState",
    "default_params",
    "defaults_table",
    "init",
    "step",
    "best",
]

ALGORITHMS = ("gl25", "clpso", "lshade", "gwo", "woa", "hho")

DEFAULT_SCHEDULE_HORIZON = 20000


@dataclass(frozen=True)
class ParamSet:
    """Parameters of one algorithm: population size, schedule horizon and
    the algorithm-specific scalars from the defaults table."""

    algorithm: str
    pop_size: int
    schedule_horizon: int
    extra: Mapping[str, float]

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if self.pop_size < 4:
            raise ValueError("pop_size must be >= 4")
        if self.schedule_horizon < 1:
            raise ValueError("schedule_horizon must be >= 1")
        object.__setattr__(self, "extra", MappingProxyType(dict(self.extra)))

    def get(self, key: str) -> float:
        if key not in self.extra:
            raise KeyError(f"{self.algorithm} has no parameter {key!r}")
        return self.extra[key]


@dataclass
class AlgoState:
    """A run in progress: population with cached values, adaptive memory,
    best-so-far tracker and counters.  `step` advances the state in place
    and returns it."""

    algorithm: str
    params: ParamSet
    objective: ObjectiveSpec
    population: np.ndarray
    values: np.ndarray
    memory: dict
    tracker: BestTracker
    generation: int
    evaluations: int
    rng: RngStream
    gen_rng: np.random.Generator


def defaults_table() -> Mapping[str, float]:
    """The shipped defaults table as a flat {dotted key: value} mapping."""
    text = (
        resources.files("stagbench").joinpath("data/algorithm_defaults.txt")
    ).read_text(encoding="utf-8")
    table = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"defaults table line {lineno} is not key = value: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        table[key] = float(val)
    return table


def default_params(
    algorithm: str,
    dim: int,
    schedule_horizon: int = DEFAULT_SCHEDULE_HORIZON,
) -> ParamSet:
    """Original-publication defaults for `algorithm` at dimension `dim`.

    LSHADE's initial population scales with the dimension (18 * dim); all
    other sizes are fixed.  Values come from the shipped defaults table.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    if dim < 1:
        raise ValueError("dim must be >= 1")
    table = defaults_table()
    prefix = algorithm + "."
    extra = {
        key[len(prefix):]: val for key, val in table.items() if key.startswith(prefix)
    }
    if algorithm == "lshade":
        pop = int(extra.pop("pop_init_factor")) * dim
        pop = max(pop, int(extra["pop_min"]))
    else:
        pop = int(extra.pop("pop_size"))
    return ParamSet(
        algorithm=algorithm,
        pop_size=pop,
        schedule_horizon=int(schedule_horizon),
        extra=extra,
    )


def _module(algorithm: str):
    from . import clpso, gl25, gwo, hho, lshade, woa

    return {
        "gl25": gl25,
        "clpso": clpso,
        "lshade": lshade,
        "gwo": gwo,
        "woa": woa,
        "hho": hho,
    }[algorithm]


def sentinel_values(raw: np.ndarray) -> np.ndarray:
    """Replace non-finite objective outputs with +inf so they never win."""
    raw = np.asarray(raw, dtype=np.float64)
    return np.where(np.isfinite(raw), raw, np.inf)


def track_batch(
    tracker: BestTracker, X: np.ndarray, vals: np.ndarray, gen: int
) -> BestTracker:
    """Fold a batch of evaluated candidates through update_best in order."""
    for i in np.flatnonzero(vals < tracker.best_value):
        if vals[i] < tracker.best_value:
            tracker = update_best(tracker, X[i], float(vals[i]), gen)
    return tracker


def schedule_fraction(generation: int, horizon: int) -> float:
    """Elapsed fraction of the coefficient schedule, clipped to [0, 1]."""
    return min(1.0, max(0.0, generation / horizon))


def init(
    algorithm: str,
    params: ParamSet,
    objective: ObjectiveSpec,
    rng: RngStream,
) -> AlgoState:
    """Sample a uniform population in the box, evaluate it, seed the tracker."""
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    if params.algorithm != algorithm:
        raise ValueError("params were built for a different algorithm")
    gen_rng = rng.generator()
    n, dim = params.pop_size, objective.dim
    X = gen_rng.uniform(objective.domain.lo, objective.domain.hi, size=(n, dim))
    vals = sentinel_values(objective.value_batch(X))
    if not np.isfinite(vals).any():
        raise ValueError("every initial sample evaluated non-finite")
    seed_idx = int(np.argmin(vals))
    tracker = make_tracker(X[seed_idx], float(vals[seed_idx]), gen=0)
    state = AlgoState(
        algorithm=algorithm,
        params=params,
        objective=objective,
        population=X,
        values=vals,
        memory={},
        tracker=tracker,
        generation=0,
        evaluations=n,
        rng=rng,
        gen_rng=gen_rng,
    )
    state.memory = _module(algorithm).init_memory(state)
    return state


def step(state: AlgoState) -> AlgoState:
    """Advance one generation of the state's algorithm."""
    return _module(state.algorithm).step(state)


def best(state: AlgoState) -> Tuple[np.ndarray, float]:
    """Best-so-far (point, value); pure read."""
    return state.tracker.best_point.copy(), state.tracker.best_value


def advance(state: AlgoState, population, values, tracker, evaluated: int) -> AlgoState:
    """Shared bookkeeping tail for step implementations: record the new
    generation in `state` and return it."""
    state.population = population
    state.values = values
    state.tracker = tracker
    state.generation += 1
    state.evaluations += evaluated
    return state
