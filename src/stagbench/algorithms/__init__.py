"""Six population metaheuristics behind one init/step/best interface.

Every algorithm is driven the same way::

    params = default_params("gwo", dim=3)
    state = init(params, objective, gen)
    while not done(state):
        state = step(state)
    point, value = best(state)

``step`` runs one full generation in place: candidate generation, clamping
to the search box, batch evaluation, selection, adaptive-memory update, and
best-so-far tracking.  Uniform rules shared by all six implementations:

* candidates go through ``evaluate``, which clamps them to the objective's
  box, evaluates them, turns non-finite values into +inf sentinels (never
  selected), folds them into the best-so-far tracker in row order and counts
  them; each body returns the new population and its values, and ``step``
  stores them and counts the generation;
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

import functools
from dataclasses import dataclass
from importlib import import_module, resources
from types import MappingProxyType
from typing import Mapping, Tuple

import numpy as np

from ..core import BestTracker, ObjectiveSpec, as_integer, read_key_values

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

    params: ParamSet
    objective: ObjectiveSpec
    population: np.ndarray
    values: np.ndarray
    memory: dict
    tracker: BestTracker
    generation: int
    evaluations: int
    gen_rng: np.random.Generator

    @property
    def algorithm(self) -> str:
        return self.params.algorithm


@functools.cache
def defaults_table() -> Mapping[str, float]:
    """The shipped defaults table as a flat, read-only {dotted key: value}
    mapping, parsed once per process."""
    path = "data/algorithm_defaults.txt"
    text = resources.files("stagbench").joinpath(path).read_text(encoding="utf-8")
    entries = read_key_values(text.splitlines(), path)
    return MappingProxyType({key: float(val) for _, key, val in entries})


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
    dim = as_integer("dim", dim)
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


@functools.cache
def _module(algorithm: str):
    # Imported on first use: the bodies import this package.
    return import_module("." + algorithm, __name__)


def sentinel_values(raw: np.ndarray) -> np.ndarray:
    """Replace non-finite objective outputs with +inf so they never win.

    An all-finite input is returned as is, not copied."""
    raw = np.asarray(raw, dtype=np.float64)
    finite = np.isfinite(raw)
    if finite.all():
        return raw
    return np.where(finite, raw, np.inf)


def schedule_fraction(generation: int, horizon: int) -> float:
    """Elapsed fraction of the coefficient schedule, clipped to [0, 1]."""
    return min(1.0, max(0.0, generation / horizon))


def init(
    params: ParamSet, objective: ObjectiveSpec, gen: np.random.Generator
) -> AlgoState:
    """Sample a uniform population in the box from `gen`, evaluate it and
    seed the tracker; the state keeps `gen` as its stream, and the algorithm
    is the one `params` were built for."""
    n, dim = params.pop_size, objective.dim
    X = gen.uniform(objective.domain.lo, objective.domain.hi, size=(n, dim))
    vals = sentinel_values(objective.value_batch(X))
    if not np.isfinite(vals).any():
        raise ValueError("every initial sample evaluated non-finite")
    seed_idx = int(np.argmin(vals))
    state = AlgoState(
        params=params,
        objective=objective,
        population=X,
        values=vals,
        memory={},
        tracker=BestTracker(X[seed_idx], vals[seed_idx]),
        generation=0,
        evaluations=n,
        gen_rng=gen,
    )
    state.memory = _module(params.algorithm).init_memory(state)
    return state


def step(state: AlgoState) -> AlgoState:
    """Advance the state one generation in place and return it: the body
    returns the new population and values, stored here with the count."""
    state.population, state.values = _module(state.params.algorithm).step(state)
    state.generation += 1
    return state


def best(state: AlgoState) -> Tuple[np.ndarray, float]:
    """Best-so-far (point, value); pure read."""
    return state.tracker.best_point.copy(), state.tracker.best_value


def evaluate(state: AlgoState, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Shared evaluation tail of every step: clamp `X` to the box, evaluate
    it, map non-finite values to +inf, fold the rows into the tracker in row
    order at the generation being built and count them.

    Returns the clamped candidates and their values."""
    X = state.objective.domain.clip(X)
    vals = sentinel_values(state.objective.value_batch(X))
    state.tracker.fold(X, vals, state.generation + 1)
    state.evaluations += X.shape[0]
    return X, vals

