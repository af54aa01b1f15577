"""Six population metaheuristics behind one init/step/best interface.

Every algorithm is driven the same way::

    state = init("gwo", objective, gen, schedule_horizon)
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
  generations against ``state.schedule_horizon`` (the harness safety cap),
  since runs terminate on stagnation rather than on a fixed budget.

Each body module states its algorithm's parameters, taken from the original
publication, as module constants next to the formulas that read them, and
gives its initial population size as ``pop_size(dim)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import import_module
from typing import Tuple

import numpy as np

from ..core import BestTracker, ObjectiveSpec, as_choice, as_integer

__all__ = ["ALGORITHMS", "AlgoState", "check_name", "init", "step", "best"]

ALGORITHMS = ("gl25", "clpso", "lshade", "gwo", "woa", "hho")


@dataclass(eq=False)
class AlgoState:
    """A run in progress: population with cached values, adaptive memory,
    best-so-far tracker and counters.  `step` advances the state in place
    and returns it."""

    algorithm: str
    schedule_horizon: int
    objective: ObjectiveSpec
    population: np.ndarray
    values: np.ndarray
    memory: dict
    tracker: BestTracker
    generation: int
    evaluations: int
    gen_rng: np.random.Generator


@functools.cache
def _module(algorithm: str):
    # Imported on first use: the bodies import this package.
    return import_module("." + algorithm, __name__)


def sentinel_values(raw: np.ndarray) -> np.ndarray:
    """Replace non-finite objective outputs with +inf so they never win.

    `raw` is the float64 array that `ObjectiveSpec.value_batch` returns; an
    all-finite input is returned as is, not copied."""
    finite = np.isfinite(raw)
    if finite.all():
        return raw
    return np.where(finite, raw, np.inf)


def schedule_fraction(generation: int, horizon: int) -> float:
    """Elapsed fraction of the coefficient schedule, clipped to [0, 1]."""
    return min(1.0, max(0.0, generation / horizon))


def check_name(algorithm: str) -> None:
    """Raise ValueError unless `algorithm` is one of ALGORITHMS."""
    as_choice("algorithm", algorithm, ALGORITHMS)


def init(
    algorithm: str,
    objective: ObjectiveSpec,
    gen: np.random.Generator,
    schedule_horizon: int,
) -> AlgoState:
    """Sample `algorithm`'s initial population uniformly in the box from
    `gen`, evaluate it and seed the tracker; the state keeps `gen` as its
    stream and denominates its schedules in `schedule_horizon` generations."""
    check_name(algorithm)
    schedule_horizon = as_integer("schedule_horizon", schedule_horizon, 1)
    body = _module(algorithm)
    dim = objective.domain.dim
    n = body.pop_size(dim)
    X = gen.uniform(objective.domain.lo, objective.domain.hi, size=(n, dim))
    vals = sentinel_values(objective.value_batch(X))
    if not np.isfinite(vals).any():
        raise ValueError("every initial sample evaluated non-finite")
    seed_idx = int(np.argmin(vals))
    state = AlgoState(
        algorithm=algorithm,
        schedule_horizon=schedule_horizon,
        objective=objective,
        population=X,
        values=vals,
        memory={},
        tracker=BestTracker(X[seed_idx], vals[seed_idx]),
        generation=0,
        evaluations=n,
        gen_rng=gen,
    )
    state.memory = body.init_memory(state)
    return state


def step(state: AlgoState) -> AlgoState:
    """Advance the state one generation in place and return it: the body
    returns the new population and values, stored here with the count."""
    state.population, state.values = _module(state.algorithm).step(state)
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

