"""Global/local real-coded genetic algorithm (GL25).

Runs a global exploration phase for the first 25% of the schedule horizon
and a local refinement phase afterwards.  Each generation produces one
child per population slot by parent-centric crossover: the child is sampled
uniformly in a box of half-width ``alpha * |female - male|`` around the
female, per dimension.

* Global phase: the female is a uniform population member, the male is the
  *farthest* of three random candidates (negative assortative mating) and
  ``alpha = ALPHA_GLOBAL`` (wide, 0.8).
* Local phase: the female comes from the best quarter of the population,
  the male is the *closest* of three candidates (positive assortative
  mating) and ``alpha = ALPHA_LOCAL`` (narrow, 0.2).

Survivors are the best ``POP_SIZE`` of parents plus children, parents
winning ties.  This is a generational condensation of the original
steady-state design; the fidelity notes list the differences.
"""

from __future__ import annotations

import numpy as np

from . import AlgoState, evaluate

POP_SIZE = 60
GLOBAL_FRACTION = 0.25
ALPHA_GLOBAL = 0.8
ALPHA_LOCAL = 0.2
LOCAL_FEMALE_FRACTION = 0.25
MATING_CANDIDATES = 3


def pop_size(dim: int) -> int:
    return POP_SIZE


def init_memory(state: AlgoState) -> dict:
    return {}


def step(state: AlgoState) -> tuple[np.ndarray, np.ndarray]:
    X = state.population
    vals = state.values
    n, dim = X.shape
    gen = state.gen_rng

    global_phase = state.generation < GLOBAL_FRACTION * state.schedule_horizon
    alpha = ALPHA_GLOBAL if global_phase else ALPHA_LOCAL

    if global_phase:
        female_idx = gen.integers(0, n, size=n)
    else:
        elite = max(1, int(np.ceil(LOCAL_FEMALE_FRACTION * n)))
        pool = vals.argsort(kind="stable")[:elite]
        female_idx = pool[gen.integers(0, elite, size=n)]

    cand = gen.integers(0, n - 1, size=(n, MATING_CANDIDATES))
    cand += cand >= female_idx[:, None]

    fem = X[female_idx]
    dists = ((X[cand] - fem[:, None, :]) ** 2).sum(axis=2)
    pick = dists.argmax(axis=1) if global_phase else dists.argmin(axis=1)
    male = X[cand[np.arange(n), pick]]

    spread = alpha * np.abs(fem - male)
    children, cvals = evaluate(
        state, fem + spread * gen.uniform(-1.0, 1.0, size=(n, dim))
    )

    combined = np.concatenate([X, children], axis=0)
    combined_vals = np.concatenate([vals, cvals])
    keep = combined_vals.argsort(kind="stable")[:n]
    return combined[keep], combined_vals[keep]
