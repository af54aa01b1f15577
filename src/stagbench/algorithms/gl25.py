"""Global/local real-coded genetic algorithm (GL25).

Runs a global exploration phase for the first 25% of the schedule horizon
and a local refinement phase afterwards.  Each generation produces one
child per population slot by parent-centric crossover: the child is sampled
uniformly in a box of half-width ``alpha * |female - male|`` around the
female, per dimension.

* Global phase: the female is a uniform population member, the male is the
  *farthest* of three random candidates (negative assortative mating) and
  ``alpha = alpha_global`` (wide, 0.8).
* Local phase: the female comes from the best quarter of the population,
  the male is the *closest* of three candidates (positive assortative
  mating) and ``alpha = alpha_local`` (narrow, 0.2).

Survivors are the best ``pop_size`` of parents plus children, parents
winning ties.  This is a generational condensation of the original
steady-state design; the fidelity notes list the differences.
"""

from __future__ import annotations

import numpy as np

from . import AlgoState, evaluate


def init_memory(state: AlgoState) -> dict:
    return {}


def step(state: AlgoState) -> tuple[np.ndarray, np.ndarray]:
    X = state.population
    vals = state.values
    n, dim = X.shape
    gen = state.gen_rng
    params = state.params

    global_gens = params.get("global_fraction") * params.schedule_horizon
    global_phase = state.generation < global_gens
    alpha = params.get("alpha_global") if global_phase else params.get("alpha_local")
    n_cand = int(params.get("mating_candidates"))

    if global_phase:
        female_idx = gen.integers(0, n, size=n)
    else:
        elite = max(1, int(np.ceil(params.get("local_female_fraction") * n)))
        pool = vals.argsort(kind="stable")[:elite]
        female_idx = pool[gen.integers(0, elite, size=n)]

    cand = gen.integers(0, n - 1, size=(n, n_cand))
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
