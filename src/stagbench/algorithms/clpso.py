"""Comprehensive learning particle swarm optimizer.

Each particle learns every dimension from an exemplar: its own personal
best, or — with a particle-specific probability Pc ramping from 0.05 to 0.5
across the swarm — the personal best of the winner of a random two-particle
tournament.  If a particle ends up learning every dimension from itself, one
random dimension is forced to another particle (the comprehensive-learning
rule).  Exemplars are rebuilt after a particle's personal best has gone
``REFRESHING_GAP`` (7) consecutive generations without improvement; every
particle starts due, so the first generation builds them all.

Velocity update: ``v = w*v + c*r*(exemplar - x)`` with inertia ``w``
decaying 0.9 -> 0.4 over the schedule horizon, acceleration ``c = 1.49445``
and per-dimension velocity clamp at ``VMAX_FRACTION`` (0.2) of the box span.
Positions are clamped to the box (see the fidelity notes) and personal
bests accept strict improvements only.
"""

from __future__ import annotations

import numpy as np

from . import AlgoState, evaluate, schedule_fraction

POP_SIZE = 40
INERTIA_START = 0.9
INERTIA_END = 0.4
ACCELERATION = 1.49445
REFRESHING_GAP = 7
VMAX_FRACTION = 0.2


def pop_size(dim: int) -> int:
    return POP_SIZE


# Learning probability Pc of each particle, ramping from 0.05 to 0.5.
PC = 0.05 + 0.45 * np.expm1(10.0 * np.arange(POP_SIZE) / (POP_SIZE - 1)) / np.expm1(10.0)
PC.flags.writeable = False


def _assign_exemplar(exemplar, i, n, dim, pbest_vals, gen):
    """Write particle `i`'s exemplar index per dimension into `exemplar`."""
    exemplar[:] = i
    learn = gen.random(dim) < PC[i]
    k = np.count_nonzero(learn)
    if k:
        # k scalar draws return the same numbers, and leave the generator in
        # the same state, as one draw of size k, without its per-call cost.
        a = [gen.integers(0, n) for _ in range(k)]
        b = [gen.integers(0, n) for _ in range(k)]
        winner = [x if pbest_vals[x] < pbest_vals[y] else y for x, y in zip(a, b)]
        if any(w != i for w in winner):
            exemplar[learn] = winner
            return
    # Every dimension learns from `i` itself: force one to another particle.
    d = int(gen.integers(0, dim))
    other = int(gen.integers(0, n - 1))
    if other >= i:
        other += 1
    exemplar[d] = other


def init_memory(state: AlgoState) -> dict:
    n, dim = state.population.shape
    return {
        "velocity": np.zeros((n, dim)),
        "pbest": state.population.copy(),
        "pbest_vals": state.values.copy(),
        "flags": np.full(n, REFRESHING_GAP, dtype=np.int64),
        # Placeholders until the first step's refresh builds every exemplar.
        "exemplar": np.empty((n, dim), dtype=np.int64),
    }


def step(state: AlgoState) -> tuple[np.ndarray, np.ndarray]:
    X = state.population
    n, dim = X.shape
    gen = state.gen_rng
    mem = state.memory
    frac = schedule_fraction(state.generation, state.schedule_horizon)
    w = INERTIA_START + frac * (INERTIA_END - INERTIA_START)
    vmax = VMAX_FRACTION * state.objective.domain.span

    exemplar, pbest, pbest_vals = mem["exemplar"], mem["pbest"], mem["pbest_vals"]
    stale = (mem["flags"] >= REFRESHING_GAP).nonzero()[0]
    for i in stale.tolist():
        _assign_exemplar(exemplar[i], i, n, dim, pbest_vals, gen)
    mem["flags"][stale] = 0

    target = pbest[exemplar, np.arange(dim)]
    r = gen.random((n, dim))
    v = (w * mem["velocity"] + ACCELERATION * r * (target - X)).clip(-vmax, vmax)
    moved, vals = evaluate(state, X + v)

    improved = vals < pbest_vals
    mem["velocity"] = v
    np.copyto(pbest, moved, where=improved[:, None])
    np.copyto(pbest_vals, vals, where=improved)
    mem["flags"] = np.where(improved, 0, mem["flags"] + 1)
    return moved, vals
