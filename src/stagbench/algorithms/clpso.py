"""Comprehensive learning particle swarm optimizer.

Each particle learns every dimension from an exemplar: its own personal
best, or — with a particle-specific probability Pc ramping from 0.05 to 0.5
across the swarm — the personal best of the winner of a random two-particle
tournament.  If a particle ends up learning every dimension from itself, one
random dimension is forced to another particle (the comprehensive-learning
rule).  Exemplars are rebuilt after a particle's personal best has gone
``refreshing_gap`` consecutive generations without improvement.

Velocity update: ``v = w*v + c*r*(exemplar - x)`` with inertia ``w``
decaying 0.9 -> 0.4 over the schedule horizon, acceleration ``c = 1.49445``
and per-dimension velocity clamp at ``vmax_fraction`` of the box span.
Positions are clamped to the box (see the fidelity notes) and personal
bests accept strict improvements only.
"""

from __future__ import annotations

import numpy as np

from . import AlgoState, advance, schedule_fraction, sentinel_values, track_batch


def _pc_vector(n: int) -> np.ndarray:
    i = np.arange(n, dtype=np.float64)
    return 0.05 + 0.45 * (np.expm1(10.0 * i / (n - 1))) / np.expm1(10.0)


def _assign_exemplar(i, n, dim, pc_i, pbest_vals, gen):
    """Exemplar particle index per dimension for particle `i`."""
    exemplar = np.full(dim, i, dtype=np.int64)
    learn = gen.random(dim) < pc_i
    k = np.count_nonzero(learn)
    if k:
        a = gen.integers(0, n, size=k)
        b = gen.integers(0, n, size=k)
        winner = np.where(pbest_vals[a] < pbest_vals[b], a, b)
        if (winner != i).any():
            exemplar[learn] = winner
            return exemplar
    # Every dimension learns from `i` itself: force one to another particle.
    d = int(gen.integers(0, dim))
    other = int(gen.integers(0, n - 1))
    if other >= i:
        other += 1
    exemplar[d] = other
    return exemplar


def init_memory(state: AlgoState) -> dict:
    n, dim = state.population.shape
    pc = _pc_vector(n)
    memory = {
        "velocity": np.zeros((n, dim)),
        "pbest": state.population.copy(),
        "pbest_vals": state.values.copy(),
        "flags": np.zeros(n, dtype=np.int64),
        "exemplar": np.empty((n, dim), dtype=np.int64),
        "pc": pc,
    }
    for i in range(n):
        memory["exemplar"][i] = _assign_exemplar(
            i, n, dim, pc[i], memory["pbest_vals"], state.gen_rng
        )
    return memory


def step(state: AlgoState) -> AlgoState:
    X = state.population
    n, dim = X.shape
    gen = state.gen_rng
    mem = state.memory
    params = state.params
    frac = schedule_fraction(state.generation, params.schedule_horizon)
    w = params.get("inertia_start") + frac * (
        params.get("inertia_end") - params.get("inertia_start")
    )
    c = params.get("acceleration")
    gap = int(params.get("refreshing_gap"))
    vmax = params.get("vmax_fraction") * state.objective.domain.span

    stale = np.flatnonzero(mem["flags"] >= gap)
    for i in stale:
        mem["exemplar"][i] = _assign_exemplar(
            int(i), n, dim, mem["pc"][i], mem["pbest_vals"], gen
        )
        mem["flags"][i] = 0

    target = mem["pbest"][mem["exemplar"], np.arange(dim)[None, :]]
    r = gen.random((n, dim))
    v = w * mem["velocity"] + c * r * (target - X)
    v = np.clip(v, -vmax, vmax)
    moved = np.clip(X + v, state.objective.domain.lo, state.objective.domain.hi)
    vals = sentinel_values(state.objective.value_batch(moved))

    improved = vals < mem["pbest_vals"]
    mem["velocity"] = v
    mem["pbest"][improved] = moved[improved]
    mem["pbest_vals"][improved] = vals[improved]
    mem["flags"] = np.where(improved, 0, mem["flags"] + 1)

    tracker = track_batch(state.tracker, moved, vals, state.generation + 1)
    return advance(state, moved, vals, tracker, evaluated=n)
