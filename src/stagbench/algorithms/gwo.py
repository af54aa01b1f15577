"""Grey wolf optimizer.

Three leaders (alpha, beta, delta) are the best, second- and third-best
solutions encountered so far, updated by the classic if/elif cascade (a new
alpha overwrites the old one without demoting it).  Every wolf moves to the
average of three leader-encircling points with per-dimension coefficients
``A = 2*a*r1 - a`` and ``C = 2*r2``, where ``a`` decays linearly from 2 to 0
over the schedule horizon.  Positions are replaced unconditionally; the
monotone record lives in the tracker and the leaders.
"""

from __future__ import annotations

import numpy as np

from . import AlgoState, advance, schedule_fraction, sentinel_values, track_batch


def init_memory(state: AlgoState) -> dict:
    memory = {
        "alpha": (None, np.inf),
        "beta": (None, np.inf),
        "delta": (None, np.inf),
    }
    _update_leaders(memory, state.population, state.values)
    return memory


def _update_leaders(memory: dict, X: np.ndarray, vals: np.ndarray) -> None:
    # Leader values only decrease and alpha <= beta <= delta holds, so a row
    # not below the incoming delta cannot change any leader.
    for i in (vals < memory["delta"][1]).nonzero()[0]:
        v = float(vals[i])
        if v < memory["alpha"][1]:
            memory["alpha"] = (X[i].copy(), v)
        elif v < memory["beta"][1]:
            memory["beta"] = (X[i].copy(), v)
        elif v < memory["delta"][1]:
            memory["delta"] = (X[i].copy(), v)


def step(state: AlgoState) -> AlgoState:
    n, dim = state.population.shape
    gen = state.gen_rng
    a = 2.0 * (1.0 - schedule_fraction(state.generation, state.params.schedule_horizon))

    r = gen.random((3, 2, n, dim))
    moved = np.zeros((n, dim))
    for k, leader in enumerate(("alpha", "beta", "delta")):
        point, value = state.memory[leader]
        if point is None:
            point = state.tracker.best_point
        A = 2.0 * a * r[k, 0] - a
        C = 2.0 * r[k, 1]
        D = np.abs(C * point[None, :] - state.population)
        moved += point[None, :] - A * D
    moved /= 3.0

    moved = np.clip(moved, state.objective.domain.lo, state.objective.domain.hi)
    vals = sentinel_values(state.objective.value_batch(moved))
    _update_leaders(state.memory, moved, vals)
    tracker = track_batch(state.tracker, moved, vals, state.generation + 1)
    return advance(state, moved, vals, tracker, evaluated=n)
