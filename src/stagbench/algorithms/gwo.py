"""Grey wolf optimizer.

Three leaders (alpha, beta, delta) are the best, second- and third-best
solutions encountered so far, updated by the classic if/elif cascade (a new
alpha overwrites the old one without demoting it).  Alpha is the tracker's
best-so-far.  Every wolf moves to the average of three leader-encircling
points with per-dimension coefficients ``A = 2*a*r1 - a`` and ``C = 2*r2``,
where ``a`` decays linearly from 2 to 0 over the schedule horizon.  Moved
wolves replace the population; the tracker keeps the monotone record.
"""

from __future__ import annotations

import numpy as np

from . import AlgoState, evaluate, schedule_fraction

POP_SIZE = 30


def pop_size(dim: int) -> int:
    return POP_SIZE


def init_memory(state: AlgoState) -> dict:
    memory = {"beta": (None, np.inf), "delta": (None, np.inf)}
    _update_leaders(memory, np.inf, state.population, state.values)
    return memory


def _update_leaders(memory: dict, alpha: float, X: np.ndarray, vals: np.ndarray) -> None:
    # `alpha` is the incoming best value; the tracker keeps the alpha point.
    # Leader values only decrease and alpha <= beta <= delta holds, so a row
    # not below the incoming delta cannot change any leader.
    for i in (vals < memory["delta"][1]).nonzero()[0]:
        v = float(vals[i])
        if v < alpha:
            alpha = v
        elif v < memory["beta"][1]:
            memory["beta"] = (X[i].copy(), v)
        elif v < memory["delta"][1]:
            memory["delta"] = (X[i].copy(), v)


def step(state: AlgoState) -> tuple[np.ndarray, np.ndarray]:
    X = state.population
    n, dim = X.shape
    gen = state.gen_rng
    a = 2.0 * (1.0 - schedule_fraction(state.generation, state.schedule_horizon))

    r = gen.random((3, 2, n, dim))
    # Read before `evaluate` folds the new rows into the tracker.
    alpha, alpha_value = state.tracker.best_point, state.tracker.best_value
    leaders = [alpha] + [state.memory[k][0] for k in ("beta", "delta")]
    P = np.array([alpha if p is None else p for p in leaders])[:, None, :]
    pulls = P - (2.0 * a * r[:, 0] - a) * np.abs(2.0 * r[:, 1] * P - X)
    moved = pulls.sum(axis=0) / 3.0

    moved, vals = evaluate(state, moved)
    _update_leaders(state.memory, alpha_value, moved, vals)
    return moved, vals
