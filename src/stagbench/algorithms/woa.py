"""Whale optimization algorithm.

Each whale draws per-whale scalars r1, r2, p and l every generation.  With
probability 1/2 it spirals around the best-so-far solution
(``|best - x| * exp(b*l) * cos(2*pi*l) + best``); otherwise it moves to
``ref - A * |C * ref - x|``, where the reference is the best solution
(encircle, ``|A| < 1``) or a randomly chosen whale (search, ``|A| >= 1``),
with ``A = 2*a*r1 - a`` and ``C = 2*r2``.  ``a`` decays linearly 2 -> 0
and the spiral parameter ``l`` is uniform on ``[a2 - 1, 1]`` with ``a2``
decaying -1 -> -2.  The random reference whale is drawn once per whale
rather than per dimension (see the fidelity notes).  Positions are replaced
unconditionally.
"""

from __future__ import annotations

import numpy as np

from . import AlgoState, evaluate, schedule_fraction

POP_SIZE = 30
SPIRAL_B = 1.0


def pop_size(dim: int) -> int:
    return POP_SIZE


def init_memory(state: AlgoState) -> dict:
    return {}


def step(state: AlgoState) -> tuple[np.ndarray, np.ndarray]:
    X = state.population
    n, dim = X.shape
    gen = state.gen_rng
    frac = schedule_fraction(state.generation, state.schedule_horizon)
    a = 2.0 * (1.0 - frac)
    a2 = -1.0 - frac
    leader = state.tracker.best_point

    r1, r2, p, l = gen.random((4, n))
    l = (a2 - 1.0) * l + 1.0
    ref_idx = gen.integers(0, n, size=n)

    A = (2.0 * a * r1 - a)[:, None]
    C = (2.0 * r2)[:, None]

    target = np.where(np.abs(A) < 1.0, leader, X[ref_idx])
    hunt = target - A * np.abs(C * target - X)
    spiral = (
        np.abs(leader[None, :] - X)
        * np.exp(SPIRAL_B * l)[:, None]
        * np.cos(2.0 * np.pi * l)[:, None]
        + leader[None, :]
    )

    return evaluate(state, np.where((p < 0.5)[:, None], hunt, spiral))
