"""Harris hawks optimization.

Each hawk's escape energy ``E = E1 * E0`` (``E1 = 2*(1 - g/H)`` decaying,
``E0`` uniform on [-1, 1]) selects the phase:

* ``|E| >= 1`` exploration: perch on a random hawk or relative to the
  population mean;
* ``|E| < 1`` exploitation: soft (``r >= 0.5, |E| >= 0.5``) or hard
  (``r >= 0.5, |E| < 0.5``) besiege replace the hawk unconditionally, while
  the rapid-dive variants (``r < 0.5``) evaluate a dive point Y (and, if Y
  fails, a Levy-flight point Z) and accept it only on strict improvement.

Dive comparisons use the hawk's cached objective value and the population
mean is taken at the start of the generation (see the fidelity notes).
Extra dive evaluations are counted in the evaluations total.
"""

from __future__ import annotations

import math

import numpy as np

from . import AlgoState, evaluate, schedule_fraction

POP_SIZE = 30
LEVY_BETA = 1.5
LEVY_SCALE = 0.01
# Mantegna's scale for Levy-stable steps of index LEVY_BETA.
LEVY_SIGMA = (
    math.gamma(1.0 + LEVY_BETA) * math.sin(math.pi * LEVY_BETA / 2.0)
    / (math.gamma((1.0 + LEVY_BETA) / 2.0) * LEVY_BETA * 2.0 ** ((LEVY_BETA - 1.0) / 2.0))
) ** (1.0 / LEVY_BETA)


def pop_size(dim: int) -> int:
    return POP_SIZE


def init_memory(state: AlgoState) -> dict:
    return {}


def step(state: AlgoState) -> tuple[np.ndarray, np.ndarray]:
    X = state.population
    vals = state.values
    n, dim = X.shape
    gen = state.gen_rng
    domain = state.objective.domain
    lo, hi = domain.lo, domain.hi
    rabbit = state.tracker.best_point
    mean = np.add.reduce(X, axis=0) / n  # X.mean(axis=0) without its Python layer
    e1 = 2.0 * (1.0 - schedule_fraction(state.generation, state.schedule_horizon))

    # One fixed block of draws per generation keeps the stream layout
    # independent of which branches fire.
    e0 = gen.uniform(-1.0, 1.0, size=n)
    q = gen.random(n)
    perch_idx = gen.integers(0, n, size=n)
    ra, rb, r, jump = gen.random((4, n))
    jump = 2.0 * (1.0 - jump)
    dive_rand = gen.random((n, dim))
    levy_u, levy_v = gen.standard_normal((2, n, dim))

    E = e1 * e0
    absE = np.abs(E)
    explore = absE >= 1.0
    soft = (absE >= 0.5)[:, None]
    # Exploration and the two besieges replace the hawk unconditionally;
    # the other hawks dive.
    uncond = explore | (r >= 0.5)

    # Every branch formula on all rows, picked per row; per-hawk scalars
    # become columns.
    E = E[:, None]
    ra = ra[:, None]
    rb = rb[:, None]
    jr = jump[:, None] * rabbit
    soft_pull = E * np.abs(jr - X)  # shared by soft besiege and soft dive
    RX = rabbit - X
    Xr = X[perch_idx]
    cand = np.where(
        explore[:, None],
        np.where(
            (q < 0.5)[:, None],
            Xr - ra * np.abs(Xr - 2.0 * rb * X),
            (rabbit - mean) - ra * (lo + rb * (hi - lo)),
        ),
        np.where(soft, RX - soft_pull, rabbit - E * np.abs(RX)),
    )

    new_X = X.copy()
    new_vals = vals.copy()
    if uncond.any():
        new_X[uncond], new_vals[uncond] = evaluate(state, cand[uncond])

    # Progressive rapid dives: Y, then the Levy point Z where Y failed.
    idx = (~uncond).nonzero()[0]
    Y = np.where(soft, rabbit - soft_pull, rabbit - E * np.abs(jr - mean))
    levy = LEVY_SCALE * LEVY_SIGMA * levy_u / np.abs(levy_v) ** (1.0 / LEVY_BETA)
    for dive in (Y, Y + dive_rand * levy):
        if not idx.size:
            break
        Dc, dvals = evaluate(state, dive[idx])
        accept = dvals < vals[idx]
        new_X[idx[accept]] = Dc[accept]
        new_vals[idx[accept]] = dvals[accept]
        idx = idx[~accept]

    return new_X, new_vals
