"""Success-history adaptive differential evolution with linear population
size reduction (L-SHADE).

Per generation, each individual draws a success-history slot and samples
``CR ~ N(M_CR, 0.1)`` (clipped to [0, 1]; a slot holding the terminal value
forces CR = 0) and ``F ~ Cauchy(M_F, 0.1)`` (resampled while non-positive,
truncated at 1), builds a current-to-pbest/1 mutant

    v = x + F * (x_pbest - x) + F * (x_r1 - x_r2)

with ``x_pbest`` among the best ``max(2, round(0.11 * N))`` individuals,
``r1`` from the population and ``r2`` from population + archive, then
binomial crossover with a forced dimension.  Strict improvements replace
the parent, send the parent to the archive (random eviction above
``round(2.6 * N)`` entries) and record (F, CR) weighted by the fitness
drop; the slot means are updated with weighted Lehmer means and an all-zero
success CR batch makes the slot terminal.  The population shrinks linearly
in generations from ``18 * dim`` to 4 across the schedule horizon, dropping
the worst members.  See the fidelity notes for the deviations from the
original (clamping instead of midpoint repair, strict-improvement
replacement, generation-denominated reduction).
"""

from __future__ import annotations

import numpy as np

from . import AlgoState, evaluate, schedule_fraction

POP_INIT_FACTOR = 18
POP_MIN = 4
MEMORY_SIZE = 6
P_BEST_FRACTION = 0.11
ARCHIVE_RATE = 2.6


def pop_size(dim: int) -> int:
    return max(POP_INIT_FACTOR * dim, POP_MIN)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def init_memory(state: AlgoState) -> dict:
    return {
        "m_f": np.full(MEMORY_SIZE, 0.5),
        "m_cr": np.full(MEMORY_SIZE, 0.5),
        "k": 0,
        "archive": np.empty((0, state.objective.domain.dim)),
    }


def step(state: AlgoState) -> tuple[np.ndarray, np.ndarray]:
    X = state.population
    vals = state.values
    n, dim = X.shape
    gen = state.gen_rng
    mem = state.memory
    archive = mem["archive"]

    order = vals.argsort(kind="stable")
    p_num = max(2, _round_half_up(P_BEST_FRACTION * n))

    r_mem = gen.integers(0, MEMORY_SIZE, size=n)
    m_cr = mem["m_cr"][r_mem]
    cr = (m_cr + 0.1 * gen.standard_normal(n)).clip(0.0, 1.0)
    cr[np.isnan(m_cr)] = 0.0

    # The rejection loops redraw only the entries still rejected, in
    # ascending order: the same draws as redrawing every rejected entry of
    # the whole vector.
    loc = mem["m_f"][r_mem]
    f = loc + 0.1 * gen.standard_cauchy(n)
    bad = (f <= 0.0).nonzero()[0]
    while bad.size:
        f[bad] = loc[bad] + 0.1 * gen.standard_cauchy(bad.size)
        bad = bad[f[bad] <= 0.0]
    f = np.minimum(f, 1.0)[:, None]

    pbest = order[gen.integers(0, p_num, size=n)]

    idx = np.arange(n)
    r1 = gen.integers(0, n, size=n)
    bad = (r1 == idx).nonzero()[0]
    while bad.size:
        r1[bad] = drawn = gen.integers(0, n, size=bad.size)
        bad = bad[drawn == bad]

    pool = n + archive.shape[0]
    r2 = gen.integers(0, pool, size=n)
    bad = ((r2 == idx) | (r2 == r1)).nonzero()[0]
    while bad.size:
        r2[bad] = drawn = gen.integers(0, pool, size=bad.size)
        bad = bad[(drawn == bad) | (drawn == r1[bad])]

    jrand = gen.integers(0, dim, size=n)
    cross = gen.random((n, dim)) < cr[:, None]
    cross[idx, jrand] = True

    donors = np.concatenate([X, archive], axis=0)
    mutant = X + f * (X[pbest] - X) + f * (X[r1] - donors[r2])
    trial, tvals = evaluate(state, np.where(cross, mutant, X))

    win = tvals < vals
    if win.any():
        s_f = f[win, 0]
        s_cr = cr[win]
        weights = vals[win] - tvals[win]
        finite_w = np.isfinite(weights)
        if not finite_w.all():
            # a parent with +inf sentinel was beaten; give it the largest
            # finite weight so the Lehmer means stay defined
            cap = weights[finite_w].max() if finite_w.any() else 1.0
            weights = np.where(finite_w, weights, cap)
        wn = weights / weights.sum()
        k = mem["k"]
        mem["m_f"][k] = (wn * s_f**2).sum() / (wn * s_f).sum()
        if np.isnan(mem["m_cr"][k]) or s_cr.max() == 0.0:
            mem["m_cr"][k] = np.nan
        else:
            mem["m_cr"][k] = (wn * s_cr**2).sum() / (wn * s_cr).sum()
        mem["k"] = (k + 1) % MEMORY_SIZE

        archive = np.concatenate([archive, X[win]], axis=0)
        X = np.where(win[:, None], trial, X)
        vals = np.where(win, tvals, vals)

    frac = schedule_fraction(state.generation + 1, state.schedule_horizon)
    n_init = pop_size(dim)
    n_next = _round_half_up(n_init + (POP_MIN - n_init) * frac)
    if n_next < n:
        keep = np.sort(vals.argsort(kind="stable")[:n_next])
        X = X[keep]
        vals = vals[keep]

    limit = max(1, _round_half_up(ARCHIVE_RATE * n_next))
    m = archive.shape[0]
    if m > limit:
        # One broadcast draw over the shrinking row counts m, m-1, ...,
        # limit+1 returns the same numbers, and leaves the generator in the
        # same state, as one scalar draw per evicted row.  A keep mask drops
        # the evicted rows and leaves the survivors in archive order.
        rows = list(range(m))
        picks = gen.integers(0, np.arange(m, limit, -1)).tolist()
        keep = np.ones(m, dtype=bool)
        keep[[rows.pop(pick) for pick in picks]] = False
        archive = archive[keep]
    mem["archive"] = archive

    return X, vals
