"""Nominal consensus dynamics: the idealized pairwise optimizer.

One update rule moves every individual a fraction ``alpha`` of the way
toward its partner: ``x_i' = x_i + alpha * (x_partner(i) - x_i)``.  When
two individuals are each other's partner both move, so the pair's
separation scales by exactly ``1 - 2*alpha`` each step and the pair
contracts iff ``0 < alpha < 1``.  When the partner is frozen (listed in
`simulate`'s ``stagnant_set``) only the other individual moves; the
separation then scales by ``1 - alpha`` and the stability region widens to
``0 < alpha < 2`` — a stagnant partner *helps* convergence for ``alpha`` in
``(1, 2)``.

``simulate`` runs the N-individual generalization under one of two pairing
schemes as array code.  The initial ``(N, dim)`` population alone fixes N
and the dimension, and random pairings are drawn from the numpy Generator
the caller passes.  Each step applies the rule to all individuals at once,
the trajectory is one read-only ``(steps + 1, N, dim)`` array, and the
population diameter (max pairwise distance) is recorded per step.
``step_ratios`` measures the contraction factor of every step of such a
diameter sequence, and ``predicted_factor`` gives the two-individual theory
value to compare against.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from .core import as_choice, as_integer, as_points, as_real, as_sequence

__all__ = [
    "PAIRINGS",
    "simulate",
    "diameter",
    "step_ratios",
    "predicted_factor",
]

PAIRINGS = ("mutual_random", "ring")


def diameter(positions: np.ndarray) -> float:
    """Max pairwise Euclidean distance within a population (N, dim).

    ``hypot`` keeps every distance that fits in float64 from overflowing
    or underflowing in its squares.
    """
    X = np.asarray(positions, dtype=np.float64)
    diff = X[:, None, :] - X[None, :, :]
    return float(np.hypot.reduce(diff, axis=2, initial=0.0).max())


def simulate(
    alpha: float,
    init: Sequence,
    steps: int,
    gen: np.random.Generator,
    *,
    pairing: str = "mutual_random",
    stagnant_set: Iterable[int] = (),
) -> Tuple[np.ndarray, np.ndarray]:
    """Run `steps` updates of the nominal dynamics with step parameter
    `alpha` from `init`, an (N, dim) population, drawing the random
    pairings from `gen`.

    `pairing` is one of `PAIRINGS`.  `stagnant_set` lists the indices of
    individuals frozen for the whole run; it must leave at least one
    individual mobile.  Every input is checked here; a bad one raises
    ValueError.

    Returns the trajectory, a read-only ``(steps + 1, N, dim)`` array
    indexed by step counter, and the diameter sequence aligned with it.
    Each step moves every individual by the module's one rule toward its
    partner's previous position.  Under ``mutual_random`` the partners come
    from a uniformly random perfect matching over the *whole* population,
    drawn each step; with an odd population the unmatched individual is its
    own partner and stays put.  Under ``ring`` every individual's partner
    is its successor.  Stagnant individuals never move, so a mobile
    individual matched to one is the only member of its pair that moves.
    A divergent run raises ValueError at the first step whose diameter is
    not a finite float64.
    """
    alpha = as_real("alpha", alpha)
    as_choice("pairing", pairing, PAIRINGS)
    indices = as_sequence("stagnant_set", stagnant_set, "indices")
    stagnant = {as_integer("every stagnant_set entry", i) for i in indices}
    steps = as_integer("steps", steps, 1)
    X = as_points(init)
    n, dim = X.shape
    if n < 2:
        raise ValueError("need at least 2 individuals")
    as_integer("dim", dim, 1)
    if not all(0 <= i < n for i in stagnant):
        raise ValueError(f"stagnant_set indices must lie in [0, {n})")
    if len(stagnant) >= n:
        raise ValueError("at least one individual must be mobile")
    frozen = np.isin(np.arange(n), list(stagnant))
    trajectory = np.empty((steps + 1,) + X.shape, dtype=np.float64)
    trajectory[0] = X
    partner = np.roll(np.arange(n), -1)  # the ring's successor index
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            X, new = trajectory[k - 1], trajectory[k]
            if pairing == "mutual_random":
                order = gen.permutation(n)
                a, b = order[0:n - 1:2], order[1::2]
                partner = np.arange(n)
                partner[a], partner[b] = b, a
            new[:] = X + alpha * (X[partner] - X)
            new[frozen] = X[frozen]
        errors = np.array([diameter(P) for P in trajectory])
    bad = np.flatnonzero(~np.isfinite(errors))
    if bad.size:
        raise ValueError(
            f"the population's diameter left the float64 range at step {bad[0]}"
        )
    trajectory.setflags(write=False)
    return trajectory, errors


def step_ratios(errors) -> np.ndarray:
    """Per-step contraction factors ``errors[k] / errors[k-1]`` of a
    diameter sequence, one fewer than its entries.

    A zero diameter that stays zero gives NaN and one that reopens gives
    inf; neither warns.
    """
    e = np.asarray(errors, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return e[1:] / e[:-1]


def predicted_factor(alpha: float, stagnant: bool = False) -> float:
    """Two-individual theory: |1-alpha| against a frozen partner, else |1-2*alpha|."""
    return abs(1.0 - alpha) if stagnant else abs(1.0 - 2.0 * alpha)
