"""Nominal consensus dynamics: the idealized pairwise optimizer.

The update rule moves an individual a fraction ``alpha`` of the way toward a
partner: ``x_i' = x_i + alpha * (x_j - x_i)``.  When both partners move
(``pair_step``) the pair's separation scales by exactly ``1 - 2*alpha`` each
step, so the pair contracts iff ``0 < alpha < 1``.  When the partner is
frozen (listed in ``NominalConfig.stagnant_set``) only the other individual
takes its half of ``pair_step``; the separation then scales by
``1 - alpha`` and the stability region widens to ``0 < alpha < 2`` — a
stagnant partner *helps* convergence for ``alpha`` in ``(1, 2)``.

``simulate`` runs the N-individual generalization under one of two pairing
schemes as array code.  The initial ``(N, dim)`` population alone fixes N
and the dimension, and random pairings are drawn from the numpy Generator
the caller passes.  Each step is one update of all pairs at once, the
trajectory is one read-only ``(steps + 1, N, dim)`` array, and the
population diameter (max pairwise distance) is recorded per step.
``measured_contraction`` estimates the per-step contraction factor from such
a diameter sequence, and ``predicted_factor`` gives the two-individual
theory value to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import as_integer, as_real

__all__ = [
    "PAIRINGS",
    "NominalConfig",
    "InsufficientDataError",
    "pair_step",
    "simulate",
    "diameter",
    "measured_contraction",
    "predicted_factor",
]

PAIRINGS = ("mutual_random", "ring")

# Diameter entries below this are treated as exact zeros by
# measured_contraction; dividing by them would underflow to garbage.
_TINY = 1e-300


class InsufficientDataError(ValueError):
    """Raised when an error sequence has too few usable entries."""


@dataclass(frozen=True)
class NominalConfig:
    """Configuration of a nominal-dynamics run; the initial population
    handed to `simulate` fixes N and the dimension.

    `stagnant_set` lists individuals whose state is frozen for the whole
    run; it must leave at least one individual mobile.
    """

    alpha: float
    pairing: str = "mutual_random"
    stagnant_set: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_real("alpha", self.alpha))
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.pairing not in PAIRINGS:
            raise ValueError(
                f"unknown pairing {self.pairing!r}; expected one of {PAIRINGS}"
            )
        stagnant = frozenset(
            as_integer("every stagnant_set entry", i) for i in self.stagnant_set
        )
        object.__setattr__(self, "stagnant_set", stagnant)


def pair_step(xi, xj, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """One mutual update: both individuals move toward each other.

    `xi` and `xj` are two points, or two row blocks of the same shape whose
    rows are paired.  Both use the same displacement ``alpha * (xj - xi)``,
    so the pair sum is preserved (to roundoff) and the separation scales by
    ``1 - 2*alpha``.
    """
    xi = np.asarray(xi, dtype=np.float64)
    xj = np.asarray(xj, dtype=np.float64)
    if xi.shape != xj.shape:
        raise ValueError(f"partner shapes differ: {xi.shape} and {xj.shape}")
    delta = alpha * (xj - xi)
    return xi + delta, xj - delta


def diameter(positions: np.ndarray) -> float:
    """Max pairwise Euclidean distance within a population (N, dim).

    ``hypot`` keeps every distance that fits in float64 from overflowing
    or underflowing in its squares.
    """
    X = np.asarray(positions, dtype=np.float64)
    diff = X[:, None, :] - X[None, :, :]
    return float(np.hypot.reduce(diff, axis=2, initial=0.0).max())


def simulate(
    cfg: NominalConfig,
    init: Sequence,
    steps: int,
    gen: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run `steps` updates of the nominal dynamics from `init`, an (N, dim)
    population, drawing the random pairings from `gen`.

    Returns the trajectory, a read-only ``(steps + 1, N, dim)`` array
    indexed by step counter, and the diameter sequence aligned with it.
    Under ``mutual_random`` a uniformly random perfect matching over the
    *whole* population is drawn each step and all pairs make one
    `pair_step`; with an odd population the unmatched individual stays put.
    Under ``ring`` every individual moves toward its successor's previous
    position simultaneously.  Stagnant individuals never move, so a mobile
    individual matched to one takes only its own half of `pair_step`.  A
    divergent run raises ValueError at the first step whose diameter is
    not a finite float64.
    """
    steps = as_integer("steps", steps)
    X = np.array(init, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("init must be an (N, dim) array of points")
    n, dim = X.shape
    if n < 2:
        raise ValueError("need at least 2 individuals")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not all(0 <= i < n for i in cfg.stagnant_set):
        raise ValueError(f"stagnant_set indices must lie in [0, {n})")
    if len(cfg.stagnant_set) >= n:
        raise ValueError("at least one individual must be mobile")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not np.all(np.isfinite(X)):
        raise ValueError("point coordinates must be finite")
    alpha = cfg.alpha
    frozen = np.isin(np.arange(n), list(cfg.stagnant_set))
    trajectory = np.empty((steps + 1,) + X.shape, dtype=np.float64)
    trajectory[0] = X
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            X, new = trajectory[k - 1], trajectory[k]
            if cfg.pairing == "mutual_random":
                order = gen.permutation(n)
                a, b = order[0:n - 1:2], order[1::2]
                new[:] = X
                new[a], new[b] = pair_step(X[a], X[b], alpha)
            else:
                new[:] = X + alpha * (np.roll(X, -1, axis=0) - X)
            new[frozen] = X[frozen]
        errors = np.array([diameter(P) for P in trajectory])
    bad = np.flatnonzero(~np.isfinite(errors))
    if bad.size:
        raise ValueError(
            f"the population's diameter left the float64 range at step {bad[0]}"
        )
    trajectory.setflags(write=False)
    return trajectory, errors


def measured_contraction(errors) -> float:
    """Geometric-mean per-step ratio of a diameter sequence.

    Ratios are taken over consecutive pairs of entries that both exceed
    1e-300 (smaller values would underflow the division).  Fewer than two
    such ratios — i.e. fewer than 3 usable consecutive entries — raise
    InsufficientDataError.
    """
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 1:
        raise ValueError("errors must be a 1-D sequence")
    if np.any(~np.isfinite(e)) or np.any(e < 0):
        raise ValueError("errors must be finite and non-negative")
    usable = e > _TINY
    both = usable[:-1] & usable[1:]
    if int(both.sum()) < 2:
        raise InsufficientDataError(
            "need at least 3 usable consecutive entries to measure contraction"
        )
    ratios = e[1:][both] / e[:-1][both]
    return float(np.exp(np.mean(np.log(ratios))))


def predicted_factor(alpha: float, stagnant: bool = False) -> float:
    """Two-individual theory: |1-alpha| against a frozen partner, else |1-2*alpha|."""
    return abs(1.0 - alpha) if stagnant else abs(1.0 - 2.0 * alpha)
