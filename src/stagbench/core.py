"""Shared domain types for the optimization experiments.

Search points are plain 1-D float64 numpy arrays throughout the package;
populations are (n, dim) arrays.  This module provides the box-bounds type,
the objective-function container, deterministic labelled RNG streams, and
the monotone best-so-far tracker that every optimizer shares.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Bounds",
    "ObjectiveSpec",
    "RngStream",
    "BestTracker",
    "as_point",
    "clamp",
    "derive_stream",
    "make_tracker",
    "update_best",
]


def as_point(x, dim: Optional[int] = None) -> np.ndarray:
    """Validate `x` as a finite 1-D coordinate vector and return it as float64.

    Parameters
    ----------
    x : array_like
        Candidate coordinates.
    dim : int, optional
        Required dimension; mismatch raises ValueError.
    """
    p = np.asarray(x, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("a point must be a 1-D vector with at least one coordinate")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    if dim is not None and p.size != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {p.size}")
    return p


@dataclass(frozen=True, eq=False)
class Bounds:
    """Axis-aligned box constraints, one (lo, hi) pair per dimension."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=np.float64))
        if lo.ndim != 1 or hi.ndim != 1 or lo.size != hi.size or lo.size < 1:
            raise ValueError("bounds must be 1-D arrays of equal nonzero length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("each lower bound must be strictly below its upper bound")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int) -> "Bounds":
        """Box with the same (lo, hi) in every one of `dim` dimensions."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)))

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def span(self) -> np.ndarray:
        return self.hi - self.lo

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Clip a point or an (n, dim) population into the box."""
        return np.clip(x, self.lo, self.hi)

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def interior_contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x > self.lo) and np.all(x < self.hi))


def clamp(p: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Project `p` onto the box coordinate-wise (idempotent)."""
    p = as_point(p)
    if p.size != bounds.dim:
        raise ValueError(
            f"point dimension {p.size} does not match bounds dimension {bounds.dim}"
        )
    return bounds.clip(p)


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """An evaluatable objective with analytic gradient and known optima.

    `batch_evaluator` maps an (n, dim) array to (n,) values and
    `batch_gradient` maps it to (n, dim) gradients; `value` and `grad` read
    a batch of one.  Evaluators must be deterministic and bounded below on
    the domain; every known optimum must lie strictly inside the box.
    """

    name: str
    dim: int
    batch_evaluator: Callable[[np.ndarray], np.ndarray]
    batch_gradient: Callable[[np.ndarray], np.ndarray]
    domain: Bounds
    known_optima: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("objective dimension must be >= 1")
        if self.domain.dim != self.dim:
            raise ValueError("domain dimension does not match objective dimension")
        optima = tuple(as_point(p, self.dim) for p in self.known_optima)
        for p in optima:
            if not self.domain.interior_contains(p):
                raise ValueError(
                    f"known optimum {p} does not lie strictly inside the domain"
                )
        object.__setattr__(self, "known_optima", optima)

    def value(self, p: np.ndarray) -> float:
        return float(self.value_batch(as_point(p, self.dim)[None, :])[0])

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.asarray(self.batch_evaluator(X), dtype=np.float64)

    def grad(self, p: np.ndarray) -> np.ndarray:
        X = as_point(p, self.dim)[None, :]
        return np.asarray(self.batch_gradient(X), dtype=np.float64)[0]


_U64 = 1 << 64


def _label_word(label) -> int:
    """Map one stream label to a 64-bit entropy word.

    Integers pass through (mod 2**64) so numeric labels stay readable in
    seed material; strings go through SHA-256 so distinct names give
    independent substreams.
    """
    if isinstance(label, (bool, float)):
        raise TypeError(f"stream labels must be int or str, got {type(label).__name__}")
    if isinstance(label, (int, np.integer)):
        return int(label) % _U64
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream labels must be int or str, got {type(label).__name__}")


@dataclass(frozen=True)
class RngStream:
    """Deterministic, label-addressed random substream.

    The same (base_seed, label_path) always yields the same generator state,
    independent of process, thread schedule, or call order; distinct label
    paths yield independent streams.
    """

    base_seed: int
    label_path: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "base_seed", int(self.base_seed))
        object.__setattr__(self, "label_path", tuple(self.label_path))
        for label in self.label_path:
            _label_word(label)  # validate types up front

    def child(self, *labels) -> "RngStream":
        return RngStream(self.base_seed, self.label_path + tuple(labels))

    def seed_sequence(self) -> np.random.SeedSequence:
        words = [self.base_seed % _U64]
        words.extend(_label_word(label) for label in self.label_path)
        return np.random.SeedSequence(words)

    def generator(self) -> np.random.Generator:
        """A fresh generator at the substream origin (same state every call)."""
        return np.random.Generator(np.random.PCG64(self.seed_sequence()))


def derive_stream(base_seed: int, labels: Sequence = ()) -> RngStream:
    """Derive the substream addressed by `labels` under `base_seed`."""
    return RngStream(int(base_seed), tuple(labels))


@dataclass(frozen=True, eq=False)
class BestTracker:
    """Best-so-far solution under strict-improvement acceptance.

    `best_value` is non-increasing over the tracker's lifetime; an equal
    value never replaces the incumbent, so plateaus count as stagnation.
    """

    best_point: np.ndarray
    best_value: float
    last_improvement_gen: int = 0
    improvement_count: int = 0


def make_tracker(point: np.ndarray, value: float, gen: int = 0) -> BestTracker:
    """Seed a tracker with an initial best (e.g. the best of a fresh population)."""
    if not np.isfinite(value):
        raise ValueError("tracker must be seeded with a finite value")
    if gen < 0:
        raise ValueError("generation must be >= 0")
    return BestTracker(as_point(point).copy(), float(value), int(gen), 0)


def update_best(
    tracker: BestTracker, candidate: np.ndarray, value: float, gen: int
) -> BestTracker:
    """Return the tracker after offering one evaluated candidate.

    Only a strictly smaller value replaces the incumbent; ties and worse
    candidates leave the tracker (and hence any stagnation counter) untouched.
    Non-finite values are rejected with an error and are never stored.
    """
    if not np.isfinite(value):
        raise ValueError("cannot offer a non-finite value to the best tracker")
    if value < tracker.best_value:
        return BestTracker(
            np.array(candidate, dtype=np.float64, copy=True),
            float(value),
            int(gen),
            tracker.improvement_count + 1,
        )
    return tracker
