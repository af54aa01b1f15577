"""Shared domain types for the optimization experiments.

Search points are plain 1-D float64 numpy arrays throughout the package;
populations are (n, dim) arrays.  This module provides the box-bounds type,
the objective-function container, `derive_stream`, which gives each label
path under a base seed its own deterministic numpy Generator, the monotone
best-so-far tracker that every optimizer shares (a run folds each evaluated
batch into its tracker in place), and the one integer rule for public sizes
and seeds.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Bounds",
    "ObjectiveSpec",
    "BestTracker",
    "as_integer",
    "as_point",
    "derive_stream",
    "euclidean_norm",
]


def as_integer(field: str, value) -> int:
    """`value` as an int; anything but an int or a numpy integer (a bool is
    not one) raises ValueError naming `field`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def as_real(field: str, value) -> float:
    """`value` as a float; anything but a real number (a bool is not one), or
    one beyond float64, raises ValueError naming `field`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{field} must be a real number within float64, got {value!r}"
        ) from None


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


def euclidean_norm(v: np.ndarray) -> float:
    """The 2-norm of the vector `v`, finite whenever it fits in float64.

    ``np.linalg.norm`` squares the entries before the root, so it overflows
    once they pass about 1.3e154; only then, and only for finite entries,
    the norm is taken again by ``np.hypot``, which does not square.  No
    overflow warning is raised: a norm past float64 is returned as ``inf``.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
        if np.isinf(norm) and np.isfinite(v).all():
            norm = float(np.hypot.reduce(v, initial=0.0))
    return norm


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
        with np.errstate(over="ignore"):
            finite_span = np.isfinite(hi - lo).all()
        if not finite_span:
            raise ValueError("bounds must have a finite width hi - lo in float64")
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
        # The method skips np.clip's Python dispatch layers; same ufunc.
        return np.asarray(x).clip(self.lo, self.hi)


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """An evaluatable objective with analytic gradient over a box.

    `batch_evaluator` maps an (n, dim) array to (n,) values and
    `batch_gradient` maps it to (n, dim) gradients; `grad` reads a batch of
    one.  Evaluators must be deterministic and bounded below on the domain,
    whose box fixes the dimension.
    """

    name: str
    batch_evaluator: Callable[[np.ndarray], np.ndarray]
    batch_gradient: Callable[[np.ndarray], np.ndarray]
    domain: Bounds

    @property
    def dim(self) -> int:
        return self.domain.dim

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


def derive_stream(base_seed: int, labels: Sequence = ()) -> np.random.Generator:
    """A fresh generator at the origin of the substream that `labels`
    address under `base_seed`.

    The same (base_seed, labels) always gives the same draws, independent of
    process, thread schedule or call order; distinct label paths give
    independent streams.  The seed words are ``base_seed % 2**64`` and then
    one word per label.  A bare str or bytes is not a label path: it raises
    ValueError rather than being split into one label per character.
    """
    if isinstance(labels, (str, bytes)):
        raise ValueError(f"labels must be a sequence of labels, got {labels!r}")
    words = [as_integer("base_seed", base_seed) % _U64]
    words.extend(_label_word(label) for label in labels)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


@dataclass(eq=False)
class BestTracker:
    """Best-so-far solution under strict-improvement acceptance, updated in
    place by `fold`.

    `best_value` is non-increasing over the tracker's lifetime; an equal
    value never replaces the incumbent, so plateaus count as stagnation.
    Each new best point is a fresh copy that is never written into, so a
    `best_point` read before a `fold` keeps its values.
    """

    best_point: np.ndarray
    best_value: float
    last_improvement_gen: int = 0
    improvement_count: int = 0

    def __post_init__(self):
        if not np.isfinite(self.best_value):
            raise ValueError("tracker must be seeded with a finite value")
        self.best_point = as_point(self.best_point).copy()
        self.best_value = float(self.best_value)

    def fold(self, X: np.ndarray, vals: np.ndarray, gen: int) -> None:
        """Offer the rows of `X` with their values `vals` in row order.

        Only a strictly smaller value replaces the incumbent and stamps
        `gen`; ties and worse rows leave the tracker untouched, and so does a
        NaN or +inf value.
        """
        for i in (vals < self.best_value).nonzero()[0]:
            if vals[i] < self.best_value:
                self.best_point = X[i].copy()
                self.best_value = float(vals[i])
                self.last_improvement_gen = gen
                self.improvement_count += 1
