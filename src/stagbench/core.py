"""Shared domain types for the optimization experiments.

Search points are plain 1-D float64 numpy arrays throughout the package;
populations are (n, dim) arrays.  This module provides the box-bounds type,
the objective-function container, `derive_stream`, which gives each label
path under a base seed its own deterministic numpy Generator, the monotone
best-so-far tracker that every optimizer shares (a run folds each evaluated
batch into its tracker in place), and one rule per input kind: `as_integer`
for sizes and seeds with their lower bound, `as_real` for reals, `as_choice`
for names, `as_sequence` for lists of inputs and `as_points` for batches.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import reprlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Bounds",
    "ObjectiveSpec",
    "BestTracker",
    "as_choice",
    "as_integer",
    "as_points",
    "as_real",
    "as_sequence",
    "derive_stream",
    "euclidean_norm",
]


def as_integer(field: str, value, minimum: Optional[int] = None) -> int:
    """`value` as an int; anything but an int or a numpy integer (a bool is
    not one), or one below `minimum`, raises ValueError naming `field`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{field} must be >= {minimum}")
    return int(value)


def as_real(field: str, value) -> float:
    """`value` as a finite float; anything but a real number (a bool is not
    one), one beyond float64, inf or NaN raises ValueError naming `field`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise ValueError(
            f"{field} must be a real number within float64, got {value!r}"
        ) from None
    if not math.isfinite(real):
        raise ValueError(f"{field} must be finite, got {real!r}")
    return real


def as_choice(kind: str, value, choices: tuple) -> None:
    """Raise ValueError naming `kind` unless `value` is one of `choices`."""
    if value not in choices:
        raise ValueError(f"unknown {kind} {value!r}; expected one of {choices}")


def as_sequence(field: str, value, kind: str) -> tuple:
    """`value` as a tuple; a str, bytes or bytearray, which would split into
    characters, or anything not iterable raises ValueError naming `field`."""
    if isinstance(value, (str, bytes, bytearray)) or not np.iterable(value):
        raise ValueError(f"{field} must be a sequence of {kind}, got {value!r}")
    return tuple(value)


def as_points(X) -> np.ndarray:
    """`X` as a finite float64 (n, dim) batch, not copied if it is one.

    Only what numpy stores as an integer or a float is read: complex, bool,
    str, bytes, object and ragged input raise ValueError.  A point is read as
    the one-row batch ``as_points([p])``.
    """
    try:
        A = np.asarray(X)
    except (TypeError, ValueError):
        A = None
    if A is None or A.dtype.kind not in "iuf":
        raise ValueError(f"expected a 2-D batch of points, got {reprlib.repr(X)}")
    A = A.astype(np.float64, copy=False)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D batch of points, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("batch contains non-finite coordinates")
    return A


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


@dataclass(frozen=True)
class Bounds:
    """The cube [lo, hi]^dim."""

    lo: float
    hi: float
    dim: int

    def __post_init__(self):
        for field in ("lo", "hi"):
            object.__setattr__(self, field, as_real(field, getattr(self, field)))
        if not self.lo < self.hi:
            raise ValueError(
                "the lower bound must be strictly below the upper bound, "
                f"got lo={self.lo!r}, hi={self.hi!r}"
            )
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(
                "bounds must have a finite width hi - lo in float64, "
                f"got lo={self.lo!r}, hi={self.hi!r}"
            )
        object.__setattr__(self, "dim", as_integer("dim", self.dim, 1))

    @property
    def span(self) -> float:
        return self.hi - self.lo

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Clip a point or an (n, dim) population into the box."""
        # The method skips np.clip's Python dispatch layers; same ufunc.
        return np.asarray(x).clip(self.lo, self.hi)


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """An evaluatable objective with analytic gradient over a box.

    `batch_evaluator` maps an (n, dim) batch to (n,) float64 values and
    `batch_gradient` to (n, dim) float64 gradients; each reads its own input
    (`grad` passes its point as a batch of one).  Evaluators must be
    deterministic and bounded below on the domain, whose box fixes `dim`.
    """

    name: str
    batch_evaluator: Callable[[np.ndarray], np.ndarray]
    batch_gradient: Callable[[np.ndarray], np.ndarray]
    domain: Bounds

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        return self.batch_evaluator(X)

    def grad(self, p: np.ndarray) -> np.ndarray:
        X = as_points([p])
        if X.shape[1] != self.domain.dim:
            raise ValueError(
                f"expected a point of dimension {self.domain.dim}, got {X.shape[1]}"
            )
        return self.batch_gradient(X)[0]


_U64 = 1 << 64


def _label_word(label) -> int:
    """Map one stream label to a 64-bit entropy word.

    Integers pass through (mod 2**64) so numeric labels stay readable in
    seed material; strings go through SHA-256 so distinct names give
    independent substreams.
    """
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        return int(label) % _U64
    raise TypeError(f"stream labels must be int or str, got {type(label).__name__}")


def derive_stream(base_seed: int, labels: Sequence) -> np.random.Generator:
    """A fresh generator at the origin of the substream that `labels`
    address under `base_seed`.

    The same (base_seed, labels) always gives the same draws, independent of
    process, thread schedule or call order; distinct label paths give
    independent streams.  The seed words are ``base_seed % 2**64`` and then
    one word per label.  A bare str or bytes is not a label path, nor is
    anything not iterable: each raises ValueError.
    """
    labels = as_sequence("labels", labels, "labels")
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
        self.best_value = as_real("best_value", self.best_value)
        self.best_point = as_points([self.best_point])[0]
        if self.best_point.size < 1:
            raise ValueError("a seed point must have at least one coordinate")

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
