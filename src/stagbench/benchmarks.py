"""The three oscillatory benchmark functions, their gradients and optima.

Each function is a smooth base polynomial plus high-frequency sine terms
(frequency 1e4), which makes the landscape extremely rugged while keeping the
global optima computable in closed form:

* ``zhou1``: head ``(x1-1)^2 + sin^2(1e4 (x1-1)^2)`` plus coupling terms
  ``1e4 (x[i+1] - 2 x[i]^2)^2 + 1e4 sin^2(1e4 (x[i+1] - 2 x[i]^2))``.
  Unique minimizer: ``x1 = 1``, ``x[i+1] = 2 x[i]^2``.
* ``zhou2``: head ``(x1+1)^2 + sin^2(1e4 (x1+1)^2)`` plus terms in the
  residual ``s = x[i+1]^2 + 2 x[i]``: ``1e4 s^2 + 1e4 sin^2(1e4 s^2)``.
  Minimizers: ``x1 = -1``, ``x[i+1] = -sqrt(-2 x[i])`` at interior indices
  (the next residual needs ``x[i+1] <= 0``), and either sign at the last.
* ``zhou3``: like ``zhou2`` with residual ``w = x[i+1]^2 + 2^i x[i]`` and
  multiplicative terms ``1e4 w^2 (1 + 1e4 sin^2(1e4 w^2))``.

All minima have value exactly 0.  Batch evaluation dispatches to the kernels
module; ``fd_gradient`` is an independent central-difference oracle used to
cross-check the analytic gradients.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import Bounds, ObjectiveSpec, as_point
from .kernels import GRAD, VALUE

__all__ = [
    "FUNCTIONS",
    "BRANCHES",
    "value",
    "value_batch",
    "gradient",
    "gradient_batch",
    "optimum",
    "optima",
    "fd_gradient",
    "objective",
    "sphere_objective",
    "default_bounds",
]

FUNCTIONS = ("zhou1", "zhou2", "zhou3")
BRANCHES = ("minus", "plus")


def _check_name(name: str) -> str:
    if name not in FUNCTIONS:
        raise ValueError(
            f"unknown benchmark function {name!r}; expected one of {FUNCTIONS}"
        )
    return name


def _check_dim(dim: int) -> int:
    dim = int(dim)
    if dim < 2:
        raise ValueError("benchmark functions need dim >= 2")
    return dim


def _as_batch(name: str, X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D batch of points, got shape {X.shape}")
    if name != "sphere":
        _check_dim(X.shape[1])
    if not np.all(np.isfinite(X)):
        raise ValueError("batch contains non-finite coordinates")
    return X


def value_batch(name: str, X: np.ndarray) -> np.ndarray:
    """Evaluate `name` at every row of `X`, shape (n, dim) -> (n,)."""
    _check_name(name)
    return VALUE[name](_as_batch(name, X))


def gradient_batch(name: str, X: np.ndarray) -> np.ndarray:
    """Analytic gradients at every row of `X`, shape (n, dim) -> (n, dim)."""
    _check_name(name)
    return GRAD[name](_as_batch(name, X))


def value(name: str, x) -> float:
    """Evaluate `name` at a single point."""
    x = as_point(x)
    _check_dim(x.size)
    return float(value_batch(name, x[None, :])[0])


def gradient(name: str, x) -> np.ndarray:
    """Analytic gradient of `name` at a single point."""
    x = as_point(x)
    _check_dim(x.size)
    return gradient_batch(name, x[None, :])[0]


def optimum(name: str, dim: int, branch: str = "minus") -> np.ndarray:
    """A global minimizer of `name` in `dim` dimensions (value exactly 0).

    `zhou2` and `zhou3` have two minimizers differing in the sign of the
    last coordinate; `branch` selects it ("minus" or "plus").  `zhou1` has a
    unique minimizer and ignores `branch`.
    """
    _check_name(name)
    dim = _check_dim(dim)
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}; expected one of {BRANCHES}")
    x = np.empty(dim, dtype=np.float64)
    if name == "zhou1":
        x[0] = 1.0
        for i in range(dim - 1):
            x[i + 1] = 2.0 * x[i] * x[i]
        return x
    x[0] = -1.0
    for i in range(dim - 1):
        coef = 2.0 if name == "zhou2" else 2.0 ** (i + 1)
        root = np.sqrt(-coef * x[i])
        x[i + 1] = root if (branch == "plus" and i == dim - 2) else -root
    return x


def optima(name: str, dim: int) -> tuple:
    """All closed-form global minimizers of `name` in `dim` dimensions."""
    points = [optimum(name, dim, branch) for branch in BRANCHES]
    if np.array_equal(points[0], points[1]):
        points = points[:1]
    return tuple(points)


_FD_STENCILS = {
    2: (np.array([1.0, -1.0]), np.array([1.0, -1.0]) / 2.0),
    4: (np.array([2.0, 1.0, -1.0, -2.0]), np.array([-1.0, 8.0, -8.0, 1.0]) / 12.0),
    6: (
        np.array([3.0, 2.0, 1.0, -1.0, -2.0, -3.0]),
        np.array([1.0, -9.0, 45.0, -45.0, 9.0, -1.0]) / 60.0,
    ),
}


def fd_gradient(name: str, x, h: float = 1e-7, order: int = 6) -> np.ndarray:
    """Central-difference gradient oracle, independent of the analytic code.

    Uses one batched evaluation of the stencil points ``x + k*h*e_i``.  The
    default 6th-order stencil is needed at h = 1e-7: the sine terms reach
    local frequencies near 2e6 per unit coordinate, so the 2nd-order formula
    carries relative truncation error up to ~1e-2 on zhou2/zhou3, far above
    what the 6th-order formula leaves (~1e-7).
    """
    x = as_point(x)
    _check_dim(x.size)
    if not h > 0.0:
        raise ValueError("finite-difference step h must be positive")
    if order not in _FD_STENCILS:
        raise ValueError(f"order must be one of {sorted(_FD_STENCILS)}")
    offsets, weights = _FD_STENCILS[order]
    dim = x.size
    k = offsets.size
    rows = np.arange(k * dim)
    cols = np.repeat(np.arange(dim), k)
    X = np.repeat(x[None, :], k * dim, axis=0)
    X[rows, cols] += np.tile(offsets, dim) * h
    f = value_batch(name, X)
    return (f.reshape(dim, k) @ weights) / h


def default_bounds(dim: int, lo: float = -100.0, hi: float = 100.0) -> Bounds:
    """The standard search box, a cube (default [-100, 100]^dim)."""
    return Bounds.cube(lo, hi, dim)


def objective(name: str, dim: int, bounds: Optional[Bounds] = None) -> ObjectiveSpec:
    """Package `name` as an ObjectiveSpec over `bounds`.

    `known_optima` keeps only the closed-form minimizers that lie strictly
    inside the box (``zhou1`` grows as ``x[i+1] = 2 x[i]^2`` and escapes the
    default box for dim >= 4).
    """
    _check_name(name)
    dim = _check_dim(dim)
    if bounds is None:
        bounds = default_bounds(dim)
    if bounds.dim != dim:
        raise ValueError("bounds dimension does not match dim")
    inside = tuple(p for p in optima(name, dim) if bounds.interior_contains(p))
    return ObjectiveSpec(
        name=name,
        dim=dim,
        batch_evaluator=lambda X, _n=name: value_batch(_n, X),
        batch_gradient=lambda X, _n=name: gradient_batch(_n, X),
        domain=bounds,
        known_optima=inside,
    )


def sphere_objective(dim: int, bounds: Optional[Bounds] = None) -> ObjectiveSpec:
    """The sphere function ``sum(x^2)`` as a smoke-test objective."""
    dim = int(dim)
    if dim < 1:
        raise ValueError("sphere needs dim >= 1")
    if bounds is None:
        bounds = default_bounds(dim)
    if bounds.dim != dim:
        raise ValueError("bounds dimension does not match dim")
    known = ()
    origin = np.zeros(dim)
    if bounds.interior_contains(origin):
        known = (origin,)
    return ObjectiveSpec(
        name="sphere",
        dim=dim,
        batch_evaluator=lambda X: VALUE["sphere"](
            np.ascontiguousarray(X, dtype=np.float64)
        ),
        batch_gradient=lambda X: GRAD["sphere"](
            np.ascontiguousarray(X, dtype=np.float64)
        ),
        domain=bounds,
        known_optima=known,
    )
