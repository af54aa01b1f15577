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

All minima have value exactly 0.  Every evaluator takes an (n, dim) batch
of points: values and gradients dispatch to the kernels module, and
``fd_gradient`` is an independent central-difference check of the gradients.
"""

from __future__ import annotations

import numpy as np

from .core import Bounds, ObjectiveSpec, as_choice, as_integer, as_points
from .kernels import GRAD, VALUE

__all__ = [
    "FUNCTIONS",
    "BRANCHES",
    "value_batch",
    "gradient_batch",
    "optimum",
    "optima",
    "fd_gradient",
    "FD_STEP",
    "objective",
]

FUNCTIONS = tuple(VALUE)
BRANCHES = ("minus", "plus")


def _check_name(name: str) -> None:
    as_choice("benchmark function", name, FUNCTIONS)


def _check_dim(dim: int) -> int:
    dim = as_integer("dim", dim)
    if dim < 2:
        raise ValueError("benchmark functions need dim >= 2")
    return dim


def _as_batch(X: np.ndarray) -> np.ndarray:
    X = as_points(X)
    _check_dim(X.shape[1])
    return X


def value_batch(name: str, X: np.ndarray) -> np.ndarray:
    """Evaluate `name` at every row of `X`, shape (n, dim) -> (n,)."""
    _check_name(name)
    return VALUE[name](_as_batch(X))


def gradient_batch(name: str, X: np.ndarray) -> np.ndarray:
    """Analytic gradients at every row of `X`, shape (n, dim) -> (n, dim)."""
    _check_name(name)
    return GRAD[name](_as_batch(X))


def optimum(name: str, dim: int, branch: str = "minus") -> np.ndarray:
    """A global minimizer of `name` in `dim` dimensions (value exactly 0).

    `zhou2` and `zhou3` have two minimizers differing in the sign of the
    last coordinate; `branch` selects it ("minus" or "plus").  `zhou1` has a
    unique minimizer and ignores `branch`.  Coordinates past the float64
    range are ``inf``: zhou1's ``2**(2**i - 1)`` from dim 12 on, zhou3's,
    which grow about as ``2**i``, from dim 514 on.

    The point returned is the exact minimizer rounded to float64, and its
    gradient is not zero.  `verify` certifies ‖∇f‖ <= 1e-4 at dims 2-5
    only.  zhou2's stays below 1e-10 through dim 20.  zhou3's reads
    2.8e-5 at dims 9-12, 0.11 at dim 13, above the 1e-2 stationarity
    threshold, 4.4e2 at dim 17 and 2.3e5 at dim 20: there the rounded
    minimizer itself reads non-stationary.
    """
    _check_name(name)
    dim = _check_dim(dim)
    as_choice("branch", branch, BRANCHES)
    x = np.empty(dim, dtype=np.float64)
    with np.errstate(over="ignore"):
        if name == "zhou1":
            x[0] = 1.0
            for i in range(dim - 1):
                x[i + 1] = 2.0 * x[i] * x[i]
            return x
        x[0] = -1.0
        for i in range(dim - 1):
            coef = 2.0 if name == "zhou2" else np.ldexp(1.0, i + 1)
            root = np.sqrt(-coef * x[i])
            x[i + 1] = root if (branch == "plus" and i == dim - 2) else -root
    return x


def optima(name: str, dim: int) -> tuple:
    """All closed-form global minimizers of `name` in `dim` dimensions."""
    points = [optimum(name, dim, branch) for branch in BRANCHES]
    if np.array_equal(points[0], points[1]):
        points = points[:1]
    return tuple(points)


FD_STEP = 1e-7
# The 6th-order central stencil: offsets in units of FD_STEP, and weights.
_FD_OFFSETS = np.array([3.0, 2.0, 1.0, -1.0, -2.0, -3.0])
_FD_WEIGHTS = np.array([1.0, -9.0, 45.0, -45.0, 9.0, -1.0]) / 60.0


def fd_gradient(name: str, X: np.ndarray) -> np.ndarray:
    """Central-difference gradients at the rows of `X`, shape (m, dim) ->
    (m, dim), independent of the analytic code.

    One `value_batch` call evaluates every row's stencil ``x + k*h*e_i``,
    h = FD_STEP.  The 6th-order stencil is needed at h = 1e-7: the sine terms
    reach local frequencies near 2e6 per unit coordinate, so the 2nd-order
    formula carries relative truncation error up to ~1e-2 on zhou2/zhou3,
    far above what the 6th-order formula leaves (~1e-7).

    FD_STEP is validated only where criterion 5 checks it, on random points
    of [-2, 2]^3.  Farther out the frequencies rise: at the zhou3/woa point
    (-23.586112946289894, 6.892615318949088, -5.131355323514834) returned at
    base seed 42, dim 3, T=100, it reads the x3 component about 30 % low
    (3.506e15 against 5.170e15).  ROADMAP item 2 plans a step for such points.
    """
    _check_name(name)
    X = _as_batch(X)
    m, dim = X.shape
    # Stencil row (p, i, j) is row p of X with _FD_OFFSETS[j] * h added to
    # coordinate i alone; the other coordinates are copies, not sums.
    stencil = np.repeat(X, dim * _FD_OFFSETS.size, axis=0).reshape(m, dim, -1, dim)
    coords = np.arange(dim)
    stencil[:, coords, :, coords] += _FD_OFFSETS * FD_STEP
    f = value_batch(name, stencil.reshape(-1, dim))
    return (f.reshape(m, dim, -1) @ _FD_WEIGHTS) / FD_STEP


def objective(name: str, bounds: Bounds) -> ObjectiveSpec:
    """Package `name` as an ObjectiveSpec over `bounds`, whose dimension
    is at least 2."""
    _check_name(name)
    _check_dim(bounds.dim)
    return ObjectiveSpec(
        name=name,
        batch_evaluator=lambda X, _n=name: value_batch(_n, X),
        batch_gradient=lambda X, _n=name: gradient_batch(_n, X),
        domain=bounds,
    )
