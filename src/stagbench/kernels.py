"""Batch evaluation kernels for the benchmark functions and their gradients.

These are the hot inner loops of every experiment: one call evaluates a whole
population, shape (n, dim) -> (n,) for values and (n, dim) -> (n, dim) for
gradients.  The module-level ``VALUE`` / ``GRAD`` dicts map a function name
to its kernel.

Each zhou function is a head term in ``x[0]`` plus ``dim - 1`` coupling
terms in ``(x[i], x[i+1])``.  The kernels build all coupling residuals at
once as one (n, dim - 1) array from ``X[:, 1:]`` and ``X[:, :-1]``, so the
number of numpy calls does not grow with the dimension.  Floating-point
addition is not associative, so the order of the additions is fixed:

* values add ``head`` into ``t0`` in place, then ``t1``, ``t2``, ... in order
  by ``np.add.accumulate`` along each row; ``np.add.reduce`` may add pairwise;
* gradient column ``j`` receives the term of residual ``j - 1`` first and
  that of residual ``j`` second (``g[:, 1:] += ...`` before
  ``g[:, :-1] += ...``), and both land on zeros or on the head term.

In this order every kernel returns the same bits as a loop that handles one
coupling term per pass, which the tests keep as the reference.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["FREQ", "USING_NUMBA", "VALUE", "GRAD"]

# Oscillation frequency shared by all three benchmark functions.
FREQ = 1.0e4

# There is no compiled kernel path.  The flag stays because the benchmark
# driver (perfbench/run.py) prints it in its environment line.
USING_NUMBA = False


def _fold(head: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``head + terms[:, 0] + terms[:, 1] + ...``, added left to right in
    `terms`, the caller's temporary; ``t0 + head`` is ``head + t0`` exactly."""
    terms[:, 0] += head
    return np.add.accumulate(terms, axis=1)[:, -1]


def _scatter(X: np.ndarray, head: np.ndarray, d_next: np.ndarray,
             d_prev: np.ndarray) -> np.ndarray:
    """The gradient: `head` in column 0, then each coupling term's partial in
    ``x[i+1]`` (`d_next`) added before its partial in ``x[i]`` (`d_prev`)."""
    g = np.zeros_like(X)
    g[:, 0] = head
    g[:, 1:] += d_next
    g[:, :-1] += d_prev
    return g


@functools.cache
def _zhou3_coef(dim: int) -> np.ndarray:
    """zhou3's coupling coefficients 2, 4, ..., 2**(dim-1): exact powers of
    two, cached per dimension and read-only because every call shares them."""
    coef = 2.0 ** np.arange(1, dim)
    coef.flags.writeable = False
    return coef


def zhou1_value(X: np.ndarray) -> np.ndarray:
    u = X[:, 0] - 1.0
    uu = u * u
    head = uu + np.sin(FREQ * uu) ** 2
    R = X[:, 1:] - 2.0 * X[:, :-1] * X[:, :-1]
    return _fold(head, FREQ * (R * R) + FREQ * np.sin(FREQ * R) ** 2)


def zhou1_grad(X: np.ndarray) -> np.ndarray:
    u = X[:, 0] - 1.0
    head = 2.0 * u + 2.0 * FREQ * u * np.sin(2.0 * FREQ * (u * u))
    Xi = X[:, :-1]
    R = X[:, 1:] - 2.0 * Xi * Xi
    D = 2.0 * FREQ * R + (FREQ * FREQ) * np.sin(2.0 * FREQ * R)
    return _scatter(X, head, D, D * (-4.0 * Xi))


def zhou2_value(X: np.ndarray) -> np.ndarray:
    v = X[:, 0] + 1.0
    vv = v * v
    head = vv + np.sin(FREQ * vv) ** 2
    S = X[:, 1:] * X[:, 1:] + 2.0 * X[:, :-1]
    A = FREQ * (S * S)
    return _fold(head, A + FREQ * np.sin(A) ** 2)


def zhou2_grad(X: np.ndarray) -> np.ndarray:
    v = X[:, 0] + 1.0
    head = 2.0 * v + 2.0 * FREQ * v * np.sin(2.0 * FREQ * (v * v))
    Xn = X[:, 1:]
    S = Xn * Xn + 2.0 * X[:, :-1]
    D = 2.0 * FREQ * S * (1.0 + FREQ * np.sin(2.0 * FREQ * (S * S)))
    return _scatter(X, head, D * (2.0 * Xn), D * 2.0)


def zhou3_value(X: np.ndarray) -> np.ndarray:
    v = X[:, 0] + 1.0
    vv = v * v
    head = vv * (1.0 + np.sin(FREQ * vv) ** 2)
    W = X[:, 1:] * X[:, 1:] + _zhou3_coef(X.shape[1]) * X[:, :-1]
    A = FREQ * (W * W)
    return _fold(head, A * (1.0 + FREQ * np.sin(A) ** 2))


def zhou3_grad(X: np.ndarray) -> np.ndarray:
    v = X[:, 0] + 1.0
    vv = v * v
    head = (
        2.0 * v * (1.0 + np.sin(FREQ * vv) ** 2)
        + 2.0 * FREQ * (vv * v) * np.sin(2.0 * FREQ * vv)
    )
    coef = _zhou3_coef(X.shape[1])
    Xn = X[:, 1:]
    W = Xn * Xn + coef * X[:, :-1]
    WW = W * W
    D = (
        2.0 * FREQ * W * (1.0 + FREQ * np.sin(FREQ * WW) ** 2)
        + 2.0 * (FREQ * FREQ * FREQ) * (WW * W) * np.sin(2.0 * FREQ * WW)
    )
    return _scatter(X, head, D * (2.0 * Xn), D * coef)


VALUE = {
    "zhou1": zhou1_value,
    "zhou2": zhou2_value,
    "zhou3": zhou3_value,
}
GRAD = {
    "zhou1": zhou1_grad,
    "zhou2": zhou2_grad,
    "zhou3": zhou3_grad,
}
