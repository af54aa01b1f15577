"""Batch evaluation kernels for the benchmark functions and their gradients.

These are the hot inner loops of every experiment: one call evaluates a whole
population, shape (n, dim) -> (n,) for values and (n, dim) -> (n, dim) for
gradients.  Each kernel is a vectorized numpy function; the module-level
``VALUE`` / ``GRAD`` dicts map a function name to its kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FREQ", "USING_NUMBA", "VALUE", "GRAD"]

# Oscillation frequency shared by all three benchmark functions.
FREQ = 1.0e4

# There is no compiled kernel path.  The flag stays because the benchmark
# driver (perfbench/run.py) prints it in its environment line.
USING_NUMBA = False


def zhou1_value_np(X: np.ndarray) -> np.ndarray:
    u = X[:, 0] - 1.0
    total = u * u + np.sin(FREQ * (u * u)) ** 2
    for i in range(X.shape[1] - 1):
        r = X[:, i + 1] - 2.0 * X[:, i] * X[:, i]
        total = total + (FREQ * (r * r) + FREQ * np.sin(FREQ * r) ** 2)
    return total


def zhou1_grad_np(X: np.ndarray) -> np.ndarray:
    g = np.zeros_like(X)
    u = X[:, 0] - 1.0
    g[:, 0] = 2.0 * u + 2.0 * FREQ * u * np.sin(2.0 * FREQ * (u * u))
    for i in range(X.shape[1] - 1):
        xi = X[:, i]
        r = X[:, i + 1] - 2.0 * xi * xi
        dterm = 2.0 * FREQ * r + (FREQ * FREQ) * np.sin(2.0 * FREQ * r)
        g[:, i] += dterm * (-4.0 * xi)
        g[:, i + 1] += dterm
    return g


def zhou2_value_np(X: np.ndarray) -> np.ndarray:
    v = X[:, 0] + 1.0
    total = v * v + np.sin(FREQ * (v * v)) ** 2
    for i in range(X.shape[1] - 1):
        s = X[:, i + 1] * X[:, i + 1] + 2.0 * X[:, i]
        total = total + (FREQ * (s * s) + FREQ * np.sin(FREQ * (s * s)) ** 2)
    return total


def zhou2_grad_np(X: np.ndarray) -> np.ndarray:
    g = np.zeros_like(X)
    v = X[:, 0] + 1.0
    g[:, 0] = 2.0 * v + 2.0 * FREQ * v * np.sin(2.0 * FREQ * (v * v))
    for i in range(X.shape[1] - 1):
        s = X[:, i + 1] * X[:, i + 1] + 2.0 * X[:, i]
        dterm = 2.0 * FREQ * s * (1.0 + FREQ * np.sin(2.0 * FREQ * (s * s)))
        g[:, i] += dterm * 2.0
        g[:, i + 1] += dterm * (2.0 * X[:, i + 1])
    return g


def zhou3_value_np(X: np.ndarray) -> np.ndarray:
    v = X[:, 0] + 1.0
    total = v * v * (1.0 + np.sin(FREQ * (v * v)) ** 2)
    for i in range(X.shape[1] - 1):
        w = X[:, i + 1] * X[:, i + 1] + (2.0 ** (i + 1)) * X[:, i]
        total = total + FREQ * (w * w) * (1.0 + FREQ * np.sin(FREQ * (w * w)) ** 2)
    return total


def zhou3_grad_np(X: np.ndarray) -> np.ndarray:
    g = np.zeros_like(X)
    v = X[:, 0] + 1.0
    g[:, 0] = (
        2.0 * v * (1.0 + np.sin(FREQ * (v * v)) ** 2)
        + 2.0 * FREQ * (v * v * v) * np.sin(2.0 * FREQ * (v * v))
    )
    for i in range(X.shape[1] - 1):
        coef = 2.0 ** (i + 1)
        w = X[:, i + 1] * X[:, i + 1] + coef * X[:, i]
        dterm = (
            2.0 * FREQ * w * (1.0 + FREQ * np.sin(FREQ * (w * w)) ** 2)
            + 2.0 * (FREQ * FREQ * FREQ) * (w * w * w) * np.sin(2.0 * FREQ * (w * w))
        )
        g[:, i] += dterm * coef
        g[:, i + 1] += dterm * (2.0 * X[:, i + 1])
    return g


def sphere_value_np(X: np.ndarray) -> np.ndarray:
    total = X[:, 0] * X[:, 0]
    for i in range(1, X.shape[1]):
        total = total + X[:, i] * X[:, i]
    return total


def sphere_grad_np(X: np.ndarray) -> np.ndarray:
    return 2.0 * X


VALUE = {
    "zhou1": zhou1_value_np,
    "zhou2": zhou2_value_np,
    "zhou3": zhou3_value_np,
    "sphere": sphere_value_np,
}
GRAD = {
    "zhou1": zhou1_grad_np,
    "zhou2": zhou2_grad_np,
    "zhou3": zhou3_grad_np,
    "sphere": sphere_grad_np,
}
