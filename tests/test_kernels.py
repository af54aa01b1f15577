"""Tests for stagbench.kernels: reference formulas and dispatch tables."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import sphere_objective, sphere_value

from stagbench import benchmarks, kernels


def _sample(n=64, dim=4, seed=7, lo=-3.0, hi=3.0):
    gen = np.random.Generator(np.random.PCG64(seed))
    return gen.uniform(lo, hi, size=(n, dim))


class TestReferenceFormulas:
    """Pin each kernel against a direct, independent transcription."""

    def test_zhou1_value_matches_direct_sum(self):
        X = _sample()
        w = kernels.FREQ
        expected = np.empty(X.shape[0])
        for r, x in enumerate(X):
            total = (x[0] - 1.0) ** 2 + np.sin(w * (x[0] - 1.0) ** 2) ** 2
            for i in range(x.size - 1):
                res = x[i + 1] - 2.0 * x[i] ** 2
                total += w * res**2 + w * np.sin(w * res) ** 2
            expected[r] = total
        assert np.allclose(kernels.zhou1_value(X), expected, rtol=1e-13, atol=0)

    def test_zhou2_value_matches_direct_sum(self):
        X = _sample()
        w = kernels.FREQ
        expected = np.empty(X.shape[0])
        for r, x in enumerate(X):
            total = (x[0] + 1.0) ** 2 + np.sin(w * (x[0] + 1.0) ** 2) ** 2
            for i in range(x.size - 1):
                s = x[i + 1] ** 2 + 2.0 * x[i]
                total += w * s**2 + w * np.sin(w * s**2) ** 2
            expected[r] = total
        assert np.allclose(kernels.zhou2_value(X), expected, rtol=1e-13, atol=0)

    def test_zhou3_value_matches_direct_sum(self):
        X = _sample()
        w = kernels.FREQ
        expected = np.empty(X.shape[0])
        for r, x in enumerate(X):
            v = x[0] + 1.0
            total = v**2 * (1.0 + np.sin(w * v**2) ** 2)
            for i in range(x.size - 1):
                t = x[i + 1] ** 2 + 2.0 ** (i + 1) * x[i]
                total += w * t**2 * (1.0 + w * np.sin(w * t**2) ** 2)
            expected[r] = total
        assert np.allclose(kernels.zhou3_value(X), expected, rtol=1e-13, atol=0)

    def test_sphere_identities(self):
        # The smoke tests' sphere (conftest), not a package kernel.
        X = _sample()
        assert np.allclose(sphere_value(X), np.sum(X**2, axis=1))
        assert np.array_equal(sphere_objective(4).grad(X[0]), 2.0 * X[0])


# Loop-form kernels: one pass per coupling term, terms added left to right.
# The column-form kernels must reproduce them bit for bit.
def _ref_zhou1_value(X):
    F = kernels.FREQ
    u = X[:, 0] - 1.0
    total = u * u + np.sin(F * (u * u)) ** 2
    for i in range(X.shape[1] - 1):
        r = X[:, i + 1] - 2.0 * X[:, i] * X[:, i]
        total = total + (F * (r * r) + F * np.sin(F * r) ** 2)
    return total


def _ref_zhou1_grad(X):
    F = kernels.FREQ
    g = np.zeros_like(X)
    u = X[:, 0] - 1.0
    g[:, 0] = 2.0 * u + 2.0 * F * u * np.sin(2.0 * F * (u * u))
    for i in range(X.shape[1] - 1):
        xi = X[:, i]
        r = X[:, i + 1] - 2.0 * xi * xi
        dterm = 2.0 * F * r + (F * F) * np.sin(2.0 * F * r)
        g[:, i] += dterm * (-4.0 * xi)
        g[:, i + 1] += dterm
    return g


def _ref_zhou2_value(X):
    F = kernels.FREQ
    v = X[:, 0] + 1.0
    total = v * v + np.sin(F * (v * v)) ** 2
    for i in range(X.shape[1] - 1):
        s = X[:, i + 1] * X[:, i + 1] + 2.0 * X[:, i]
        total = total + (F * (s * s) + F * np.sin(F * (s * s)) ** 2)
    return total


def _ref_zhou2_grad(X):
    F = kernels.FREQ
    g = np.zeros_like(X)
    v = X[:, 0] + 1.0
    g[:, 0] = 2.0 * v + 2.0 * F * v * np.sin(2.0 * F * (v * v))
    for i in range(X.shape[1] - 1):
        s = X[:, i + 1] * X[:, i + 1] + 2.0 * X[:, i]
        dterm = 2.0 * F * s * (1.0 + F * np.sin(2.0 * F * (s * s)))
        g[:, i] += dterm * 2.0
        g[:, i + 1] += dterm * (2.0 * X[:, i + 1])
    return g


def _ref_zhou3_value(X):
    F = kernels.FREQ
    v = X[:, 0] + 1.0
    total = v * v * (1.0 + np.sin(F * (v * v)) ** 2)
    for i in range(X.shape[1] - 1):
        w = X[:, i + 1] * X[:, i + 1] + (2.0 ** (i + 1)) * X[:, i]
        total = total + F * (w * w) * (1.0 + F * np.sin(F * (w * w)) ** 2)
    return total


def _ref_zhou3_grad(X):
    F = kernels.FREQ
    g = np.zeros_like(X)
    v = X[:, 0] + 1.0
    g[:, 0] = (
        2.0 * v * (1.0 + np.sin(F * (v * v)) ** 2)
        + 2.0 * F * (v * v * v) * np.sin(2.0 * F * (v * v))
    )
    for i in range(X.shape[1] - 1):
        coef = 2.0 ** (i + 1)
        w = X[:, i + 1] * X[:, i + 1] + coef * X[:, i]
        dterm = (
            2.0 * F * w * (1.0 + F * np.sin(F * (w * w)) ** 2)
            + 2.0 * (F * F * F) * (w * w * w) * np.sin(2.0 * F * (w * w))
        )
        g[:, i] += dterm * coef
        g[:, i + 1] += dterm * (2.0 * X[:, i + 1])
    return g


# The smoke tests' sphere replaced a package kernel that added its terms in
# this order; it must keep that kernel's bits.
def _ref_sphere_value(X):
    total = X[:, 0] * X[:, 0]
    for i in range(1, X.shape[1]):
        total = total + X[:, i] * X[:, i]
    return total


REFERENCE = {
    ("zhou1", "value"): _ref_zhou1_value,
    ("zhou1", "grad"): _ref_zhou1_grad,
    ("zhou2", "value"): _ref_zhou2_value,
    ("zhou2", "grad"): _ref_zhou2_grad,
    ("zhou3", "value"): _ref_zhou3_value,
    ("zhou3", "grad"): _ref_zhou3_grad,
    ("sphere", "value"): _ref_sphere_value,
}


def _oracle_batches(dim):
    """Random batches of 1, 7 and 180 rows at coordinate scales 1e-6..1e3,
    plus rows where residuals vanish exactly or carry signed zeros."""
    gen = np.random.Generator(np.random.PCG64(1000 + dim))
    for n in (1, 7, 180):
        for scale in (1e-6, 1e-4, 1e-2, 1.0, 10.0, 1e3):
            yield gen.uniform(-scale, scale, size=(n, dim))
    special = [np.zeros(dim), -np.zeros(dim), np.where(np.arange(dim) % 2, -0.0, 0.0)]
    for f in benchmarks.FUNCTIONS:
        for b in benchmarks.BRANCHES:
            # zhou1's minimizer grows as x[i+1] = 2 x[i]^2 and overflows.
            with np.errstate(over="ignore"):
                x = benchmarks.optimum(f, dim, b)
            if np.abs(x).max() <= 1e3:
                special.append(x)
    yield np.array(special)


class TestBitExactOracle:
    """The column-form kernels equal the loop-form references in every bit."""

    @pytest.mark.parametrize("name,kind", sorted(REFERENCE))
    def test_matches_loop_reference_bit_for_bit(self, name, kind):
        if name == "sphere":
            kernel = sphere_value
        else:
            kernel = (kernels.VALUE if kind == "value" else kernels.GRAD)[name]
        ref = REFERENCE[(name, kind)]
        cases = 0
        for dim in range(2, 13):
            for X in _oracle_batches(dim):
                got, want = kernel(X), ref(X)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
                    f"{name} {kind} differs at dim {dim}, n {X.shape[0]}"
                )
                cases += 1
        assert cases == 11 * 19


class TestPathParity:
    """Every benchmark function has a value and a gradient kernel in the
    active tables, and nothing else does."""

    def test_tables_hold_exactly_the_benchmark_functions(self):
        # A test-only objective, such as the smoke tests' sphere, lives in
        # conftest: no kernel of its own and no export.
        assert tuple(kernels.VALUE) == tuple(kernels.GRAD) == benchmarks.FUNCTIONS
        assert [n for n in benchmarks.__all__ if "objective" in n] == ["objective"]

    @pytest.mark.parametrize("name", benchmarks.FUNCTIONS)
    def test_active_dispatch_tables_complete(self, name):
        X = _sample(n=8, dim=3)
        v = kernels.VALUE[name](X)
        g = kernels.GRAD[name](X)
        assert v.shape == (8,)
        assert g.shape == (8, 3)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(g))


class TestGradientConsistency:
    """Analytic gradients must match a high-order finite difference of the
    same kernel — catches transcription slips in either form."""

    @pytest.mark.parametrize("name", ("zhou1", "zhou2", "zhou3"))
    def test_grad_matches_fd_on_smooth_scale(self, name):
        # Use a tiny h appropriate for the 1e4-frequency oscillation.
        gen = np.random.Generator(np.random.PCG64(5))
        X = gen.uniform(-1.5, 1.5, size=(20, 3))
        G = kernels.GRAD[name](X)
        h = 1e-9
        for r, x in enumerate(X):
            for d in range(3):
                xp = x.copy()
                xm = x.copy()
                xp[d] += h
                xm[d] -= h
                fd = (
                    kernels.VALUE[name](xp[None, :])[0]
                    - kernels.VALUE[name](xm[None, :])[0]
                ) / (2.0 * h)
                scale = max(1.0, abs(G[r, d]))
                assert abs(G[r, d] - fd) / scale < 5e-2
