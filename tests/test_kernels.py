"""Tests for stagbench.kernels: reference formulas and dispatch tables."""

from __future__ import annotations

import numpy as np
import pytest

from stagbench import kernels

NAMES = ("zhou1", "zhou2", "zhou3", "sphere")


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
        assert np.allclose(kernels.zhou1_value_np(X), expected, rtol=1e-13, atol=0)

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
        assert np.allclose(kernels.zhou2_value_np(X), expected, rtol=1e-13, atol=0)

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
        assert np.allclose(kernels.zhou3_value_np(X), expected, rtol=1e-13, atol=0)

    def test_sphere_identities(self):
        X = _sample()
        assert np.allclose(kernels.sphere_value_np(X), np.sum(X**2, axis=1))
        assert np.allclose(kernels.sphere_grad_np(X), 2.0 * X)


class TestPathParity:
    """Every name has a value and a gradient kernel in the active tables."""

    @pytest.mark.parametrize("name", NAMES)
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
