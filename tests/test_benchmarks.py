"""Tests for stagbench.benchmarks: optima, gradients, fd oracle, objectives."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from stagbench import benchmarks, verify
from stagbench.core import Bounds, euclidean_norm


class TestOptima:
    def test_zhou1_dim3_certificate_point(self):
        # The dim-3 minimizer is exactly (1, 2, 8).
        opt = benchmarks.optimum("zhou1", 3)
        assert np.array_equal(opt, [1.0, 2.0, 8.0])
        assert benchmarks.value_batch("zhou1", opt[None, :])[0] == 0.0

    def test_zhou1_recursion(self):
        opt = benchmarks.optimum("zhou1", 5)
        assert opt[0] == 1.0
        for i in range(4):
            assert opt[i + 1] == 2.0 * opt[i] ** 2

    def test_zhou1_dim11_is_the_last_finite_optimum(self):
        # x[i] = 2**(2**i - 1) exactly, up to 2**1023 at index 10.
        expected = [np.ldexp(1.0, 2**i - 1) for i in range(11)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt = benchmarks.optimum("zhou1", 11)
        assert np.array_equal(opt, expected)

    def test_zhou1_past_float_range_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt = benchmarks.optimum("zhou1", 12)
        assert opt[10] == 2.0**1023 and opt[11] == np.inf

    @pytest.mark.parametrize("name", ("zhou2", "zhou3"))
    @pytest.mark.parametrize("branch", benchmarks.BRANCHES)
    @pytest.mark.parametrize("dim", (2, 3, 4, 5))
    def test_branch_optima_near_zero(self, name, branch, dim):
        opt = benchmarks.optimum(name, dim, branch)
        assert opt[0] == -1.0
        assert abs(benchmarks.value_batch(name, opt[None, :])[0]) <= 1e-8
        assert np.linalg.norm(benchmarks.gradient_batch(name, opt[None, :])) <= 1e-4

    @pytest.mark.parametrize("branch", benchmarks.BRANCHES)
    @pytest.mark.parametrize("dim", range(6, 13))
    def test_zhou3_optimum_certified_through_dim_12(self, branch, dim):
        # Past dim 12 the rounded minimizer's gradient grows: 0.11 at dim 13.
        opt = benchmarks.optimum("zhou3", dim, branch)[None, :]
        grad = benchmarks.gradient_batch("zhou3", opt)[0]
        assert euclidean_norm(grad) <= verify.OPT_GRAD_TOL

    def test_zhou3_past_float_range_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(benchmarks.optimum("zhou3", 513)).all()
            opt = benchmarks.optimum("zhou3", 1100, "plus")
        assert np.isfinite(opt[:513]).all() and (np.abs(opt[513:]) == np.inf).all()

    def test_branches_differ_only_in_last_coordinate(self):
        minus = benchmarks.optimum("zhou2", 4, "minus")
        plus = benchmarks.optimum("zhou2", 4, "plus")
        assert np.array_equal(minus[:-1], plus[:-1])
        assert minus[-1] == -plus[-1] != 0.0

    def test_optima_listing_dedupes(self):
        # zhou1 has a single optimum; zhou2/zhou3 have two symmetric ones.
        assert len(benchmarks.optima("zhou1", 3)) == 1
        assert len(benchmarks.optima("zhou2", 3)) == 2
        assert len(benchmarks.optima("zhou3", 3)) == 2

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError):
            benchmarks.optimum("zhou2", 3, "sideways")

    def test_dim_below_two_rejected(self):
        with pytest.raises(ValueError):
            benchmarks.optimum("zhou1", 1)

    @pytest.mark.parametrize("dim", (2.5, 3.0, True, "3"))
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(ValueError, match="^dim must be an integer"):
            benchmarks.optimum("zhou1", dim)

    def test_numpy_integer_dim_accepted(self):
        assert np.array_equal(benchmarks.optimum("zhou1", np.int64(3)), [1.0, 2.0, 8.0])


class TestEvaluators:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            benchmarks.value_batch("zhou9", np.zeros((1, 3)))

    @pytest.mark.parametrize("fn", ("value", "gradient"))
    def test_name_checked_before_dimension(self, fn):
        call = getattr(benchmarks, f"{fn}_batch")
        with pytest.raises(ValueError, match="unknown benchmark function"):
            call("zhou9", [[1.0]])
        with pytest.raises(ValueError, match="dim >= 2"):
            call("zhou1", [[1.0]])

    @pytest.mark.parametrize("method", ("value_batch", "gradient_batch"))
    def test_batches_validated(self, method):
        call = getattr(benchmarks, method)
        with pytest.raises(ValueError, match="non-finite"):
            call("zhou1", np.array([[np.nan, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="2-D batch"):
            call("zhou1", np.zeros(3))

    @pytest.mark.parametrize("method", ("value_batch", "gradient_batch", "fd_gradient"))
    @pytest.mark.parametrize(
        "X", ([[0.0, 1.0, 2.0], [3.0]], [[0.0, "a", 1.0]], {}, object(),
              np.array([[1 + 5j, 2.0, 8.0]]), [["1", "2", "8"]], [[True, False, True]]),
        ids=("ragged", "non-numeric", "dict", "object", "complex", "numeric-str",
             "bool"),
    )
    def test_unconvertible_batches_raise_value_error(self, method, X):
        with pytest.raises(ValueError, match="^expected a 2-D batch of points, got "):
            getattr(benchmarks, method)("zhou1", X)

    def test_batch_matches_scalar(self):
        # Each row of a batch gets the bits a one-row batch of it gets.
        gen = np.random.Generator(np.random.PCG64(0))
        X = gen.uniform(-2.0, 2.0, size=(16, 3))
        for name in benchmarks.FUNCTIONS:
            vals = benchmarks.value_batch(name, X)
            grads = benchmarks.gradient_batch(name, X)
            for i in range(len(X)):
                assert vals[i] == benchmarks.value_batch(name, X[i:i + 1])[0]
                assert np.array_equal(
                    grads[i], benchmarks.gradient_batch(name, X[i:i + 1])[0])

    def test_any_memory_layout_gives_the_same_bits(self):
        # A batch is evaluated as given, without a copy into C order.
        gen = np.random.Generator(np.random.PCG64(2))
        X = gen.uniform(-2.0, 2.0, size=(9, 5))
        layouts = (
            np.asfortranarray(X),
            np.repeat(X, 2, axis=0)[::2],
            np.repeat(X, 2, axis=1)[:, ::2],
        )
        for name in benchmarks.FUNCTIONS:
            for fn in (benchmarks.value_batch, benchmarks.gradient_batch):
                want = fn(name, X).tobytes()
                assert all(fn(name, Y).tobytes() == want for Y in layouts)

    def test_values_nonnegative(self):
        gen = np.random.Generator(np.random.PCG64(1))
        X = gen.uniform(-100.0, 100.0, size=(64, 3))
        for name in benchmarks.FUNCTIONS:
            assert np.all(benchmarks.value_batch(name, X) >= 0.0)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            benchmarks.value_batch("zhou1", np.array([[np.nan, 1.0, 1.0]]))


class TestFdGradient:
    def test_near_optimum_fd_is_small(self):
        # At the optima the analytic gradient vanishes; fd retains a
        # truncation floor from the 1e4-frequency ripple (7th derivative
        # times h^6 leaves ~3e-2 for zhou1 at h=1e-7).  The check is that
        # fd sees *no* spurious large gradient there — typical non-optimum
        # gradient norms on these functions are 1e6 and up.
        for name in benchmarks.FUNCTIONS:
            opt = benchmarks.optimum(name, 3)
            fd = benchmarks.fd_gradient(name, opt[None, :])
            assert fd.shape == (1, 3)
            assert np.linalg.norm(fd) <= 0.1

    @pytest.mark.parametrize("dim", (2, 3, 10))
    def test_batch_rows_equal_one_row_calls(self, dim):
        # One value_batch call for all stencils gives each row the bits of
        # its own one-row call.
        X = np.random.Generator(np.random.PCG64(dim)).uniform(-2.0, 2.0, (20, dim))
        for name in benchmarks.FUNCTIONS:
            fd = benchmarks.fd_gradient(name, X)
            assert fd.shape == X.shape
            for i in range(len(X)):
                row = benchmarks.fd_gradient(name, X[i:i + 1])
                assert np.array_equal(fd[i], row[0])

    def test_one_stencil_evaluation_per_call(self, monkeypatch):
        shapes = []
        evaluate = benchmarks.value_batch

        def recording(name, X):
            shapes.append(X.shape)
            return evaluate(name, X)

        monkeypatch.setattr(benchmarks, "value_batch", recording)
        benchmarks.fd_gradient("zhou2", np.ones((4, 3)))
        assert shapes == [(4 * 3 * 6, 3)]

    def test_name_checked_before_the_batch(self):
        with pytest.raises(ValueError, match="unknown benchmark function"):
            benchmarks.fd_gradient("zhou9", np.zeros(3))
        with pytest.raises(ValueError, match="2-D batch"):
            benchmarks.fd_gradient("zhou1", np.zeros(3))


class TestObjectiveFactory:
    @pytest.mark.parametrize("dim", (2.5, 3.0, True, "3"))
    def test_non_integer_dim_rejected(self, dim):
        # The objective's dimension is its box's, so the box owns this rule.
        with pytest.raises(ValueError, match="^dim must be an integer"):
            benchmarks.objective("zhou1", Bounds(-100.0, 100.0, dim))

    @pytest.mark.parametrize("name", benchmarks.FUNCTIONS)
    def test_objective_wires_kernels(self, name):
        obj = benchmarks.objective(name, Bounds(-100.0, 100.0, 3))
        X = np.array([[0.5, -0.5, 1.5], [1.0, 1.0, 1.0]])
        assert np.array_equal(obj.value_batch(X), benchmarks.value_batch(name, X))
        for x, g in zip(X, benchmarks.gradient_batch(name, X)):
            assert np.array_equal(obj.grad(x), g)

    @pytest.mark.parametrize(
        "X", ([["1", "2", "8"]], [[True, True, False]], np.array([[1 + 5j, 2, 8]])),
        ids=("numeric-str", "bool", "complex"),
    )
    def test_value_batch_leaves_the_batch_to_the_evaluator_rule(self, X):
        # Cast to float64 before the rule, these read as the points (1, 2, 8),
        # the optimum, and (1, 1, 0).
        obj = benchmarks.objective("zhou1", Bounds(-100.0, 100.0, 3))
        with pytest.raises(ValueError, match="^expected a 2-D batch of points, got "):
            obj.value_batch(X)

    def test_custom_bounds_respected(self):
        bounds = Bounds(-5.0, 5.0, 3)
        obj = benchmarks.objective("zhou2", bounds)
        assert obj.domain is bounds
