"""Tests for stagbench.core: points, bounds, RNG streams, best tracking."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from stagbench.core import (
    Bounds,
    ObjectiveSpec,
    as_point,
    clamp,
    derive_stream,
    make_tracker,
    update_best,
)


class TestAsPoint:
    def test_list_becomes_float64_vector(self):
        p = as_point([1, 2, 3])
        assert p.dtype == np.float64
        assert p.shape == (3,)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            as_point([1.0, 2.0], dim=3)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_point(np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_point([1.0, np.inf])
        with pytest.raises(ValueError):
            as_point([np.nan])


class TestBounds:
    def test_cube_and_span(self):
        b = Bounds.cube(-100.0, 100.0, 3)
        assert b.dim == 3
        assert np.all(b.span == 200.0)

    def test_clip_and_contains(self):
        b = Bounds.cube(-1.0, 1.0, 2)
        clipped = b.clip(np.array([[2.0, -3.0]]))
        assert np.all(clipped == [[1.0, -1.0]])
        assert b.contains(np.array([0.5, -0.5]))
        assert not b.contains(np.array([1.5, 0.0]))

    def test_interior_contains_excludes_boundary(self):
        b = Bounds.cube(-1.0, 1.0, 2)
        assert b.interior_contains(np.array([0.0, 0.0]))
        assert not b.interior_contains(np.array([1.0, 0.0]))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Bounds(np.array([1.0]), np.array([0.0]))

    def test_bounds_arrays_read_only(self):
        b = Bounds.cube(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            b.lo[0] = -1.0

    def test_clamp_point_into_box(self):
        b = Bounds.cube(0.0, 1.0, 2)
        assert np.array_equal(clamp(np.array([-1.0, 2.0]), b), [0.0, 1.0])

    def test_clamp_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            clamp(np.array([0.0]), Bounds.cube(0.0, 1.0, 2))


class TestRngStreams:
    def test_same_labels_same_draws(self):
        a = derive_stream(42, ["zhou1", "gwo", 100, 0]).generator().random(5)
        b = derive_stream(42, ["zhou1", "gwo", 100, 0]).generator().random(5)
        assert np.array_equal(a, b)

    def test_label_order_matters(self):
        a = derive_stream(42, ["x", "y"]).generator().random(5)
        b = derive_stream(42, ["y", "x"]).generator().random(5)
        assert not np.array_equal(a, b)

    def test_run_index_separates_streams(self):
        a = derive_stream(42, ["f", "a", 100, 0]).generator().random(5)
        b = derive_stream(42, ["f", "a", 100, 1]).generator().random(5)
        assert not np.array_equal(a, b)

    def test_child_stream_differs_from_parent(self):
        s = derive_stream(7, ["root"])
        a = s.generator().random(4)
        b = s.child("sub").generator().random(4)
        assert not np.array_equal(a, b)

    def test_generator_calls_restart_at_origin(self):
        s = derive_stream(7, ["root"])
        assert np.array_equal(s.generator().random(4), s.generator().random(4))

    def test_float_label_rejected(self):
        with pytest.raises(TypeError):
            derive_stream(42, [0.5])

    def test_bool_label_rejected(self):
        with pytest.raises(TypeError):
            derive_stream(42, [True])

    def test_string_and_int_labels_distinct(self):
        a = derive_stream(42, ["1"]).generator().random(3)
        b = derive_stream(42, [1]).generator().random(3)
        assert not np.array_equal(a, b)


class TestBestTracker:
    def test_strict_improvement_only(self):
        t = make_tracker(np.array([0.0, 0.0]), 5.0, gen=0)
        t2 = update_best(t, np.array([1.0, 1.0]), 5.0, gen=3)
        assert t2 is t  # tie keeps incumbent
        t3 = update_best(t, np.array([1.0, 1.0]), 4.9, gen=3)
        assert t3.best_value == 4.9
        assert t3.last_improvement_gen == 3
        assert t3.improvement_count == t.improvement_count + 1

    def test_worse_candidate_keeps_incumbent(self):
        t = make_tracker(np.array([0.0]), 1.0, gen=0)
        assert update_best(t, np.array([9.0]), 2.0, gen=5) is t

    def test_stored_point_isolated_from_caller(self):
        x = np.array([1.0, 2.0])
        t = make_tracker(x, 1.0, gen=0)
        x[0] = -1.0
        assert t.best_point[0] == 1.0
        y = np.array([3.0, 4.0])
        t2 = update_best(t, y, 0.5, gen=1)
        y[0] = -1.0
        assert t2.best_point[0] == 3.0

    def test_non_finite_values_rejected(self):
        t = make_tracker(np.array([0.0]), 1.0, gen=0)
        with pytest.raises(ValueError):
            update_best(t, np.array([0.0]), float("nan"), gen=1)
        with pytest.raises(ValueError):
            make_tracker(np.array([0.0]), float("inf"))

    def test_tracker_is_immutable(self):
        t = make_tracker(np.array([0.0]), 1.0, gen=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.best_value = 0.0  # type: ignore[misc]


class TestObjectiveSpec:
    @staticmethod
    def _quad():
        return ObjectiveSpec(
            name="quad",
            dim=2,
            batch_evaluator=lambda X: np.einsum("ij,ij->i", X, X),
            batch_gradient=lambda X: 2.0 * X,
            domain=Bounds.cube(-1.0, 1.0, 2),
            known_optima=(np.zeros(2),),
        )

    def test_value_and_grad_roundtrip(self):
        spec = self._quad()
        x = np.array([0.25, -0.5])
        assert spec.value(x) == pytest.approx(0.3125)
        assert np.allclose(spec.grad(x), [0.5, -1.0])

    def test_batch_fallback_matches_scalar(self):
        spec = self._quad()
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        vals = spec.value_batch(X)
        assert vals == pytest.approx([0.05, 0.25])
        assert [spec.value(x) for x in X] == vals.tolist()
        grads = spec.batch_gradient(X)
        assert np.allclose(grads, 2.0 * X)
        assert np.array_equal(np.stack([spec.grad(x) for x in X]), grads)

    def test_optimum_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(
                name="bad",
                dim=1,
                batch_evaluator=lambda X: np.zeros(len(X)),
                batch_gradient=lambda X: X * 0.0,
                domain=Bounds.cube(-1.0, 1.0, 1),
                known_optima=(np.array([2.0]),),
            )

    def test_domain_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(
                name="bad",
                dim=3,
                batch_evaluator=lambda X: np.zeros(len(X)),
                batch_gradient=lambda X: X * 0.0,
                domain=Bounds.cube(-1.0, 1.0, 2),
            )
