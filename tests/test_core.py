"""Tests for stagbench.core: points, bounds, RNG streams, best tracking."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from stagbench.core import (
    BestTracker,
    Bounds,
    ObjectiveSpec,
    as_choice,
    as_integer,
    as_points,
    as_real,
    as_sequence,
    derive_stream,
    euclidean_norm,
)

# Inputs numpy cannot turn into float64: ragged, non-numeric, a mapping and
# an arbitrary object.
UNCONVERTIBLE_IDS = ("ragged", "non-numeric", "dict", "object")


class TestAsInteger:
    def test_below_minimum_names_the_field(self):
        with pytest.raises(ValueError, match="^x must be >= 1$"):
            as_integer("x", 0, 1)
        with pytest.raises(ValueError, match="^x must be >= 0$"):
            as_integer("x", np.int64(-1), 0)

    @pytest.mark.parametrize("value", (1, np.int64(1), np.int32(1), np.uint8(1)))
    def test_minimum_itself_is_a_python_int(self, value):
        out = as_integer("x", value, 1)
        assert out == 1 and type(out) is int

    def test_no_minimum_accepts_negatives(self):
        assert as_integer("x", -5) == -5
        assert as_integer("x", np.int64(-2**63), None) == -2**63

    @pytest.mark.parametrize("value", (True, False, 1.0, "1", None))
    def test_non_integers_rejected_before_the_bound(self, value):
        with pytest.raises(ValueError, match="^x must be an integer, got "):
            as_integer("x", value, 1)


class TestAsReal:
    @pytest.mark.parametrize(
        "value, shown",
        ((np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan"),
         (np.float32("inf"), "inf"), (np.float64("nan"), "nan")),
    )
    def test_non_finite_rejected_naming_the_field(self, value, shown):
        with pytest.raises(ValueError, match=f"^y must be finite, got {shown}$"):
            as_real("y", value)

    def test_beyond_float64_keeps_its_message(self):
        with pytest.raises(ValueError, match="^y must be a real number within float64"):
            as_real("y", 10**400)

    @pytest.mark.parametrize("value", (True, "1.0", None, 1j))
    def test_non_reals_rejected(self, value):
        with pytest.raises(ValueError, match="^y must be a real number, got "):
            as_real("y", value)

    def test_finite_reals_become_python_floats(self):
        for value in (0, -3, np.float32(0.5), np.int64(7), 1.7976931348623157e308):
            out = as_real("y", value)
            assert type(out) is float and out == float(value)


class TestAsChoice:
    def test_a_choice_passes(self):
        assert as_choice("fruit", "pear", ("apple", "pear")) is None

    @pytest.mark.parametrize("value", ("kiwi", "", 1, None))
    def test_anything_else_names_the_kind_and_the_choices(self, value):
        with pytest.raises(ValueError) as exc:
            as_choice("fruit", value, ("apple", "pear"))
        assert str(exc.value) == (
            f"unknown fruit {value!r}; expected one of ('apple', 'pear')"
        )


class TestAsSequence:
    @pytest.mark.parametrize(
        "value, entries",
        (
            (["a", "b"], ("a", "b")),
            (("a",), ("a",)),
            ((), ()),
            (range(3), (0, 1, 2)),
            (np.array([4, 5]), (4, 5)),
            ((x for x in "ab"), ("a", "b")),
        ),
        ids=("list", "tuple", "empty", "range", "ndarray", "generator"),
    )
    def test_iterables_become_tuples(self, value, entries):
        out = as_sequence("x", value, "things")
        assert type(out) is tuple and out == entries

    @pytest.mark.parametrize(
        "value",
        ("ab", "", b"ab", bytearray(b"ab"), 5, None, np.int64(5), np.array(5)),
        ids=("str", "empty-str", "bytes", "bytearray", "int", "None", "numpy-int",
             "0-d-array"),
    )
    def test_text_and_non_iterables_rejected_naming_the_field(self, value):
        with pytest.raises(ValueError) as exc:
            as_sequence("x", value, "things")
        assert str(exc.value) == f"x must be a sequence of things, got {value!r}"


# Input numpy converts but the rule refuses: a coordinate is only what numpy
# stores as an integer or a float.  At numpy's own cast a complex point reads
# as its real part and a numeric string parses.
NOT_REAL_POINTS = (np.array([1 + 5j, 2.0, 8.0]), [True, False, True],
                   ["1.5", "2", "8"], [b"1", b"2", b"8"],
                   np.array([1.0, 2.0, 8.0], dtype=object))
NOT_REAL_IDS = ("complex", "bool", "str", "bytes", "object-array")


class TestAsPoints:
    def test_float64_batch_is_returned_without_a_copy(self):
        X = np.zeros((4, 3))
        assert as_points(X) is X
        columns = np.zeros((3, 4)).T
        assert as_points(columns) is columns

    def test_nested_lists_become_a_float64_batch(self):
        X = as_points([[1, 2], [3, 4]])
        assert X.dtype == np.float64 and X.shape == (2, 2)

    @pytest.mark.parametrize("dtype", (np.int8, np.uint64, np.float16, np.float32))
    def test_integer_and_float_arrays_are_read(self, dtype):
        X = as_points(np.array([[1, 2], [3, 4]], dtype=dtype))
        assert X.dtype == np.float64 and np.array_equal(X, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("point", NOT_REAL_POINTS, ids=NOT_REAL_IDS)
    def test_rejects_what_numpy_does_not_store_as_a_real_number(self, point):
        with pytest.raises(ValueError, match="^expected a 2-D batch of points, got "):
            as_points([point])

    @pytest.mark.parametrize("shape", ((3,), (), (2, 2, 2)))
    def test_rejects_anything_but_two_dimensions(self, shape):
        with pytest.raises(ValueError) as exc:
            as_points(np.zeros(shape))
        assert str(exc.value) == f"expected a 2-D batch of points, got shape {shape}"

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_rejects_non_finite_coordinates(self, bad):
        with pytest.raises(ValueError, match="^batch contains non-finite coordinates$"):
            as_points([[0.0, 1.0], [bad, 2.0]])

    def test_empty_batches_pass(self):
        assert as_points(np.zeros((0, 3))).shape == (0, 3)
        assert as_points(np.zeros((2, 0))).shape == (2, 0)

    @pytest.mark.parametrize(
        "bad", ([[1.0, 2.0], [3.0]], [[0.0, "a"]], {}, object()), ids=UNCONVERTIBLE_IDS
    )
    def test_unconvertible_input_names_the_rule(self, bad):
        with pytest.raises(ValueError, match="^expected a 2-D batch of points, got "):
            as_points(bad)


def _identity_spec(dim: int) -> ObjectiveSpec:
    """An objective whose gradient is the point itself, so `grad` returns the
    point it read."""
    return ObjectiveSpec("identity", lambda X: X[:, 0], lambda X: X,
                         Bounds(-1.0, 1.0, dim))


# The readers of a single point, each through the one-row batch
# ``as_points([p])``: the tracker's seed and the gradient audit.  The third,
# ``stagbench bench --point``, is held to the same rule in test_cli.py.
POINT_READERS = (
    lambda p: BestTracker(p, 1.0).best_point,
    lambda p: _identity_spec(3).grad(p),
)


class TestAsPoint:
    """Each reader takes a single point as a one-row batch."""

    def test_list_becomes_float64_vector(self):
        for read in POINT_READERS:
            p = read([1, 2, 3])
            assert p.dtype == np.float64 and p.shape == (3,)
            assert np.array_equal(p, [1.0, 2.0, 3.0])

    def test_dim_mismatch_rejected(self):
        # The gradient audit fixes the dimension; a tracker takes any.
        for point in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
            with pytest.raises(ValueError) as exc:
                _identity_spec(3).grad(point)
            assert str(exc.value) == f"expected a point of dimension 3, got {len(point)}"

    def test_rejects_matrix(self):
        for read in POINT_READERS:
            with pytest.raises(ValueError) as exc:
                read(np.zeros((2, 3)))
            assert str(exc.value) == "expected a 2-D batch of points, got shape (1, 2, 3)"

    def test_rejects_non_finite(self):
        for read in POINT_READERS:
            for bad in ([1.0, np.inf, 0.0], [np.nan, 0.0, 0.0]):
                with pytest.raises(ValueError, match="^batch contains non-finite"):
                    read(bad)

    def test_rejects_empty_point(self):
        with pytest.raises(ValueError) as exc:
            BestTracker([], 1.0)
        assert str(exc.value) == "a seed point must have at least one coordinate"
        with pytest.raises(ValueError, match="^expected a point of dimension 3, got 0$"):
            _identity_spec(3).grad(np.zeros(0))

    @pytest.mark.parametrize("point", NOT_REAL_POINTS, ids=NOT_REAL_IDS)
    def test_rejects_what_numpy_does_not_store_as_a_real_number(self, point):
        for read in POINT_READERS:
            with pytest.raises(ValueError, match="^expected a 2-D batch of points, got "):
                read(point)

    @pytest.mark.parametrize(
        "bad", ([1.0, [2.0], 3.0], [0.0, "a", 1.0], {}, object()), ids=UNCONVERTIBLE_IDS
    )
    def test_unconvertible_input_names_the_rule(self, bad):
        for read in POINT_READERS:
            with pytest.raises(ValueError, match="^expected a 2-D batch of points, got "):
                read(bad)


class TestBounds:
    def test_cube_and_span(self):
        b = Bounds(-100.0, 100.0, 3)
        assert [f.name for f in dataclasses.fields(Bounds)] == ["lo", "hi", "dim"]
        assert (b.lo, b.hi, b.dim, b.span) == (-100.0, 100.0, 3, 200.0)

    def test_fields_become_python_scalars(self):
        b = Bounds(np.float32(-1.5), 2, np.int64(4))
        assert (b.lo, b.hi, b.dim) == (-1.5, 2.0, 4)
        assert (type(b.lo), type(b.hi), type(b.dim)) == (float, float, int)

    def test_clip_and_contains(self):
        # A point lies in the box exactly when clipping leaves it unchanged.
        b = Bounds(-1.0, 1.0, 2)
        clipped = b.clip(np.array([[2.0, -3.0]]))
        assert np.all(clipped == [[1.0, -1.0]])
        inside, outside = np.array([0.5, -0.5]), np.array([1.5, 0.0])
        assert np.array_equal(b.clip(inside), inside)
        assert not np.array_equal(b.clip(outside), outside)

    @pytest.mark.parametrize("dim", (2, 3, 10))
    def test_clip_matches_per_dimension_arrays(self, dim):
        b = Bounds(-100.0, 100.0, dim)
        X = np.random.Generator(np.random.PCG64(dim)).normal(0.0, 150.0, (54, dim))
        X[0, 0], X[1, -1] = -0.0, 100.0
        lo, hi = np.full(dim, -100.0), np.full(dim, 100.0)
        for P in (X, X[0]):
            assert b.clip(P).view(np.uint64).tolist() == P.clip(lo, hi).view(np.uint64).tolist()

    def test_rejects_inverted_bounds(self):
        for lo, hi in ((1.0, 0.0), (0.5, 0.5), (-0.0, 0.0)):
            with pytest.raises(ValueError, match=f"strictly below.*lo={lo}, hi={hi}$"):
                Bounds(lo, hi, 2)

    def test_rejects_box_wider_than_float64_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="bounds must have a finite width hi - lo"):
                Bounds(-1e308, 1e308, 2)
            assert np.isfinite(Bounds(-8e307, 8e307, 2).span)

    @pytest.mark.parametrize(
        "kwargs, message",
        (
            (dict(lo="a"), "^lo must be a real number"),
            (dict(hi=None), "^hi must be a real number"),
            (dict(lo=True), "^lo must be a real number"),
            (dict(hi=10**400), "^hi must be a real number within float64"),
            (dict(lo=-np.inf), "^lo must be finite, got -inf$"),
            (dict(hi=np.inf), "^hi must be finite, got inf$"),
            (dict(lo=np.nan), "^lo must be finite, got nan$"),
            (dict(dim=0), "^dim must be >= 1$"),
            (dict(dim=-3), "^dim must be >= 1$"),
            (dict(dim=2.0), "^dim must be an integer"),
            (dict(dim=True), "^dim must be an integer"),
            (dict(dim="3"), "^dim must be an integer"),
        ),
    )
    def test_rejects_bad_field_naming_it(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Bounds(**{"lo": -1.0, "hi": 1.0, "dim": 2, **kwargs})

    def test_box_is_frozen(self):
        b = Bounds(0.0, 1.0, 2)
        for field, value in (("lo", -1.0), ("hi", 2.0), ("dim", 3)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(b, field, value)
        assert (b.lo, b.hi, b.dim) == (0.0, 1.0, 2)


class TestRngStreams:
    """The numpy Generators `derive_stream` returns, one per label path.  The
    class keeps the name it had under the old stream type, so its test ids
    stay the same."""

    def test_same_labels_same_draws(self):
        a = derive_stream(42, ["zhou1", "gwo", 100, 0]).random(5)
        b = derive_stream(42, ["zhou1", "gwo", 100, 0]).random(5)
        assert np.array_equal(a, b)

    def test_draws_are_pinned(self):
        # The stream a grid run draws from; a change here moves every grid.
        draws = derive_stream(42, ["zhou1", "gwo", 100, 0]).random(3)
        assert draws.tolist() == [
            0.8526487748515433, 0.6377894063555264, 0.9143554610431562,
        ]

    def test_label_order_matters(self):
        a = derive_stream(42, ["x", "y"]).random(5)
        b = derive_stream(42, ["y", "x"]).random(5)
        assert not np.array_equal(a, b)

    def test_run_index_separates_streams(self):
        a = derive_stream(42, ["f", "a", 100, 0]).random(5)
        b = derive_stream(42, ["f", "a", 100, 1]).random(5)
        assert not np.array_equal(a, b)

    def test_child_stream_differs_from_parent(self):
        # A longer label path gives a different stream.
        a = derive_stream(7, ["root"]).random(4)
        b = derive_stream(7, ["root", "sub"]).random(4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", (1.5, True, np.True_, "1", None))
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="^base_seed must be an integer"):
            derive_stream(seed, ["root"])

    def test_numpy_integer_seed_accepted(self):
        a = derive_stream(np.int64(7), ["root"]).random(4)
        assert np.array_equal(a, derive_stream(7, ["root"]).random(4))

    def test_float_label_rejected(self):
        with pytest.raises(TypeError):
            derive_stream(42, [0.5])

    def test_bool_label_rejected(self):
        with pytest.raises(TypeError):
            derive_stream(42, [True])

    @pytest.mark.parametrize("labels", ("ab", b"ab"), ids=("str", "bytes"))
    def test_bare_string_label_path_rejected(self, labels):
        # Iterated, "ab" would address the path ["a", "b"].
        with pytest.raises(ValueError, match="^labels must be a sequence"):
            derive_stream(1, labels)

    @pytest.mark.parametrize("labels", (5, None), ids=("int", "None"))
    def test_non_iterable_label_path_rejected(self, labels):
        with pytest.raises(ValueError, match="^labels must be a sequence of labels, got "):
            derive_stream(1, labels)

    def test_string_and_int_labels_distinct(self):
        a = derive_stream(42, ["1"]).random(3)
        b = derive_stream(42, [1]).random(3)
        assert not np.array_equal(a, b)


class TestBestTracker:
    def test_strict_improvement_only(self):
        t = BestTracker(np.array([0.0, 0.0]), 5.0)
        t.fold(np.array([[1.0, 1.0]]), np.array([5.0]), gen=3)
        # tie keeps incumbent
        assert np.array_equal(t.best_point, [0.0, 0.0])
        assert (t.best_value, t.last_improvement_gen, t.improvement_count) == (5.0, 0, 0)
        t.fold(np.array([[1.0, 1.0]]), np.array([4.9]), gen=3)
        assert t.best_value == 4.9
        assert t.last_improvement_gen == 3
        assert t.improvement_count == 1

    def test_worse_candidate_keeps_incumbent(self):
        t = BestTracker(np.array([0.0]), 1.0)
        point = t.best_point
        t.fold(np.array([[9.0]]), np.array([2.0]), gen=5)
        assert t.best_point is point
        assert (t.best_value, t.last_improvement_gen, t.improvement_count) == (1.0, 0, 0)

    def test_fold_keeps_first_strict_winner_in_row_order(self):
        t = BestTracker(np.zeros(2), 10.0)
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        t.fold(X, np.array([9.0, 11.0, 8.0, 8.0]), gen=4)
        assert t.best_value == 8.0
        assert np.array_equal(t.best_point, [3.0, 3.0])
        assert t.improvement_count == 2
        assert t.last_improvement_gen == 4

    def test_stored_point_isolated_from_caller(self):
        x = np.array([1.0, 2.0])
        t = BestTracker(x, 1.0)
        x[0] = -1.0
        assert t.best_point[0] == 1.0
        Y = np.array([[3.0, 4.0]])
        t.fold(Y, np.array([0.5]), gen=1)
        Y[0, 0] = -1.0
        assert t.best_point[0] == 3.0

    def test_non_finite_values_rejected(self):
        for seed in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                BestTracker(np.array([0.0]), seed)
        t = BestTracker(np.array([0.0]), 1.0)
        t.fold(np.array([[1.0], [2.0]]), np.array([np.nan, np.inf]), gen=1)
        assert (t.best_value, t.improvement_count) == (1.0, 0)

    @pytest.mark.parametrize("seed", (True, np.bool_(False), "1.0", None, 1 + 0j))
    def test_seed_value_is_read_by_the_real_rule(self, seed):
        # At numpy's own checks a bool seed was stored as 1.0 or 0.0, and a
        # string, None or complex seed raised TypeError.
        with pytest.raises(ValueError) as exc:
            BestTracker(np.zeros(2), seed)
        assert str(exc.value) == f"best_value must be a real number, got {seed!r}"

    def test_best_point_read_before_fold_keeps_values(self):
        t = BestTracker(np.array([1.0, 2.0]), 1.0)
        before = t.best_point
        t.fold(np.array([[5.0, 6.0], [7.0, 8.0]]), np.array([0.5, 0.25]), gen=1)
        assert np.array_equal(before, [1.0, 2.0])
        assert np.array_equal(t.best_point, [7.0, 8.0])
        later = t.best_point
        t.fold(np.array([[0.0, 0.0]]), np.array([0.125]), gen=2)
        assert np.array_equal(later, [7.0, 8.0])


class TestEuclideanNorm:
    def test_equals_linalg_norm_where_that_is_finite(self):
        gen = np.random.Generator(np.random.PCG64(3))
        for dim in (1, 2, 3, 10):
            for scale in (1e-300, 1.0, 1e150):
                v = gen.normal(size=dim) * scale
                assert euclidean_norm(v) == float(np.linalg.norm(v))

    def test_finite_vector_whose_squares_overflow(self):
        v = np.array([3e200, -4e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert euclidean_norm(v) == float(np.hypot(3e200, 4e200))
            assert euclidean_norm(np.array([-1e300])) == 1e300

    def test_norm_past_float64_and_non_finite_entries(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert euclidean_norm(np.array([1.5e308, 1.5e308])) == np.inf
            assert euclidean_norm(np.array([np.inf, 1.0])) == np.inf
            assert np.isnan(euclidean_norm(np.array([np.nan, 1e200])))


class TestObjectiveSpec:
    @staticmethod
    def _quad():
        return ObjectiveSpec(
            name="quad",
            batch_evaluator=lambda X: np.einsum("ij,ij->i", X, X),
            batch_gradient=lambda X: 2.0 * X,
            domain=Bounds(-1.0, 1.0, 2),
        )

    def test_value_and_grad_roundtrip(self):
        spec = self._quad()
        x = np.array([0.25, -0.5])
        assert spec.value_batch(x[None, :]) == pytest.approx([0.3125])
        assert np.allclose(spec.grad(x), [0.5, -1.0])

    def test_batch_fallback_matches_scalar(self):
        spec = self._quad()
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        vals = spec.value_batch(X)
        assert vals == pytest.approx([0.05, 0.25])
        assert [spec.value_batch(x[None, :])[0] for x in X] == vals.tolist()
        grads = spec.batch_gradient(X)
        assert np.allclose(grads, 2.0 * X)
        assert np.array_equal(np.stack([spec.grad(x) for x in X]), grads)

    def test_dim_is_the_domain_dim(self):
        spec = self._quad()
        assert not hasattr(spec, "dim")
        assert spec.grad(np.zeros(spec.domain.dim)).shape == (2,)
        for size in (1, 3):
            with pytest.raises(ValueError, match=f"dimension 2, got {size}"):
                spec.grad(np.zeros(size))
