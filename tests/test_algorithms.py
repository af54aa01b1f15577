"""Tests for stagbench.algorithms: uniform interface across all six optimizers."""

from __future__ import annotations

import numpy as np
import pytest

import stagbench.algorithms as algos
from stagbench.benchmarks import objective, sphere_objective
from stagbench.core import Bounds, ObjectiveSpec, derive_stream, make_tracker


def _stream(algorithm, seed=42):
    return derive_stream(seed, ["test", algorithm])


def _fresh_state(algorithm, obj=None, seed=42, horizon=1000):
    obj = obj or objective("zhou2", 3)
    params = algos.default_params(algorithm, obj.dim, schedule_horizon=horizon)
    return algos.init(algorithm, params, obj, _stream(algorithm, seed))


class CountingObjective:
    """Wrap an ObjectiveSpec so every evaluated point is counted."""

    def __init__(self, inner: ObjectiveSpec):
        self.count = 0

        def counted(X, _inner=inner):
            self.count += X.shape[0]
            return _inner.batch_evaluator(X)

        self.spec = ObjectiveSpec(
            name=inner.name,
            dim=inner.dim,
            batch_evaluator=counted,
            batch_gradient=inner.batch_gradient,
            domain=inner.domain,
            known_optima=inner.known_optima,
        )


class TestParamSet:
    def test_defaults_table_has_all_algorithms(self):
        table = algos.defaults_table()
        for algorithm in algos.ALGORITHMS:
            assert any(k.startswith(algorithm + ".") for k in table)

    def test_published_defaults_spot_checks(self):
        table = algos.defaults_table()
        assert table["gl25.pop_size"] == 60.0
        assert table["clpso.acceleration"] == pytest.approx(1.49445)
        assert table["clpso.refreshing_gap"] == 7.0
        assert table["lshade.pop_init_factor"] == 18.0
        assert table["lshade.memory_size"] == 6.0
        assert table["gwo.pop_size"] == 30.0
        assert table["hho.levy_beta"] == pytest.approx(1.5)

    def test_lshade_population_scales_with_dim(self):
        p3 = algos.default_params("lshade", 3)
        p5 = algos.default_params("lshade", 5)
        assert p3.pop_size == 54
        assert p5.pop_size == 90

    def test_extra_mapping_read_only(self):
        params = algos.default_params("woa", 3)
        with pytest.raises(TypeError):
            params.extra["spiral_b"] = 2.0  # type: ignore[index]

    def test_get_unknown_key_raises(self):
        params = algos.default_params("gwo", 3)
        with pytest.raises(KeyError):
            params.get("nonexistent")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            algos.default_params("cmaes", 3)


class TestHelpers:
    def test_sentinel_values_masks_non_finite(self):
        raw = np.array([1.0, np.nan, -np.inf, 2.0])
        out = algos.sentinel_values(raw)
        assert out[0] == 1.0 and out[3] == 2.0
        assert out[1] == np.inf and out[2] == np.inf

    def test_track_batch_matches_sequential_fold(self):
        tracker = make_tracker(np.zeros(2), 10.0, gen=0)
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        vals = np.array([9.0, 11.0, 8.0, 8.0])
        out = algos.track_batch(tracker, X, vals, gen=4)
        assert out.best_value == 8.0
        assert np.array_equal(out.best_point, [3.0, 3.0])  # first strict winner
        assert out.improvement_count == 2

    def test_schedule_fraction_clips(self):
        assert algos.schedule_fraction(0, 100) == 0.0
        assert algos.schedule_fraction(50, 100) == 0.5
        assert algos.schedule_fraction(250, 100) == 1.0


@pytest.mark.parametrize("algorithm", algos.ALGORITHMS)
class TestUniformInterface:
    def test_init_shape_and_accounting(self, algorithm):
        state = _fresh_state(algorithm)
        n = state.params.pop_size
        assert state.population.shape == (n, 3)
        assert state.values.shape == (n,)
        assert state.generation == 0
        assert state.evaluations == n
        assert state.objective.domain.contains(state.population.min(axis=0))
        assert state.objective.domain.contains(state.population.max(axis=0))
        assert state.tracker.best_value == state.values.min()

    def test_step_monotone_best_and_in_bounds(self, algorithm):
        state = _fresh_state(algorithm)
        best = state.tracker.best_value
        for _ in range(30):
            state = algos.step(state)
            assert state.tracker.best_value <= best
            best = state.tracker.best_value
            lo, hi = state.objective.domain.lo, state.objective.domain.hi
            assert np.all(state.population >= lo)
            assert np.all(state.population <= hi)
        assert state.generation == 30

    def test_best_is_consistent_with_population_history(self, algorithm):
        state = _fresh_state(algorithm)
        point, value = algos.best(state)
        assert value == state.tracker.best_value
        assert state.objective.value(point) == pytest.approx(value, rel=1e-12)

    def test_bitwise_determinism(self, algorithm):
        run = []
        for _ in range(2):
            state = _fresh_state(algorithm, seed=7)
            for _ in range(15):
                state = algos.step(state)
            run.append(state)
        a, b = run
        assert np.array_equal(a.population, b.population)
        assert np.array_equal(a.values, b.values)
        assert a.tracker.best_value == b.tracker.best_value
        assert np.array_equal(a.tracker.best_point, b.tracker.best_point)
        assert a.evaluations == b.evaluations

    def test_seed_changes_trajectory(self, algorithm):
        a = _fresh_state(algorithm, seed=1)
        b = _fresh_state(algorithm, seed=2)
        for _ in range(5):
            a = algos.step(a)
            b = algos.step(b)
        assert not np.array_equal(a.population, b.population)

    def test_evaluation_count_is_exact(self, algorithm):
        counting = CountingObjective(objective("zhou2", 3))
        params = algos.default_params(algorithm, 3, schedule_horizon=500)
        state = algos.init(algorithm, params, counting.spec, _stream(algorithm))
        for _ in range(12):
            state = algos.step(state)
        assert state.evaluations == counting.count

    def test_best_point_stored_value_matches_reeval(self, algorithm):
        state = _fresh_state(algorithm, seed=3)
        for _ in range(25):
            state = algos.step(state)
        point, value = algos.best(state)
        assert np.isfinite(value)
        assert state.objective.value(point) == pytest.approx(value, rel=1e-12)

    def test_sphere_descent_direction(self, algorithm):
        # 60 generations on the sphere must improve on the initial sample:
        # a pure sanity check far weaker than the acceptance smoke test.
        obj = sphere_objective(3)
        params = algos.default_params(algorithm, 3, schedule_horizon=500)
        state = algos.init(algorithm, params, obj, _stream(algorithm, seed=1))
        v0 = state.tracker.best_value
        for _ in range(60):
            state = algos.step(state)
        assert state.tracker.best_value < v0


class TestLshadeSpecifics:
    def test_population_shrinks_over_schedule(self):
        obj = objective("zhou1", 3)
        params = algos.default_params("lshade", 3, schedule_horizon=100)
        state = algos.init("lshade", params, obj, _stream("lshade"))
        n0 = state.population.shape[0]
        for _ in range(100):
            state = algos.step(state)
        n_final = state.population.shape[0]
        assert n_final == int(params.get("pop_min"))
        assert n_final < n0

    def test_archive_capacity_respected(self):
        obj = objective("zhou2", 3)
        params = algos.default_params("lshade", 3, schedule_horizon=200)
        state = algos.init("lshade", params, obj, _stream("lshade", seed=4))
        rate = params.get("archive_rate")
        for _ in range(50):
            state = algos.step(state)
            cap = max(1, int(np.floor(rate * state.population.shape[0] + 0.5)))
            assert state.memory["archive"].shape[0] <= cap


class TestClpsoSpecifics:
    def test_velocity_capped(self):
        obj = objective("zhou3", 3)
        params = algos.default_params("clpso", 3, schedule_horizon=500)
        state = algos.init("clpso", params, obj, _stream("clpso", seed=5))
        vmax = params.get("vmax_fraction") * float(obj.domain.span[0])
        for _ in range(40):
            state = algos.step(state)
            assert np.all(np.abs(state.memory["velocity"]) <= vmax + 1e-12)

    def test_pbest_never_worse_than_current(self):
        obj = objective("zhou2", 3)
        params = algos.default_params("clpso", 3, schedule_horizon=500)
        state = algos.init("clpso", params, obj, _stream("clpso", seed=6))
        for _ in range(40):
            state = algos.step(state)
            assert np.all(state.memory["pbest_vals"] <= state.values + 1e-15)
