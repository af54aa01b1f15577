"""Tests for stagbench.algorithms: uniform interface across all six optimizers."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import sphere_objective

import stagbench.algorithms as algos
from stagbench import benchmarks
from stagbench.algorithms import clpso, gl25, gwo, hho, lshade, woa
from stagbench.benchmarks import objective
from stagbench.core import BestTracker, Bounds, ObjectiveSpec, derive_stream


def _stream(algorithm, seed=42):
    return derive_stream(seed, ["test", algorithm])


def _fresh_state(algorithm, obj=None, seed=42, horizon=1000):
    obj = obj or objective("zhou2", Bounds(-100.0, 100.0, 3))
    return algos.init(algorithm, obj, _stream(algorithm, seed), horizon)


# Objective outputs with the non-finite kinds the evaluation tail masks.
_TABLE = np.array([9.0, np.nan, 4.0, -np.inf, 4.0])


def _table_objective(inner: ObjectiveSpec) -> ObjectiveSpec:
    """`inner` with NaN or -inf in place of its value wherever the first
    coordinate's thousandths pick a non-finite `_TABLE` entry."""

    def table(X, _inner=inner):
        special = _TABLE[(np.floor(np.abs(X[:, 0]) * 1e3) % _TABLE.size).astype(int)]
        return np.where(np.isfinite(special), _inner.batch_evaluator(X), special)

    return ObjectiveSpec(
        name="table",
        batch_evaluator=table,
        batch_gradient=inner.batch_gradient,
        domain=inner.domain,
    )


class CountingObjective:
    """Wrap an ObjectiveSpec so every evaluated point is counted."""

    def __init__(self, inner: ObjectiveSpec):
        self.count = 0

        def counted(X, _inner=inner):
            self.count += X.shape[0]
            return _inner.batch_evaluator(X)

        self.spec = ObjectiveSpec(
            name=inner.name,
            batch_evaluator=counted,
            batch_gradient=inner.batch_gradient,
            domain=inner.domain,
        )


class TestParamSet:
    """The published parameters: module constants in each algorithm body, and
    the initial population `init` draws with them.  The class keeps the name
    it had under the old parameter-set type, so its test ids stay the same."""

    def test_defaults_table_has_all_algorithms(self):
        for algorithm in algos.ALGORITHMS:
            size = algos._module(algorithm).pop_size(3)
            assert type(size) is int and size >= 4

    def test_published_defaults_spot_checks(self):
        assert gl25.POP_SIZE == 60
        assert clpso.ACCELERATION == 1.49445
        assert clpso.REFRESHING_GAP == 7
        assert lshade.POP_INIT_FACTOR == 18
        assert lshade.MEMORY_SIZE == 6
        assert gwo.POP_SIZE == 30
        assert hho.LEVY_BETA == 1.5

    def test_lshade_population_scales_with_dim(self):
        for dim, size in ((3, 54), (5, 90)):
            obj = objective("zhou2", Bounds(-100.0, 100.0, dim))
            state = _fresh_state("lshade", obj)
            assert state.population.shape == (size, dim)
            assert lshade.pop_size(dim) == size

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="^unknown algorithm 'cmaes'"):
            _fresh_state("cmaes")

    @pytest.mark.parametrize("horizon", (2.5, True, "7"))
    def test_non_integer_schedule_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="^schedule_horizon must be an integer"):
            _fresh_state("gwo", horizon=horizon)

    def test_schedule_horizon_below_one_rejected(self):
        with pytest.raises(ValueError, match="^schedule_horizon must be >= 1$"):
            _fresh_state("gwo", horizon=0)


class TestHelpers:
    def test_sentinel_values_masks_non_finite(self):
        raw = np.array([1.0, np.nan, -np.inf, 2.0])
        out = algos.sentinel_values(raw)
        assert out[0] == 1.0 and out[3] == 2.0
        assert out[1] == np.inf and out[2] == np.inf

    def test_evaluate_clamps_sentinels_folds_and_counts(self):
        seen = []

        def table(X):
            seen.append(X.copy())
            return _TABLE.copy()

        state = _fresh_state("gwo", sphere_objective(2))
        state.objective = ObjectiveSpec(
            name="table",
            batch_evaluator=table,
            batch_gradient=lambda X: np.zeros_like(X),
            domain=Bounds(-1.0, 1.0, 2),
        )
        state.tracker = BestTracker(np.zeros(2), 10.0)
        state.generation, state.evaluations = 7, 100
        population = state.population
        X = np.array([[5.0, 0.0], [-3.0, 0.9], [0.3, -7.0], [0.2, 0.0], [0.5, 0.0]])
        clamped = np.array(
            [[1.0, 0.0], [-1.0, 0.9], [0.3, -1.0], [0.2, 0.0], [0.5, 0.0]]
        )

        got_X, got_vals = algos.evaluate(state, X)

        assert np.array_equal(got_X, clamped)
        assert len(seen) == 1 and np.array_equal(seen[0], clamped)
        assert np.array_equal(got_vals, [9.0, np.inf, 4.0, np.inf, 4.0])
        # Rows fold in order: 9 then 4 improve, the second 4 ties.
        assert state.tracker.best_value == 4.0
        assert np.array_equal(state.tracker.best_point, [0.3, -1.0])
        assert state.tracker.improvement_count == 2
        assert state.tracker.last_improvement_gen == 8
        assert state.evaluations == 105
        assert state.generation == 7 and state.population is population

    def test_schedule_fraction_clips(self):
        assert algos.schedule_fraction(0, 100) == 0.0
        assert algos.schedule_fraction(50, 100) == 0.5
        assert algos.schedule_fraction(250, 100) == 1.0


def _generator(seed, half_used):
    gen = np.random.Generator(np.random.PCG64(seed))
    if half_used:
        gen.integers(0, 7)  # a 32-bit draw keeps the other half of 64 bits
        assert gen.bit_generator.state["has_uint32"] == 1
    return gen


@pytest.mark.parametrize("half_used", (False, True))
@pytest.mark.parametrize("n", (2, 3, 7, 54, 1000))
class TestDrawEquivalences:
    """The step bodies replace some Generator calls by calls shown here to
    return the same numbers and leave the same generator state."""

    @pytest.mark.parametrize("k", (1, 2, 3, 10))
    def test_scalar_draws_equal_one_sized_draw(self, n, half_used, k):
        a, b = _generator(n, half_used), _generator(n, half_used)
        scalars = [a.integers(0, n) for _ in range(k)]
        sized = b.integers(0, n, size=k)
        assert scalars == sized.tolist()
        assert a.bit_generator.state == b.bit_generator.state
        assert a.integers(0, 2**40) == b.integers(0, 2**40)

    def test_block_of_four_equals_four_uniform_draws(self, n, half_used):
        a, b = _generator(n, half_used), _generator(n, half_used)
        rows = [a.random(n) for _ in range(4)]
        block = b.random((4, n))
        assert np.array_equal(np.stack(rows), block)
        assert a.bit_generator.state == b.bit_generator.state
        assert a.integers(0, 2**40) == b.integers(0, 2**40)

    @pytest.mark.parametrize("dim", (1, 3, 10))
    def test_pair_block_equals_two_normal_draws(self, n, half_used, dim):
        a, b = _generator(n, half_used), _generator(n, half_used)
        pair = [a.standard_normal((n, dim)) for _ in range(2)]
        block = b.standard_normal((2, n, dim))
        assert np.array_equal(np.stack(pair), block)
        assert a.bit_generator.state == b.bit_generator.state
        assert a.integers(0, 2**40) == b.integers(0, 2**40)

    def test_broadcast_draw_equals_scalar_draw_per_high(self, n, half_used):
        highs = np.arange(n, max(1, n - 25), -1)
        a, b = _generator(n + 1, half_used), _generator(n + 1, half_used)
        scalars = [a.integers(0, h) for h in highs]
        broadcast = b.integers(0, highs)
        assert scalars == broadcast.tolist()
        assert a.bit_generator.state == b.bit_generator.state
        assert a.integers(0, 2**40) == b.integers(0, 2**40)


@pytest.mark.parametrize("algorithm", algos.ALGORITHMS)
class TestUniformInterface:
    def test_init_shape_and_accounting(self, algorithm):
        state = _fresh_state(algorithm)
        assert state.algorithm == algorithm
        n = algos._module(algorithm).pop_size(3)
        assert state.population.shape == (n, 3)
        assert state.values.shape == (n,)
        assert state.generation == 0
        assert state.evaluations == n
        assert np.array_equal(
            state.objective.domain.clip(state.population), state.population
        )
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

    def test_step_stores_body_result_in_the_same_state(self, algorithm, monkeypatch):
        state = _fresh_state(algorithm)
        body = algos._module(algorithm).step
        returned = []

        def recording_body(s):
            returned.append(body(s))
            return returned[-1]

        monkeypatch.setattr(algos._module(algorithm), "step", recording_body)
        for g in (1, 2):
            assert algos.step(state) is state
            assert state.generation == g
            assert state.population is returned[-1][0]
            assert state.values is returned[-1][1]

    def test_best_is_consistent_with_population_history(self, algorithm):
        state = _fresh_state(algorithm)
        point, value = algos.best(state)
        assert value == state.tracker.best_value
        reevaluated = benchmarks.value_batch(state.objective.name, point[None, :])
        assert reevaluated[0] == pytest.approx(value, rel=1e-12)

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
        counting = CountingObjective(objective("zhou2", Bounds(-100.0, 100.0, 3)))
        state = algos.init(algorithm, counting.spec, _stream(algorithm), 500)
        for _ in range(12):
            state = algos.step(state)
        assert state.evaluations == counting.count

    def test_best_point_stored_value_matches_reeval(self, algorithm):
        state = _fresh_state(algorithm, seed=3)
        for _ in range(25):
            state = algos.step(state)
        point, value = algos.best(state)
        assert np.isfinite(value)
        reevaluated = benchmarks.value_batch(state.objective.name, point[None, :])
        assert reevaluated[0] == pytest.approx(value, rel=1e-12)

    def test_sphere_descent_direction(self, algorithm):
        # 60 generations on the sphere must improve on the initial sample:
        # a pure sanity check far weaker than the acceptance smoke test.
        obj = sphere_objective(3)
        state = algos.init(algorithm, obj, _stream(algorithm, seed=1), 500)
        v0 = state.tracker.best_value
        for _ in range(60):
            state = algos.step(state)
        assert state.tracker.best_value < v0


class TestLshadeSpecifics:
    def test_population_shrinks_over_schedule(self):
        obj = objective("zhou1", Bounds(-100.0, 100.0, 3))
        state = algos.init("lshade", obj, _stream("lshade"), 100)
        n0 = state.population.shape[0]
        for _ in range(100):
            state = algos.step(state)
        n_final = state.population.shape[0]
        assert n_final == lshade.POP_MIN
        assert n_final < n0

    @pytest.mark.parametrize("table", (False, True), ids=("zhou1", "table"))
    def test_schedule_and_memory_slot_at_every_generation(self, monkeypatch, table):
        # The population size follows the schedule exactly, and the memory
        # slot advances on exactly the generations with a strict win.
        horizon = 100
        obj = objective("zhou1", Bounds(-100.0, 100.0, 3))
        if table:
            obj = _table_objective(obj)
        state = algos.init("lshade", obj, _stream("lshade"), horizon)
        n_init = lshade.pop_size(3)
        assert state.population.shape[0] == n_init
        trial_vals = []
        evaluate = lshade.evaluate

        def recording(state, X):
            out = evaluate(state, X)
            trial_vals.append(out[1])
            return out

        monkeypatch.setattr(lshade, "evaluate", recording)
        wins = sentinel_wins = 0
        for g in range(1, horizon + 1):
            parent_vals, k = state.values, state.memory["k"]
            state = algos.step(state)
            won = trial_vals[-1] < parent_vals
            frac = algos.schedule_fraction(g, horizon)
            n = lshade._round_half_up(n_init + (lshade.POP_MIN - n_init) * frac)
            assert state.population.shape[0] == n
            assert state.memory["k"] == (k + won.any()) % lshade.MEMORY_SIZE
            wins += won.any()
            sentinel_wins += (won & np.isinf(parent_vals)).any()
        assert n == lshade.POP_MIN
        assert 0 < wins < horizon
        assert (sentinel_wins > 0) == table

    def test_archive_capacity_respected(self):
        obj = objective("zhou2", Bounds(-100.0, 100.0, 3))
        state = algos.init("lshade", obj, _stream("lshade", seed=4), 200)
        for _ in range(50):
            state = algos.step(state)
            cap = max(1, int(np.floor(lshade.ARCHIVE_RATE * state.population.shape[0] + 0.5)))
            assert state.memory["archive"].shape[0] <= cap


@pytest.mark.parametrize(
    "algorithm, keys",
    (
        ("gwo", {"beta", "delta"}),
        ("lshade", {"m_f", "m_cr", "k", "archive"}),
        ("clpso", {"velocity", "pbest", "pbest_vals", "flags", "exemplar"}),
    ),
)
def test_memory_holds_only_what_a_run_changes(algorithm, keys):
    assert set(_fresh_state(algorithm).memory) == keys


def _reference_leaders(leaders: dict, X: np.ndarray, vals: np.ndarray) -> None:
    """GWO's three-slot if/elif cascade with alpha kept as (point, value)
    beside beta and delta, offered every row in row order."""
    for x, v in zip(X, vals.tolist()):
        if v < leaders["alpha"][1]:
            leaders["alpha"] = (x.copy(), v)
        elif v < leaders["beta"][1]:
            leaders["beta"] = (x.copy(), v)
        elif v < leaders["delta"][1]:
            leaders["delta"] = (x.copy(), v)


def _leader_bits(leader):
    point, value = leader
    bits = None if point is None else point.view(np.uint64).tolist()
    return bits, np.float64(value).view(np.uint64)


class TestGwoLeaders:
    @pytest.mark.parametrize(
        "name, dim, table",
        (("zhou1", 3, False), ("zhou3", 10, False), ("zhou1", 3, True)),
        ids=("zhou1-d3", "zhou3-d10", "table-d3"),
    )
    def test_alpha_is_the_trackers_best_at_every_generation(self, name, dim, table):
        obj = objective(name, Bounds(-100.0, 100.0, dim))
        if table:
            obj = _table_objective(obj)
        state = algos.init("gwo", obj, _stream("gwo"), 1000)
        leaders = {k: (None, np.inf) for k in ("alpha", "beta", "delta")}
        _reference_leaders(leaders, state.population, state.values)
        for _ in range(300):
            # GWO's population is exactly the rows its step evaluated.
            state = algos.step(state)
            _reference_leaders(leaders, state.population, state.values)
            tracker = (state.tracker.best_point, state.tracker.best_value)
            assert _leader_bits(leaders["alpha"]) == _leader_bits(tracker)
            for k in ("beta", "delta"):
                assert _leader_bits(leaders[k]) == _leader_bits(state.memory[k])


class TestClpsoSpecifics:
    def test_velocity_capped(self):
        obj = objective("zhou3", Bounds(-100.0, 100.0, 3))
        state = algos.init("clpso", obj, _stream("clpso", seed=5), 500)
        vmax = clpso.VMAX_FRACTION * obj.domain.span
        for _ in range(40):
            state = algos.step(state)
            assert np.all(np.abs(state.memory["velocity"]) <= vmax + 1e-12)

    def test_pbest_never_worse_than_current(self):
        obj = objective("zhou2", Bounds(-100.0, 100.0, 3))
        state = algos.init("clpso", obj, _stream("clpso", seed=6), 500)
        for _ in range(40):
            state = algos.step(state)
            assert np.all(state.memory["pbest_vals"] <= state.values + 1e-15)

    def test_first_step_builds_every_exemplar(self):
        # `init` draws only the population; every particle starts due for an
        # exemplar, and the first step's refresh builds them all.
        obj = objective("zhou2", Bounds(-100.0, 100.0, 3))
        gen = _stream("clpso")
        state = algos.init("clpso", obj, gen, 500)
        fresh = _stream("clpso")
        fresh.uniform(obj.domain.lo, obj.domain.hi, size=(clpso.POP_SIZE, 3))
        assert gen.bit_generator.state == fresh.bit_generator.state
        state = algos.step(state)
        assert np.isin(state.memory["flags"], (0, 1)).all()
        own = np.arange(clpso.POP_SIZE)[:, None]
        assert (state.memory["exemplar"] != own).any(axis=1).all()


def _stand_in_objective(evaluator) -> ObjectiveSpec:
    return ObjectiveSpec(
        name="stand-in",
        batch_evaluator=evaluator,
        batch_gradient=np.zeros_like,
        domain=Bounds(-100.0, 100.0, 3),
    )


class TestHhoDives:
    """The progressive rapid dives: Y for every diving hawk, the Levy point
    Z only for those whose Y failed, each kept only on strict improvement."""

    SEED = 42

    def _step(self, evaluator, monkeypatch):
        """One step at generation 0 with `hho.evaluate` recorded: the state
        before and after, the (rows, values) of each call, and the diving
        hawks read from a copy of the body's draw block."""
        n = hho.POP_SIZE
        g = _stream("hho", self.SEED)
        g.uniform(-100.0, 100.0, size=(n, 3))
        absE = np.abs(2.0 * g.uniform(-1.0, 1.0, size=n))  # E1 = 2 at g = 0
        g.random(n)
        g.integers(0, n, size=n)
        r = g.random((4, n))[2]
        dive = (absE < 1.0) & (r < 0.5)
        assert dive.any() and not dive.all()

        calls = []

        def recorder(state, X):
            calls.append(algos.evaluate(state, X))
            return calls[-1]

        monkeypatch.setattr(hho, "evaluate", recorder)
        state = algos.init("hho", _stand_in_objective(evaluator),
                           _stream("hho", self.SEED), 1000)
        X, vals = state.population.copy(), state.values.copy()
        state = algos.step(state)
        return X, vals, state, calls, dive

    def test_tied_dives_try_y_then_z_and_keep_the_hawk(self, monkeypatch):
        X, vals, state, calls, dive = self._step(
            lambda X: np.zeros(X.shape[0]), monkeypatch)
        assert [rows.shape[0] for rows, _ in calls] == [
            (~dive).sum(), dive.sum(), dive.sum()]
        assert np.array_equal(calls[0][0], state.population[~dive])
        # Z = Y + a Levy step: the same hawks' rows, moved.
        assert (calls[2][0] != calls[1][0]).any(axis=1).all()
        assert np.array_equal(state.population[dive], X[dive])
        assert np.array_equal(state.values[dive], vals[dive])

    def test_improving_y_is_taken_and_z_is_not_tried(self, monkeypatch):
        level = [0.0]

        def falling(X):
            level[0] -= 1.0
            return np.full(X.shape[0], level[0])

        _, vals, state, calls, dive = self._step(falling, monkeypatch)
        assert [rows.shape[0] for rows, _ in calls] == [(~dive).sum(), dive.sum()]
        assert np.array_equal(state.population[dive], calls[1][0])
        assert (state.values[dive] == calls[1][1]).all()
        assert (calls[1][1] < vals[dive]).all()


# A point away from the origin whose moves, from it and from 2P, stay inside
# the box: no pull reaches past 3|2P| < 100, so clamping cannot break the
# scaling the collapse tests compare.
_P = np.array([3.5, -7.25, 1.0])


def _collapsed_step(algorithm: str, point: np.ndarray) -> np.ndarray:
    """The population after one `algorithms.step` from every row, the
    tracker's best and every leader or personal best at `point` (zero
    velocity, empty archive), drawn from a fresh copy of one stream."""
    obj = objective("zhou1", Bounds(-100.0, 100.0, point.size))
    state = algos.init(algorithm, obj, _stream(algorithm), 1000)
    n = state.population.shape[0]
    value = float(obj.value_batch(point[None, :])[0])
    state.population, state.values = np.tile(point, (n, 1)), np.full(n, value)
    state.tracker = BestTracker(point, value)
    if algorithm == "gwo":
        state.memory["beta"] = state.memory["delta"] = (point.copy(), value)
    if algorithm == "clpso":
        state.memory.update(velocity=np.zeros((n, point.size)),
                            pbest=state.population.copy(),
                            pbest_vals=state.values.copy())
    state.gen_rng = _collapse_stream()
    return algos.step(state).population


def _collapse_stream():
    return derive_stream(11, ["collapse"])


class TestCollapsePoints:
    """Where a collapsed population can rest (FIDELITY.md, "Collapse
    points"): one step from a population, tracker and leaders all at P."""

    @pytest.mark.parametrize("algorithm", ("gl25", "clpso", "lshade"))
    def test_difference_moves_leave_a_collapsed_population_at_p(self, algorithm):
        # Every move is built from differences of members, which are zero.
        moved = _collapsed_step(algorithm, _P)
        assert moved.shape[0] > 0 and (moved == _P).all()

    def test_gwo_pulls_scale_with_p_and_rest_only_at_the_origin(self):
        # P - A*|2*r1 - 1|*|P| per coordinate: off P for every wolf unless
        # P = 0 (a > 0 at generation 0).
        at_p, at_2p = _collapsed_step("gwo", _P), _collapsed_step("gwo", 2.0 * _P)
        assert np.array_equal(at_2p, 2.0 * at_p)
        assert (at_p != _P).any(axis=1).all()
        assert (_collapsed_step("gwo", np.zeros(3)) == 0.0).all()

    def test_woa_spiral_rests_at_p_and_the_other_moves_scale(self):
        n = woa.POP_SIZE
        spiral = _collapse_stream().random((4, n))[2] >= 0.5
        assert spiral.any() and not spiral.all()
        at_p, at_2p = _collapsed_step("woa", _P), _collapsed_step("woa", 2.0 * _P)
        assert np.array_equal(at_2p, 2.0 * at_p)
        assert (at_p[spiral] == _P).all()
        assert (at_p[~spiral] != _P).any(axis=1).all()
        assert (_collapsed_step("woa", np.zeros(3)) == 0.0).all()

    def test_hho_besiege_and_perch_rows_scale_with_p(self):
        # The body's per-generation draw block, read from a copy of the
        # stream; E1 = 2 at generation 0.
        n = hho.POP_SIZE
        g = _collapse_stream()
        absE = np.abs(2.0 * g.uniform(-1.0, 1.0, size=n))
        q = g.random(n)
        g.integers(0, n, size=n)
        r = g.random((4, n))[2]
        explore = absE >= 1.0
        perch = explore & (q < 0.5)
        soft = ~explore & (r >= 0.5) & (absE >= 0.5)
        hard = ~explore & (r >= 0.5) & (absE < 0.5)
        assert perch.any() and soft.any() and hard.any()
        at_p, at_2p = _collapsed_step("hho", _P), _collapsed_step("hho", 2.0 * _P)
        # Exempt: the other exploration rows sample the box reflected through
        # the origin, (rabbit - mean) - r*(lo + r'*(hi - lo)), which does not
        # scale with P; the rapid-dive rows add a Levy step that does not
        # either, and keep a dive only when the objective, which differs at
        # P and 2P, says it improves.
        rows = perch | soft | hard
        assert np.array_equal(at_2p[rows], 2.0 * at_p[rows])
        # The hard besiege rests at the rabbit; the soft besiege, P - P -
        # E*|J*P - P|, and the perch leave it.
        assert (at_p[hard] == _P).all()
        assert (at_p[soft | perch] != _P).any(axis=1).all()
