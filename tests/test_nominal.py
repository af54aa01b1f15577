"""Tests for stagbench.nominal: exact consensus dynamics and contraction."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from stagbench.core import derive_stream
from stagbench.nominal import (
    PAIRINGS,
    InsufficientDataError,
    NominalConfig,
    diameter,
    measured_contraction,
    pair_step,
    predicted_factor,
    simulate,
)


def _simulate(alpha, init, steps, *, pairing="mutual_random", stagnant=(), seed=0):
    cfg = NominalConfig(
        alpha=alpha, pairing=pairing, stagnant_set=frozenset(stagnant)
    )
    return simulate(cfg, init, steps, derive_stream(seed, ["nominal-test"]))


def _reference_simulate(cfg, init, steps, gen):
    """The per-pair loop that `simulate` replaced, kept as its reference:
    one Python update per pair, and a stagnant partner handled by its own
    branch."""
    X = np.array(init, dtype=np.float64)
    stagnant = cfg.stagnant_set
    trajectory = [X]
    for _ in range(steps):
        new = X.copy()
        if cfg.pairing == "mutual_random":
            order = gen.permutation(X.shape[0])
            for a, b in zip(order[0::2], order[1::2]):
                a, b = int(a), int(b)
                if a in stagnant and b in stagnant:
                    continue
                if a in stagnant:
                    new[b] = X[b] + cfg.alpha * (X[a] - X[b])
                elif b in stagnant:
                    new[a] = X[a] + cfg.alpha * (X[b] - X[a])
                else:
                    delta = cfg.alpha * (X[b] - X[a])
                    new[a], new[b] = X[a] + delta, X[b] - delta
        else:
            new = X + cfg.alpha * (np.roll(X, -1, axis=0) - X)
            for i in stagnant:
                new[i] = X[i]
        X = new
        trajectory.append(X)
    trajectory = np.array(trajectory)
    return trajectory, np.array([diameter(P) for P in trajectory])


class TestPairStep:
    def test_symmetric_move_preserves_midpoint(self):
        xi, xj = np.array([0.0]), np.array([10.0])
        ni, nj = pair_step(xi, xj, 0.3)
        assert ni[0] == pytest.approx(3.0)
        assert nj[0] == pytest.approx(7.0)
        assert (ni + nj)[0] == pytest.approx((xi + xj)[0])

    def test_alpha_half_collapses_to_midpoint(self):
        ni, nj = pair_step(np.array([-5.0]), np.array([5.0]), 0.5)
        assert ni[0] == 0.0 and nj[0] == 0.0

    def test_stagnant_partner_does_not_move(self):
        # Against a frozen partner only the mover's half of pair_step applies.
        moved = pair_step(np.array([10.0]), np.array([0.0]), 1.5)[0]
        assert moved[0] == pytest.approx(-5.0)  # overshoots past the target
        traj, _ = _simulate(1.5, [[10.0], [0.0]], 1, stagnant=(1,))
        assert np.array_equal(traj[1], [moved, [0.0]])

    def test_row_blocks_equal_row_by_row_calls(self):
        gen = np.random.Generator(np.random.PCG64(4))
        A = gen.uniform(-50.0, 50.0, size=(5, 3))
        B = gen.uniform(-50.0, 50.0, size=(5, 3))
        new_a, new_b = pair_step(A, B, 1.3)
        for i in range(5):
            ai, bi = pair_step(A[i], B[i], 1.3)
            assert np.array_equal(new_a[i], ai)
            assert np.array_equal(new_b[i], bi)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            pair_step(np.zeros((2, 3)), np.zeros((3, 3)), 0.5)
        with pytest.raises(ValueError, match="shapes differ"):
            pair_step(np.zeros(2), np.zeros(3), 0.5)


class TestDiameter:
    def test_two_points(self):
        assert diameter(np.array([[0.0, 0.0], [3.0, 4.0]])) == 5.0

    def test_max_over_pairs(self):
        X = np.array([[0.0], [1.0], [10.0]])
        assert diameter(X) == 10.0

    def test_single_point_zero(self):
        assert diameter(np.array([[1.0, 2.0]])) == 0.0

    def test_huge_distance_does_not_overflow(self):
        assert diameter(np.array([[1e200], [-1e200]])) == 2e200

    def test_tiny_distance_does_not_underflow(self):
        assert diameter(np.array([[1e-200], [0.0]])) == 1e-200


class TestTwoIndividualExactness:
    @pytest.mark.parametrize("alpha", (0.1, 0.25, 0.5, 0.75, 0.9))
    def test_every_step_ratio_matches_theory(self, alpha):
        _, errors = _simulate(alpha, [[-5.0], [5.0]], 50)
        predicted = predicted_factor(alpha)
        for k in range(1, errors.size):
            if errors[k - 1] == 0.0:
                assert errors[k] == 0.0
                continue
            assert errors[k] / errors[k - 1] == pytest.approx(
                predicted, abs=1e-12
            )

    @pytest.mark.parametrize("alpha", (1.1, 1.5, 1.9))
    def test_unstable_alpha_expands_mutual_contracts_stagnant(self, alpha):
        _, mutual = _simulate(alpha, [[-5.0], [5.0]], 40)
        _, stagnant = _simulate(alpha, [[10.0], [0.0]], 40, stagnant=(1,))
        f_mut = measured_contraction(mutual)
        f_stag = measured_contraction(stagnant)
        assert f_mut == pytest.approx(predicted_factor(alpha), abs=1e-12)
        assert f_stag == pytest.approx(
            predicted_factor(alpha, stagnant=True), abs=1e-12
        )
        assert f_stag < 1.0 < f_mut

    def test_alpha_half_single_step_collapse(self):
        _, errors = _simulate(0.5, [[-7.0], [3.0]], 5)
        assert errors[0] == 10.0
        assert np.all(errors[1:] == 0.0)


class TestStagnantMode:
    def test_frozen_individual_never_moves(self):
        traj, _ = _simulate(0.3, [[0.0, 0.0], [6.0, 8.0]], 20, stagnant=(1,))
        for positions in traj:
            assert np.array_equal(positions[1], [6.0, 8.0])

    def test_mobile_converges_to_frozen_position(self):
        traj, errors = _simulate(0.3, [[0.0, 0.0], [6.0, 8.0]], 60, stagnant=(1,))
        assert errors[-1] < 1e-6
        assert np.allclose(traj[-1][0], [6.0, 8.0], atol=1e-6)

    def test_all_stagnant_rejected(self):
        with pytest.raises(ValueError, match="at least one individual must be mobile"):
            _simulate(0.5, [[0.0], [1.0]], 5, stagnant=(0, 1))


class TestPopulationPairings:
    def test_mutual_random_preserves_centroid(self):
        traj, _ = _simulate(0.25, np.arange(12.0).reshape(6, 2), 30, seed=3)
        c0 = traj[0].mean(axis=0)
        for positions in traj:
            assert np.allclose(positions.mean(axis=0), c0, atol=1e-9)

    def test_mutual_random_converges(self):
        gen = np.random.Generator(np.random.PCG64(9))
        init = gen.uniform(-50.0, 50.0, size=(8, 3))
        _, errors = _simulate(0.25, init, 400, seed=5)
        assert errors[-1] < 1e-8 * errors[0]

    def test_odd_population_still_converges(self):
        gen = np.random.Generator(np.random.PCG64(10))
        init = gen.uniform(-50.0, 50.0, size=(7, 2))
        _, errors = _simulate(0.3, init, 600, seed=6)
        assert errors[-1] < 1e-8 * errors[0]

    def test_ring_converges_to_centroid(self):
        gen = np.random.Generator(np.random.PCG64(11))
        init = gen.uniform(-50.0, 50.0, size=(8, 2))
        traj, errors = _simulate(0.5, init, 500, pairing="ring", seed=7)
        assert errors[-1] < 1e-6
        assert np.allclose(
            traj[-1], init.mean(axis=0), atol=1e-5
        )

    def test_ring_is_deterministic_across_seeds(self):
        init = np.arange(8.0).reshape(4, 2)
        t1, _ = _simulate(0.4, init, 10, pairing="ring", seed=1)
        t2, _ = _simulate(0.4, init, 10, pairing="ring", seed=2)
        assert np.array_equal(t1[-1], t2[-1])

    def test_stagnant_in_ring_blocks_full_consensus(self):
        init = np.array([[0.0], [10.0], [20.0], [30.0]])
        traj, _ = _simulate(0.4, init, 800, pairing="ring", stagnant=(0,))
        # Everyone is dragged to the frozen individual's position.
        assert np.allclose(traj[-1], 0.0, atol=1e-6)


class TestArrayDynamics:
    def test_matches_per_pair_reference_bit_for_bit(self):
        gen = np.random.Generator(np.random.PCG64(2024))
        alphas = (0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 1.9)
        for i in range(240):
            n = int(gen.integers(2, 9))
            size = int(gen.integers(0, n))
            dim = int(gen.integers(1, 4))
            cfg = NominalConfig(
                alpha=float(alphas[i % len(alphas)]),
                pairing=PAIRINGS[(i // len(alphas)) % 2],
                stagnant_set=frozenset(
                    int(j) for j in gen.choice(n, size=size, replace=False)
                ),
            )
            init = gen.uniform(-100.0, 100.0, size=(n, dim))
            steps = int(gen.integers(1, 60))
            traj, errors = simulate(cfg, init, steps, derive_stream(i, ["ref"]))
            ref_traj, ref_errors = _reference_simulate(
                cfg, init, steps, derive_stream(i, ["ref"])
            )
            assert np.array_equal(traj, ref_traj), cfg
            assert np.array_equal(errors, ref_errors), cfg

    def test_trajectory_is_one_read_only_array(self):
        traj, errors = _simulate(0.3, np.arange(15.0).reshape(5, 3), 12)
        assert traj.shape == (13, 5, 3) and traj.dtype == np.float64
        assert errors.shape == (13,)
        assert not traj.flags.writeable

    def test_divergence_past_float64_names_the_step(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, errors = _simulate(1.5, [[-5.0], [5.0]], 600)
            assert np.all(np.isfinite(errors))
            with pytest.raises(ValueError, match=r"float64 range at step 10\d\d"):
                _simulate(1.5, [[-5.0], [5.0]], 1100)

    def test_non_finite_init_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _simulate(0.5, [[0.0], [np.inf]], 5)


class TestMeasuredContraction:
    def test_geometric_mean_of_ratios(self):
        errors = [16.0, 8.0, 4.0, 2.0]
        assert measured_contraction(errors) == pytest.approx(0.5, abs=1e-15)

    def test_underflowed_entries_excluded(self):
        errors = [1.0, 0.5, 0.25, 0.0, 0.0]
        assert measured_contraction(errors) == pytest.approx(0.5, abs=1e-15)

    def test_too_few_usable_entries(self):
        with pytest.raises(InsufficientDataError):
            measured_contraction([1.0, 0.5, 0.0, 0.0])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            measured_contraction([1.0, -0.5, 0.25])


class TestConfigValidation:
    def test_unknown_pairing_rejected(self):
        with pytest.raises(ValueError):
            NominalConfig(alpha=0.5, pairing="star")

    def test_stagnant_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\)"):
            _simulate(0.5, [[0.0], [1.0]], 5, stagnant=(5,))
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\)"):
            _simulate(0.5, [[0.0], [1.0]], 5, stagnant=(-1,))

    @pytest.mark.parametrize("steps", (2.5, True))
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="^steps must be an integer, got "):
            _simulate(0.5, [[0.0], [1.0]], steps)

    @pytest.mark.parametrize(
        "alpha, message",
        [
            (True, "^alpha must be a real number, got True$"),
            ("x", "^alpha must be a real number, got 'x'$"),
            (None, "^alpha must be a real number, got None$"),
            (10**400, "^alpha must be a real number within float64, got 1000"),
            (float("nan"), "^alpha must be finite$"),
            (np.inf, "^alpha must be finite$"),
        ],
        ids=["bool", "str", "None", "huge-int", "nan", "inf"],
    )
    def test_alpha_must_be_a_finite_real(self, alpha, message):
        with pytest.raises(ValueError, match=message):
            NominalConfig(alpha=alpha)

    def test_alpha_becomes_a_float(self):
        cfg = NominalConfig(alpha=np.float32(0.5))
        assert type(cfg.alpha) is float and cfg.alpha == 0.5
        assert type(NominalConfig(alpha=1).alpha) is float

    def test_non_integer_stagnant_entry_rejected(self):
        # int() would truncate 1.7 to index 1.
        with pytest.raises(
            ValueError, match="^every stagnant_set entry must be an integer, got 1.7$"
        ):
            NominalConfig(alpha=0.5, stagnant_set=frozenset({1.7}))
        assert NominalConfig(alpha=0.5, stagnant_set={np.int64(1)}).stagnant_set == {1}

    def test_init_fixes_population_size_and_dim(self):
        with pytest.raises(ValueError, match="need at least 2 individuals"):
            _simulate(0.5, np.zeros((1, 2)), 5)
        with pytest.raises(ValueError, match="dim must be >= 1"):
            _simulate(0.5, np.zeros((2, 0)), 5)
        with pytest.raises(ValueError, match=r"\(N, dim\) array"):
            _simulate(0.5, np.zeros(3), 5)
        traj, _ = _simulate(0.5, np.zeros((3, 4)), 2)
        assert traj.shape == (3, 3, 4)
