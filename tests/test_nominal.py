"""Tests for stagbench.nominal: exact consensus dynamics and contraction."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from stagbench.core import derive_stream
from stagbench.nominal import (
    PAIRINGS,
    diameter,
    predicted_factor,
    simulate,
    step_ratios,
)


def _simulate(alpha, init, steps, *, pairing="mutual_random", stagnant=(), seed=0):
    return simulate(alpha, init, steps, derive_stream(seed, ["nominal-test"]),
                    pairing=pairing, stagnant_set=stagnant)


def _reference_simulate(alpha, pairing, stagnant, init, steps, gen):
    """The per-pair loop that `simulate` replaced, kept as its reference:
    one Python update per pair, and a stagnant partner handled by its own
    branch."""
    X = np.array(init, dtype=np.float64)
    trajectory = [X]
    for _ in range(steps):
        new = X.copy()
        if pairing == "mutual_random":
            order = gen.permutation(X.shape[0])
            for a, b in zip(order[0::2], order[1::2]):
                a, b = int(a), int(b)
                if a in stagnant and b in stagnant:
                    continue
                if a in stagnant:
                    new[b] = X[b] + alpha * (X[a] - X[b])
                elif b in stagnant:
                    new[a] = X[a] + alpha * (X[b] - X[a])
                else:
                    delta = alpha * (X[b] - X[a])
                    new[a], new[b] = X[a] + delta, X[b] - delta
        else:
            new = X + alpha * (np.roll(X, -1, axis=0) - X)
            for i in stagnant:
                new[i] = X[i]
        X = new
        trajectory.append(X)
    trajectory = np.array(trajectory)
    return trajectory, np.array([diameter(P) for P in trajectory])


class TestTwoIndividualStep:
    def test_symmetric_move_preserves_midpoint(self):
        traj, _ = _simulate(0.3, [[0.0], [10.0]], 1)
        assert traj[1, :, 0] == pytest.approx([3.0, 7.0])
        assert traj[1].sum() == pytest.approx(traj[0].sum())

    def test_alpha_half_collapses_to_midpoint(self):
        traj, _ = _simulate(0.5, [[-5.0], [5.0]], 1)
        assert traj[1].tolist() == [[0.0], [0.0]]

    def test_stagnant_partner_does_not_move(self):
        # Against a frozen partner only the mover takes its step.
        traj, _ = _simulate(1.5, [[10.0], [0.0]], 1, stagnant=(1,))
        assert traj[1].tolist() == [[-5.0], [0.0]]  # overshoots past the target

    @pytest.mark.parametrize("alpha", (0.3, -0.3))
    def test_pair_on_negative_zero_keeps_one_sign(self, alpha):
        # Both members apply the same rule, so equal coordinates stay
        # bit-identical, down to the sign of a zero.
        traj, _ = _simulate(alpha, [[-0.0, 1.0], [-0.0, 3.0]], 1)
        assert traj[1, 0, 0].tobytes() == traj[1, 1, 0].tobytes()


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
        r_mut, r_stag = step_ratios(mutual), step_ratios(stagnant)
        assert r_mut.shape == r_stag.shape == (40,)
        np.testing.assert_allclose(r_mut, predicted_factor(alpha), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            r_stag, predicted_factor(alpha, stagnant=True), rtol=0, atol=1e-12
        )
        assert r_stag.max() < 1.0 < r_mut.min()

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
            alpha = float(alphas[i % len(alphas)])
            pairing = PAIRINGS[(i // len(alphas)) % 2]
            stagnant = {int(j) for j in gen.choice(n, size=size, replace=False)}
            init = gen.uniform(-100.0, 100.0, size=(n, dim))
            steps = int(gen.integers(1, 60))
            traj, errors = simulate(alpha, init, steps, derive_stream(i, ["ref"]),
                                    pairing=pairing, stagnant_set=stagnant)
            ref_traj, ref_errors = _reference_simulate(
                alpha, pairing, stagnant, init, steps, derive_stream(i, ["ref"])
            )
            case = (alpha, pairing, stagnant)
            assert np.array_equal(traj, ref_traj), case
            assert np.array_equal(errors, ref_errors), case

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


class TestStepRatios:
    def test_geometric_sequence_gives_its_ratio_at_every_step(self):
        ratios = step_ratios([16.0, 8.0, 4.0, 2.0])
        assert ratios.dtype == np.float64
        assert ratios.tolist() == [0.5, 0.5, 0.5]

    def test_zero_that_stays_zero_is_nan_and_one_that_reopens_is_inf(self):
        ratios = step_ratios([1.0, 0.5, 0.0, 0.0, 1e-300])
        assert ratios[:2].tolist() == [0.5, 0.0]
        assert np.isnan(ratios[2]) and ratios[3] == np.inf

    def test_one_entry_gives_no_ratio(self):
        assert step_ratios([3.0]).shape == (0,)

    def test_division_by_zero_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step_ratios([0.0, 0.0, 1.0])


class TestConfigValidation:
    def test_unknown_pairing_rejected(self):
        with pytest.raises(ValueError, match="^unknown pairing 'star'; expected one of "):
            _simulate(0.5, [[0.0], [1.0]], 5, pairing="star")

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
            (float("nan"), "^alpha must be finite, got nan$"),
            (np.inf, "^alpha must be finite, got inf$"),
        ],
        ids=["bool", "str", "None", "huge-int", "nan", "inf"],
    )
    def test_alpha_must_be_a_finite_real(self, alpha, message):
        with pytest.raises(ValueError, match=message):
            _simulate(alpha, [[0.0], [1.0]], 5)

    def test_alpha_becomes_a_float(self):
        init = [[-3.0, 1.0], [2.0, 5.0], [7.0, -4.0]]
        for alpha, as_float in ((np.float32(0.5), 0.5), (1, 1.0)):
            traj, errors = _simulate(alpha, init, 6, stagnant=(2,))
            ref_traj, ref_errors = _simulate(as_float, init, 6, stagnant=(2,))
            assert traj.tobytes() == ref_traj.tobytes()
            assert errors.tobytes() == ref_errors.tobytes()

    def test_non_integer_stagnant_entry_rejected(self):
        # int() would truncate 1.7 to index 1.
        with pytest.raises(
            ValueError, match="^every stagnant_set entry must be an integer, got 1.7$"
        ):
            _simulate(0.5, [[0.0], [1.0]], 5, stagnant=(1.7,))
        traj, _ = _simulate(0.5, [[0.0], [1.0]], 5, stagnant=(np.int64(1),))
        assert np.all(traj[:, 1] == 1.0)

    def test_init_fixes_population_size_and_dim(self):
        with pytest.raises(ValueError, match="need at least 2 individuals"):
            _simulate(0.5, np.zeros((1, 2)), 5)
        with pytest.raises(ValueError, match="dim must be >= 1"):
            _simulate(0.5, np.zeros((2, 0)), 5)
        with pytest.raises(
            ValueError, match=r"^expected a 2-D batch of points, got shape \(3,\)$"
        ):
            _simulate(0.5, np.zeros(3), 5)
        traj, _ = _simulate(0.5, np.zeros((3, 4)), 2)
        assert traj.shape == (3, 3, 4)

    @pytest.mark.parametrize(
        "init", ([[0.0, 1.0], [2.0]], [[0.0], ["a"]], {}, object()),
        ids=("ragged", "non-numeric", "dict", "object"),
    )
    def test_unconvertible_init_raises_value_error(self, init):
        with pytest.raises(ValueError, match="^expected a 2-D batch of points, got "):
            _simulate(0.5, init, 3)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_init_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^batch contains non-finite coordinates$"):
            _simulate(0.5, [[0.0], [bad]], 5)

    @pytest.mark.parametrize("stagnant_set", (1, None, "01"), ids=("int", "None", "str"))
    def test_stagnant_set_must_be_a_sequence(self, stagnant_set):
        with pytest.raises(
            ValueError, match="^stagnant_set must be a sequence of indices, got "
        ):
            _simulate(0.5, [[0.0], [1.0], [2.0]], 5, stagnant=stagnant_set)

    def test_init_is_not_written_into(self):
        init = np.array([[0.0], [4.0]])
        _simulate(0.5, init, 3, stagnant=(1,))
        assert init.tolist() == [[0.0], [4.0]]
