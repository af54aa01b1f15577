"""Acceptance gate: the nine primary criteria, one printed verdict line each.

Each test computes its criterion's quantity with pinned tolerances, prints a
single ``CRITERION n PASS/FAIL`` line (also echoed in the terminal summary),
and then asserts.  Criteria 1, 2, 4 and 5 are the checks of ``stagbench
verify``: the test pins the tolerances of ``stagbench.verify``, runs the
check and prints its detail.  Criteria:

1. Theorem-1 exactness of the 2-individual contraction factor |1-2a|.
2. Remark-2 witness: for a > 1 the stagnant mode contracts, mutual expands.
3. Theorem-2 monotonicity of every best-so-far sequence.
4. Closed-form optimum certificates for dims 2-5, all branches, and the
   exact zhou1 dim-3 point (1, 2, 8).
5. Analytic gradient vs central finite difference at h = 1e-7.
6. Qualitative headline reproduction on the full default grid at T = 100.
7. Stagnation semantics: last improvement exactly T before termination.
8. Byte-identical reports across repeated runs and worker counts 1 vs 8.
9. Sphere smoke test: every algorithm reaches 1e-3 within 500 generations.

Criterion 6's grid also holds the committed ``results/default`` files: its
records and summary are their T = 100 rows, byte for byte.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from conftest import record_criterion, sphere_objective

import stagbench.algorithms as algos
from stagbench import benchmarks, verify
from stagbench.benchmarks import objective, optimum
from stagbench.core import Bounds, derive_stream
from stagbench.harness import (
    TERMINATION_STAGNATION,
    ExperimentConfig,
    run_experiment,
    write_records,
    write_summary,
)

# ---------------------------------------------------------------- pinned
# Criteria 1, 2, 4 and 5 pin the tolerances of stagbench.verify in their
# tests; these are the other criteria's.
GRAD_NORM_FLOOR = 1e3        # criterion 6
STATIONARITY_THRESHOLD = 1e-2  # criterion 6
SPHERE_TARGET = 1e-3         # criterion 9
SPHERE_GENERATIONS = 500     # criterion 9

RESULTS = Path(__file__).resolve().parents[1] / "results" / "default"


def _check(number: int, ok: bool, detail: str) -> None:
    line = record_criterion(number, ok, detail)
    assert ok, line


def _check_verdict(number: int, verdict) -> None:
    name, ok, detail = verdict
    _check(number, ok, f"{name}: {detail}")


def test_criterion_1_theorem1_exactness():
    assert verify.RATIO_TOL == 1e-12
    _check_verdict(1, verify.check_theorem1())


def test_criterion_2_remark2_witness():
    assert verify.RATIO_TOL == 1e-12
    _check_verdict(2, verify.check_remark2())


def test_criterion_3_monotone_best():
    violations = 0
    sequences = 0
    for algorithm in algos.ALGORITHMS:
        for function in benchmarks.FUNCTIONS:
            for seed in range(5):
                obj = objective(function, Bounds(-100.0, 100.0, 3))
                state = algos.init(
                    algorithm,
                    obj,
                    derive_stream(seed, ["monotone", function, algorithm]),
                    300,
                )
                prev = state.tracker.best_value
                for _ in range(300):
                    state = algos.step(state)
                    if state.tracker.best_value > prev:
                        violations += 1
                    prev = state.tracker.best_value
                sequences += 1
    _check(
        3,
        violations == 0,
        f"theorem-2 monotonicity: {violations} increases in {sequences} "
        f"best-so-far sequences (6 algorithms x 3 functions x 5 seeds x "
        f"300 generations)",
    )


def test_criterion_4_optimum_certificates():
    assert (verify.OPT_VALUE_TOL, verify.OPT_GRAD_TOL) == (1e-8, 1e-4)
    name, ok, detail = verify.check_optima()
    dim3_point_exact = bool(
        np.array_equal(optimum("zhou1", 3), [1.0, 2.0, 8.0])
    )
    _check(
        4,
        ok and dim3_point_exact,
        f"{name}: {detail}; zhou1 dim-3 point is (1,2,8): {dim3_point_exact}",
    )


def test_criterion_5_gradient_oracle():
    assert benchmarks.FD_STEP == 1e-7
    assert (verify.FD_REL_TOL, verify.FD_ABS_TOL) == (1e-3, 1e-2)
    _check_verdict(5, verify.check_gradient_oracle())


@pytest.fixture(scope="module")
def default_grid_t100():
    cfg = ExperimentConfig(T_values=(100,), runs=30)
    return run_experiment(cfg, workers=2), cfg


def test_criterion_6_qualitative_headline(default_grid_t100):
    (records, summary), cfg = default_grid_t100
    per_function_hits = {}
    max_stationary = 0.0
    for row in summary:
        per_function_hits.setdefault(row.function, 0)
        if row.mean_grad_norm > GRAD_NORM_FLOOR:
            per_function_hits[row.function] += 1
        max_stationary = max(max_stationary, row.stationary_fraction)
    min_hits = min(per_function_hits.values())
    ok = min_hits >= 4 and max_stationary < 1.0
    _check(
        6,
        ok,
        f"qualitative headline at T=100, dim 3, {cfg.runs} runs: per function "
        f"{min_hits}/6 algorithms (need >= 4) have mean_grad_norm > "
        f"{GRAD_NORM_FLOOR:g}; max stationary_fraction = {max_stationary:.3g} "
        f"(must be < 1 at threshold {STATIONARITY_THRESHOLD:g})",
    )


def _header_and_t100_lines(path: Path) -> bytes:
    header, *lines = path.read_bytes().splitlines(keepends=True)
    column = header.split(b",").index(b"T")
    return header + b"".join(line for line in lines
                             if line.split(b",")[column] == b"100")


def test_committed_results_hold_the_t100_grid(default_grid_t100, tmp_path):
    # Stream labels are (function, algorithm, T, run), so the T = 100 runs
    # of the full default grid are criterion 6's runs.
    (records, summary), _ = default_grid_t100
    write_records(records, str(tmp_path / "records.csv"))
    write_summary(summary, str(tmp_path / "summary.csv"))
    for name in ("records.csv", "summary.csv"):
        assert (tmp_path / name).read_bytes() == _header_and_t100_lines(
            RESULTS / name), f"results/default/{name} is stale"


@pytest.fixture(scope="module")
def curve_grid():
    cfg = ExperimentConfig(T_values=(100, 1000), runs=2, capture_curves=True)
    records, _ = run_experiment(cfg, workers=2)
    return records, cfg


def test_criterion_7_stagnation_semantics(curve_grid):
    records, cfg = curve_grid
    checked = 0
    exact = True
    for rec in records:
        if rec.termination != TERMINATION_STAGNATION:
            continue
        values = [v for _, v in rec.curve]
        terminal = rec.generations
        # No strict improvement over the final T generations...
        tail_flat = all(
            values[g] == values[g - 1]
            for g in range(terminal - rec.T + 1, terminal + 1)
        )
        # ...and one exactly T generations before termination (or the run
        # never improved past generation 0's best).
        g0 = terminal - rec.T
        improves_at_g0 = g0 == 0 or values[g0] < values[g0 - 1]
        exact = exact and tail_flat and improves_at_g0
        checked += 1
    stagnation_all = checked == len(records)
    _check(
        7,
        exact and checked > 0 and stagnation_all,
        f"stagnation semantics: last improvement exactly T generations "
        f"before termination in {checked}/{len(records)} records "
        f"(curve replay, T in {{100, 1000}}, all six algorithms)",
    )


def test_criterion_8_determinism(tmp_path, monkeypatch):
    # Eight usable CPUs, so workers=8 runs eight processes on any host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    cfg = ExperimentConfig(T_values=(100,), runs=3)
    blobs = []
    for label, workers in (("a", 1), ("b", 8), ("c", 1)):
        records, summary = run_experiment(cfg, workers=workers)
        rec_path = tmp_path / f"records_{label}.csv"
        sum_path = tmp_path / f"summary_{label}.csv"
        write_records(records, str(rec_path))
        write_summary(summary, str(sum_path))
        blobs.append((rec_path.read_bytes(), sum_path.read_bytes()))
    identical = blobs[0] == blobs[1] == blobs[2]
    _check(
        8,
        identical,
        "determinism: records.csv and summary.csv byte-identical across "
        "repeated executions and worker counts 1 vs 8 (full algorithm set, "
        "T=100, 3 runs)",
    )


def test_criterion_9_sphere_smoke():
    results = {}
    for algorithm in algos.ALGORITHMS:
        obj = sphere_objective(3)
        state = algos.init(
            algorithm, obj, derive_stream(1, ["sphere", algorithm]), SPHERE_GENERATIONS
        )
        for _ in range(SPHERE_GENERATIONS):
            state = algos.step(state)
            if state.tracker.best_value <= SPHERE_TARGET:
                break
        results[algorithm] = state.tracker.best_value
    worst_algo = max(results, key=results.get)
    ok = all(v <= SPHERE_TARGET for v in results.values())
    _check(
        9,
        ok,
        f"sphere smoke: all six algorithms reach best <= {SPHERE_TARGET:g} "
        f"on the 3-D sphere within {SPHERE_GENERATIONS} generations at "
        f"seed 1 (slowest: {worst_algo} at {results[worst_algo]:.3e})",
    )
