"""Tests for stagbench.harness: stagnation runs, aggregation, CSV reports."""

from __future__ import annotations

import csv
import os

import numpy as np
import pytest

import stagbench.algorithms as algos
import stagbench.harness as harness
from stagbench.benchmarks import objective
from stagbench.core import derive_stream
from stagbench.harness import (
    TERMINATION_CAP,
    TERMINATION_STAGNATION,
    ExperimentConfig,
    curve_filename,
    format_float,
    render_summary_table,
    run_experiment,
    run_single,
    run_until_stagnation,
    summarize,
    write_curves,
    write_records,
    write_summary,
)

SMALL = dict(
    functions=("zhou1", "zhou2"),
    algorithms=("gwo", "woa"),
    T_values=(50,),
    runs=2,
)


def _small_cfg(**overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestConfigValidation:
    def test_defaults_match_documented_grid(self):
        cfg = ExperimentConfig()
        assert cfg.functions == ("zhou1", "zhou2", "zhou3")
        assert cfg.algorithms == ("gl25", "clpso", "lshade", "gwo", "woa", "hho")
        assert cfg.T_values == (100, 200, 300, 500, 1000)
        assert cfg.runs == 30
        assert cfg.dim == 3
        assert (cfg.bounds_lo, cfg.bounds_hi) == (-100.0, 100.0)
        assert cfg.base_seed == 42
        assert cfg.stationarity_threshold == 1e-2

    @pytest.mark.parametrize(
        "bad",
        (
            dict(functions=("zhou9",)),
            dict(algorithms=("cmaes",)),
            dict(runs=0),
            dict(T_values=(0,)),
            dict(T_values=(20000,)),  # must stay below max_generations
            dict(dim=1),
            dict(bounds_lo=1.0, bounds_hi=-1.0),
            dict(stationarity_threshold=0.0),
        ),
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


class TestRunUntilStagnation:
    @staticmethod
    def _state(seed=11, algorithm="gwo"):
        obj = objective("zhou1", 3)
        params = algos.default_params(algorithm, 3, schedule_horizon=20000)
        return algos.init(
            algorithm, params, obj, derive_stream(seed, ["harness-test"])
        )

    def test_stagnation_exit_is_exact(self):
        T = 40
        state, termination, curve = run_until_stagnation(
            self._state(), T, 20000, capture=True
        )
        assert termination == TERMINATION_STAGNATION
        assert state.generation - state.tracker.last_improvement_gen == T
        # Replay the curve: no improvement in the last T generations, and an
        # improvement exactly T generations before the end.
        values = dict(curve)
        terminal = state.generation
        for g in range(terminal - T + 1, terminal + 1):
            assert values[g] == values[g - 1]
        improve_gen = terminal - T
        assert improve_gen == 0 or values[improve_gen] < values[improve_gen - 1]

    def test_cap_exit_when_t_unreachable(self):
        state, termination, curve = run_until_stagnation(
            self._state(), 50, 10, capture=True
        )
        assert termination == TERMINATION_CAP
        assert state.generation == 10

    def test_curve_starts_at_generation_zero(self):
        _, _, curve = run_until_stagnation(self._state(), 30, 20000, capture=True)
        assert curve[0][0] == 0
        gens = [g for g, _ in curve]
        assert gens == list(range(len(gens)))

    def test_curve_values_non_increasing(self):
        _, _, curve = run_until_stagnation(self._state(), 30, 20000, capture=True)
        vals = [v for _, v in curve]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_no_capture_returns_empty_curve(self):
        _, _, curve = run_until_stagnation(self._state(), 30, 20000)
        assert curve == ()


class TestRunSingle:
    def test_record_fields_and_determinism(self):
        cfg = _small_cfg()
        r1 = run_single("zhou1", "gwo", 50, 0, cfg)
        r2 = run_single("zhou1", "gwo", 50, 0, cfg)
        assert r1.best_value == r2.best_value
        assert np.array_equal(r1.best_point, r2.best_point)
        assert r1.generations == r2.generations
        assert r1.evaluations == r2.evaluations
        assert r1.seed_path == ("zhou1", "gwo", 50, 0)
        assert r1.termination == TERMINATION_STAGNATION

    def test_grad_norm_is_the_audit_quantity(self):
        cfg = _small_cfg()
        rec = run_single("zhou2", "woa", 50, 1, cfg)
        obj = objective("zhou2", cfg.dim, cfg.domain())
        assert rec.grad_norm == pytest.approx(
            float(np.linalg.norm(obj.grad(rec.best_point))), rel=1e-15
        )

    def test_run_index_changes_outcome(self):
        cfg = _small_cfg()
        r0 = run_single("zhou1", "gwo", 50, 0, cfg)
        r1 = run_single("zhou1", "gwo", 50, 1, cfg)
        assert r0.best_value != r1.best_value


class TestRunExperiment:
    def test_grid_cardinality_and_order(self):
        cfg = _small_cfg()
        records, summary = run_experiment(cfg)
        assert len(records) == 2 * 2 * 1 * 2  # functions x algorithms x T x runs
        assert len(summary) == 4
        keys = [(r.function, r.algorithm, r.T, r.run_index) for r in records]
        f_order = {f: i for i, f in enumerate(cfg.functions)}
        a_order = {a: i for i, a in enumerate(cfg.algorithms)}
        sorted_keys = sorted(
            keys, key=lambda k: (f_order[k[0]], a_order[k[1]], k[2], k[3])
        )
        assert keys == sorted_keys

    def test_workers_do_not_change_results(self):
        cfg = _small_cfg()
        serial_records, serial_summary = run_experiment(cfg, workers=1)
        parallel_records, parallel_summary = run_experiment(cfg, workers=3)
        for a, b in zip(serial_records, parallel_records):
            assert a.best_value == b.best_value
            assert a.grad_norm == b.grad_norm
            assert a.generations == b.generations
            assert np.array_equal(a.best_point, b.best_point)
        assert serial_summary == parallel_summary

    def test_pool_never_wider_than_task_list(self, monkeypatch):
        requested = []

        class InProcessPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        cfg = _small_cfg(functions=("zhou1",), algorithms=("gwo",))
        records, _ = run_experiment(cfg, workers=10**6)
        assert requested == [2]
        assert len(records) == 2

    def test_summary_aggregates_runs(self):
        cfg = _small_cfg()
        records, summary = run_experiment(cfg)
        row = summary[0]
        cell = [
            r
            for r in records
            if (r.function, r.T, r.algorithm)
            == (row.function, row.T, row.algorithm)
        ]
        assert row.runs == len(cell) == cfg.runs
        assert row.mean_grad_norm == pytest.approx(
            np.mean([r.grad_norm for r in cell]), rel=1e-15
        )
        assert row.mean_generations == pytest.approx(
            np.mean([r.generations for r in cell]), rel=1e-15
        )
        assert row.stationary_fraction == np.mean(
            [r.grad_norm <= cfg.stationarity_threshold for r in cell]
        )


class TestFormatting:
    def test_format_float_round_trips(self):
        for x in (0.1, 1 / 3, 1e300, 5e-324, -0.0, 123456789.123456789):
            assert float(format_float(x)) == x

    def test_render_table_contains_csv_numbers(self):
        cfg = _small_cfg()
        _, summary = run_experiment(cfg)
        table = render_summary_table(summary)
        for row in summary:
            assert format_float(row.mean_grad_norm) in table
            assert format_float(row.stationary_fraction) in table


class TestCsvOutput:
    def test_records_schema_and_round_trip(self, tmp_path):
        cfg = _small_cfg()
        records, summary = run_experiment(cfg)
        path = tmp_path / "records.csv"
        write_records(records, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == [
            "function", "algorithm", "T", "run", "best_value", "grad_norm",
            "generations", "evaluations", "termination",
        ]
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert row["function"] == rec.function
            assert int(row["T"]) == rec.T
            assert int(row["run"]) == rec.run_index
            assert float(row["best_value"]) == rec.best_value
            assert float(row["grad_norm"]) == rec.grad_norm
            assert int(row["generations"]) == rec.generations
            assert int(row["evaluations"]) == rec.evaluations
            assert row["termination"] == rec.termination

    def test_summary_schema_and_round_trip(self, tmp_path):
        cfg = _small_cfg()
        _, summary = run_experiment(cfg)
        path = tmp_path / "summary.csv"
        write_summary(summary, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == [
            "function", "T", "algorithm", "mean_grad_norm",
            "stationary_fraction", "mean_generations", "runs",
        ]
        for row, agg in zip(rows, summary):
            assert float(row["mean_grad_norm"]) == agg.mean_grad_norm
            assert float(row["stationary_fraction"]) == agg.stationary_fraction
            assert int(row["runs"]) == agg.runs

    def test_curve_files_one_per_cell(self, tmp_path):
        cfg = _small_cfg(capture_curves=True)
        records, _ = run_experiment(cfg)
        written = write_curves(records, str(tmp_path))
        assert sorted(os.path.basename(p) for p in written) == sorted(
            curve_filename(f, a, 50)
            for f in cfg.functions
            for a in cfg.algorithms
        )
        path = tmp_path / curve_filename("zhou1", "gwo", 50)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["run", "generation", "best_value"]
        # Rows grouped by run, each starting at generation 0.
        by_run = {}
        for row in rows:
            by_run.setdefault(int(row["run"]), []).append(int(row["generation"]))
        assert set(by_run) == {0, 1}
        for gens in by_run.values():
            assert gens == list(range(len(gens)))

    def test_curve_round_trips_record_curve(self, tmp_path):
        cfg = _small_cfg(capture_curves=True)
        records, _ = run_experiment(cfg)
        write_curves(records, str(tmp_path))
        rec = records[0]
        path = tmp_path / curve_filename(rec.function, rec.algorithm, rec.T)
        with open(path, newline="") as fh:
            rows = [
                row
                for row in csv.DictReader(fh)
                if int(row["run"]) == rec.run_index
            ]
        assert len(rows) == len(rec.curve)
        for row, (g, v) in zip(rows, rec.curve):
            assert int(row["generation"]) == g
            assert float(row["best_value"]) == v
