"""Tests for stagbench.harness: stagnation runs, aggregation, CSV reports."""

from __future__ import annotations

import csv
import multiprocessing
import os
import pickle
from pathlib import Path

import numpy as np
import pytest
from conftest import sphere_objective

import stagbench.algorithms as algos
import stagbench.harness as harness
from stagbench.benchmarks import objective
from stagbench.core import derive_stream
from stagbench.harness import (
    TERMINATION_CAP,
    TERMINATION_STAGNATION,
    Curve,
    ExperimentConfig,
    curve_filename,
    format_float,
    render_summary_table,
    run_experiment,
    run_single,
    run_until_stagnation,
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


# Each names one field whose value has the wrong type or, for the last two,
# does not fit in float64.
NON_INTEGERS_AND_BARE_NAMES = (
    dict(runs=2.5),
    dict(T_values=(10.9,)),
    dict(base_seed=1.5),
    dict(dim=3.0),
    dict(max_generations=1000.0),
    dict(runs=True),
    dict(T_values=(np.True_,)),
    dict(functions="zhou1"),
    dict(algorithms="gwo"),
    dict(capture_curves="no"),
    dict(stationarity_threshold=True),
    dict(bounds_lo=True),
    dict(stationarity_threshold="0.1"),
    dict(bounds_lo="a"),
    dict(T_values=5),
    dict(functions=None),
    dict(bounds_hi=10**400),
    dict(stationarity_threshold=10**400),
)


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
            dict(stationarity_threshold=float("inf")),
            *NON_INTEGERS_AND_BARE_NAMES,
        ),
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize("bad", NON_INTEGERS_AND_BARE_NAMES)
    def test_wrong_type_names_the_field(self, bad):
        ((field, value),) = bad.items()
        named = "every T" if field == "T_values" and np.iterable(value) else field
        with pytest.raises(ValueError, match=f"^{named} must be "):
            ExperimentConfig(**bad)

    def test_numpy_integers_accepted(self):
        cfg = _small_cfg(
            runs=np.int64(2), T_values=(np.int64(50),), base_seed=np.int32(7),
            dim=np.int64(3), max_generations=np.int64(20000),
        )
        assert cfg == _small_cfg(base_seed=7)
        fields = (cfg.runs, cfg.dim, cfg.max_generations, cfg.base_seed, *cfg.T_values)
        assert {type(value) for value in fields} == {int}

    def test_numpy_floats_and_bools_accepted(self):
        cfg = _small_cfg(
            bounds_lo=np.float64(-10.0), bounds_hi=np.float32(10.0),
            stationarity_threshold=np.float64(0.5), capture_curves=np.True_,
        )
        assert cfg == _small_cfg(
            bounds_lo=-10.0, bounds_hi=10.0, stationarity_threshold=0.5,
            capture_curves=True,
        )
        fields = (cfg.bounds_lo, cfg.bounds_hi, cfg.stationarity_threshold)
        assert {type(value) for value in fields} == {float}
        assert type(cfg.capture_curves) is bool
        assert type(_small_cfg(bounds_lo=-10).bounds_lo) is float

    @pytest.mark.parametrize(
        "value, message",
        (
            (0.0, "must be > 0"),
            (-1.0, "must be > 0"),
            (float("nan"), "must be > 0"),
            (float("inf"), "must be finite, got inf"),
        ),
    )
    def test_stationarity_threshold_bound_names_the_field(self, value, message):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(stationarity_threshold=value)
        assert str(exc.value) == f"stationarity_threshold {message}"

    def test_box_wider_than_float64_rejected_up_front(self):
        with pytest.raises(ValueError, match="bounds must have a finite width"):
            ExperimentConfig(bounds_lo=-1e308, bounds_hi=1e308)

    @pytest.mark.parametrize(
        "key, field, entries",
        (
            ("functions", "functions", ("zhou1", "zhou2", "zhou1")),
            ("algorithms", "algorithms", ("gwo", "gwo")),
            ("T", "T_values", (5, 10, 5)),
        ),
    )
    def test_repeated_grid_entries_rejected(self, key, field, entries):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(**{field: entries})
        assert str(exc.value) == f"{key} lists {entries[0]!r} more than once"


class TestRunUntilStagnation:
    @staticmethod
    def _state(seed=11, algorithm="gwo"):
        obj = objective("zhou1", 3)
        return algos.init(algorithm, obj, derive_stream(seed, ["harness-test"]), 20000)

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


def _stepped_by_hand(state, T, max_generations):
    """Reference curve: step `state` under the harness's exit rule and read
    ``tracker.best_value`` after every step."""
    pairs = [(state.generation, state.tracker.best_value)]
    while (
        state.generation - state.tracker.last_improvement_gen < T
        and state.generation < max_generations
    ):
        state = algos.step(state)
        pairs.append((state.generation, state.tracker.best_value))
    return pairs


class TestCurve:
    @staticmethod
    def _state(algorithm, horizon):
        obj = objective("zhou1", 3)
        return algos.init(algorithm, obj, derive_stream(5, ["curve-test"]), horizon)

    @pytest.mark.parametrize("algorithm", algos.ALGORITHMS)
    @pytest.mark.parametrize(
        "T,max_generations,termination",
        ((20, 20000, TERMINATION_STAGNATION), (1000, 120, TERMINATION_CAP)),
        ids=("stagnation", "cap"),
    )
    def test_curve_matches_per_generation_reference(
        self, algorithm, T, max_generations, termination
    ):
        expected = _stepped_by_hand(
            self._state(algorithm, max_generations), T, max_generations
        )
        state, got_termination, curve = run_until_stagnation(
            self._state(algorithm, max_generations), T, max_generations,
            capture=True,
        )
        assert got_termination == termination
        assert isinstance(curve, Curve) and curve
        # Same generations and the same bits in every value.
        assert [(g, v.hex()) for g, v in curve] == [
            (g, v.hex()) for g, v in expected
        ]
        n = len(curve)
        assert n == state.generation + 1
        assert [curve[i] for i in range(n)] == expected
        assert [curve[i] for i in range(-n, 0)] == expected
        assert curve[-1][1] == state.tracker.best_value

    def test_index_past_either_end_raises(self):
        _, _, curve = run_until_stagnation(
            self._state("gwo", 20000), 20, 20000, capture=True
        )
        n = len(curve)
        for i in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                curve[i]

    def test_pickle_keeps_only_the_change_points(self):
        state, termination, curve = run_until_stagnation(
            self._state("gwo", 1000), 1000, 1000, capture=True
        )
        assert termination == TERMINATION_CAP and len(curve) == 1001
        data = pickle.dumps(curve)
        assert len(data) < 1024
        restored = pickle.loads(data)
        assert restored == curve
        assert list(restored) == list(curve)
        assert restored[-1][1] == state.tracker.best_value

    def test_run_single_curve_has_one_pair_per_generation(self):
        rec = run_single("zhou2", "lshade", 30, 0, _small_cfg(capture_curves=True))
        assert len(rec.curve) == rec.generations + 1
        assert rec.curve[-1] == (rec.generations, rec.best_value)
        assert run_single("zhou2", "lshade", 30, 0, _small_cfg()).curve == ()


class TestRunSingle:
    def test_record_fields_and_determinism(self):
        cfg = _small_cfg()
        r1 = run_single("zhou1", "gwo", 50, 0, cfg)
        r2 = run_single("zhou1", "gwo", 50, 0, cfg)
        assert r1.best_value == r2.best_value
        assert np.array_equal(r1.best_point, r2.best_point)
        assert r1.generations == r2.generations
        assert r1.evaluations == r2.evaluations
        assert r1.termination == TERMINATION_STAGNATION

    def test_grad_norm_is_the_audit_quantity(self):
        cfg = _small_cfg()
        rec = run_single("zhou2", "woa", 50, 1, cfg)
        obj = objective("zhou2", cfg.dim, cfg.domain())
        assert rec.grad_norm == pytest.approx(
            float(np.linalg.norm(obj.grad(rec.best_point))), rel=1e-15
        )

    def test_audit_norm_stays_finite_where_the_squares_overflow(self, monkeypatch):
        # On [5e153, 6e153]^2 every sphere value is finite, but the squared
        # gradient entries (2x)^2 sum past float64.
        monkeypatch.setattr(
            harness, "objective", lambda f, dim, bounds: sphere_objective(dim, bounds)
        )
        cfg = ExperimentConfig(
            functions=("zhou1",), algorithms=("gwo",), T_values=(5,), runs=1,
            dim=2, bounds_lo=5e153, bounds_hi=6e153, max_generations=50,
        )
        rec = run_single("zhou1", "gwo", 5, 0, cfg)
        grad = 2.0 * rec.best_point
        with np.errstate(over="ignore"):
            assert np.linalg.norm(grad) == np.inf
        assert rec.grad_norm == float(np.hypot(*grad))

    def test_run_index_changes_outcome(self):
        cfg = _small_cfg()
        r0 = run_single("zhou1", "gwo", 50, 0, cfg)
        r1 = run_single("zhou1", "gwo", 50, 1, cfg)
        assert r0.best_value != r1.best_value

    @pytest.mark.parametrize(
        "field, value",
        (("T", 2.5), ("T", True), ("T", "2"), ("run_index", 1.0), ("run_index", True)),
    )
    def test_non_integer_T_or_run_index_names_the_field(self, field, value):
        args = {"T": 2, "run_index": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            run_single("zhou1", "gwo", args["T"], args["run_index"], _small_cfg())

    def test_numpy_integer_T_and_run_index_run_as_ints(self):
        cfg = _small_cfg()
        rec = run_single("zhou1", "gwo", np.int64(2), np.int32(1), cfg)
        assert type(rec.T) is int and type(rec.run_index) is int
        ref = run_single("zhou1", "gwo", 2, 1, cfg)
        assert (rec.T, rec.run_index, rec.generations, rec.evaluations) == (
            2, 1, ref.generations, ref.evaluations,
        )
        assert rec.best_value == ref.best_value
        assert np.array_equal(rec.best_point, ref.best_point)


@pytest.fixture
def pool_widths(monkeypatch):
    """Replace ``multiprocessing.Pool`` with an in-process stand-in whose
    ``imap`` is ``map``; the list collects the width of each pool built."""
    widths = []

    class InProcessPool:
        def __init__(self, processes, initializer=None):
            widths.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    return widths


def _pin_cpus(monkeypatch, affinity, count=8):
    """Make the usable CPUs the set `affinity`, or, when it is None, leave
    the platform without an affinity mask and `os.cpu_count()` at `count`."""
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        cpus = set(affinity)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


class TestCheckWorkers:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="^workers must be >= 0$"):
            harness.check_workers(-1)

    @pytest.mark.parametrize("workers", (1.5, True, "2"))
    def test_non_integer_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="^workers must be an integer"):
            harness.check_workers(workers)

    def test_numpy_integer_workers_become_an_int(self):
        workers = harness.check_workers(np.int64(2))
        assert type(workers) is int and workers == 2


class TestWorkerRule:
    """How many worker processes `run_experiment` runs, checked on the
    in-process pool stand-in: nothing forks."""

    def test_auto_workers_use_every_usable_cpu(self, monkeypatch, pool_widths):
        _pin_cpus(monkeypatch, {0, 1, 2})
        records, _ = run_experiment(_small_cfg(runs=10), workers=0)
        assert pool_widths == [3]
        assert len(records) == 40

    def test_workers_capped_at_usable_cpus(self, monkeypatch, pool_widths):
        _pin_cpus(monkeypatch, {0, 1, 2})
        run_experiment(_small_cfg(functions=("zhou1",), runs=5), workers=10**6)
        assert pool_widths == [3]

    def test_one_usable_cpu_builds_no_pool(self, monkeypatch, pool_widths):
        _pin_cpus(monkeypatch, {5})
        cfg = _small_cfg(functions=("zhou1",), algorithms=("gwo",), runs=3)
        for workers in (0, 4):
            records, _ = run_experiment(cfg, workers=workers)
            assert len(records) == 3
        assert pool_widths == []

    def test_workers_fall_back_to_cpu_count(self, monkeypatch, pool_widths):
        cfg = _small_cfg(functions=("zhou1",), algorithms=("gwo",), runs=10)
        _pin_cpus(monkeypatch, None, count=6)
        run_experiment(cfg, workers=0)
        run_experiment(cfg, workers=4)
        assert pool_widths == [6, 4]
        _pin_cpus(monkeypatch, None, count=None)
        records, _ = run_experiment(cfg, workers=0)
        assert pool_widths == [6, 4]
        assert len(records) == 10


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

    def test_workers_do_not_change_results(self, monkeypatch):
        _pin_cpus(monkeypatch, {0, 1, 2})
        cfg = _small_cfg()
        serial_records, serial_summary = run_experiment(cfg, workers=1)
        parallel_records, parallel_summary = run_experiment(cfg, workers=3)
        for a, b in zip(serial_records, parallel_records):
            assert a.best_value == b.best_value
            assert a.grad_norm == b.grad_norm
            assert a.generations == b.generations
            assert np.array_equal(a.best_point, b.best_point)
        assert serial_summary == parallel_summary

    def test_workers_do_not_change_curve_files(self, tmp_path, monkeypatch):
        _pin_cpus(monkeypatch, {0, 1})
        cfg = _small_cfg(
            functions=("zhou1",), algorithms=algos.ALGORITHMS, T_values=(30,),
            capture_curves=True,
        )
        files = {}
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            out.mkdir()
            records, _ = run_experiment(cfg, workers=workers)
            files[workers] = {
                os.path.basename(p): Path(p).read_bytes()
                for p in write_curves(records, str(out))
            }
        assert len(files[1]) == len(cfg.algorithms)
        assert files[1] == files[2]

    def test_pool_never_wider_than_task_list(self, monkeypatch, pool_widths):
        _pin_cpus(monkeypatch, range(8))
        cfg = _small_cfg(functions=("zhou1",), algorithms=("gwo",))
        records, _ = run_experiment(cfg, workers=10**6)
        assert pool_widths == [2]
        assert len(records) == 2

    @pytest.mark.parametrize("workers", (1.5, True, "2"))
    def test_non_integer_workers_rejected_before_any_run(self, workers, monkeypatch):
        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_single", no_run)
        with pytest.raises(ValueError, match="^workers must be an integer"):
            run_experiment(_small_cfg(runs=3), workers=workers)

    def test_negative_workers_rejected_before_any_run(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_single", no_run)
        with pytest.raises(ValueError, match="^workers must be >= 0$"):
            run_experiment(_small_cfg(runs=3), workers=-3)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
    def test_stopped_pool_leaves_no_worker(self, error, monkeypatch):
        def stop(rec):
            raise error("stop")

        _pin_cpus(monkeypatch, {0, 1})
        with pytest.raises(error):
            run_experiment(_small_cfg(runs=10), workers=2, progress=stop)
        assert multiprocessing.active_children() == []

    def test_run_failing_in_a_worker_leaves_no_worker(self, monkeypatch):
        def fail(*args):
            raise ValueError(f"run failed in process {os.getpid()}")

        _pin_cpus(monkeypatch, {0, 1})
        monkeypatch.setattr(harness, "run_single", fail)
        with pytest.raises(ValueError, match=r"^run failed in process \d+$") as exc:
            run_experiment(_small_cfg(runs=10), workers=2)
        assert int(str(exc.value).split()[-1]) != os.getpid()
        assert multiprocessing.active_children() == []

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
