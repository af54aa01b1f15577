"""Tests for stagbench.cli: subcommands, config parsing, exit codes."""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from stagbench import harness, verify
from stagbench.cli import (CONFIG_KEYS, _build_parser, main, parse_config,
                           read_config_file)
from stagbench.harness import ExperimentConfig

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = Path(__file__).resolve().parents[1] / "src"

FAST_CELL = [
    "--functions", "zhou1", "--algorithms", "gwo", "--T", "50", "--runs", "2",
]
ONE_RUN = ["--functions", "zhou1", "--algorithms", "gwo", "--T", "5", "--runs", "1"]


def _from_flags(*argv: str):
    """`experiment`'s flags `argv` parsed as the command parses them."""
    args = _build_parser().parse_args(["experiment", *argv])
    return parse_config(args.config, {key: getattr(args, key) for key in CONFIG_KEYS})


def _expected(output_dir="results", workers=0, **fields):
    return ExperimentConfig(**fields), output_dir, workers


class TestParseConfig:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but a comment\n\n")
        assert parse_config(str(path)) == (ExperimentConfig(), "results", 0)

    def test_no_file_gives_documented_defaults(self):
        cfg, _, _ = parse_config()
        assert cfg.functions == ("zhou1", "zhou2", "zhou3")
        assert len(cfg.algorithms) == 6
        assert cfg.T_values == (100, 200, 300, 500, 1000)
        assert cfg.runs == 30
        assert cfg.dim == 3
        assert (cfg.bounds_lo, cfg.bounds_hi) == (-100.0, 100.0)
        assert cfg.base_seed == 42

    def test_file_values_parsed(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(
            "functions = zhou1, zhou3\n"
            "algorithms = gwo\n"
            "T = 100, 200\n"
            "runs = 5\n"
            "bounds = -10, 10\n"
            "curves = true\n"
            "workers = 2\n"
            "output_dir = out\n"
        )
        cfg, output_dir, workers = parse_config(str(path))
        assert cfg.functions == ("zhou1", "zhou3")
        assert cfg.T_values == (100, 200)
        assert cfg.runs == 5
        assert (cfg.bounds_lo, cfg.bounds_hi) == (-10.0, 10.0)
        assert cfg.capture_curves is True
        assert workers == 2
        assert output_dir == "out"

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("T = 100, 200\n")
        cfg, _, _ = parse_config(str(path), {"T": "100"})
        assert cfg.T_values == (100,)

    def test_key_set_twice_in_one_file_rejected(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("runs = 2\ndim = 4\nruns = 3\n")
        with pytest.raises(ValueError, match=r"twice\.cfg:3: key 'runs' is set twice"):
            read_config_file(str(path))
        path.write_text("runs = 2\n")
        assert parse_config(str(path), {"runs": 3})[0].runs == 3

    def test_unknown_key_names_offender(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("banana = 1\n")
        with pytest.raises(ValueError, match="banana"):
            parse_config(str(path))

    def test_invalid_runs_names_field(self):
        with pytest.raises(ValueError, match="runs"):
            parse_config(None, {"runs": "0"})
        with pytest.raises(ValueError, match="^runs must be an integer, got '2.5'$"):
            parse_config(None, {"runs": "2.5"})
        with pytest.raises(
            ValueError, match="^stationarity_threshold must be a number, got 'x'$"
        ):
            parse_config(None, {"stationarity_threshold": "x"})

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("functions zhou1\n")
        with pytest.raises(ValueError, match="bad.cfg:1"):
            read_config_file(str(path))

    @pytest.mark.parametrize("text", ("-1", "1.5"))
    def test_bad_workers_rejected_before_the_output_directory(
            self, tmp_path, capsys, text):
        out = tmp_path / "out"
        assert main(["experiment", *ONE_RUN, "--workers", text,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: workers must be ")
        assert not out.exists()


# For each config key: a text its parser or ExperimentConfig rejects, and
# the one stderr line and exit code it gives.  Any string is a path, so the
# bad output_dir is one that cannot be created: an I/O error.
MALFORMED = {
    "functions": ("zhou9", "error: unknown function 'zhou9'; expected one of "
                  "('zhou1', 'zhou2', 'zhou3')\n", 2),
    "algorithms": ("pso", "error: unknown algorithm 'pso'; expected one of "
                   "('gl25', 'clpso', 'lshade', 'gwo', 'woa', 'hho')\n", 2),
    "T": ("5,x", "error: T must be a comma-separated integer list, got '5,x'\n", 2),
    "runs": ("2.5", "error: runs must be an integer, got '2.5'\n", 2),
    "dim": ("x", "error: dim must be an integer, got 'x'\n", 2),
    "bounds": ("1", "error: bounds must be 'lo,hi' numbers, got '1'\n", 2),
    "base_seed": ("4.0", "error: base_seed must be an integer, got '4.0'\n", 2),
    "max_generations": (
        "1e3", "error: max_generations must be an integer, got '1e3'\n", 2),
    "stationarity_threshold": (
        "x", "error: stationarity_threshold must be a number, got 'x'\n", 2),
    "workers": ("1.5", "error: workers must be an integer, got '1.5'\n", 2),
    "output_dir": ("/dev/null/x", "error: output directory not writable: "
                   "[Errno 20] Not a directory: '/dev/null/x'\n", 3),
    "curves": ("maybe", "error: curves must be a boolean, got 'maybe'\n", 2),
}

# For each config key: a valid text, as `experiment` flags and as the value
# of a config-file line.
VALID = {
    "functions": (["--functions", "zhou1,zhou3"], "zhou1, zhou3"),
    "algorithms": (["--algorithms", "woa,gwo"], "woa,gwo"),
    "T": (["--T", "100,200"], "100, 200"),
    "runs": (["--runs", "5"], "5"),
    "dim": (["--dim", "4"], "4"),
    "bounds": (["--bounds=-10,10"], "-10, 10"),
    "base_seed": (["--seed", "7"], "7"),
    "max_generations": (["--max-generations", "5000"], "5000"),
    "stationarity_threshold": (["--threshold", "0.5"], "0.5"),
    "workers": (["--workers", "2"], "2"),
    "output_dir": (["--out", "out"], "out"),
    "curves": (["--curves"], "true"),
}


class TestOneParsePath:
    """A flag's text and a config-file line reach the same parser."""

    def test_tables_cover_every_key(self):
        assert tuple(MALFORMED) == tuple(VALID) == CONFIG_KEYS

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_malformed_text_fails_alike(self, tmp_path, capsys, key):
        text, err, code = MALFORMED[key]
        flag = VALID[key][0][0].split("=")[0]
        # A one-run cell, so a text that parsed by mistake would run briefly.
        base = {"--functions": "zhou1", "--algorithms": "gwo", "--T": "5",
                "--runs": "1", "--out": str(tmp_path / "out")}
        argv = [f"{f}={v}" for f, v in base.items() if f != flag]
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"{key} = {text}\n")
        assert main(["experiment", *argv, "--config", str(cfg_file)]) == code
        assert capsys.readouterr().err == err
        if key == "curves":
            return  # a boolean flag carries no text
        assert main(["experiment", *argv, f"{flag}={text}"]) == code
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_valid_text_parses_alike(self, tmp_path, key):
        argv, text = VALID[key]
        cfg_file = tmp_path / "good.cfg"
        cfg_file.write_text(f"{key} = {text}\n")
        assert _from_flags(*argv) == parse_config(str(cfg_file))
        assert _from_flags(*argv) != parse_config()

    def test_no_curves_flag_is_curves_false(self, tmp_path):
        cfg_file = tmp_path / "good.cfg"
        cfg_file.write_text("curves = false\n")
        assert _from_flags("--no-curves") == parse_config(str(cfg_file))


# Every flag `experiment` has accepted, with the value it parses to.
FLAG_VALUES = (
    (["--functions", "zhou2,zhou3"], _expected(functions=("zhou2", "zhou3"))),
    (["--algorithms", "woa"], _expected(algorithms=("woa",))),
    (["--T", "7,9"], _expected(T_values=(7, 9))),
    (["--runs", "4"], _expected(runs=4)),
    (["--dim", "5"], _expected(dim=5)),
    (["--bounds", "3,4"], _expected(bounds_lo=3.0, bounds_hi=4.0)),
    (["--bounds=-3,4"], _expected(bounds_lo=-3.0, bounds_hi=4.0)),
    (["--seed", "7"], _expected(base_seed=7)),
    (["--max-generations", "5000"], _expected(max_generations=5000)),
    (["--threshold", "0.5"], _expected(stationarity_threshold=0.5)),
    (["--workers", "3"], _expected(workers=3)),
    (["--out", "elsewhere"], _expected(output_dir="elsewhere")),
    (["--curves"], _expected(capture_curves=True)),
    (["--no-curves"], _expected(capture_curves=False)),
)


class TestExperimentFlags:
    """Every flag `experiment` has accepted parses to the value it always
    has, so scripts that call the command keep working."""

    @pytest.mark.parametrize("argv, expected", FLAG_VALUES,
                             ids=[" ".join(argv) for argv, _ in FLAG_VALUES])
    def test_flag_parses_to_its_value(self, argv, expected):
        assert _from_flags(*argv) == expected

    def test_config_flag_reads_the_file_under_the_flags(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("runs = 6\ndim = 5\n")
        assert _from_flags("--config", str(cfg_file), "--dim", "4") == _expected(
            runs=6, dim=4)


class TestReadConfigFile:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text(
            "# header\n\nruns = 1  # trailing\n  dim=4 \noutput_dir =\n"
        )
        assert read_config_file(str(path)) == {
            "runs": "1", "dim": "4", "output_dir": "",
        }

    def test_line_without_equals_is_located(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("runs = 1\ndim 2\n")
        with pytest.raises(ValueError) as exc:
            read_config_file(str(path))
        assert str(exc.value) == f"{path}:2: expected key = value, got 'dim 2'"


class TestNominalCommand:
    def test_csv_output_with_constant_ratio(self, capsys):
        code = main(["nominal", "--alpha", "0.25", "--steps", "8"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "step,diameter,predicted_factor,measured_factor"
        assert len(lines) == 10  # header + steps+1 rows
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "nan"
        for line in lines[2:]:
            measured = float(line.split(",")[3])
            assert measured == pytest.approx(0.5, abs=1e-12)

    def test_stagnant_mode_converges_for_large_alpha(self, capsys):
        code = main([
            "nominal", "--alpha", "1.5", "--n", "2", "--stagnant", "1",
            "--steps", "6",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[2:]:
            assert float(line.split(",")[3]) == pytest.approx(0.5, abs=1e-12)

    def test_mutual_mode_diverges_for_large_alpha(self, capsys):
        code = main(["nominal", "--alpha", "1.5", "--steps", "6"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[2:]:
            assert float(line.split(",")[3]) == pytest.approx(2.0, abs=1e-12)

    def test_invalid_population_exits_2(self, capsys):
        assert main(["nominal", "--alpha", "0.5", "--n", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_all_stagnant_exits_2(self, capsys):
        code = main([
            "nominal", "--alpha", "0.5", "--n", "2", "--stagnant", "0,1",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        (
            (["--n", "1"], "need at least 2 individuals"),
            (["--dim", "0"], "dim must be >= 1"),
            (["--stagnant", "0,1"], "at least one individual must be mobile"),
            (["--stagnant", "2"], "stagnant_set indices must lie in [0, 2)"),
            (["--n", "-1"], "negative dimensions are not allowed"),
            (["--dim", "-2"], "negative dimensions are not allowed"),
        ),
    )
    def test_bad_population_fails_in_one_line(self, capsys, flags, message):
        assert main(["nominal", "--alpha", "0.5", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_output_is_pinned(self, capsys):
        # Pins both streams the command draws from: the initial population
        # from ["nominal"] and the pairings from ["nominal", "simulate"].
        argv = ["--alpha", "0.3", "--n", "7", "--dim", "3", "--steps", "40"]
        assert main(["nominal", *argv]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == (
            "4a07df4ab46470c88678383e31abe75bf94c1b707aa7567f7f1b9f68bd6295b4"
        )

    def test_bad_stagnant_exits_2_and_names_flag(self, capsys):
        assert main(["nominal", "--alpha", "0.5", "--stagnant", "a"]) == 2
        assert capsys.readouterr().err == (
            "error: --stagnant must be comma-separated integers, got 'a'\n"
        )

    def test_size_that_cannot_be_allocated_fails_in_one_line(self):
        # 1e9 x 1e6 float64s is about 7 PiB, past the 128 TiB user address
        # space, so the allocation fails at once whatever the overcommit rule.
        proc = _stagbench([], "nominal", "--alpha", "0.5", "--n", "1000000000",
                          "--dim", "1000000")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: Unable to allocate ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("warning_flags", ([], ["-W", "error"]))
    def test_divergence_stays_finite_until_float64_ends(self, warning_flags):
        proc = _stagbench(warning_flags, "nominal", "--alpha", "1.5",
                          "--steps", "600")
        assert proc.returncode == 0 and proc.stderr == ""
        rows = proc.stdout.splitlines()[1:]
        assert len(rows) == 601
        assert all(np.isfinite(float(row.split(",")[1])) for row in rows)

    @pytest.mark.parametrize("warning_flags", ([], ["-W", "error"]))
    def test_divergence_past_float64_fails_in_one_line(self, warning_flags):
        proc = _stagbench(warning_flags, "nominal", "--alpha", "1.5",
                          "--steps", "1100")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(
            "error: the population's diameter left the float64 range at step "
        )
        assert proc.stderr.count("\n") == 1


class TestBenchCommand:
    def test_certificate_point(self, capsys):
        code = main(["bench", "zhou1", "--point", "1,2,8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "value: 0\n" in out
        assert "grad_norm: 0\n" in out

    def test_optimum_branch(self, capsys):
        code = main(["bench", "zhou2", "--optimum", "plus", "--dim", "4"])
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split("value: ")[1].splitlines()[0])
        assert abs(value) <= 1e-8

    def test_dim_must_match_the_point(self, capsys):
        assert main(["bench", "zhou1", "--point", "1,2,8", "--dim", "3"]) == 0
        assert "grad_norm: 0\n" in capsys.readouterr().out
        assert main(["bench", "zhou1", "--point", "1,2,8", "--dim", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --dim is 5 but --point has 3 coordinates\n"

    def test_optimum_dim_defaults_to_3(self, capsys):
        assert main(["bench", "zhou1", "--optimum"]) == 0
        assert "point: 1,2,8\n" in capsys.readouterr().out

    def test_unknown_function_exits_2_and_lists_names(self, capsys):
        # The one-coordinate point checks that the name is checked first.
        for point in ("1,2", "1"):
            code = main(["bench", "zhou9", "--point", point])
            assert code == 2
            err = capsys.readouterr().err
            for name in ("zhou1", "zhou2", "zhou3"):
                assert name in err

    def test_bad_point_exits_2(self, capsys):
        assert main(["bench", "zhou1", "--point", "1,zebra"]) == 2

    @pytest.mark.parametrize("warning_flags", ([], ["-W", "error"]))
    def test_overflowing_point_fails_in_one_line(self, warning_flags):
        proc = _stagbench(warning_flags, "bench", "zhou1",
                          "--point", "1e200,1,1")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "error: the zhou1 value or gradient norm overflows float64 "
            "at this point\n"
        )

    @pytest.mark.parametrize("warning_flags", ([], ["-W", "error"]))
    def test_finite_gradient_whose_squares_overflow(self, warning_flags):
        proc = _stagbench(warning_flags, "bench", "zhou2",
                          "--point", "1e150,1,1")
        assert proc.returncode == 0 and proc.stderr == ""
        lines = dict(line.split(": ") for line in proc.stdout.splitlines())
        assert float(lines["value"]) == 4.0001e304
        grad = np.array([float(g) for g in lines["gradient"].split(",")])
        assert np.isfinite(grad).all()
        assert float(lines["grad_norm"]) == 4.660862075616236e157


class TestRunAndExperimentCommands:
    def test_run_writes_reports_and_prints_table(self, tmp_path, capsys):
        out_dir = tmp_path / "cell"
        code = main(["experiment", *FAST_CELL, "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "summary.csv").exists()
        table = capsys.readouterr().out
        assert "mean_grad_norm" in table and "zhou1" in table

    def test_experiment_grid_row_count(self, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        code = main([
            "experiment", "--functions", "zhou1,zhou2", "--algorithms",
            "gwo,woa", "--T", "50", "--runs", "1", "--out", str(out_dir),
        ])
        assert code == 0
        summary = (out_dir / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 1 + 2 * 2 * 1  # header + cells

    def test_experiment_same_config_twice_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["experiment", *FAST_CELL, "--out", str(out)]) == 0
        assert (out_a / "records.csv").read_bytes() == (
            out_b / "records.csv"
        ).read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (
            out_b / "summary.csv"
        ).read_bytes()

    def test_experiment_curves_flag(self, tmp_path):
        out_dir = tmp_path / "curves"
        code = main([
            "experiment", *FAST_CELL, "--curves", "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "curve_zhou1_gwo_T50.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "functions = zhou1\nalgorithms = gwo, woa\nT = 50\nruns = 1\n"
        )
        out_dir = tmp_path / "out"
        code = main([
            "experiment", "--config", str(cfg_file), "--algorithms", "woa",
            "--out", str(out_dir),
        ])
        assert code == 0
        records = (out_dir / "records.csv").read_text()
        assert "woa" in records and "gwo" not in records

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("zebra = 1\n")
        assert main(["experiment", "--config", str(cfg_file)]) == 2
        assert "zebra" in capsys.readouterr().err

    def test_infinite_threshold_exits_2_and_names_key(self, tmp_path, capsys):
        code = main(["experiment", *ONE_RUN, "--threshold", "inf",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: stationarity_threshold must be finite, got inf\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["experiment", "--config", "/no/such/file.cfg"]) == 2

    def test_invalid_t_exits_2(self, capsys):
        code = main([
            "experiment", "--functions", "zhou1", "--algorithms", "gwo",
            "--T", "0", "--runs", "1",
        ])
        assert code == 2

    @pytest.mark.parametrize("bounds", ("a,b", "1", "1,2,3"))
    def test_bad_bounds_exits_2_and_names_key(self, capsys, bounds):
        assert main(["experiment", "--bounds", bounds]) == 2
        err = capsys.readouterr().err
        assert f"bounds must be 'lo,hi' numbers, got '{bounds}'" in err

    def test_box_wider_than_float64_exits_2_and_names_key(self, capsys):
        code = main(["experiment", "--functions", "zhou1", "--algorithms", "gwo",
                     "--T", "5", "--runs", "4", "--workers", "2",
                     "--bounds=-1e308,1e308"])
        assert code == 2
        assert "error: bounds must have a finite width" in capsys.readouterr().err

    def test_repeated_T_exits_2_and_names_key(self, tmp_path, capsys):
        code = main(["experiment", "--functions", "zhou1", "--algorithms", "gwo",
                     "--T", "5,10,5", "--runs", "2", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: T lists 5 more than once\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("warning_flags", ([], ["-W", "error"]))
    def test_box_that_overflows_the_kernels_fails_in_one_line(
            self, tmp_path, warning_flags):
        proc = _stagbench(
            warning_flags, "experiment", *ONE_RUN, "--bounds=-1e307,1e307",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: every initial sample evaluated non-finite\n"

    def test_interrupt_exits_130(self, monkeypatch, tmp_path, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "run_experiment", interrupted)
        assert main(["experiment", *FAST_CELL, "--out", str(tmp_path)]) == 130
        assert capsys.readouterr().err == "interrupted\n"

    def test_unwritable_output_exits_3(self, capsys):
        code = main(["experiment", "--functions", "zhou1", "--algorithms", "gwo",
                     "--T", "50", "--runs", "1", "--out", "/dev/null/x"])
        assert code == 3

    def test_write_probe_leaves_the_users_files_alone(self, tmp_path):
        (tmp_path / ".write_probe").write_text("notes\n")
        assert main(["experiment", *ONE_RUN, "--out", str(tmp_path)]) == 0
        assert (tmp_path / ".write_probe").read_text() == "notes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".write_probe", "records.csv", "summary.csv",
        ]


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)

    def test_every_verdict_is_a_bool(self):
        assert [type(ok) for _, ok, _ in verify.run_checks()] == [bool] * 5

    def test_theorem1_rejects_a_separation_that_reopens(self, monkeypatch):
        # alpha 0.5 collapses the pair in one step (ratio 0 = |1 - 2a|), so
        # only the rule that a zero separation stays zero can fail here.
        def errors(alpha):
            if alpha == 0.5:
                return np.array([10.0, 0.0, 1e-300])
            return 10.0 * abs(1.0 - 2.0 * alpha) ** np.arange(3.0)

        monkeypatch.setattr(verify, "_mutual_errors", errors)
        _, ok, detail = verify.check_theorem1()
        assert ok is False
        worst = float(detail.split(" = ")[1].split()[0])
        assert worst <= verify.RATIO_TOL

    def test_failing_check_exits_1_and_the_rest_still_print(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            verify, "check_theorem1",
            lambda: ("theorem1_contraction", False, "forced failure"),
        )
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "FAIL  theorem1_contraction: forced failure"
        assert [line.split(":")[0] for line in lines[1:]] == [
            "PASS  remark2_witness",
            "PASS  optimum_certificates",
            "PASS  gradient_oracle",
            "PASS  ring_consensus",
        ]


def _child_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, so
    a child interpreter imports the code under test without an install."""
    env = dict(os.environ)
    paths = [str(SRC), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def _stagbench(warning_flags: Sequence[str], *argv: str):
    """Run ``python [warning_flags] -m stagbench argv`` in a child process."""
    return subprocess.run(
        [sys.executable, *warning_flags, "-m", "stagbench", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )


def _console_script(entry: importlib.metadata.EntryPoint,
                    argv: Sequence[str]):
    """Run the wrapper a console-script installer generates for ``entry``."""
    wrapper = (
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.argv[0] = {entry.name!r}\n"
        f"sys.exit({entry.attr}())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )


class TestEntryPoint:
    def test_console_script_installed(self):
        """The ``stagbench`` command is declared and runs ``cli.main``.

        Everywhere Python has ``tomllib``: the ``[project.scripts]`` entry
        in ``pyproject.toml`` must resolve to ``stagbench.cli.main``, and
        the wrapper an installer generates from that entry must run it and
        exit with its return code.  Only when a ``stagbench`` distribution
        is installed: its ``console_scripts`` entry must match the
        declaration and the command must be on PATH.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "stagbench" in scripts
        entry = scripts["stagbench"]
        declared = importlib.metadata.EntryPoint(
            name="stagbench", value=entry, group="console_scripts")
        assert declared.load() is main

        proc = _console_script(declared, ["bench", "zhou1", "--point", "1,2,8"])
        assert proc.returncode == 0, proc.stderr
        assert "value: 0" in proc.stdout
        proc = _console_script(declared, ["bench", "zhou9", "--point", "1,2"])
        assert proc.returncode == 2, proc.stderr

        try:
            dist = importlib.metadata.distribution("stagbench")
        except importlib.metadata.PackageNotFoundError:
            return
        installed = dist.entry_points.select(
            group="console_scripts", name="stagbench")
        assert [ep.value for ep in installed] == [entry]
        assert shutil.which("stagbench") is not None

    @pytest.mark.parametrize("module", ["stagbench.cli", "stagbench"])
    def test_module_invocation(self, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "bench", "zhou1",
             "--point", "1,2,8"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "value: 0" in proc.stdout

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


POOL_STACK = ("concurrent.futures", "multiprocessing", "socket", "logging",
              "queue")


def _loaded_after(script: str, modules: Sequence[str] = POOL_STACK) -> list:
    """Run ``script`` in a fresh interpreter and return which of `modules`
    it left in ``sys.modules``."""
    probe = (
        f"{script}\n"
        "import sys\n"
        f"print(*(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_leaves_out_modules_the_grid_does_not_use():
    assert _loaded_after(
        "import stagbench",
        ("stagbench.nominal", "stagbench.verify", "stagbench.cli"),
    ) == []


class TestProcessPoolStack:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_loaded_only_when_a_pool_starts(self, workers):
        # Two usable CPUs, so workers=2 runs a pool on any host.
        script = (
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "import stagbench\n"
            "cfg = stagbench.ExperimentConfig(functions=('zhou1',), "
            "algorithms=('gwo',), T_values=(5,), runs=2, max_generations=50)\n"
            f"stagbench.run_experiment(cfg, workers={workers})\n"
        )
        loaded = _loaded_after(script)
        if workers == 1:
            assert loaded == []
        else:
            assert "multiprocessing" in loaded
            assert not {"concurrent.futures", "logging"} & set(loaded)

    def test_not_loaded_by_one_worker_commands(self, tmp_path):
        commands = [
            ["nominal", "--alpha", "0.5", "--steps", "3"],
            ["bench", "zhou1", "--point", "1,2,8"],
            ["verify"],
            ["experiment", "--functions", "zhou1", "--algorithms", "gwo",
             "--T", "5", "--runs", "2", "--workers", "1", "--out", str(tmp_path)],
        ]
        script = (
            "import contextlib, io\n"
            "from stagbench.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert [main(argv) for argv in {commands!r}] == [0, 0, 0, 0]\n"
        )
        assert _loaded_after(script) == []


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
class TestInterrupt:
    @pytest.mark.parametrize("target", ["parent", "group"])
    def test_ctrl_c_ends_a_pooled_run_cleanly(self, tmp_path, target):
        """SIGINT to the parent alone, or to its whole process group as a
        terminal's Ctrl-C sends it, 2 s after the imports ends a 2-worker
        run with exit 130, the one line ``interrupted`` on stderr, and no
        process of the run left.  The usable CPU count is pinned to 2 so the
        run is pooled on any host."""
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from stagbench.cli import main\n"
            "print('imported', flush=True)\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["experiment", "--functions", "zhou1", "--algorithms", "hho",
                "--T", "1000", "--runs", "400", "--workers", "2",
                "--out", str(tmp_path)]
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(),
            start_new_session=True,
        )
        try:
            assert proc.stdout.readline() == "imported\n"
            time.sleep(2.0)
            if target == "group":
                os.killpg(proc.pid, signal.SIGINT)
            else:
                proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130, err
        assert err.splitlines() == ["interrupted"]
        assert not (tmp_path / "records.csv").exists()
        deadline = time.monotonic() + 10.0
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a pool worker outlived the run"
            time.sleep(0.05)
