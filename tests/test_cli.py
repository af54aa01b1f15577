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

from stagbench import algorithms, benchmarks, cli, harness, nominal, verify
from stagbench.cli import (CONFIG_KEYS, _parse_args, main, parse_config,
                           read_config_file)
from stagbench.core import Bounds, derive_stream
from stagbench.harness import ExperimentConfig

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = Path(__file__).resolve().parents[1] / "src"

FAST_CELL = [
    "--functions", "zhou1", "--algorithms", "gwo", "--T", "50", "--runs", "2",
]
ONE_RUN = ["--functions", "zhou1", "--algorithms", "gwo", "--T", "5", "--runs", "1"]


def _from_flags(*argv: str):
    """`experiment`'s flags `argv` parsed as the command parses them."""
    args = _parse_args(["experiment", *argv])
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
        with pytest.raises(ValueError, match="^unknown config key 'bogus'$"):
            parse_config(overrides={"bogus": "1"})

    def test_invalid_runs_names_field(self):
        with pytest.raises(ValueError, match="runs"):
            parse_config(None, {"runs": "0"})
        with pytest.raises(ValueError, match="^runs must be an integer, got '2.5'$"):
            parse_config(None, {"runs": "2.5"})
        with pytest.raises(
            ValueError, match="^stationarity_threshold must be a number, got 'x'$"
        ):
            parse_config(None, {"stationarity_threshold": "x"})

    @pytest.mark.parametrize("key, text, kind", (
        ("functions", "zhou1,", "a comma-separated name list"),
        ("algorithms", "gwo, ,woa", "a comma-separated name list"),
        ("T", "100,,1000", "a comma-separated integer list"),
        ("bounds", "1,,2", "'lo,hi' numbers"),
    ), ids=("functions", "algorithms", "T", "bounds"))
    def test_empty_list_item_names_the_key(self, tmp_path, key, text, kind):
        path = tmp_path / "grid.cfg"
        path.write_text(f"{key} = {text}\n")
        message = f"^{key} must be {kind}, got '{text}'$"
        with pytest.raises(ValueError, match=message):
            parse_config(str(path))

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
# the one stderr line and exit code it gives.  Any text but the empty one is
# a path; one that cannot be created is an I/O error, which
# `test_unwritable_output_exits_3` checks.
MALFORMED = {
    "functions": ("zhou9", "error: unknown benchmark function 'zhou9'; expected "
                  "one of ('zhou1', 'zhou2', 'zhou3')\n", 2),
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
    "output_dir": ("", "error: output_dir must be a path, got ''\n", 2),
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

    def test_value_that_starts_with_a_dash_parses_alike(self, tmp_path):
        cfg_file = tmp_path / "box.cfg"
        cfg_file.write_text("bounds = -10, 10\n")
        expected = _expected(bounds_lo=-10.0, bounds_hi=10.0)
        assert _from_flags("--bounds", "-10,10") == expected
        assert _from_flags("--bounds=-10,10") == expected
        assert parse_config(str(cfg_file)) == expected

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

    @pytest.mark.parametrize("key", [k for k in CONFIG_KEYS if k != "curves"])
    def test_flag_takes_the_next_token_even_with_a_dash(self, key):
        flag = VALID[key][0][0].split("=")[0]
        assert getattr(_parse_args(["experiment", flag, "-x"]), key) == "-x"

    def test_flag_without_a_value_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse_args(["experiment", "--runs", "2", "--bounds"])
        assert exc.value.code == 2
        assert "argument --bounds: expected one argument" in capsys.readouterr().err

    def test_dash_dash_token_is_never_a_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse_args(["experiment", "--out", "--runs", "2"])
        assert exc.value.code == 2
        assert "argument --out: expected one argument" in capsys.readouterr().err

    def test_dash_token_after_a_switch_names_the_switch(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse_args(["experiment", "--curves", "-x"])
        assert exc.value.code == 2
        assert "argument --curves/--no-curves:" in capsys.readouterr().err

    def test_help_after_a_flag_is_still_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse_args(["experiment", "--curves", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: stagbench experiment")

    def test_negative_horizon_reaches_the_config_check(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["experiment", "--T", "-5,100", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: every T must be >= 1\n"
        assert not out.exists()

    def test_abbreviated_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse_args(["experiment", "--run", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --run" in capsys.readouterr().err

    def test_config_flag_reads_the_file_under_the_flags(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("runs = 6\ndim = 5\n")
        assert _from_flags("--config", str(cfg_file), "--dim", "4") == _expected(
            runs=6, dim=4)


def _owner_message(check) -> str:
    with pytest.raises(ValueError) as exc:
        check()
    return str(exc.value)


# For each grid input that a lower layer checks: the config fields, the
# `experiment` flags and the owner's own call, which all give one message.
OWNED_RULES = {
    "function": (dict(functions=("zhou9",)), ["--functions", "zhou9"],
                 lambda: benchmarks.objective("zhou9", Bounds(-100.0, 100.0, 3))),
    "algorithm": (dict(algorithms=("pso",)), ["--algorithms", "pso"],
                  lambda: algorithms.check_name("pso")),
    "dim": (dict(dim=1), ["--dim", "1"],
            lambda: benchmarks.objective("zhou1", Bounds(-100.0, 100.0, 1))),
    "box": (dict(bounds_lo=1, bounds_hi=-1), ["--bounds", "1,-1"],
            lambda: Bounds(1.0, -1.0, 3)),
    "empty axis": (dict(functions=()), ["--functions", ""],
                   lambda: ExperimentConfig(functions=())),
}


class TestOneMessagePerRule:
    @pytest.mark.parametrize("rule", OWNED_RULES)
    def test_config_and_command_give_the_owners_message(self, tmp_path, capsys,
                                                        rule):
        fields, flags, check = OWNED_RULES[rule]
        message = _owner_message(check)
        assert _owner_message(lambda: ExperimentConfig(**fields)) == message
        base = {"--functions": "zhou1", "--algorithms": "gwo", "--T": "5",
                "--runs": "1"}
        argv = [f"{f}={v}" for f, v in base.items() if f != flags[0]]
        out = tmp_path / "out"
        assert main(["experiment", *argv, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestReadConfigFile:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text(
            "# header\n\nruns = 1  # trailing\n  dim=4 \noutput_dir =\n"
        )
        assert read_config_file(str(path)) == {
            "runs": "1", "dim": "4", "output_dir": "",
        }

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # A comment starts at a "#" that opens the line or follows
        # whitespace; any other "#" belongs to the value.
        path = tmp_path / "x.cfg"
        path.write_text(
            "output_dir = /tmp/a#b\nworkers = 0   # auto\n#dim = 4\nruns = 2\t#x\n"
        )
        assert read_config_file(str(path)) == {
            "output_dir": "/tmp/a#b", "workers": "0", "runs": "2",
        }

    def test_line_without_equals_is_located(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("runs = 1\ndim 2\n")
        with pytest.raises(ValueError) as exc:
            read_config_file(str(path))
        assert str(exc.value) == f"{path}:2: expected key = value, got 'dim 2'"

    def test_byte_that_is_not_utf8_is_located(self, tmp_path, capsys):
        path = tmp_path / "x.cfg"
        path.write_bytes(b"\xef\xbb\xbfruns = 1\r\n\r\ndim = 4\r# caf\xe9\nT = 5\n")
        with pytest.raises(ValueError) as exc:
            read_config_file(str(path))
        assert str(exc.value) == f"{path}:4: not UTF-8 text"
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}:4: not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("newline", ("\n", "\r\n", "\r"),
                             ids=("lf", "crlf", "cr"))
    def test_utf8_file_parses_under_every_line_ending(self, tmp_path, newline):
        path = tmp_path / "x.cfg"
        text = newline.join(("# café ☕ 🙂", "runs = 2", "output_dir = résultats", ""))
        path.write_bytes(text.encode("utf-8"))
        assert read_config_file(str(path)) == {"runs": "2", "output_dir": "résultats"}

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_bytes("\ufeffruns = 2\ndim = 4\n".encode("utf-8"))
        assert read_config_file(str(path)) == {"runs": "2", "dim": "4"}
        assert parse_config(str(path))[0].runs == 2


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
            (["--n", "-1"], "need at least 2 individuals"),
            (["--dim", "-2"], "dim must be >= 1"),
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

    @pytest.mark.parametrize("argv", (["--stagnant", "-1,0"], ["--stagnant=-1,0"]))
    def test_negative_stagnant_index_reaches_the_range_check(self, capsys, argv):
        assert main(["nominal", "--alpha", "0.5", "--n", "3", *argv]) == 2
        assert capsys.readouterr().err == (
            "error: stagnant_set indices must lie in [0, 3)\n"
        )

    def test_bad_stagnant_exits_2_and_names_flag(self, capsys):
        for text in ("a", "0,,1"):
            assert main(["nominal", "--alpha", "0.5", "--n", "3",
                         "--stagnant", text]) == 2
            assert capsys.readouterr().err == (
                f"error: --stagnant must be comma-separated integers, got '{text}'\n"
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


def _help(command: str, capsys) -> str:
    """`stagbench <command> --help` with each whitespace run read as one
    space, so a line that argparse wraps still reads as one phrase."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return " ".join(capsys.readouterr().out.split())


def _action(command: str, dest: str):
    """The argparse action behind `command`'s option `dest`."""
    parser = cli._build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    return next(a for a in commands[command]._actions if a.dest == dest)


class TestHelpShowsTheAppliedDefaults:
    """Each default the help names is the one applied, read from its owner."""

    def test_experiment_seed_reads_the_config_default(self, capsys):
        text = _help("experiment", capsys)
        assert f"(default {ExperimentConfig.base_seed})" in text

    def test_nominal_sizes_read_the_parser_defaults(self, capsys):
        text = _help("nominal", capsys)
        assert f"population size (default {_action('nominal', 'n').default})" in text
        assert f"dimension (default {_action('nominal', 'dim').default})" in text

    def test_bench_optimum_reads_its_const(self, capsys):
        const = _action("bench", "optimum").const
        assert f"(branch, default {const})" in _help("bench", capsys)

    def test_output_dir_and_bench_dim_read_their_constants(self, monkeypatch,
                                                           capsys):
        monkeypatch.setattr(cli, "OUTPUT_DIR", "elsewhere")
        monkeypatch.setattr(cli, "BENCH_DIM", 4)
        assert "output directory (default elsewhere)" in _help("experiment", capsys)
        assert "dimension for --optimum (default 4)" in _help("bench", capsys)
        assert parse_config()[1] == "elsewhere"
        assert main(["bench", "zhou1", "--optimum"]) == 0
        point = capsys.readouterr().out.split("point: ")[1].splitlines()[0]
        assert len(point.split(",")) == 4


class TestBenchCommand:
    def test_help_lists_the_functions(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        assert "zhou1 | zhou2 | zhou3" in capsys.readouterr().out

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

    @pytest.mark.parametrize("dim", (12, 40))
    def test_optimum_beyond_float64_names_function_and_dim(self, capsys, dim):
        assert main(["bench", "zhou1", "--optimum", "--dim", "11"]) == 0
        assert "grad_norm: 0\n" in capsys.readouterr().out
        assert main(["bench", "zhou1", "--optimum", "--dim", str(dim)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the zhou1 optimum overflows float64 at dim {dim}\n"
        )

    def test_zhou3_optimum_past_2_to_the_1024th_fails_in_one_line(self, capsys):
        assert main(["bench", "zhou3", "--optimum", "plus", "--dim", "1100"]) == 2
        assert capsys.readouterr().err == (
            "error: the zhou3 optimum overflows float64 at dim 1100\n"
        )

    def test_unknown_function_exits_2_and_lists_names(self, capsys):
        # The one-coordinate point checks that the name is checked first.
        for point in ("1,2", "1"):
            code = main(["bench", "zhou9", "--point", point])
            assert code == 2
            err = capsys.readouterr().err
            for name in ("zhou1", "zhou2", "zhou3"):
                assert name in err

    def test_bad_point_exits_2(self, capsys):
        for point in ("1,zebra", "1,,2,8", "1,2,"):
            assert main(["bench", "zhou1", "--point", point]) == 2
            assert capsys.readouterr() == ("", (
                f"error: --point must be comma-separated numbers, got '{point}'\n"
            ))

    @pytest.mark.parametrize("point, error", (
        ("inf,2,8", "batch contains non-finite coordinates"),
        ("1,nan,8", "batch contains non-finite coordinates"),
        ("", "benchmark functions need dim >= 2"),
        ("1", "benchmark functions need dim >= 2"),
    ), ids=("inf", "nan", "empty", "one-coordinate"))
    def test_point_is_read_by_the_batch_rule(self, capsys, point, error):
        assert main(["bench", "zhou1", "--point", point]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize("warning_flags", ([], ["-W", "error"]))
    def test_overflowing_point_fails_in_one_line(self, warning_flags):
        proc = _stagbench(warning_flags, "bench", "zhou1",
                          "--point", "1e200,1,1")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "error: the zhou1 value or gradient norm overflows float64 "
            "at this point\n"
        )

    @pytest.mark.parametrize("name, point", (
        ("zhou1", "1e200,1,1"),
        ("zhou3", "1e300,1e300,1e300"),
    ), ids=("zhou1-inf", "zhou3-nan"))
    def test_value_or_gradient_past_float64_exits_2(self, capsys, name, point):
        assert main(["bench", name, "--point", point]) == 2
        assert capsys.readouterr() == ("", (
            f"error: the {name} value or gradient norm overflows float64 "
            "at this point\n"
        ))

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

    def test_point_with_a_negative_first_coordinate_takes_the_space_form(self, capsys):
        point = "-23.586112946289894,6.892615318949088,-5.131355323514834"
        assert main(["bench", "zhou3", f"--point={point}"]) == 0
        expected = capsys.readouterr()
        assert main(["bench", "zhou3", "--point", point]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("argv", (["--poi", "-1,2,3"], ["--poi=-1,2,3"]))
    def test_abbreviated_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "zhou3", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert main(["bench", "zhou3", "--point", "-1,2,3"]) == 0
        assert "point: -1,2,3\n" in capsys.readouterr().out

    def test_optimum_without_a_branch_leaves_the_next_flag_alone(self):
        args = _parse_args(["bench", "zhou2", "--optimum", "--dim", "4"])
        assert (args.optimum, args.dim, args.point) == ("minus", 4, None)


class TestRunAndExperimentCommands:
    def test_run_writes_reports_and_prints_table(self, tmp_path, capsys):
        out_dir = tmp_path / "cell"
        code = main(["experiment", *FAST_CELL, "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "summary.csv").exists()
        # Without --curves no curve file is written.
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "records.csv", "summary.csv"]
        table = capsys.readouterr().out
        assert "mean_grad_norm" in table and "zhou1" in table

    def test_experiment_prints_the_summary_it_wrote(self, tmp_path, capsys):
        out_dir = tmp_path / "cell"
        assert main(["experiment", *FAST_CELL, "--out", str(out_dir)]) == 0
        table = harness.render_summary(str(out_dir / "summary.csv"))
        assert capsys.readouterr().out == table + "\n"

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

    def test_experiment_replaces_every_curve_file(self, tmp_path):
        # A curve file of an earlier grid goes, even one this grid does not
        # write; a file whose name `curve_filename` does not give stays.
        out_dir = tmp_path / "curves"
        grid = ["--functions", "zhou1", "--algorithms", "gwo", "--runs", "1",
                "--out", str(out_dir)]
        assert main(["experiment", *grid, "--T", "5,7", "--curves"]) == 0
        kept = ("curve_notes.csv", "notes.csv", "curve_zhou1_gwo_T05.csv")
        for name in kept:
            (out_dir / name).write_text("mine\n")
        assert main(["experiment", *grid, "--T", "3", "--curves"]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["curve_zhou1_gwo_T3.csv", "records.csv", "summary.csv", *kept])
        assert main(["experiment", *grid, "--T", "3"]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["records.csv", "summary.csv", *kept])
        assert all((out_dir / name).read_text() == "mine\n" for name in kept)

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
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg_file),
                     "--out", str(out)]) == 2
        assert "zebra" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_threshold_exits_2_and_names_key(self, tmp_path, capsys):
        code = main(["experiment", *ONE_RUN, "--threshold", "inf",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: stationarity_threshold must be finite, got inf\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        (
            (["--threshold", "nan"], "stationarity_threshold must be finite, got nan"),
            (["--bounds=-inf,1"], "bounds_lo must be finite, got -inf"),
            (["--bounds=-1,nan"], "bounds_hi must be finite, got nan"),
        ),
    )
    def test_non_finite_real_exits_2_and_names_key(self, tmp_path, capsys,
                                                  flags, message):
        code = main(["experiment", *ONE_RUN, *flags, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_integer_bound_fails_before_an_unknown_name(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["experiment", "--runs", "0", "--functions", "zhou9",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: runs must be >= 1\n"
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["experiment", "--config", "/no/such/file.cfg",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_config_that_is_a_directory_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["experiment", *ONE_RUN, "--config", str(tmp_path),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: '{tmp_path}'\n")
        assert not out.exists()

    def test_records_path_that_is_a_directory_exits_3(self, tmp_path, capsys):
        (tmp_path / "records.csv").mkdir()
        assert main(["experiment", *ONE_RUN, "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: failed writing reports: ")
        assert str(tmp_path / "records.csv") in err

    def test_invalid_t_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "experiment", "--functions", "zhou1", "--algorithms", "gwo",
            "--T", "0", "--runs", "1", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert main(["experiment", "--functions", "zhou1", "--algorithms", "gwo",
                     "--T", "100,,1000", "--runs", "1",
                     "--max-generations", "1001", "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            "error: T must be a comma-separated integer list, got '100,,1000'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("bounds", ("a,b", "1", "1,2,3"))
    def test_bad_bounds_exits_2_and_names_key(self, tmp_path, capsys, bounds):
        out = tmp_path / "out"
        assert main(["experiment", *ONE_RUN, "--bounds", bounds,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"bounds must be 'lo,hi' numbers, got '{bounds}'" in err
        assert not out.exists()

    def test_box_wider_than_float64_exits_2_and_names_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["experiment", "--functions", "zhou1", "--algorithms", "gwo",
                     "--T", "5", "--runs", "4", "--workers", "2",
                     "--bounds=-1e308,1e308", "--out", str(out)])
        assert code == 2
        assert "error: bounds must have a finite width" in capsys.readouterr().err
        assert not out.exists()

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

    def test_interrupt_while_parsing_exits_130(self, monkeypatch, capsys):
        def interrupted(argv):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_parse_args", interrupted)
        try:
            code = main(["experiment", *FAST_CELL])
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        assert code == 130
        assert capsys.readouterr().err == "interrupted\n"

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        code = main(["experiment", "--functions", "zhou1", "--algorithms", "gwo",
                     "--T", "50", "--runs", "1", "--out", "/dev/null/x"])
        assert code == 3
        err = ("error: output directory not writable: "
               "[Errno 20] Not a directory: '/dev/null/x'\n")
        assert capsys.readouterr().err == err
        cfg_file = tmp_path / "out.cfg"
        cfg_file.write_text("output_dir = /dev/null/x\n")
        assert main(["experiment", *ONE_RUN, "--config", str(cfg_file)]) == 3
        assert capsys.readouterr().err == err

    def test_write_probe_leaves_the_users_files_alone(self, tmp_path):
        (tmp_path / ".write_probe").write_text("notes\n")
        assert main(["experiment", *ONE_RUN, "--out", str(tmp_path)]) == 0
        assert (tmp_path / ".write_probe").read_text() == "notes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".write_probe", "records.csv", "summary.csv",
        ]


class TestVerifyCommand:
    def test_a_bug_is_not_reported_as_a_usage_error(self, monkeypatch):
        def broken():
            raise KeyError("x")

        monkeypatch.setattr(verify, "run_checks", broken)
        with pytest.raises(KeyError):
            main(["verify"])

    def test_all_checks_pass(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)

    def test_every_verdict_is_a_bool(self):
        assert [type(ok) for _, ok, _ in verify.run_checks()] == [bool] * 5

    def test_benchmark_checks_evaluate_stacked_batches(self, monkeypatch):
        calls = []
        for fn in ("value_batch", "gradient_batch", "fd_gradient"):
            def recording(name, X, _fn=fn, _inner=getattr(benchmarks, fn)):
                calls.append((_fn, name, np.array(X)))
                return _inner(name, X)

            monkeypatch.setattr(benchmarks, fn, recording)
        assert verify.check_optima()[1] is True
        # One value and one gradient call per (function, dim) on its optima.
        assert [(fn, name, X.tolist()) for fn, name, X in calls] == [
            (fn, name, np.array(benchmarks.optima(name, dim)).tolist())
            for name in benchmarks.FUNCTIONS for dim in (2, 3, 4, 5)
            for fn in ("value_batch", "gradient_batch")]
        calls.clear()
        assert verify.check_gradient_oracle()[1] is True
        # One gradient and one fd call per function on the same (100, 3)
        # draw, drawn in function order; the fd call's own stencil
        # evaluation is the value_batch call after it.
        assert [(fn, name) for fn, name, _ in calls] == [
            (fn, name) for name in benchmarks.FUNCTIONS
            for fn in ("gradient_batch", "fd_gradient", "value_batch")]
        gen = derive_stream(42, ["fd-check"])
        for i in range(len(benchmarks.FUNCTIONS)):
            draw = gen.uniform(-2.0, 2.0, size=(100, 3))
            assert np.array_equal(calls[3 * i][2], draw)
            assert np.array_equal(calls[3 * i + 1][2], draw)

    def test_theorem1_rejects_a_separation_that_reopens(self, monkeypatch):
        # alpha 0.5 collapses the pair in one step (ratio 0 = |1 - 2a|), so
        # only the rule that a zero separation stays zero can fail here.
        def errors(label, alpha):
            assert label == "mutual"
            if alpha == 0.5:
                return np.array([10.0, 0.0, 1e-300])
            return 10.0 * abs(1.0 - 2.0 * alpha) ** np.arange(3.0)

        monkeypatch.setattr(verify, "_errors", errors)
        _, ok, detail = verify.check_theorem1()
        assert ok is False
        worst = float(detail.split(" = ")[1].split()[0])
        assert worst <= verify.RATIO_TOL

    def test_remark2_checks_every_step_not_the_mean(self, monkeypatch):
        # The stagnant alpha 1.5 run steps by 1.0 and then 0.25: its
        # geometric mean is the predicted |1 - a| = 0.5, its steps are not.
        def errors(label, alpha):
            if (label, alpha) == ("stagnant", 1.5):
                return np.array([10.0, 10.0, 2.5])
            factor = nominal.predicted_factor(alpha, stagnant=label == "stagnant")
            return 10.0 * factor ** np.arange(3.0)

        monkeypatch.setattr(verify, "_errors", errors)
        _, ok, detail = verify.check_remark2()
        assert ok is False
        assert detail.endswith("max factor deviation = 5.000e-01")

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


# sha256 of `stagbench nominal` stdout: a constant ratio, a one-step collapse
# whose 0/0 steps print nan, a stagnant partner, random pairing at n=7 and a
# ring with two stagnant individuals.
NOMINAL_DIGESTS = {
    "--alpha 0.25 --steps 20":
        "209c0c53eaa223402ff3de00a7c908725728f8e502403e6a9bfc2cda26b18092",
    "--alpha 0.5 --steps 5":
        "dbddccf3a1c5b86592787d19593bba20bb26d871c1769f12573240e087db899e",
    "--alpha 1.5 --n 2 --stagnant 1 --steps 20":
        "dbe3bd26d4d5d252d84191e663aee7fa8ef758af76273622e26d3d94fe2b0c1c",
    "--alpha 0.3 --n 7 --dim 3 --steps 200":
        "4a9a590750420841bcef559dffe2b70301977aeb36178e29b64dd06261f5e614",
    "--alpha 0.9 --n 5 --stagnant 0,2 --pairing ring --steps 3000":
        "6b34a4c7c97b7132bcd1024067a42d89ca6b4ee385e16e605c05df0b193a397e",
}


def test_contraction_outputs_are_pinned(capsys):
    for argv, expected in NOMINAL_DIGESTS.items():
        assert main(["nominal", *argv.split()]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == expected, argv
    assert verify.check_theorem1() == (
        "theorem1_contraction", True,
        "max |step ratio - |1-2a|| = 2.220e-16 over alphas "
        "(0.1, 0.25, 0.5, 0.75, 0.9)",
    )
    assert verify.check_remark2() == (
        "remark2_witness", True,
        "stagnant contracts, mutual expands for alphas (1.1, 1.5, 1.9); "
        "max factor deviation = 4.441e-16",
    )


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
        run is pooled on any host.  The child installs Python's own SIGINT
        handler, as a terminal's foreground job has it, because a test run
        started in the background (``... &``) passes SIGINT on ignored."""
        script = (
            "import os, signal, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
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
