"""Tests for stagbench.cli: subcommands, config parsing, exit codes."""

from __future__ import annotations

import importlib.metadata
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import pytest

from stagbench.cli import CliConfig, main, parse_config, read_config_file
from stagbench.harness import ExperimentConfig

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAST_CELL = [
    "--functions", "zhou1", "--algorithms", "gwo", "--T", "50", "--runs", "2",
]


class TestParseConfig:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but a comment\n\n")
        cli_cfg = parse_config(str(path))
        assert cli_cfg.experiment == ExperimentConfig()
        assert cli_cfg.output_dir == "results"
        assert cli_cfg.workers == 0

    def test_no_file_gives_documented_defaults(self):
        cfg = parse_config().experiment
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
        cli_cfg = parse_config(str(path))
        cfg = cli_cfg.experiment
        assert cfg.functions == ("zhou1", "zhou3")
        assert cfg.T_values == (100, 200)
        assert cfg.runs == 5
        assert (cfg.bounds_lo, cfg.bounds_hi) == (-10.0, 10.0)
        assert cfg.capture_curves is True
        assert cli_cfg.workers == 2
        assert cli_cfg.output_dir == "out"

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("T = 100, 200\n")
        cfg = parse_config(str(path), {"T": "100"}).experiment
        assert cfg.T_values == (100,)

    def test_unknown_key_names_offender(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("banana = 1\n")
        with pytest.raises(ValueError, match="banana"):
            parse_config(str(path))

    def test_invalid_runs_names_field(self):
        with pytest.raises(ValueError, match="runs"):
            parse_config(None, {"runs": "0"})

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("functions zhou1\n")
        with pytest.raises(ValueError, match="bad.cfg:1"):
            read_config_file(str(path))

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            CliConfig(experiment=ExperimentConfig(), workers=-1)

    def test_auto_workers_positive(self):
        assert CliConfig(experiment=ExperimentConfig()).effective_workers() >= 1

    def test_workers_capped_at_cpu_count(self):
        cli_cfg = CliConfig(experiment=ExperimentConfig(), workers=10**6)
        assert cli_cfg.effective_workers() == (os.cpu_count() or 1)


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

    def test_unknown_function_exits_2_and_lists_names(self, capsys):
        code = main(["bench", "zhou9", "--point", "1,2"])
        assert code == 2
        err = capsys.readouterr().err
        for name in ("zhou1", "zhou2", "zhou3"):
            assert name in err

    def test_bad_point_exits_2(self, capsys):
        assert main(["bench", "zhou1", "--point", "1,zebra"]) == 2


class TestRunAndExperimentCommands:
    def test_run_writes_reports_and_prints_table(self, tmp_path, capsys):
        out_dir = tmp_path / "cell"
        code = main([
            "run", "--function", "zhou1", "--algorithm", "gwo", "--T", "50",
            "--runs", "2", "--out", str(out_dir),
        ])
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

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["experiment", "--config", "/no/such/file.cfg"]) == 2

    def test_invalid_t_exits_2(self, capsys):
        code = main([
            "run", "--function", "zhou1", "--algorithm", "gwo", "--T", "0",
        ])
        assert code == 2

    def test_unwritable_output_exits_3(self, capsys):
        code = main(["run", "--function", "zhou1", "--algorithm", "gwo",
                     "--T", "50", "--out", "/dev/null/x"])
        assert code == 3


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)


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
        )
        assert proc.returncode == 0
        assert "value: 0" in proc.stdout

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
