"""README names the config keys and the CSV columns that the code defines,
in the code's order, its config block shows the code's defaults, and its
`stagbench` commands parse; its results block is `render_summary` of the
committed `results/default/summary.csv`, of the full default grid, and its
opening paragraph quotes that table; the line references in FIDELITY.md and
ROADMAP.md point at source lines."""

from __future__ import annotations

import csv
import re
import shlex
from pathlib import Path

import pytest

from stagbench.cli import CONFIG_KEYS, _parse_args, parse_config
from stagbench.harness import (RECORDS_COLUMNS, SUMMARY_COLUMNS, ExperimentConfig,
                               render_summary)

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text("utf-8")
FIDELITY = (ROOT / "FIDELITY.md").read_text("utf-8")
ROADMAP = (ROOT / "ROADMAP.md").read_text("utf-8")
RESULTS = ROOT / "results" / "default"


def _readme_config_block():
    return re.search(r"```ini\n(.*?)```", README, re.S).group(1)


def test_readme_config_block_lists_every_key_in_order():
    block = _readme_config_block()
    keys = [
        line.split("=", 1)[0].strip()
        for line in block.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    assert tuple(keys) == CONFIG_KEYS


def test_readme_config_block_shows_the_defaults(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(_readme_config_block(), "utf-8")
    assert parse_config(str(path)) == (ExperimentConfig(), "results", 0)


def test_readme_column_lists_match_the_column_tables():
    for name, columns in (("records", RECORDS_COLUMNS), ("summary", SUMMARY_COLUMNS)):
        listed = re.search(rf"`{name}\.csv` has one row per [^(]*\(`([^`]*)`\)", README)
        assert listed.group(1) == ",".join(header for header, _ in columns)


def test_readme_commands_parse(capsys):
    lines = [
        shlex.split(line, comments=True)
        for block in re.findall(r"```sh\n(.*?)```", README, re.S)
        for line in block.splitlines()
    ]
    commands = [words[words.index("stagbench") + 1:]
                for words in lines if "stagbench" in words]
    assert commands
    for argv in commands:
        try:
            assert _parse_args(argv).command == argv[0]
        except SystemExit:
            pytest.fail(f"README command `stagbench {shlex.join(argv)}` does not "
                        f"parse: {capsys.readouterr().err}")


def test_committed_results_are_the_default_grid():
    cfg = ExperimentConfig()
    cells = len(cfg.functions) * len(cfg.algorithms) * len(cfg.T_values)
    for name, rows in (("records.csv", cells * cfg.runs), ("summary.csv", cells)):
        lines = (RESULTS / name).read_text("utf-8").splitlines()
        assert len(lines) == 1 + rows, name


def test_readme_results_block_is_the_committed_summary():
    expected = render_summary(str(RESULTS / "summary.csv"))
    block = re.search(r"<!-- results:begin -->\n(.*?)\n<!-- results:end -->",
                      README, re.S)
    assert block is not None and block.group(1) == expected, (
        "README's results block is not render_summary of "
        "results/default/summary.csv; paste this between the markers:\n"
        + expected
    )


def test_readme_opening_quotes_the_results_table():
    with open(RESULTS / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    none = sum(float(row["stationary_fraction"]) == 0 for row in rows)
    top = max(rows, key=lambda row: float(row["stationary_fraction"]))
    opening = " ".join(README.split("The pieces:")[0].split())
    assert f"in {none} of the {len(rows)} cells" in opening
    assert (f"`{top['stationary_fraction']}` ({top['function']}/{top['algorithm']} "
            f"at T={top['T']})") in opening


def _check_line_references(text):
    """Each `<file>.py:N` or `<file>.py:N-M` in `text` names non-blank lines
    of one file: a bare name under src/stagbench, a path from the repo root."""
    references = list(re.finditer(r"`([\w/]+\.py):(\d+)(?:[-–](\d+))?`", text))
    assert references
    for ref in references:
        name, first = ref.group(1), int(ref.group(2))
        last = int(ref.group(3) or first)
        if "/" in name:
            paths = [ROOT / name]
        else:
            paths = list((ROOT / "src" / "stagbench").rglob(name))
        assert len(paths) == 1 and paths[0].is_file(), f"{ref.group(0)}: no single {name}"
        lines = paths[0].read_text("utf-8").splitlines()
        assert 1 <= first <= last <= len(lines), (
            f"{ref.group(0)}: {name} has {len(lines)} lines"
        )
        assert all(line.strip() for line in lines[first - 1:last]), (
            f"{ref.group(0)} names a blank line"
        )


def test_fidelity_line_references_name_source_lines():
    _check_line_references(FIDELITY)


def test_roadmap_line_references_name_source_lines():
    _check_line_references(ROADMAP)
