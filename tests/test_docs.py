"""README names the config keys and the CSV columns that the code defines,
in the code's order."""

from __future__ import annotations

import re
from pathlib import Path

from stagbench.cli import CONFIG_KEYS
from stagbench.harness import RECORDS_COLUMNS, SUMMARY_COLUMNS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")


def test_readme_config_block_lists_every_key_in_order():
    block = re.search(r"```ini\n(.*?)```", README, re.S).group(1)
    keys = [
        line.split("=", 1)[0].strip()
        for line in block.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    assert tuple(keys) == CONFIG_KEYS


def test_readme_column_lists_match_the_column_tables():
    for name, columns in (("records", RECORDS_COLUMNS), ("summary", SUMMARY_COLUMNS)):
        listed = re.search(rf"`{name}\.csv` has one row per [^(]*\(`([^`]*)`\)", README)
        assert listed.group(1) == ",".join(header for header, _ in columns)
