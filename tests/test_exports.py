"""Every name a module exports resolves, so a deletion leaves no dead export,
and the package's top level exports only what README's library example uses."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import stagbench

MODULES = ["stagbench"] + [
    info.name for info in pkgutil.walk_packages(stagbench.__path__, "stagbench.")
]
EXPORTING = [
    name for name in MODULES if hasattr(importlib.import_module(name), "__all__")
]


def test_package_and_its_modules_declare_exports():
    assert {"stagbench", "stagbench.core", "stagbench.algorithms",
            "stagbench.harness"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_top_level_exports_only_what_the_readme_example_calls():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    example = re.search(r"## Library use\n+```python\n(.*?)```", readme, re.S)
    called = set(re.findall(r"\bsb\.(\w+)", example.group(1)))
    assert set(stagbench.__all__) - {"__version__"} == called
