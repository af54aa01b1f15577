"""Every name a module exports resolves, so a deletion leaves no dead export,
every module-level import is used or exported, so a deletion leaves no dead
import, the package's top level exports only what README's library example
uses, the version is stated once, and each input rule's message is stated
in `stagbench.core` alone."""

from __future__ import annotations

import ast
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


def _module_level_imports(tree):
    """The names that `tree`'s imports bind outside any function, skipping
    ``from __future__``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        else:
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_import_is_used_or_exported(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text("utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(module, "__all__", ()))
    dead = [bound for bound in _module_level_imports(tree)
            if bound not in used | exported]
    assert dead == []


def test_top_level_exports_only_what_the_readme_example_calls():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    example = re.search(r"## Library use\n+```python\n(.*?)```", readme, re.S)
    called = set(re.findall(r"\bsb\.(\w+)", example.group(1)))
    assert set(stagbench.__all__) - {"__version__"} == called


def test_version_is_stated_in_the_package_alone():
    """`pyproject.toml` declares the version dynamic and reads it from
    `stagbench.__version__`, so a release edits one line."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "stagbench.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", stagbench.__version__)


# The message text of each input rule in `stagbench.core`.
RULE_TEXTS = (
    "expected one of",
    "must be a sequence of",
    "2-D batch of points",
    "non-finite coordinates",
    "a point of dimension",
    "at least one coordinate",
    "must be >= ",
    "must be finite, got",
    "must be an integer",
    "must be a real number",
)


@pytest.mark.parametrize("text", RULE_TEXTS)
def test_each_input_rule_is_stated_in_core_alone(text):
    package = Path(stagbench.__file__).resolve().parent
    stating = sorted(
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if text in path.read_text("utf-8")
    )
    assert stating == ["core.py"]
