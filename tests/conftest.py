"""Shared pytest wiring: the acceptance-criteria report and the sphere
objective that the smoke tests run."""

from __future__ import annotations

from typing import Optional

import numpy as np

from stagbench.core import Bounds, ObjectiveSpec

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> str:
    """Register and print one acceptance-criterion verdict line."""
    line = f"CRITERION {number} {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return line


def sphere_value(X: np.ndarray) -> np.ndarray:
    """``sum(x^2)`` of each row, added left to right."""
    return np.add.accumulate(X * X, axis=1)[:, -1]


def sphere_objective(dim: int, bounds: Optional[Bounds] = None) -> ObjectiveSpec:
    """The sphere ``sum(x^2)`` over `bounds` (default [-100, 100]^dim): a
    smoke-test objective that no grid runs, so it lives with the tests."""
    return ObjectiveSpec(
        name="sphere",
        batch_evaluator=sphere_value,
        batch_gradient=lambda X: 2.0 * X,
        domain=bounds if bounds is not None else Bounds(-100.0, 100.0, dim),
    )


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
