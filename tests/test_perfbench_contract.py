"""The benchmark in `perfbench/` drives the package from outside it: it wraps
each layer's public callables in spans, reads `kernels.USING_NUMBA` and
launches a set-up probe in a fresh interpreter.  This test runs one small
grid through the benchmark's own code, importing it and changing none of
it, so a change under `src/` that breaks the benchmark fails here."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BASE_SEED = 0


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import grid
        import run

        yield grid, run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


@pytest.fixture(scope="module")
def workload(perfbench):
    grid, _ = perfbench
    return grid.Workload("contract", dim=3, T_values=(5,), runs=1, pooled=False, curves=True)


@pytest.fixture(scope="module")
def grids(perfbench, workload, tmp_path_factory):
    grid, _ = perfbench
    out = tmp_path_factory.mktemp("perfbench")
    untraced = grid.run_grid(workload, BASE_SEED, 1, out / "untraced")
    traced, tracer = grid.traced_grid(workload, BASE_SEED, out / "traced")
    return untraced, traced, tracer


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return [m["name"] for m in spec[kind]]


def test_traced_grid_writes_the_untraced_bytes(perfbench, grids):
    grid, _ = perfbench
    untraced, traced, _ = grids
    assert grid.check_same_bytes("traced vs untraced", traced, untraced) == []


def test_every_evaluated_row_passes_the_traced_kernel(perfbench, grids):
    grid, _ = perfbench
    _, traced, tracer = grids
    counts = grid.exact_counts(traced, tracer)
    assert counts["kernel_rows"] == counts["evaluations"] > 0


def test_records_pass_the_benchmark_checks(perfbench, workload, grids):
    grid, _ = perfbench
    untraced, _, _ = grids
    assert grid.check_records(workload, BASE_SEED, untraced) == []


def test_every_declared_metric_is_a_finite_number(perfbench, grids):
    grid, _ = perfbench
    untraced, traced, tracer = grids
    layers = grid.per_layer(traced, tracer, untraced, untraced)
    ends = grid.end_to_end([untraced], [untraced], [0.1], 30.0)
    for names, metrics in (("per_layer", layers), ("end_to_end", ends)):
        for name in _declared(names):
            assert math.isfinite(metrics[name]), name


def test_environment_line_prints(perfbench, workload, capsys):
    grid, run = perfbench
    run.print_environment(grid, workload, BASE_SEED, BASE_SEED)
    assert "kernels.USING_NUMBA" in capsys.readouterr().out


def test_setup_probe_reports_ready(perfbench, workload):
    grid, _ = perfbench
    # Launches setup_probe.py with the workload's probe_args and the
    # benchmark's child environment; raises unless it prints `ready` and
    # exits 0.
    assert grid.setup_probe(workload, BASE_SEED) > 0.0
