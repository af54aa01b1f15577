"""Golden outputs: the exact bytes of three small experiment grids.

Each grid is all 18 (function, algorithm) cells at one T with one run per
cell and curves captured.  Two grids run under the default 20,000-generation
horizon, where every run ends in stagnation early in the schedule; the third
uses a 200-generation horizon, so its runs reach GL25's local phase,
LSHADE's minimum population, HHO's late exploitation schedule and the
generation cap.  The sha256 of ``records.csv``, ``summary.csv``
and of the curve files (concatenated in file-name order, each preceded by
its name) is pinned, and so are two counts taken the way
``perfbench/tracing.py`` takes them: the calls into ``kernels.VALUE`` and
the sum of each run's ``tracker.improvement_count``.  A change that is meant
to be a pure speed-up or refactor must keep these bytes and counts; one that
changes results on purpose re-pins them and says why.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from stagbench import harness, kernels

# (dim, T, max_generations) -> digests of records.csv, summary.csv and the
# curve files.
GOLDEN = {
    (3, 100, 20000): {
        "records": "aac903c023b171a4625e4d8a0a719e88b65595b0ee3741c03a0158268bbcb995",
        "summary": "ebf20ce8d239ee4f549b827c22a6b5125557e1e3f8d00b76663a8b0beb41af2f",
        "curves": "1d11a15a56b4c54fa35281820e1f20f3cf40a6d06fc0173279c97c7bf83b7575",
    },
    (10, 60, 20000): {
        "records": "680b23e79ab1faacc09d67af9e0d40ed6a7610243537cc8712ab25a94706cf54",
        "summary": "2ab2db05e519c58fb436a2ac12777f60f978bdec5e1307db1d1af7ef460a8d98",
        "curves": "bd3ea89ac0d2ea5e7e58679e46a7d7de7875cfd9cba36332c147d9d522dc60f7",
    },
    (3, 50, 200): {
        "records": "cda823e0d7fd23b38c8c9af8ffa3057dc8cc390edeca111d99f4215e2c2c9ee8",
        "summary": "81e278f62b1fe20da9832c03536f18b3cc3ea7712d38b73e1bbd47178f7bf8ec",
        "curves": "21c45fe5cdcf399bf07de5df871113d9765c29f1af47021211b96cfce2684d04",
    },
}


# (dim, T, max_generations) -> (kernels.VALUE calls, summed improvement_count).
COUNTS = {
    (3, 100, 20000): (7961, 558),
    (10, 60, 20000): (7263, 1076),
    (3, 50, 200): (4128, 943),
}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _curves_sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.basename(path).encode() + b"\n")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _case_id(key) -> str:
    # Grids under the default horizon keep their original "dim-T" ids.
    dim, T, max_generations = key
    default = harness.ExperimentConfig.max_generations
    return f"{dim}-{T}" if max_generations == default else f"{dim}-{T}-{max_generations}"


@pytest.mark.parametrize(
    "dim,T,max_generations", sorted(GOLDEN), ids=[_case_id(k) for k in sorted(GOLDEN)]
)
def test_grid_outputs_match_pinned_digests(
    tmp_path, monkeypatch, dim, T, max_generations
):
    cfg = harness.ExperimentConfig(
        T_values=(T,),
        runs=1,
        base_seed=2025,
        dim=dim,
        max_generations=max_generations,
        capture_curves=True,
    )
    kernel_calls = 0
    improvements = 0

    def counting_kernel(kernel):
        def counted(X):
            nonlocal kernel_calls
            kernel_calls += 1
            return kernel(X)

        return counted

    loop = harness.run_until_stagnation

    def counting_loop(*args, **kwargs):
        nonlocal improvements
        out = loop(*args, **kwargs)
        improvements += out[0].tracker.improvement_count
        return out

    for f, kernel in list(kernels.VALUE.items()):
        monkeypatch.setitem(kernels.VALUE, f, counting_kernel(kernel))
    monkeypatch.setattr(harness, "run_until_stagnation", counting_loop)
    # One worker: the grid runs in this process, where the counters live.
    records, summary = harness.run_experiment(cfg, workers=1)
    records_path = str(tmp_path / "records.csv")
    summary_path = str(tmp_path / "summary.csv")
    harness.write_records(records, records_path)
    harness.write_summary(summary, summary_path)
    curves = harness.write_curves(records, str(tmp_path))
    assert len(records) == 18 and len(curves) == 18
    got = {
        "records": _sha256(records_path),
        "summary": _sha256(summary_path),
        "curves": _curves_sha256(curves),
    }
    assert got == GOLDEN[(dim, T, max_generations)]
    assert (kernel_calls, improvements) == COUNTS[(dim, T, max_generations)]
