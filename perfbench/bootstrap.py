"""Process set-up shared by the benchmark's entry points (standard library only).

Call ``prepare()`` before anything imports numpy: it pins BLAS/OpenMP pools
to one thread, so a pooled workload never runs more threads than cores, and
puts the checkout's ``src`` first on ``sys.path``, so the program under test
is the one in this checkout and not an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)


def child_env() -> dict:
    """Environment for child interpreters: pinned threads, checkout's src."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def prepare() -> None:
    """Pin threads and select the checkout's stagbench, or exit with an error."""
    if not (SRC / "stagbench" / "__init__.py").is_file():
        sys.exit(f"error: no stagbench source tree at {SRC}")
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import stagbench

    if Path(stagbench.__file__).resolve().parent != (SRC / "stagbench").resolve():
        sys.exit(f"error: imported stagbench from {stagbench.__file__}, not {SRC}")
