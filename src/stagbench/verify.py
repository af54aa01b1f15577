"""Self-verification suite for the exact-dynamics and gradient claims.

Each check returns (name, passed, detail); the CLI `verify` subcommand
prints one line per check and exits non-zero if any fail.  The checks mirror
the package's core mathematical claims:

* two-individual mutual updates contract by exactly |1 - 2*alpha|;
* against a stagnant partner the factor is |1 - alpha|, so every alpha in
  (1, 2) converges with a stagnant partner while mutual updates diverge;
* the closed-form optima of the three benchmarks evaluate to ~0 with ~0
  gradient;
* the analytic gradients agree with an independent central-difference
  oracle at random points.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from . import benchmarks, nominal
from .core import derive_stream

__all__ = ["run_checks"]

THEOREM1_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)
REMARK2_ALPHAS = (1.1, 1.5, 1.9)
RATIO_TOL = 1e-12


def _mutual_errors(alpha: float, steps: int, seed: int) -> np.ndarray:
    cfg = nominal.NominalConfig(alpha=alpha, n_individuals=2, dim=1)
    # centroid at the origin keeps the per-step rounding error relative to
    # the shrinking separation, not to the (fixed) centroid magnitude
    _, errors = nominal.simulate(
        cfg, [[-5.0], [5.0]], steps, derive_stream(seed, ["mutual", str(alpha)])
    )
    return errors


def _stagnant_errors(alpha: float, steps: int, seed: int) -> np.ndarray:
    cfg = nominal.NominalConfig(
        alpha=alpha, n_individuals=2, dim=1, stagnant_set=frozenset({1})
    )
    _, errors = nominal.simulate(
        cfg, [[10.0], [0.0]], steps, derive_stream(seed, ["stagnant", str(alpha)])
    )
    return errors


def check_theorem1(steps: int = 50, seed: int = 0) -> Tuple[str, bool, str]:
    worst = 0.0
    for alpha in THEOREM1_ALPHAS:
        errors = _mutual_errors(alpha, steps, seed)
        predicted = nominal.predicted_factor(alpha)
        for k in range(steps):
            if errors[k] > 0.0:
                worst = max(worst, abs(errors[k + 1] / errors[k] - predicted))
    ok = worst <= RATIO_TOL
    return (
        "theorem1_contraction",
        ok,
        f"max |step ratio - |1-2a|| = {worst:.3e} over alphas {THEOREM1_ALPHAS}",
    )


def check_remark2(steps: int = 50, seed: int = 0) -> Tuple[str, bool, str]:
    worst = 0.0
    ok = True
    for alpha in REMARK2_ALPHAS:
        stag = nominal.measured_contraction(_stagnant_errors(alpha, steps, seed))
        mut = nominal.measured_contraction(_mutual_errors(alpha, steps, seed))
        worst = max(
            worst,
            abs(stag - nominal.predicted_factor(alpha, stagnant=True)),
            abs(mut - nominal.predicted_factor(alpha)),
        )
        ok = ok and stag < 1.0 and mut > 1.0
    ok = ok and worst <= RATIO_TOL
    return (
        "remark2_witness",
        ok,
        f"stagnant contracts, mutual expands for alphas {REMARK2_ALPHAS}; "
        f"max factor deviation = {worst:.3e}",
    )


def check_optima() -> Tuple[str, bool, str]:
    worst_val = 0.0
    worst_grad = 0.0
    for name in benchmarks.FUNCTIONS:
        for dim in (2, 3, 4, 5):
            for point in benchmarks.optima(name, dim):
                worst_val = max(worst_val, abs(benchmarks.value(name, point)))
                worst_grad = max(
                    worst_grad,
                    float(np.linalg.norm(benchmarks.gradient(name, point))),
                )
    ok = worst_val <= 1e-8 and worst_grad <= 1e-4
    return (
        "optimum_certificates",
        ok,
        f"max |f(opt)| = {worst_val:.3e} (<= 1e-8), "
        f"max ||grad(opt)|| = {worst_grad:.3e} (<= 1e-4), dims 2..5",
    )


def check_gradient_oracle(
    points_per_function: int = 100, seed: int = 42, h: float = 1e-7
) -> Tuple[str, bool, str]:
    gen = derive_stream(seed, ["fd-check"]).generator()
    worst = 0.0
    for name in benchmarks.FUNCTIONS:
        P = gen.uniform(-2.0, 2.0, size=(points_per_function, 3))
        for x in P:
            analytic = benchmarks.gradient(name, x)
            fd = benchmarks.fd_gradient(name, x, h=h)
            tol = np.where(np.abs(fd) > 1.0, 1e-3 * np.abs(fd), 1e-2)
            worst = max(worst, float(np.max(np.abs(analytic - fd) / tol)))
    ok = worst <= 1.0
    return (
        "gradient_oracle",
        ok,
        f"max mixed-tolerance margin = {worst:.3e} (<= 1) at "
        f"{points_per_function} points/function, h = {h:g}",
    )


def check_ring(seed: int = 0) -> Tuple[str, bool, str]:
    rng = derive_stream(seed, ["ring-consensus"])
    init = rng.generator().uniform(-100.0, 100.0, size=(8, 3))
    cfg = nominal.NominalConfig(
        alpha=0.5, n_individuals=8, dim=3, pairing="ring"
    )
    _, errors = nominal.simulate(cfg, init, 500, rng)
    ok = errors[-1] <= 1e-6
    return (
        "ring_consensus",
        ok,
        f"diameter after 500 ring steps = {errors[-1]:.3e} (<= 1e-6)",
    )


def run_checks() -> List[Tuple[str, bool, str]]:
    """Run every check and return one (name, passed, detail) per check."""
    return [
        check_theorem1(),
        check_remark2(),
        check_optima(),
        check_gradient_oracle(),
        check_ring(),
    ]
