"""Self-verification suite for the exact-dynamics and gradient claims.

Each check returns (name, passed, detail) with `passed` a Python bool; the
CLI `verify` subcommand prints one line per check and exits non-zero if any
fail, and the acceptance criteria 1, 2, 4 and 5 assert the same verdicts.
The checks mirror the package's core mathematical claims:

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
from .core import derive_stream, euclidean_norm

__all__ = ["run_checks"]

THEOREM1_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)
REMARK2_ALPHAS = (1.1, 1.5, 1.9)
STEPS = 50
RATIO_TOL = 1e-12      # contraction factors, theorem 1 and remark 2
OPT_VALUE_TOL = 1e-8   # |f| at a closed-form optimum
OPT_GRAD_TOL = 1e-4    # ||grad f|| at a closed-form optimum
FD_REL_TOL = 1e-3      # gradient oracle where |fd| > 1, relative to |fd|
FD_ABS_TOL = 1e-2      # gradient oracle where |fd| <= 1, absolute

Verdict = Tuple[str, bool, str]


def _sci(x: float) -> str:
    """`x` in the shortest scientific form, e.g. 1e-8."""
    return np.format_float_scientific(x, trim="-", exp_digits=1)


# Two-individual runs: stream label -> (initial population, stagnant_set).
# The mutual pair's centroid at the origin keeps the per-step rounding error
# relative to the shrinking separation, not to the (fixed) centroid magnitude.
_TWO_BODY = {"mutual": ([[-5.0], [5.0]], ()), "stagnant": ([[10.0], [0.0]], {1})}


def _errors(label: str, alpha: float) -> np.ndarray:
    init, stagnant = _TWO_BODY[label]
    _, errors = nominal.simulate(alpha, init, STEPS,
                                 derive_stream(0, [label, str(alpha)]),
                                 stagnant_set=stagnant)
    return errors


def _measured(label: str, alpha: float) -> Tuple[np.ndarray, float]:
    """A run's step ratios and their largest deviation from the predicted
    factor over its finite ratios; theorem 1 judges an inf on its own."""
    ratios = nominal.step_ratios(_errors(label, alpha))
    finite = ratios[np.isfinite(ratios)]  # a collapsed pair's 0/0 is NaN
    factor = nominal.predicted_factor(alpha, stagnant=label == "stagnant")
    return ratios, float(np.abs(finite - factor).max(initial=0.0))


def check_theorem1() -> Verdict:
    """Every step ratio equals |1 - 2a|; a zero separation stays zero."""
    worst = 0.0
    zeros_stay = True
    for alpha in THEOREM1_ALPHAS:
        ratios, deviation = _measured("mutual", alpha)
        zeros_stay = zeros_stay and not np.isinf(ratios).any()
        worst = max(worst, deviation)
    return (
        "theorem1_contraction",
        zeros_stay and worst <= RATIO_TOL,
        f"max |step ratio - |1-2a|| = {worst:.3e} over alphas {THEOREM1_ALPHAS}",
    )


def check_remark2() -> Verdict:
    """Every step against a stagnant partner contracts by |1 - a| < 1 and
    every mutual step expands by |1 - 2a| > 1."""
    worst = 0.0
    ordered = True
    for alpha in REMARK2_ALPHAS:
        stag, stag_dev = _measured("stagnant", alpha)
        mut, mut_dev = _measured("mutual", alpha)
        worst = max(worst, stag_dev, mut_dev)
        ordered = ordered and bool(stag.max() < 1.0 < mut.min())
    return (
        "remark2_witness",
        ordered and worst <= RATIO_TOL,
        f"stagnant contracts, mutual expands for alphas {REMARK2_ALPHAS}; "
        f"max factor deviation = {worst:.3e}",
    )


def check_optima() -> Verdict:
    values, norms = [], []
    for name in benchmarks.FUNCTIONS:
        for dim in (2, 3, 4, 5):
            X = np.array(benchmarks.optima(name, dim))
            values.extend(np.abs(benchmarks.value_batch(name, X)).tolist())
            norms.extend(map(euclidean_norm, benchmarks.gradient_batch(name, X)))
    worst_val, worst_grad = max(values), max(norms)
    return (
        "optimum_certificates",
        worst_val <= OPT_VALUE_TOL and worst_grad <= OPT_GRAD_TOL,
        f"max |f(opt)| = {worst_val:.3e} (<= {_sci(OPT_VALUE_TOL)}), "
        f"max ||grad(opt)|| = {worst_grad:.3e} (<= {_sci(OPT_GRAD_TOL)}), "
        f"dims 2..5",
    )


def check_gradient_oracle() -> Verdict:
    points = 100
    gen = derive_stream(42, ["fd-check"])
    worst = 0.0
    for name in benchmarks.FUNCTIONS:
        X = gen.uniform(-2.0, 2.0, size=(points, 3))
        analytic = benchmarks.gradient_batch(name, X)
        fd = benchmarks.fd_gradient(name, X)
        tol = np.where(np.abs(fd) > 1.0, FD_REL_TOL * np.abs(fd), FD_ABS_TOL)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / tol)))
    return (
        "gradient_oracle",
        worst <= 1.0,
        f"max mixed-tolerance margin = {worst:.3e} (<= 1) at "
        f"{points} points/function, h = {benchmarks.FD_STEP:g}",
    )


def check_ring() -> Verdict:
    # Ring pairing draws nothing, so `simulate` takes the stream `init` used.
    gen = derive_stream(0, ["ring-consensus"])
    init = gen.uniform(-100.0, 100.0, size=(8, 3))
    _, errors = nominal.simulate(0.5, init, 500, gen, pairing="ring")
    return (
        "ring_consensus",
        bool(errors[-1] <= 1e-6),
        f"diameter after 500 ring steps = {errors[-1]:.3e} (<= 1e-6)",
    )


def run_checks() -> List[Verdict]:
    """Run every check and return one (name, passed, detail) per check."""
    return [
        check_theorem1(),
        check_remark2(),
        check_optima(),
        check_gradient_oracle(),
        check_ring(),
    ]
