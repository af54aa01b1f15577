"""stagbench: convergence is not optimality, measured at desk scale.

A small laboratory around one observation: population algorithms that
stop because the best value has stagnated have usually *converged*, but
on deceptively rugged objectives they have almost never reached a
minimizer — the gradient at the returned point stays enormous.

The package provides

* three rugged benchmark families with analytic gradients and
  closed-form optima (:mod:`stagbench.benchmarks`),
* an exactly analyzable nominal consensus dynamics whose contraction
  factors are known in closed form (:mod:`stagbench.nominal`),
* six population metaheuristics behind one init/step/best interface
  (:mod:`stagbench.algorithms`),
* a stagnation-terminated experiment harness with a gradient-norm audit
  and deterministic CSV reports (:mod:`stagbench.harness`),
* a ``stagbench`` command-line tool (:mod:`stagbench.cli`).
"""

from .core import (
    BestTracker,
    Bounds,
    ObjectiveSpec,
    RngStream,
    as_point,
    derive_stream,
)
from .benchmarks import (
    BRANCHES,
    FUNCTIONS,
    default_bounds,
    fd_gradient,
    gradient,
    gradient_batch,
    objective,
    optima,
    optimum,
    sphere_objective,
    value,
    value_batch,
)
from .nominal import (
    PAIRINGS,
    InsufficientDataError,
    NominalConfig,
    NominalState,
    diameter,
    measured_contraction,
    pair_step,
    predicted_factor,
    simulate,
    stagnant_step,
)
from .algorithms import (
    ALGORITHMS,
    AlgoState,
    ParamSet,
    default_params,
    defaults_table,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    SummaryRow,
    run_experiment,
    run_single,
    summarize,
    write_curves,
    write_records,
    write_summary,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AlgoState",
    "BRANCHES",
    "BestTracker",
    "Bounds",
    "ExperimentConfig",
    "FUNCTIONS",
    "InsufficientDataError",
    "NominalConfig",
    "NominalState",
    "ObjectiveSpec",
    "PAIRINGS",
    "ParamSet",
    "RngStream",
    "RunRecord",
    "SummaryRow",
    "as_point",
    "default_bounds",
    "default_params",
    "defaults_table",
    "derive_stream",
    "diameter",
    "fd_gradient",
    "gradient",
    "gradient_batch",
    "measured_contraction",
    "objective",
    "optima",
    "optimum",
    "pair_step",
    "predicted_factor",
    "run_experiment",
    "run_single",
    "simulate",
    "sphere_objective",
    "stagnant_step",
    "summarize",
    "value",
    "value_batch",
    "write_curves",
    "write_records",
    "write_summary",
    "__version__",
]
