"""stagbench: convergence is not optimality, measured at desk scale.

A small laboratory around one observation: population algorithms that
stop because the best value has stagnated have usually *converged*, but
on deceptively rugged objectives they have almost never reached a
minimizer — the gradient at the returned point stays enormous.

The top level exports only the grid entry point, ``ExperimentConfig`` and
``run_experiment`` (from :mod:`stagbench.harness`).  Everything else is
imported from its own module:

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

from .harness import ExperimentConfig, run_experiment

__version__ = "1.0.0"

__all__ = ["ExperimentConfig", "run_experiment", "__version__"]
