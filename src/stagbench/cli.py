"""Command-line front end.

Subcommands
-----------
nominal     simulate the nominal consensus dynamics, CSV on stdout
bench       evaluate a benchmark function (value, gradient, gradient norm)
run         execute one (function, algorithm, T) cell, write report files
experiment  execute the full grid from config file / flags
verify      run the exact-dynamics and gradient self-checks

Exit codes: 0 success, 1 verification checks failed, 2 usage or validation
error, 3 I/O error, 130 interrupted (Ctrl-C).

Experiment configuration is a flat ``key = value`` file (lists
comma-separated); command-line flags override file values.  Recognized
keys: functions, algorithms, T, runs, dim, bounds, base_seed,
max_generations, stationarity_threshold, workers, output_dir, curves.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import algorithms as algos
from . import benchmarks, harness, nominal, verify
from .core import derive_stream
from .harness import ExperimentConfig, format_float

__all__ = ["main", "parse_config", "CliConfig", "CONFIG_KEYS"]

CONFIG_KEYS = (
    "functions",
    "algorithms",
    "T",
    "runs",
    "dim",
    "bounds",
    "base_seed",
    "max_generations",
    "stationarity_threshold",
    "workers",
    "output_dir",
    "curves",
)

_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


@dataclass(frozen=True)
class CliConfig:
    """ExperimentConfig plus CLI-level output and worker settings."""

    experiment: ExperimentConfig
    output_dir: str = "results"
    workers: int = 0

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError("workers must be >= 0")

    def effective_workers(self) -> int:
        """Worker processes to use: `workers`, or all usable CPUs when it
        is 0, never more than the usable CPU count.  Usable CPUs are those in
        the process's affinity mask where the platform reports one."""
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        return min(self.workers, cpus) if self.workers > 0 else cpus


def _parse_bool(key: str, text: str) -> bool:
    low = text.strip().lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ValueError(f"{key} must be a boolean, got {text!r}")


def _parse_list(text: str) -> List[str]:
    return [part.strip() for part in str(text).split(",") if part.strip()]


def read_config_file(path: str) -> dict:
    """Parse a flat key=value config file into a {key: raw string} dict."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}"
                )
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r}; "
                    f"recognized keys: {', '.join(CONFIG_KEYS)}"
                )
            values[key] = val
    return values


def parse_config(
    file_path: Optional[str] = None, overrides: Optional[dict] = None
) -> CliConfig:
    """Build a CliConfig from an optional file plus flag overrides."""
    raw = read_config_file(file_path) if file_path else {}
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        raw[key] = val

    kwargs = {}
    if "functions" in raw:
        kwargs["functions"] = tuple(_parse_list(raw["functions"]))
    if "algorithms" in raw:
        kwargs["algorithms"] = tuple(_parse_list(raw["algorithms"]))
    if "T" in raw:
        try:
            kwargs["T_values"] = tuple(int(t) for t in _parse_list(raw["T"]))
        except ValueError:
            raise ValueError(f"T must be a comma-separated integer list, got {raw['T']!r}")
    for key, attr, conv in (
        ("runs", "runs", int),
        ("dim", "dim", int),
        ("base_seed", "base_seed", int),
        ("max_generations", "max_generations", int),
        ("stationarity_threshold", "stationarity_threshold", float),
    ):
        if key in raw:
            try:
                kwargs[attr] = conv(raw[key])
            except (TypeError, ValueError):
                raise ValueError(f"{key} must be a {conv.__name__}, got {raw[key]!r}")
    if "bounds" in raw:
        parts = _parse_list(raw["bounds"])
        try:
            kwargs["bounds_lo"], kwargs["bounds_hi"] = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"bounds must be 'lo,hi' numbers, got {raw['bounds']!r}")
    if "curves" in raw:
        val = raw["curves"]
        kwargs["capture_curves"] = (
            val if isinstance(val, bool) else _parse_bool("curves", val)
        )

    workers = 0
    if "workers" in raw:
        try:
            workers = int(raw["workers"])
        except (TypeError, ValueError):
            raise ValueError(f"workers must be an integer, got {raw['workers']!r}")
    output_dir = str(raw.get("output_dir", "results"))
    return CliConfig(
        experiment=ExperimentConfig(**kwargs),
        output_dir=output_dir,
        workers=workers,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagbench",
        description=(
            "Stagnation-terminated benchmark harness: convergence is not "
            "optimality."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "nominal", help="simulate the nominal consensus dynamics (CSV on stdout)"
    )
    p.add_argument("--alpha", type=float, required=True, help="step parameter")
    p.add_argument("--n", type=int, default=2, help="population size (default 2)")
    p.add_argument("--dim", type=int, default=1, help="dimension (default 1)")
    p.add_argument(
        "--pairing",
        choices=nominal.PAIRINGS,
        default="mutual_random",
        help="partner scheme for N > 2",
    )
    p.add_argument(
        "--stagnant",
        default="",
        help="comma-separated indices of frozen individuals",
    )
    p.add_argument("--steps", type=int, default=30, help="steps to simulate")
    p.add_argument("--seed", type=int, default=42, help="base seed")

    p = sub.add_parser("bench", help="evaluate a benchmark function at a point")
    p.add_argument("function", help="zhou1 | zhou2 | zhou3")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--point", help="comma-separated coordinates")
    g.add_argument(
        "--optimum",
        nargs="?",
        const="minus",
        choices=benchmarks.BRANCHES,
        help="use the closed-form optimum (branch, default minus)",
    )
    p.add_argument("--dim", type=int, default=3, help="dimension for --optimum")

    for name, help_text in (
        ("run", "run one (function, algorithm, T) cell"),
        ("experiment", "run the full grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "run":
            p.add_argument("--function", dest="functions", required=True)
            p.add_argument("--algorithm", dest="algorithms", required=True)
            p.add_argument("--T", type=int, required=True)
            p.add_argument("--runs", type=int, default=1)
        else:
            p.add_argument("--config", help="key = value config file")
            p.add_argument("--functions", help="comma-separated benchmark names")
            p.add_argument("--algorithms", help="comma-separated algorithm names")
            p.add_argument("--T", help="comma-separated stagnation horizons")
            p.add_argument("--runs", type=int)
        p.add_argument("--dim", type=int)
        p.add_argument("--bounds", help="lo,hi")
        p.add_argument("--seed", dest="base_seed", type=int, help="base seed (default 42)")
        p.add_argument("--max-generations", type=int)
        p.add_argument("--threshold", dest="stationarity_threshold", type=float,
                       help="stationarity threshold")
        p.add_argument(
            "--workers", type=int,
            help="worker processes (0 = auto); capped at the usable CPU count "
            "and at the number of runs",
        )
        p.add_argument("--out", dest="output_dir",
                       help="output directory (default results)")
        cg = p.add_mutually_exclusive_group()
        cg.add_argument(
            "--curves", dest="curves", action="store_true", default=None,
            help="capture per-generation curves",
        )
        cg.add_argument(
            "--no-curves", dest="curves", action="store_false",
            help="disable curve capture",
        )

    p = sub.add_parser("verify", help="run the exact-dynamics and gradient checks")

    return parser


def _cmd_nominal(args) -> int:
    try:
        stagnant = frozenset(int(i) for i in _parse_list(args.stagnant))
    except ValueError:
        raise ValueError(
            f"--stagnant must be comma-separated integers, got {args.stagnant!r}"
        )
    cfg = nominal.NominalConfig(
        alpha=args.alpha,
        n_individuals=args.n,
        dim=args.dim,
        pairing=args.pairing,
        stagnant_set=stagnant,
    )
    rng = derive_stream(args.seed, ["nominal"])
    init = rng.generator().uniform(-100.0, 100.0, size=(args.n, args.dim))
    _, errors = nominal.simulate(cfg, init, args.steps, rng.child("simulate"))
    predicted = nominal.predicted_factor(args.alpha, stagnant=bool(stagnant))
    out = sys.stdout
    out.write("step,diameter,predicted_factor,measured_factor\n")
    for k, diam in enumerate(errors):
        measured = (
            errors[k] / errors[k - 1] if k > 0 and errors[k - 1] > 0 else float("nan")
        )
        out.write(
            f"{k},{format_float(diam)},{format_float(predicted)},"
            f"{format_float(measured)}\n"
        )
    return 0


def _cmd_bench(args) -> int:
    name = args.function
    if name not in benchmarks.FUNCTIONS:
        raise ValueError(
            f"unknown function {name!r}; valid names: "
            f"{', '.join(benchmarks.FUNCTIONS)}"
        )
    if args.point is not None:
        try:
            point = np.array([float(x) for x in _parse_list(args.point)])
        except ValueError:
            raise ValueError(f"--point must be comma-separated numbers, got {args.point!r}")
    else:
        point = benchmarks.optimum(name, args.dim, args.optimum)
    with np.errstate(over="ignore", invalid="ignore"):
        value = benchmarks.value(name, point)
        grad = benchmarks.gradient(name, point)
        grad_norm = float(np.linalg.norm(grad))
    if not (np.isfinite(value) and np.isfinite(grad_norm)):
        raise ValueError(
            f"the {name} value or gradient norm overflows float64 at this point"
        )
    out = sys.stdout
    out.write(f"function: {name}\n")
    out.write("point: " + ",".join(format_float(x) for x in point) + "\n")
    out.write(f"value: {format_float(value)}\n")
    out.write("gradient: " + ",".join(format_float(g) for g in grad) + "\n")
    out.write(f"grad_norm: {format_float(grad_norm)}\n")
    return 0


def _cmd_grid(args) -> int:
    cli_cfg = parse_config(
        getattr(args, "config", None),
        {key: getattr(args, key, None) for key in CONFIG_KEYS},
    )
    cfg = cli_cfg.experiment
    try:
        os.makedirs(cli_cfg.output_dir, exist_ok=True)
        probe = os.path.join(cli_cfg.output_dir, ".write_probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 3
    records, summary = harness.run_experiment(
        cfg, workers=cli_cfg.effective_workers()
    )
    try:
        harness.write_records(
            records, os.path.join(cli_cfg.output_dir, "records.csv")
        )
        harness.write_summary(
            summary, os.path.join(cli_cfg.output_dir, "summary.csv")
        )
        if cfg.capture_curves:
            harness.write_curves(records, cli_cfg.output_dir)
    except OSError as exc:
        print(f"error: failed writing reports: {exc}", file=sys.stderr)
        return 3
    print(harness.render_summary_table(summary))
    return 0


def _cmd_verify(_args) -> int:
    results = verify.run_checks()
    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "nominal": _cmd_nominal,
        "bench": _cmd_bench,
        "run": _cmd_grid,
        "experiment": _cmd_grid,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
