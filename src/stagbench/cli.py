"""Command-line front end.

Subcommands
-----------
nominal     simulate the nominal consensus dynamics, CSV on stdout
bench       evaluate a benchmark function (value, gradient, gradient norm)
experiment  execute the grid from config file / flags, write report files
verify      run the exact-dynamics and gradient self-checks

Exit codes: 0 success, 1 verification checks failed, 2 usage or validation
error (a size whose arrays cannot be allocated is one), 3 I/O error, 130
interrupted (Ctrl-C).

Experiment configuration is a flat ``key = value`` file (lists
comma-separated); command-line flags override file values.  The
recognized keys are ``CONFIG_KEYS``, in the order of ``_CONFIG_TABLE``.
That table also declares each key's ``experiment`` flag, and a flag's text
goes through the same parser as a file line, so both fail with the same
error.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import benchmarks, harness, nominal, verify
from .core import derive_stream, euclidean_norm
from .harness import ExperimentConfig, format_float

__all__ = ["main", "parse_config", "CONFIG_KEYS"]


def _parse_list(text) -> List[str]:
    return [part.strip() for part in str(text).split(",") if part.strip()]


def _integers(text) -> tuple:
    return tuple(int(t) for t in _parse_list(text))


def _pair(text) -> tuple:
    lo, hi = (float(p) for p in _parse_list(text))
    return lo, hi


_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _boolean(text) -> bool:
    low = str(text).strip().lower()
    if low not in _BOOL_TRUE + _BOOL_FALSE:
        raise ValueError(text)
    return low in _BOOL_TRUE


# Config key -> (the fields it sets, its parser, what its value must be,
# its `experiment` flag, the flag's help).  `workers` and `output_dir` are
# returned beside the ExperimentConfig; the rest are its fields.
_CONFIG_TABLE = {
    "functions": (("functions",), _parse_list, "a comma-separated name list",
                  "--functions", "comma-separated benchmark names"),
    "algorithms": (("algorithms",), _parse_list, "a comma-separated name list",
                   "--algorithms", "comma-separated algorithm names"),
    "T": (("T_values",), _integers, "a comma-separated integer list",
          "--T", "comma-separated stagnation horizons"),
    "runs": (("runs",), int, "an integer", "--runs", "runs per cell"),
    "dim": (("dim",), int, "an integer", "--dim", "dimension"),
    "bounds": (("bounds_lo", "bounds_hi"), _pair, "'lo,hi' numbers",
               "--bounds", "lo,hi of the cube [lo, hi]^dim"),
    "base_seed": (("base_seed",), int, "an integer",
                  "--seed", "base seed (default 42)"),
    "max_generations": (("max_generations",), int, "an integer",
                        "--max-generations", "safety cap on generations per run"),
    "stationarity_threshold": (("stationarity_threshold",), float, "a number",
                               "--threshold", "stationarity threshold"),
    "workers": (("workers",), int, "an integer", "--workers",
                "worker processes (0 = auto); capped at the usable CPU count "
                "and at the number of runs"),
    "output_dir": (("output_dir",), str, "a path",
                   "--out", "output directory (default results)"),
    "curves": (("capture_curves",), _boolean, "a boolean",
               "--curves", "capture per-generation curves"),
}
CONFIG_KEYS = tuple(_CONFIG_TABLE)


def read_config_file(path: str) -> dict:
    """Parse a flat key=value config file into a {key: raw string} dict.

    Blank lines and ``#`` comments are skipped and keys and values are
    stripped; a line without ``=``, an unknown key or a key set twice raises
    ValueError located as ``path:lineno``."""
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
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} is set twice")
            values[key] = val
    return values


def parse_config(
    file_path: Optional[str] = None, overrides: Optional[dict] = None
) -> Tuple[ExperimentConfig, str, int]:
    """Build ``(ExperimentConfig, output_dir, workers)`` from an optional
    file plus flag overrides; `workers` has passed `harness.check_workers`."""
    raw = read_config_file(file_path) if file_path else {}
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        raw[key] = val

    kwargs = {}
    for key, (targets, parse, kind, _, _) in _CONFIG_TABLE.items():
        if key in raw:
            try:
                value = parse(raw[key])
            except (TypeError, ValueError):
                raise ValueError(f"{key} must be {kind}, got {raw[key]!r}") from None
            kwargs.update(zip(targets, value if len(targets) > 1 else (value,)))
    output_dir = kwargs.pop("output_dir", "results")
    workers = harness.check_workers(kwargs.pop("workers", 0))
    return ExperimentConfig(**kwargs), output_dir, workers


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
    p.add_argument(
        "--dim", type=int,
        help="dimension for --optimum (default 3); with --point, its length",
    )

    p = sub.add_parser("experiment", help="run the grid, write report files")
    p.add_argument("--config", help="key = value config file")
    for key, (_, parse, _, flag, help_text) in _CONFIG_TABLE.items():
        action = argparse.BooleanOptionalAction if parse is _boolean else None
        p.add_argument(flag, dest=key, action=action, help=help_text)

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
        alpha=args.alpha, pairing=args.pairing, stagnant_set=stagnant
    )
    init = derive_stream(args.seed, ["nominal"]).uniform(
        -100.0, 100.0, size=(args.n, args.dim)
    )
    gen = derive_stream(args.seed, ["nominal", "simulate"])
    _, errors = nominal.simulate(cfg, init, args.steps, gen)
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
    if args.point is not None:
        try:
            point = np.array([float(x) for x in _parse_list(args.point)])
        except ValueError:
            raise ValueError(f"--point must be comma-separated numbers, got {args.point!r}")
        if args.dim is not None and args.dim != point.size:
            raise ValueError(
                f"--dim is {args.dim} but --point has {point.size} coordinates"
            )
    else:
        point = benchmarks.optimum(name, 3 if args.dim is None else args.dim,
                                   args.optimum)
    with np.errstate(over="ignore", invalid="ignore"):
        value = benchmarks.value(name, point)
        grad = benchmarks.gradient(name, point)
    grad_norm = euclidean_norm(grad)
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


def _cmd_experiment(args) -> int:
    cfg, output_dir, workers = parse_config(
        args.config, {key: getattr(args, key) for key in CONFIG_KEYS}
    )
    try:
        os.makedirs(output_dir, exist_ok=True)
        # An anonymous file, so no file of the user's can be overwritten.
        with tempfile.TemporaryFile(dir=output_dir):
            pass
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 3
    records, summary = harness.run_experiment(cfg, workers=workers)
    try:
        harness.write_records(records, os.path.join(output_dir, "records.csv"))
        harness.write_summary(summary, os.path.join(output_dir, "summary.csv"))
        if cfg.capture_curves:
            harness.write_curves(records, output_dir)
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
        "experiment": _cmd_experiment,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, KeyError, MemoryError, FileNotFoundError) as exc:
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
