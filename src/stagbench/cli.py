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
import re
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import algorithms, benchmarks, harness, nominal, verify
from .core import as_points, derive_stream, euclidean_norm
from .harness import ExperimentConfig, format_float

__all__ = ["main", "parse_config", "CONFIG_KEYS"]


def _parse_list(text) -> List[str]:
    # The empty text is the empty list; an empty item, as in "1,,2" or a
    # trailing comma, is an error.
    items = [part.strip() for part in str(text).split(",")]
    if items == [""]:
        return []
    if "" in items:
        raise ValueError(text)
    return items


def _integers(text) -> tuple:
    return tuple(int(t) for t in _parse_list(text))


def _pair(text) -> tuple:
    lo, hi = (float(p) for p in _parse_list(text))
    return lo, hi


# The defaults that no ExperimentConfig field owns: `experiment`'s output
# directory and `bench --optimum`'s dimension.
OUTPUT_DIR = "results"
BENCH_DIM = 3

_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _path(text) -> str:
    # The empty text names no directory.
    if not str(text):
        raise ValueError(text)
    return str(text)


def _boolean(text) -> bool:
    low = str(text).strip().lower()
    if low not in _BOOL_TRUE + _BOOL_FALSE:
        raise ValueError(text)
    return low in _BOOL_TRUE


# Config key -> (the fields it sets, its parser, what its value must be,
# its `experiment` flag, the flag's help, where `{base_seed}` and
# `{output_dir}` read those defaults).  `workers` and `output_dir` are
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
                  "--seed", "base seed (default {base_seed})"),
    "max_generations": (("max_generations",), int, "an integer",
                        "--max-generations", "safety cap on generations per run"),
    "stationarity_threshold": (("stationarity_threshold",), float, "a number",
                               "--threshold", "stationarity threshold"),
    "workers": (("workers",), int, "an integer", "--workers",
                "worker processes (0 = auto); capped at the usable CPU count "
                "and at the number of runs"),
    "output_dir": (("output_dir",), _path, "a path",
                   "--out", "output directory (default {output_dir})"),
    "curves": (("capture_curves",), _boolean, "a boolean",
               "--curves", "capture per-generation curves"),
}
CONFIG_KEYS = tuple(_CONFIG_TABLE)


def read_config_file(path: str) -> dict:
    """Parse a flat key=value config file into a {key: raw string} dict.

    Blank lines and comments (from a ``#`` that starts the line or follows
    whitespace) are skipped and keys and values stripped, as is a leading
    UTF-8 byte-order mark; a byte that is not UTF-8, a line without ``=``, an
    unknown key or a key set twice raises ValueError at path:lineno."""
    values = {}
    # An undecodable byte reads as a surrogate in U+DC80..U+DCFF, which
    # valid UTF-8 never decodes to.
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            if re.search("[\udc80-\udcff]", raw):
                raise ValueError(f"{path}:{lineno}: not UTF-8 text")
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
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
    output_dir = kwargs.pop("output_dir", OUTPUT_DIR)
    workers = harness.check_workers(kwargs.pop("workers", 0))
    return ExperimentConfig(**kwargs), output_dir, workers


def _build_parser() -> argparse.ArgumentParser:
    # No abbreviated flags: each flag has one spelling.
    parser = argparse.ArgumentParser(
        prog="stagbench",
        allow_abbrev=False,
        description=(
            "Stagnation-terminated benchmark harness: convergence is not "
            "optimality."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "nominal", help="simulate the nominal consensus dynamics (CSV on stdout)",
        allow_abbrev=False,
    )
    p.add_argument("--alpha", type=float, required=True, help="step parameter")
    p.add_argument("--n", type=int, default=2, help="population size (default %(default)s)")
    p.add_argument("--dim", type=int, default=1, help="dimension (default %(default)s)")
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

    p = sub.add_parser("bench", help="evaluate a benchmark function at a point",
                       allow_abbrev=False)
    p.add_argument("function", help=" | ".join(benchmarks.FUNCTIONS))
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--point", help="comma-separated coordinates")
    g.add_argument(
        "--optimum",
        nargs="?",
        const="minus",
        choices=benchmarks.BRANCHES,
        help="use the closed-form optimum (branch, default %(const)s)",
    )
    p.add_argument(
        "--dim", type=int,
        help=f"dimension for --optimum (default {BENCH_DIM}); with --point, its length",
    )

    p = sub.add_parser("experiment", help="run the grid, write report files",
                       allow_abbrev=False)
    p.add_argument("--config", help="key = value config file")
    defaults = {"base_seed": ExperimentConfig.base_seed, "output_dir": OUTPUT_DIR}
    for key, (_, parse, _, flag, help_text) in _CONFIG_TABLE.items():
        action = argparse.BooleanOptionalAction if parse is _boolean else None
        p.add_argument(flag, dest=key, action=action, help=help_text.format_map(defaults))

    sub.add_parser("verify", help="run the exact-dynamics and gradient checks",
                   allow_abbrev=False)

    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse `argv` as `main` does: a token that starts with a single "-",
    other than "-h", and follows a ``--flag`` without "=" is that flag's
    value, as in ``--bounds -10,10`` or ``--point -1,2,3``."""
    joined = []
    for token in argv:
        if joined and re.fullmatch("--[^=]+", joined[-1]) and re.match("-(?!-|h$)", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return _build_parser().parse_args(joined)


def _cmd_nominal(args) -> int:
    try:
        stagnant = _integers(args.stagnant)
    except ValueError:
        raise ValueError(
            f"--stagnant must be comma-separated integers, got {args.stagnant!r}"
        )
    # A negative size draws an empty population, which `simulate` rejects
    # with its own rule.
    init = derive_stream(args.seed, ["nominal"]).uniform(
        -100.0, 100.0, size=(max(args.n, 0), max(args.dim, 0))
    )
    gen = derive_stream(args.seed, ["nominal", "simulate"])
    _, errors = nominal.simulate(args.alpha, init, args.steps, gen,
                                 pairing=args.pairing, stagnant_set=stagnant)
    predicted = nominal.predicted_factor(args.alpha, stagnant=bool(stagnant))
    out = sys.stdout
    out.write("step,diameter,predicted_factor,measured_factor\n")
    measured = np.append(np.nan, nominal.step_ratios(errors))
    for k, diam in enumerate(errors):
        out.write(
            f"{k},{format_float(diam)},{format_float(predicted)},"
            f"{format_float(measured[k])}\n"
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
        dim = BENCH_DIM if args.dim is None else args.dim
        point = benchmarks.optimum(name, dim, args.optimum)
        if not np.isfinite(point).all():
            raise ValueError(f"the {name} optimum overflows float64 at dim {dim}")
    X = as_points([point])
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(benchmarks.value_batch(name, X)[0])
        grad = benchmarks.gradient_batch(name, X)[0]
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
        # Curve files of an earlier grid would read as this grid's, so every
        # name that `curve_filename` gives some function, algorithm and
        # integer T goes before this grid's are written.
        for name in os.listdir(output_dir):
            if name in {harness.curve_filename(f, a, int(T))
                        for f in benchmarks.FUNCTIONS for a in algorithms.ALGORITHMS
                        for T in re.findall("-?[0-9]+", name)}:
                os.remove(os.path.join(output_dir, name))
        harness.write_curves(records, output_dir)
        print(harness.render_summary(os.path.join(output_dir, "summary.csv")))
    except OSError as exc:
        print(f"error: failed writing reports: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(_args) -> int:
    results = verify.run_checks()
    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        handler = {
            "nominal": _cmd_nominal,
            "bench": _cmd_bench,
            "experiment": _cmd_experiment,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except (ValueError, MemoryError, FileNotFoundError) as exc:
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
