"""Command-line front end: simulate ensembles, analyze paths, run experiments.

Subcommands
-----------
``simulate --config F --out F --seed U64 --n INT --replicates INT``
    Sample an ensemble of the configured process and write it as CSV with
    header ``t,replicate,x`` (replicate-major rows, 17 significant digits,
    so values round-trip exactly).
``analyze --input F [--max-lag INT] [--window-c REAL] [--target-mean REAL]``
    Estimate autocovariances, correlation time, effective sample size, and
    Chebyshev bounds from a single observed path; JSON on stdout, with
    ``tau_floored`` only when the correlation time was floored.
``experiment --config F --out-dir D``
    Run the Monte Carlo verification harness and write ``report.json`` plus
    the plot-ready ``curves.csv``.

Exit codes: 0 success, 1 at least one requested check failed, 2
configuration or validation error, 3 I/O failure.  Output files are written
to a temporary name and renamed into place.  Seeds are explicit everywhere;
there is no wall-clock default.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
import warnings
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .bounds import chebyshev_bound
from .estimators import SamplePath, estimate_tau, sample_autocovariance
from .harness import ExperimentConfig, run_experiment
from .model import DegenerateSeriesError, effective_sample_size
from .processes import ProcessConfig, _require_in_memory, sample_blocks, sample_path

# ``simulate`` no longer calls ``sample_path``; it stays importable from this
# module because bench/spans.py wraps it by name.

__all__ = ["main", "ConfigError"]

_ANALYZE_EPSILONS = (0.1, 0.05, 0.01)
# Values per formatted chunk of a simulate row: about 200 KB of text, so a
# long row never becomes one huge string.
_WRITE_CHUNK = 8192
_MIN_ANALYZE_OBSERVATIONS = 10

_TOP_LEVEL_KEYS = {"process", "experiment"}
_PROCESS_KEYS = {"family", "params"}
_EXPERIMENT_KEYS = {"n_grid", "replicates", "base_seed", "epsilons", "checks"}


class ConfigError(ValueError):
    """Configuration file or argument rejected before any computation."""


def _reject_unknown_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _load_config_file(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must contain a JSON object at top level")
    _reject_unknown_keys(doc, _TOP_LEVEL_KEYS, "config file")
    for key, allowed in (("process", _PROCESS_KEYS), ("experiment", _EXPERIMENT_KEYS)):
        if key in doc:
            if not isinstance(doc[key], dict):
                raise ConfigError(f"config section {key!r} must be an object")
            _reject_unknown_keys(doc[key], allowed, f"config section {key!r}")
    return doc


def _process_from_config(doc: dict) -> ProcessConfig:
    section = doc.get("process")
    if section is None:
        raise ConfigError("config file is missing the 'process' section")
    family = section.get("family")
    if family is None:
        raise ConfigError("process.family is required")
    params = section.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("process.params must be an object")
    try:
        return ProcessConfig(family=family, params=params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _experiment_from_config(doc: dict, process: ProcessConfig) -> ExperimentConfig:
    section = doc.get("experiment", {})
    if "base_seed" not in section:
        raise ConfigError("experiment.base_seed is required (seeds are never implicit)")
    kwargs: dict = {"process": process, "base_seed": section["base_seed"]}
    for key in ("n_grid", "replicates", "epsilons", "checks"):
        if key in section:
            kwargs[key] = section[key]
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"experiment section invalid: {exc}") from exc


def _atomic_write(path: Path, write_body: Callable) -> None:
    """Write via a sibling temp file and rename, so readers never see halves."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            write_body(fh)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _parse_seed(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {value!r}")
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return seed


def _cmd_simulate(args: argparse.Namespace) -> int:
    doc = _load_config_file(args.config)
    process = _process_from_config(doc)
    if args.n < 1:
        raise ConfigError(f"n must be >= 1, got {args.n}")
    _require_in_memory(args.n, f"--n {args.n}: one path")
    if args.replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {args.replicates}")

    def body(fh) -> None:
        fh.write("t,replicate,x\n")

        def write(first: int, block) -> None:
            # One %-format call per chunk of a row; "%.17g" gives the same
            # digits as format(x, ".17g").
            for r, values in enumerate(block, start=first):
                for lo in range(0, args.n, _WRITE_CHUNK):
                    xs = values[lo : lo + _WRITE_CHUNK].tolist()
                    rows = zip(range(lo + 1, lo + len(xs) + 1), xs)
                    fh.write((f"%d,{r},%.17g\n" * len(xs)) % tuple(chain.from_iterable(rows)))

        # One worker: blocks arrive in replicate order, as the rows are written.
        sample_blocks(process, args.n, args.seed, args.replicates, write, max_workers=1)

    _atomic_write(Path(args.out), body)
    return 0


def _read_single_path(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first:
            raise ConfigError(f"{path} is empty")
        header = [h.strip() for h in next(csv.reader([first]), [])]
        if tuple(header) not in {("x",), ("t", "x"), ("t", "replicate", "x")}:
            raise ConfigError(
                f"unsupported CSV header {header!r}; expected 'x', 't,x', "
                "or 't,replicate,x'"
            )
        # numpy's C parser: every column numeric, one column count for all
        # rows, blank lines skipped, '#' not a comment.
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            # numpy's hint names a loadtxt argument this command does not take.
            message = str(exc).split("; use `usecols`")[0]
            raise ConfigError(f"{path}: malformed data row: {message}") from None
    if table.size == 0:
        return np.empty(0)
    if table.shape[1] != len(header):
        raise ConfigError(
            f"{path}: expected {len(header)} columns, got {table.shape[1]}"
        )
    if "replicate" in header:
        replicates = table[:, header.index("replicate")]
        if not np.all(replicates == replicates[0]):
            raise ConfigError(
                f"{path} holds multiple replicates; analyze expects a "
                "single path (re-run simulate with --replicates 1 or "
                "split the file)"
            )
    # A copy of the one column, so the parsed table can be freed.
    return np.ascontiguousarray(table[:, header.index("x")])


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.max_lag < 1:
        raise ConfigError(f"--max-lag must be >= 1, got {args.max_lag}")
    if not 0 < args.window_c < math.inf:
        raise ConfigError(f"--window-c must be > 0 and finite, got {args.window_c}")
    if args.target_mean is not None and not math.isfinite(args.target_mean):
        raise ConfigError(f"--target-mean must be finite, got {args.target_mean}")
    values = _read_single_path(args.input)
    n = values.size
    if n < _MIN_ANALYZE_OBSERVATIONS:
        raise ConfigError(
            f"insufficient data: need at least {_MIN_ANALYZE_OBSERVATIONS} "
            f"observations, got {n}"
        )
    path = SamplePath(values)
    max_lag = min(args.max_lag, n - 1)
    acov = sample_autocovariance(path, max_lag)
    tau = estimate_tau(acov, window_c=args.window_c)
    ess = effective_sample_size(n, tau.value)
    var_an_estimate = float(acov.gamma_hat[0]) * tau.value / n

    result = {
        "n": n,
        "mean": acov.mean_used,
        "gamma_hat": [float(g) for g in acov.gamma_hat],
        "tau_hat": tau.value,
        "tau_window": tau.window,
        "window_saturated": tau.saturated,
        "ess": ess.value,
        "var_an_estimate": var_an_estimate,
        "chebyshev": {
            repr(eps): chebyshev_bound(var_an_estimate, eps) for eps in _ANALYZE_EPSILONS
        },
    }
    if tau.floored:
        result["tau_floored"] = True
    if args.target_mean is not None:
        result["gap"] = abs(acov.mean_used - args.target_mean)
    print(json.dumps(result, indent=2, allow_nan=False))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    doc = _load_config_file(args.config)
    process = _process_from_config(doc)
    config = _experiment_from_config(doc, process)
    report = run_experiment(config)
    # Strict JSON, serialized before anything is written.
    report_json = json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"

    out_dir = Path(args.out_dir)
    _atomic_write(out_dir / "report.json", lambda fh: fh.write(report_json))

    def curves(fh) -> None:
        fh.write("n,exact_var_an,empirical_mse,mc_se,eps,empirical_tail,chebyshev_bound\n")
        for stats in report.per_n:
            for eps in report.epsilons:
                fh.write(
                    f"{stats.n},{stats.exact_var_an:.17g},{stats.empirical_mse:.17g},"
                    f"{stats.mc_standard_error:.17g},{eps:.17g},"
                    f"{stats.empirical_tails[eps]:.17g},"
                    f"{stats.chebyshev_bounds[eps]:.17g}\n"
                )

    _atomic_write(out_dir / "curves.csv", curves)

    for check in report.checks:
        verdict = report.verdicts[check]
        print(f"{check.value}: {verdict.status} - {verdict.message}")
    return 0 if report.all_passed() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergodiag",
        description=(
            "Diagnostics for convergence of time averages of possibly "
            "non-stationary series"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sample an ensemble to CSV")
    p_sim.add_argument("--config", required=True, help="JSON config with a 'process' section")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--seed", required=True, type=_parse_seed, help="base seed (u64)")
    p_sim.add_argument("--n", required=True, type=int, help="path length")
    p_sim.add_argument("--replicates", required=True, type=int, help="number of paths")
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analyze", help="diagnose one observed path")
    p_an.add_argument("--input", required=True, help="CSV with column 'x' (or 't,x')")
    p_an.add_argument("--max-lag", type=int, default=100, dest="max_lag")
    p_an.add_argument("--window-c", type=float, default=6.0, dest="window_c")
    p_an.add_argument("--target-mean", type=float, default=None, dest="target_mean")
    p_an.set_defaults(func=_cmd_analyze)

    p_exp = sub.add_parser("experiment", help="run the verification harness")
    p_exp.add_argument(
        "--config", required=True, help="JSON config with 'process' and 'experiment'"
    )
    p_exp.add_argument("--out-dir", required=True, dest="out_dir")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateSeriesError as exc:
        print(f"error: degenerate series: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
