"""Command-line front end: simulate ensembles, analyze paths, run experiments.

Subcommands
-----------
``simulate --config F --out F --seed U64 --n INT --replicates INT``
    Sample an ensemble of the configured process and write it as CSV with
    header ``t,replicate,x``: replicate-major rows, each value in the bytes
    ``"%.17g"`` gives it, so values round-trip exactly.  ``_format`` computes
    those digits with NumPy for ``1e-4 <= |x| < 1e16`` and zeros, and prints
    the other values of a chunk by ``%`` into the same bytes.  Rows are
    formatted as bytes, in chunks of ``_WRITE_CHUNK`` values, and written
    straight to the file.  With more than one usable CPU the chunks of a
    block go in pairs: a helper thread formats the first of each pair while
    the calling thread formats the second, and the calling thread writes
    both, in row order, and formats a block's lone last chunk itself.  With
    one CPU the calling thread does it all.  Each formatting thread reuses
    one working set from chunk to chunk.
``analyze --input F [--max-lag INT] [--window-c REAL] [--target-mean REAL]``
    Estimate autocovariances, correlation time, effective sample size, and
    Chebyshev bounds from a single observed path; JSON on stdout, with
    ``tau_floored`` only when the correlation time was floored.  The file
    is read as bytes in 96 KB chunks; ``_parse`` turns every field into the
    float64 ``float()`` gives it, with NumPy for plain decimals and one
    field at a time for the rest, and accepts the fields ``np.loadtxt``
    accepts, except NaN and infinities.  A fault names the file, the line
    (the header is line 1) and the column.
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
import dataclasses
import json
import math
import os
import re
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from . import processes
from .bounds import chebyshev_bound
from .estimators import SamplePath, estimate_tau, sample_autocovariance
from .harness import ExperimentConfig, run_experiment
from .model import DegenerateSeriesError, _echo, _integer, effective_sample_size
from .processes import (
    _MASK64, ProcessConfig, _reject_unknown, _require_in_memory, _Scratch, sample_blocks,
    sample_path,
)

# ``simulate`` no longer calls ``sample_path``; it stays importable from this
# module because bench/spans.py wraps it by name.

__all__ = ["main", "ConfigError"]

_ANALYZE_EPSILONS = (0.1, 0.05, 0.01)
# Values simulate formats at once, across replicates: about 430 KB of text,
# laid out in a byte matrix and mask of about 2 MB, so the row writer's
# working set stays this small however long a path is.  Each formatting
# thread keeps its working set (about 3.1 MB) for the whole call, so the
# size is no longer held below glibc's 128 KB mmap threshold; fewer NumPy
# calls a value let the two threads overlap more.  Formatting 196 608 values
# of a 200 x 1000 AR1 ensemble took 33, 26 and 30 ms on two threads with
# 8192, 16 384 and 32 768 values a chunk, against 37, 37 and 42-53 ms on
# one (medians, 2-vCPU Xeon).
_WRITE_CHUNK = 16_384
_MIN_ANALYZE_OBSERVATIONS = 10

# The keys of each config section are the init fields of its dataclass.
_SECTION_KEYS = {
    "process": {f.name for f in dataclasses.fields(ProcessConfig) if f.init},
    "experiment": {f.name for f in dataclasses.fields(ExperimentConfig) if f.init} - {"process"},
}


class ConfigError(ValueError):
    """Configuration file or argument rejected before any computation."""


def _load_config_file(path: str) -> dict:
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {_echo(key)}")
            obj[key] = value
        return obj

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except ConfigError:
        raise
    # Besides JSONDecodeError: UnicodeDecodeError, a ValueError past the int
    # digit limit, and RecursionError on nesting deeper than the stack.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must contain a JSON object at top level")
    _reject_unknown(doc, set(_SECTION_KEYS), "key(s) in config file")
    for key, allowed in _SECTION_KEYS.items():
        if key in doc:
            if not isinstance(doc[key], dict):
                raise ConfigError(f"config section {key!r} must be an object")
            _reject_unknown(doc[key], allowed, f"key(s) in config section {key!r}")
    return doc


def _process_from_config(doc: dict) -> ProcessConfig:
    section = doc.get("process")
    if section is None:
        raise ConfigError("config file is missing the 'process' section")
    family = section.get("family")
    if family is None:
        raise ConfigError("process.family is required")
    return ProcessConfig(**section)


def _experiment_from_config(doc: dict, process: ProcessConfig) -> ExperimentConfig:
    section = doc.get("experiment", {})
    if "base_seed" not in section:
        raise ConfigError("experiment.base_seed is required (seeds are never implicit)")
    try:
        return ExperimentConfig(process=process, **section)
    except ValueError as exc:
        raise ConfigError(f"experiment section invalid: {exc}") from exc


def _atomic_write(path: Path, write_body: Callable, *, binary: bool = False) -> None:
    """Write via a sibling temp file and rename, so readers never see halves.

    ``write_body`` gets the file opened as UTF-8 text, or for bytes if
    ``binary``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        if binary:
            fh = os.fdopen(fd, "wb")
        else:
            fh = os.fdopen(fd, "w", encoding="utf-8", newline="\n")
        with fh:
            write_body(fh)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _cmd_simulate(args: argparse.Namespace) -> int:
    doc = _load_config_file(args.config)
    process = _process_from_config(doc)
    seed = _integer(args.seed, "--seed", 0, _MASK64)
    n = _integer(args.n, "--n", 1)
    _require_in_memory(n, f"--n {n}: one path")
    # Replicate indices are u64.
    replicates = _integer(args.replicates, "--replicates", 1, 1 << 64)
    # The row writer builds its digit tables on import; no other command needs it.
    from ._format import format_rows

    def body(fh) -> None:
        fh.write(b"t,replicate,x\n")
        if processes.worker_count() > 1:
            helper = ThreadPoolExecutor(1, thread_name_prefix="ergodiag-simulate")
        else:
            helper = None
        # Each formatting thread reuses one working set for all its chunks;
        # both are freed when the body returns.
        work, helper_work = _Scratch(), _Scratch()
        # Leaving the block waits for the helper, also when a chunk failed.
        with helper or nullcontext():

            def write(first: int, block) -> None:
                values = block.reshape(-1)  # replicate-major, as the rows go

                def rows(start: int, scratch: _Scratch) -> np.ndarray:
                    x = values[start : start + _WRITE_CHUNK]
                    return format_rows(x, start, n, first, scratch=scratch)

                # The helper formats the first chunk of each pair while this
                # thread formats the second; a lone last chunk, or every
                # chunk with no helper, is formatted here.  Both of a pair
                # are written before the next, so nothing outlives the
                # block and the helper reads it in place.
                step = _WRITE_CHUNK if helper is None else 2 * _WRITE_CHUNK
                for start in range(0, values.size, step):
                    second = start + _WRITE_CHUNK
                    if helper is None or second >= values.size:
                        fh.write(rows(start, work))
                    else:
                        future = helper.submit(rows, start, helper_work)
                        text = rows(second, work)
                        fh.write(future.result())
                        fh.write(text)

            # One worker: blocks arrive in replicate order, as the rows are written.
            sample_blocks(process, n, seed, replicates, write, max_workers=1)

    _atomic_write(Path(args.out), body, binary=True)
    return 0


def _read_header(fh: BinaryIO) -> bytes:
    """Line 1 through its first CR or LF, or CR LF, as a text-mode readline
    ends it.  What follows is only peeked at, so a pipe, which cannot seek
    back, reads as a file does."""
    line = b""
    while not line.endswith((b"\r", b"\n")) and (ahead := fh.peek()):
        end = re.search(rb"[\r\n]", ahead)
        line += fh.read(len(ahead) if end is None else end.start() + 1)
    if line.endswith(b"\r") and fh.peek()[:1] == b"\n":
        line += fh.read(1)
    return line


def _read_single_path(path: str) -> np.ndarray:
    # The number reader builds its power table on import; no other command needs it.
    from ._parse import read_rows

    with open(path, "rb") as fh:
        first = _read_header(fh)
        if not first:
            raise ConfigError(f"{path} is empty")
        try:
            text = first.decode("utf-8")
        except UnicodeDecodeError:
            length = len(first.rstrip(b"\r\n"))
            shown = _echo(first, f"a line of {length} bytes")
            raise ConfigError(f"{path}, line 1: {shown} is not UTF-8 text") from None
        header = [h.strip() for h in next(csv.reader([text]), [])]
        if tuple(header) not in {("x",), ("t", "x"), ("t", "replicate", "x")}:
            length = len(text.rstrip("\r\n"))  # a header can be as long as the file
            shown = _echo(header, f"a header of {length} characters")
            raise ConfigError(
                f"unsupported CSV header {shown}; expected 'x', 't,x', "
                "or 't,replicate,x'"
            )
        column = header.index("x")
        replicate = header.index("replicate") if "replicate" in header else None
        size = os.fstat(fh.fileno()).st_size  # 0 for a pipe
        x = np.empty(0)
        rows = 0
        label = None  # the first row's replicate
        mixed = False
        for block in read_rows(fh, path, header, 2):
            if replicate is not None and len(block):
                if label is None:
                    label = block[0, replicate]
                mixed = mixed or not np.all(block[:, replicate] == label)
            need = rows + len(block)
            if need > x.size:
                # Room for the rest of the file at the bytes per row so far.
                guess = need * size // fh.tell() + need // 16 if size else 0
                x.resize(max(guess, 2 * x.size, need), refcheck=False)
            x[rows:need] = block[:, column]
            rows = need
    if mixed:
        raise ConfigError(
            f"{path} holds multiple replicates; analyze expects a "
            "single path (re-run simulate with --replicates 1 or "
            "split the file)"
        )
    x.resize(rows, refcheck=False)
    return x


def _cmd_analyze(args: argparse.Namespace) -> int:
    max_lag = _integer(args.max_lag, "--max-lag", 1)
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
    max_lag = min(max_lag, n - 1)
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
    p_sim.add_argument("--seed", required=True, type=int, help="base seed (u64)")
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
