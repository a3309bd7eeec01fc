"""The benchmark's three workloads: inputs made from the seed, timed steps,
and a correctness check for every step's output.

All three are closed loops: one process, one caller, the next step starts
when the previous one returns.  ``ERGODIAG_THREADS`` is unset, so the
program runs one worker.  The program sees only the config files and CSV
files generated here from the workload seed.

Each workload exists to show one ROADMAP item and to show that another item
changes nothing.  A later change names its claim as (metric, workload).

``verify``
    ``ergodiag experiment`` (in-process ``cli.main``) for AR1,
    SPARSE_SPIKES, COMMON_SHOCK and DRIFTING_MEAN at the default config:
    grid 1e2/1e3/1e4, 10 000 replicates, default checks.  This is the Monte
    Carlo verdict at the settings users run; per-replicate sampling
    (``processes`` + ``estimators.time_average`` + the ``harness`` fan-out)
    is most of its wall time.  Should move with ROADMAP item 3 (batched
    sampling engine, thread-pool removal).  Item 4 moves only its
    SPARSE_SPIKES and DRIFTING_MEAN steps, through the exact ``V_n``.
``exact``
    The library's exact diagnosis of the same four families over
    n = 1e3, 3e3, 1e4, 3e4: ``mean_average`` and ``time_average_variance``
    at each point, ``classify_growth`` on the resulting ``V_n``, and
    ``correlation_time`` plus ``effective_sample_size`` for the two
    stationary families.  No sampling.  The cost is the O(n^2)
    ``covariance_sum`` double sum of the two diagonal families and the
    100 000 scalar ``gamma`` calls of ``correlation_time`` for
    COMMON_SHOCK.  One step per family.  Should move with ROADMAP item 4
    (structure-aware exact side); item 3 should leave it unchanged.
``paths``
    ``ergodiag simulate`` writes 200 AR1 paths of length 1000 and one path
    of length 2e5, then ``ergodiag analyze`` reads the long path at
    ``--max-lag 1000``.  The CSV layer under writes and reads, plus the
    O(n*L) autocovariance; the exact side is bypassed.  Should move with
    FFT autocovariance (ROADMAP item 4) and with I/O changes; the exact
    side of item 4 should leave it unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

from ergodiag import cli, model, processes
from ergodiag.processes import ProcessConfig, RngSeed

FAMILIES = ("AR1", "SPARSE_SPIKES", "COMMON_SHOCK", "DRIFTING_MEAN")
SHORT_FAMILY = {
    "AR1": "ar1",
    "SPARSE_SPIKES": "spikes",
    "COMMON_SHOCK": "shock",
    "DRIFTING_MEAN": "drift",
}
DEFAULT_GRID = (100, 1000, 10_000)
DEFAULT_REPLICATES = 10_000
DEFAULT_EPSILONS = (0.1, 0.05, 0.01)
EXACT_GRID = (1000, 3000, 10_000, 30_000)
SHORT_N, SHORT_REPLICATES = 1000, 200
LONG_N = 200_000
ANALYZE_MAX_LAG = 1000
ANALYZE_KEYS = {
    "n", "mean", "gamma_hat", "tau_hat", "tau_window", "window_saturated",
    "ess", "var_an_estimate", "chebyshev",
}
REL_TOL = 1e-9


@dataclass
class StepOutput:
    """What one step produced: exit code, files written, other output."""

    rc: int
    files: dict[str, Path] = field(default_factory=dict)
    blobs: dict[str, bytes] = field(default_factory=dict)


@dataclass
class Step:
    """One timed call into the program and the check of its output.

    ``check(out, first)`` returns (problems, counts).  ``first`` is set on a
    step's first run; later runs of the same step must reproduce its bytes,
    so costly checks need only run once.
    """

    name: str
    run: Callable[[], StepOutput]
    check: Callable[[StepOutput, bool], tuple[list[str], dict[str, float]]]


@dataclass
class Workload:
    steps: list[Step]
    # Median seconds per step -> the workload's own named metrics.
    summary: Callable[[dict[str, float]], dict[str, tuple[float, str]]]


def derive_seed(seed: int, purpose: str) -> int:
    """A u64 seed for one purpose, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def process_doc(seed: int, family: str) -> dict:
    """The ``process`` config section for ``family``, parameters from the seed."""
    rng = random.Random(derive_seed(seed, "params:" + family))

    def draw(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 6)

    if family == "AR1":
        params = {"phi": draw(0.2, 0.8), "gamma0": draw(0.5, 2.0)}
    elif family == "SPARSE_SPIKES":
        params = {}
    elif family == "COMMON_SHOCK":
        params = {"sigma_z": draw(0.5, 1.5), "sigma_eps": draw(0.5, 1.5)}
    else:
        trend = {"kind": "LINEAR", "a": draw(-1.0, 1.0), "b": draw(-0.01, 0.01)}
        params = {"trend": trend, "noise_sd": draw(0.5, 2.0)}
    return {"family": family, "params": params}


def experiment_doc(seed: int, family: str) -> dict:
    base_seed = derive_seed(seed, "experiment:" + family)
    return {"process": process_doc(seed, family), "experiment": {"base_seed": base_seed}}


def exact_vn(doc: dict, n: int) -> float:
    """Closed-form ``V_n`` of each family."""
    family, p = doc["family"], doc["params"]
    if family == "AR1":
        phi, gamma0 = p["phi"], p["gamma0"]
        return gamma0 * (
            n * (1 + phi) / (1 - phi) - 2 * phi * (1 - phi**n) / (1 - phi) ** 2
        )
    if family == "SPARSE_SPIKES":
        return n * (n + 1) / 2
    if family == "COMMON_SHOCK":
        return n * n * p["sigma_z"] ** 2 + n * p["sigma_eps"] ** 2
    return n * p["noise_sd"] ** 2


def exact_mean(doc: dict, n: int) -> float:
    """Closed-form ``m_n``: zero, or ``a + b (n+1)/2`` for the linear trend."""
    if doc["family"] != "DRIFTING_MEAN":
        return 0.0
    trend = doc["params"]["trend"]
    return trend["a"] + trend["b"] * (n + 1) / 2


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=1e-12)


def _strict_json(text: str):
    def reject(token: str):
        raise ValueError(f"non-JSON number {token}")

    return json.loads(text, parse_constant=reject)


def _round_trips(field_text: str) -> bool:
    return f"{float(field_text):.17g}" == field_text


def _run_cli(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue().encode()


# ---------------------------------------------------------------- verify


def _report_schema() -> dict:
    ref = resources.files("ergodiag") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def _check_experiment(doc: dict, out: StepOutput, schema: dict) -> tuple[list, dict]:
    if out.rc not in (0, 1):
        return [f"exit code {out.rc}"], {}
    problems = []
    report = _strict_json(out.files["report.json"].read_text(encoding="utf-8"))
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        problems.append(f"report.json fails its schema: {exc.message}")
    expected = {
        "process": doc["process"],
        "n_grid": list(DEFAULT_GRID),
        "replicates": DEFAULT_REPLICATES,
        "base_seed": doc["experiment"]["base_seed"],
        "epsilons": list(DEFAULT_EPSILONS),
    }
    for key, value in expected.items():
        if report[key] != value:
            problems.append(f"report.json {key} is {report[key]!r}, expected {value!r}")
    verdicts = report["verdicts"]
    failed = [c for c, v in verdicts.items() if v["status"] == "FAIL"]
    if (out.rc == 1) != bool(failed):
        problems.append(f"exit code {out.rc} disagrees with FAIL verdicts {failed}")
    lines = [f"{c}: {verdicts[c]['status']} - {verdicts[c]['message']}" for c in report["checks"]]
    if out.blobs["stdout"].decode().splitlines() != lines:
        problems.append("stdout verdict lines disagree with report.json")
    for stats in report["per_n"]:
        n = stats["n"]
        want = exact_vn(doc["process"], n) / (n * n)
        if not _close(stats["exact_var_an"], want):
            problems.append(f"n={n}: exact_var_an {stats['exact_var_an']!r}, closed form {want!r}")

    curves = out.files["curves.csv"].read_text(encoding="utf-8").splitlines()
    header = "n,exact_var_an,empirical_mse,mc_se,eps,empirical_tail,chebyshev_bound"
    rows = [
        [s["n"], s["exact_var_an"], s["empirical_mse"], s["mc_standard_error"], eps,
         s["empirical_tails"][repr(eps)], s["chebyshev_bounds"][repr(eps)]]
        for s in report["per_n"] for eps in report["epsilons"]
    ]
    if not curves or curves[0] != header or len(curves) != 1 + len(rows):
        problems.append(
            f"curves.csv has a wrong header or {len(curves) - 1} rows, expected {len(rows)}"
        )
    else:
        for line, want in zip(curves[1:], rows):
            fields = line.split(",")
            if not all(_round_trips(f) for f in fields[1:]) or [
                float(f) for f in fields
            ] != [float(v) for v in want]:
                problems.append(f"curves.csv row {line!r} disagrees with report.json")
                break
    counts = {
        "harness.checks_run": len(verdicts),
        "harness.checks_failed": len(failed),
        "cli.rows_written": len(curves) - 1,
        "cli.bytes_written": sum(p.stat().st_size for p in out.files.values()),
    }
    return problems, counts


def _experiment_step(workdir: Path, seed: int, family: str, schema: dict) -> Step:
    doc = experiment_doc(seed, family)
    config = workdir / f"experiment-{family}.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = workdir / f"experiment-{family}"

    def run() -> StepOutput:
        rc, stdout = _run_cli(["experiment", "--config", str(config), "--out-dir", str(out_dir)])
        files = {"report.json": out_dir / "report.json", "curves.csv": out_dir / "curves.csv"}
        return StepOutput(rc, files, {"stdout": stdout})

    return Step(
        f"experiment_{SHORT_FAMILY[family]}",
        run,
        lambda out, first: _check_experiment(doc, out, schema),
    )


def _verify(workdir: Path, seed: int) -> Workload:
    schema = _report_schema()
    steps = [_experiment_step(workdir, seed, f, schema) for f in FAMILIES]
    return Workload(
        steps,
        lambda med: {f"{name}_s": (seconds, "s") for name, seconds in med.items()},
    )


# ----------------------------------------------------------------- exact


def _diagnose(doc: dict) -> dict:
    """One family's exact diagnosis, through the library's public API."""
    spec = processes.build_spec(ProcessConfig(doc["family"], doc["params"]))
    means = [model.mean_average(spec, n) for n in EXACT_GRID]
    variances = [model.time_average_variance(spec, n) for n in EXACT_GRID]
    vn = [v * n * n for v, n in zip(variances, EXACT_GRID)]
    result = {
        "m_n": means,
        "var_an": variances,
        "growth": model.classify_growth(list(EXACT_GRID), vn).to_dict(),
    }
    if spec.stationary is not None:
        tau = model.correlation_time(spec.stationary)
        ess = model.effective_sample_size(EXACT_GRID[-1], tau)
        result["tau"] = None if tau is model.NON_SUMMABLE else tau
        result["ess"] = ess.value
        result["ess_non_summable"] = ess.non_summable
    return result


_EXPECTED_GROWTH = {
    "AR1": "SUBQUADRATIC",
    "SPARSE_SPIKES": "QUADRATIC",
    "COMMON_SHOCK": "QUADRATIC",
    "DRIFTING_MEAN": "SUBQUADRATIC",
}


def _check_exact(family: str, doc: dict, out: StepOutput) -> tuple[list, dict]:
    problems = []
    got = _strict_json(out.blobs["results"].decode())
    for n, m, v in zip(EXACT_GRID, got["m_n"], got["var_an"]):
        vn = exact_vn(doc, n)
        if not _close(v * n * n, vn):
            problems.append(f"{family} n={n}: V_n {v * n * n!r}, closed form {vn!r}")
        if not _close(m, exact_mean(doc, n), rel=1e-12):
            problems.append(f"{family} n={n}: m_n {m!r}, closed form {exact_mean(doc, n)!r}")
    growth = got["growth"]["classification"]
    if growth != _EXPECTED_GROWTH[family]:
        problems.append(f"{family}: growth {growth}, expected {_EXPECTED_GROWTH[family]}")
    if family == "AR1":
        phi = doc["params"]["phi"]
        tau = (1 + phi) / (1 - phi)
        if got["tau"] is None or not _close(got["tau"], tau):
            problems.append(f"AR1 tau {got['tau']!r}, closed form {tau!r}")
        elif not _close(got["ess"], EXACT_GRID[-1] / got["tau"]):
            problems.append(f"AR1 ess {got['ess']!r} is not n / tau")
    if family == "COMMON_SHOCK":
        if got["tau"] is not None or not got["ess_non_summable"] or got["ess"] != 0.0:
            problems.append(f"COMMON_SHOCK tau {got['tau']!r} should be NON_SUMMABLE with ess 0")
    return problems, {}


def _exact_step(seed: int, family: str) -> Step:
    doc = process_doc(seed, family)

    def run() -> StepOutput:
        results = json.dumps(_diagnose(doc), sort_keys=True).encode()
        return StepOutput(0, blobs={"results": results})

    return Step(
        f"exact_{SHORT_FAMILY[family]}",
        run,
        lambda out, first: _check_exact(family, doc, out),
    )


def _exact(workdir: Path, seed: int) -> Workload:
    # One step per family, so the reference work is timed between them.
    return Workload(
        [_exact_step(seed, f) for f in FAMILIES],
        lambda med: {"exact_s": (sum(med.values()), "s")},
    )


# ----------------------------------------------------------------- paths


def _check_simulate(
    process: ProcessConfig, seed: int, n: int, replicates: int, out: StepOutput, first: bool
) -> tuple[list, dict]:
    """Header, row order and count, 17-digit round trip, and every value
    equal to the library's own sample of the same stream."""
    path = out.files["paths.csv"]
    counts = {"cli.rows_written": n * replicates, "cli.bytes_written": path.stat().st_size}
    if out.rc != 0:
        return [f"exit code {out.rc}"], counts
    if not first:
        return [], counts
    with open(path, encoding="utf-8") as fh:
        if fh.readline() != "t,replicate,x\n":
            return ["simulate CSV header is not t,replicate,x"], counts
        rows = 0
        for r in range(replicates):
            values = processes.sample_path(process, n, RngSeed(seed, r)).values
            for t in range(1, n + 1):
                line = fh.readline()
                prefix = f"{t},{r},"
                if not line.startswith(prefix) or not line.endswith("\n"):
                    return [f"simulate CSV row {rows + 1} is not t={t}, replicate={r}"], counts
                x = line[len(prefix) : -1]
                if not _round_trips(x) or float(x) != values[t - 1]:
                    return [f"simulate CSV row {rows + 1}: x={x} is not the sampled value"], counts
                rows += 1
        if fh.readline():
            return ["simulate CSV has rows beyond n * replicates"], counts
    return [], counts


def _check_analyze(process: ProcessConfig, seed: int, csv_path: Path, out: StepOutput, first: bool):
    counts = {"cli.rows_read": LONG_N, "cli.bytes_read": csv_path.stat().st_size}
    if out.rc != 0:
        return [f"exit code {out.rc}"], counts
    result = _strict_json(out.blobs["stdout"].decode())
    if set(result) != ANALYZE_KEYS:
        return [f"analyze keys {sorted(result)} differ from {sorted(ANALYZE_KEYS)}"], counts
    problems = []
    if result["n"] != LONG_N or len(result["gamma_hat"]) != ANALYZE_MAX_LAG + 1:
        problems.append("analyze n or gamma_hat length is wrong")
    if set(result["chebyshev"]) != {"0.1", "0.05", "0.01"}:
        problems.append(f"analyze chebyshev keys {sorted(result['chebyshev'])}")
    if not _close(result["var_an_estimate"], result["gamma_hat"][0] * result["tau_hat"] / LONG_N):
        problems.append("analyze var_an_estimate is not gamma_hat(0) * tau_hat / n")
    if not _close(result["ess"], LONG_N / result["tau_hat"]):
        problems.append("analyze ess is not n / tau_hat")
    if first and not problems:
        x = processes.sample_path(process, LONG_N, RngSeed(seed, 0)).values
        if not _close(result["mean"], float(np.mean(x))):
            problems.append(f"analyze mean {result['mean']!r} vs {float(np.mean(x))!r}")
        d = x - result["mean"]
        for h in (0, 1, 10, ANALYZE_MAX_LAG):
            want = float(np.dot(d[: LONG_N - h], d[h:])) / LONG_N
            if not _close(result["gamma_hat"][h], want):
                problems.append(f"analyze gamma_hat[{h}] {result['gamma_hat'][h]!r} vs {want!r}")
    return problems, counts


def _simulate_step(name, config, out_path, process, seed, n, replicates) -> Step:
    argv = ["simulate", "--config", str(config), "--out", str(out_path), "--seed", str(seed),
            "--n", str(n), "--replicates", str(replicates)]

    def run() -> StepOutput:
        rc, _ = _run_cli(argv)
        return StepOutput(rc, {"paths.csv": out_path})

    return Step(
        name,
        run,
        lambda out, first: _check_simulate(process, seed, n, replicates, out, first),
    )


def _paths(workdir: Path, seed: int) -> Workload:
    doc = {"process": process_doc(seed, "AR1")}
    config = workdir / "simulate.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    process = ProcessConfig(doc["process"]["family"], doc["process"]["params"])
    short_seed = derive_seed(seed, "simulate:short")
    long_seed = derive_seed(seed, "simulate:long")
    long_csv = workdir / "long.csv"
    argv = ["analyze", "--input", str(long_csv), "--max-lag", str(ANALYZE_MAX_LAG)]

    def analyze() -> StepOutput:
        rc, stdout = _run_cli(argv)
        return StepOutput(rc, blobs={"stdout": stdout})

    steps = [
        _simulate_step("simulate_short", config, workdir / "short.csv", process, short_seed,
                       SHORT_N, SHORT_REPLICATES),
        _simulate_step("simulate_long", config, long_csv, process, long_seed, LONG_N, 1),
        Step("analyze", analyze,
             lambda out, first: _check_analyze(process, long_seed, long_csv, out, first)),
    ]

    def summary(med: dict[str, float]) -> dict[str, tuple[float, str]]:
        rows = SHORT_N * SHORT_REPLICATES + LONG_N
        simulate_s = med["simulate_short"] + med["simulate_long"]
        return {
            "simulate_rows_per_s": (rows / simulate_s, "rows/s"),
            "analyze_rows_per_s": (LONG_N / med["analyze"], "rows/s"),
        }

    return Workload(steps, summary)


WORKLOADS = {"verify": _verify, "exact": _exact, "paths": _paths}


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](workdir, seed)
