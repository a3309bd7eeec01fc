"""ergodiag benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload {verify,exact,paths} --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the same checkout.  Every step's
output is checked, and its sha256 is compared with the step's first run in
this process and with earlier runs of the same seed on the same sources
(kept in ``.bench_work/digests.json``).  A failed check, a changed digest,
an exception or an unexpected exit code counts as a failed operation; exit
code 1 of ``experiment`` (a check verdicted FAIL) is a completed one.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``setup_s``: median over fresh interpreters of starting up and importing
  ``ergodiag.cli``, one started before the first cycle, then before a cycle
  once a fifth of ``--seconds`` has passed since the last, and one after the
  last cycle, so the median covers the same stretch of time as ``cycle_s``;
* ``cycle_ref``: the time of one cycle through the workload, the sum over
  its steps of each step's median wall time (printed as ``cycle_s``), over
  the median time of the reference work (``Reference``) timed between the
  steps of the same run.  On a shared host the machine's speed changes by
  half for minutes at a time, and every timing changes with it; the ratio
  stays.  Whole cycles run until ``--seconds`` have passed, so every step
  has the same number of samples;
* ``peak_rss_mb``: peak resident memory of this process, which runs the
  program in-process.

The workload's own named metrics (``experiment_ar1_s`` ... , ``exact_s``,
``simulate_rows_per_s``, ``analyze_rows_per_s``) and ``error_rate`` are
printed on ``metric`` lines before the result.

``--trace 1`` alternates whole untraced and traced cycles for ``--seconds``
(see ``spans.py``), then runs the default AR1 experiment at one and at two
workers, and reports the per-layer metrics per traced cycle.  Step times
(``step`` lines) are those of the untraced cycles.

The last line of stdout is the JSON result.  Results and spans are also
written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Stop starting cycles after this many seconds, so a run ends within 180 s.
HARD_STOP_S = 120.0
SETUP_COMMAND = [sys.executable, "-c", "import ergodiag.cli"]
# A set-up is measured before a cycle once --seconds / SETUP_SPACING have
# passed since the last one, and once after the last cycle.
SETUP_SPACING = 5


def _program_env() -> dict:
    env = dict(os.environ)
    env.pop("ERGODIAG_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Wall seconds of a fresh interpreter that imports ``ergodiag.cli``."""
    t0 = time.perf_counter()
    subprocess.run(SETUP_COMMAND, env=_program_env(), cwd=ROOT, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


def repeat(seconds: float, body: Callable[[], None]) -> None:
    """Call ``body`` until ``seconds`` have passed, at least once."""
    start = time.perf_counter()
    while True:
        body()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= HARD_STOP_S:
            return


def processes_import_s() -> float:
    """Cumulative import time of ``ergodiag.processes`` from ``-X importtime``."""
    cmd = [sys.executable, "-X", "importtime"] + SETUP_COMMAND[1:]
    done = subprocess.run(cmd, env=_program_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=60)
    for line in done.stderr.splitlines():
        fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
        if len(fields) == 3 and fields[2] == "ergodiag.processes":
            return int(fields[1]) / 1e6
    raise RuntimeError("-X importtime printed no line for ergodiag.processes")


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_sha() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    return _read(ROOT / ".git" / head[5:])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ergodiag").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine(seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if size:
            caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Reference:
    """A fixed piece of Python and numpy work that shares no code with the
    program, timed after every untraced step, once per half second of the
    step: how fast the machine runs the kind of code the workloads run."""

    def __init__(self) -> None:
        import numpy as np

        self.values = np.random.default_rng(0).standard_normal(1 << 20)
        self.times: list[float] = []

    def sample(self, step_seconds: float) -> None:
        values = self.values
        for _ in range(1 + int(step_seconds / 0.5)):
            t0 = time.perf_counter()
            text = "\n".join(f"{x:.17g}" for x in values[:10_000].tolist())
            total = sum(float(v) for v in text.split("\n"))
            for h in range(1, 9):
                total += float((values[:-h] * values[h:]).sum())
            self.times.append(time.perf_counter() - t0)


class Runner:
    """Runs steps, checks and digests their output, and keeps their times."""

    def __init__(self, workload, earlier_digests: dict[str, str]) -> None:
        self.workload = workload
        self.earlier = earlier_digests
        self.times: dict[str, list[float]] = {s.name: [] for s in workload.steps}
        self.tries: dict[str, int] = {s.name: 0 for s in workload.steps}
        self.digests: dict[str, str] = {}
        self.counts: dict[str, dict[str, float]] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.written: list[Path] = []
        self.reference = Reference()

    @property
    def failed(self) -> int:
        return len(self.problems)

    def fail(self, step: str, problem: str) -> None:
        self.problems.append(f"{step}: {problem}")
        print(f"FAILED {step}: {problem}", file=sys.stderr)

    def run_step(self, step, tracer=None) -> float | None:
        """Run one step; its wall seconds, or None when it failed."""
        self.attempted += 1
        first = self.tries[step.name] == 0
        self.tries[step.name] += 1
        t0 = time.perf_counter()
        try:
            out = step.run() if tracer is None else tracer.run_op(step.name, step.run)
        except (Exception, SystemExit) as exc:
            self.fail(step.name, f"raised {exc!r}")
            return None
        seconds = time.perf_counter() - t0
        self.written.extend(out.files.values())
        try:
            problems, self.counts[step.name] = step.check(out, first)
            digests = {f"{step.name}/{k}": _sha256_file(p) for k, p in out.files.items()}
            digests.update(
                {f"{step.name}/{k}": hashlib.sha256(b).hexdigest() for k, b in out.blobs.items()}
            )
        except Exception as exc:  # a malformed output must count, not end the run
            problems, digests = [f"output check raised {exc!r}"], {}
        for key, digest in digests.items():
            known = self.digests.setdefault(key, self.earlier.get(key, digest))
            if known != digest:
                problems.append(f"{key} sha256 {digest} differs from an earlier run {known}")
        if problems:
            self.fail(step.name, "; ".join(problems))
            return None
        if tracer is None:
            self.times[step.name].append(seconds)
        return seconds

    def run_cycle(self, tracer=None) -> float | None:
        walls = []
        for step in self.workload.steps:
            walls.append(self.run_step(step, tracer))
            if tracer is None and walls[-1] is not None:
                self.reference.sample(walls[-1])
        # Each cycle writes fresh files: replacing an existing file by rename
        # makes ext4 start writing the new one to disk, which would time the
        # disk instead of the program.  Deleted within seconds, the files
        # never leave the page cache.
        for path in self.written:
            path.unlink(missing_ok=True)
        self.written.clear()
        return None if None in walls else sum(walls)

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(t) for name, t in self.times.items() if t}


def pool_speedup(seed: int, runner: Runner) -> dict[str, float]:
    """Default AR1 experiment at one worker and at two, untraced."""
    from ergodiag.harness import ExperimentConfig, run_experiment
    from ergodiag.processes import ProcessConfig
    from workloads import experiment_doc

    doc = experiment_doc(seed, "AR1")
    config = ExperimentConfig(ProcessConfig(**doc["process"]), doc["experiment"]["base_seed"])
    walls, reports = [], []
    for workers in (1, min(2, os.cpu_count() or 1)):
        runner.attempted += 1
        t0 = time.perf_counter()
        reports.append(json.dumps(run_experiment(config, max_workers=workers).to_dict()))
        walls.append(time.perf_counter() - t0)
    if reports[0] != reports[1]:
        runner.fail("pool", "report differs between one and two workers")
    return {
        "harness.pool_1w_s": walls[0],
        "harness.pool_2w_s": walls[1],
        "harness.pool_speedup_2w": walls[0] / walls[1],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "exact", "paths"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "ergodiag" / "__init__.py").is_file():
        print(f"error: {SRC / 'ergodiag'} not found; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.pop("ERGODIAG_THREADS", None)
    sys.path.insert(0, str(SRC))
    import ergodiag
    import spans
    import workloads

    if Path(ergodiag.__file__).resolve().parent != SRC / "ergodiag":
        print(f"error: imported ergodiag from {ergodiag.__file__}", file=sys.stderr)
        return 2

    info = machine(args.seed)
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))

    run_dir = WORK / f"run-{os.getpid()}"
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    store_key = f"{info['source_sha256']}/{args.workload}/{args.seed}"
    setup: list[float] = []
    try:
        runner = Runner(workloads.build(args.workload, args.seed, run_dir),
                        store.get(store_key, {}))
        if args.trace:
            import_s = processes_import_s()
            tracer = spans.Tracer()
            untraced, cycles = [], []

            # Untraced and traced cycles alternate, so warm-up and drift
            # fall on both sides of the overhead estimate.
            def pair() -> None:
                for tracing, walls in ((None, untraced), (tracer, cycles)):
                    wall = runner.run_cycle(tracing)
                    if wall is not None:
                        walls.append(wall)

            repeat(args.seconds, pair)
            pool = pool_speedup(args.seed, runner)
        else:
            setup_due = time.perf_counter()

            def cycle() -> None:
                nonlocal setup_due
                if time.perf_counter() >= setup_due:
                    setup.append(measure_setup())
                    setup_due = time.perf_counter() + args.seconds / SETUP_SPACING
                runner.run_cycle()

            repeat(args.seconds, cycle)
            setup.append(measure_setup())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    medians = runner.medians()
    complete = len(medians) == len(runner.workload.steps)
    named = runner.workload.summary(medians) if complete else {}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    error_rate = runner.failed / runner.attempted
    for name, seconds in runner.times.items():
        print(f"step {name} runs={len(seconds)} seconds={[round(s, 4) for s in seconds]}")
    print(f"setup runs={len(setup)} seconds={[round(s, 4) for s in setup]}")
    for key, digest in sorted(runner.digests.items()):
        print(f"digest {args.workload} seed={args.seed} {key} {digest}")

    result = {"provenance": info, "workload": args.workload, "trace": args.trace,
              "setup_s": setup, "step_s": runner.times, "reference_s": runner.reference.times,
              "digests": runner.digests,
              "problems": runner.problems}
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, units = {}, {}
        if cycles and untraced:
            metrics = spans.metrics(tracer, len(cycles))
            for key in ("harness.checks_run", "harness.checks_failed", "cli.rows_written",
                        "cli.rows_read", "cli.bytes_written", "cli.bytes_read"):
                metrics[key] = sum(c.get(key, 0) for c in runner.counts.values())
            metrics["trace.overhead_s"] = statistics.median(cycles) - statistics.median(untraced)
            metrics["processes.import_s"] = import_s
            metrics.update(pool)
            result["breakdown"] = spans.breakdown(tracer)
            for row in result["breakdown"]:
                parts = " ".join(f"{k}={v:.4f}" for k, v in row.items() if k != "step")
                print(f"trace {row['step']} {parts}")
            tracer.save(WORK / "results" / f"{args.workload}-seed{args.seed}.spans.npz")
    else:
        metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
        if complete:
            cycle_s = sum(medians.values())
            reference_s = statistics.median(runner.reference.times)
            named["cycle_s"] = (cycle_s, "s")
            named["reference_s"] = (reference_s, "s")
            metrics["cycle_ref"] = cycle_s / reference_s
        units = {"setup_s": "s", "cycle_ref": "ref", "peak_rss_mb": "MB"}
        for name, (value, unit) in named.items():
            print(f"metric {name} {value!r} {unit}")
    print(f"metric error_rate {error_rate!r} failed/attempted")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units.get(name, _unit(name))}")

    result["metrics"] = metrics
    result["named"] = named
    WORK.joinpath("results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    if not runner.problems:
        store[store_key] = {**store.get(store_key, {}), **runner.digests}
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True))

    line = {
        "correct": runner.failed == 0 and complete and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, _unit(k))} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("speedup_2w"):
        return "ratio"
    if name.startswith("cli.bytes") or name == "processes.bytes_drawn":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
