"""Golden outputs: the sha256 of every byte the commands write at fixed seeds.

``golden.json`` holds the digests of ``simulate`` CSVs, ``experiment``'s
``report.json``, ``curves.csv`` and stdout, and ``analyze``'s stdout, for
every family at seeds 101-103, an AR1 whose values all lie below the row
writer's NumPy window, and an ``analyze`` of a CSV this file writes itself.
The ``verdicts/`` digests are of ``report.json`` and stdout of experiments
that request all five checks: every family at seeds 101-103, and three short
configs whose verdict texts no default run prints.

NumPy keeps a bit generator's stream stable across versions, but not the
``Generator`` methods that turn it into normals and uniforms (NEP 19).  So
the file records the numpy version it was written with.  On that version
the test compares every digest.  On another, it compares the digests that
draw nothing, the ``analyze`` of the written CSV, and then skips, naming
both versions; it never passes without comparing.

After a deliberate change of output, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and list each key whose digest changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ergodiag.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (101, 102, 103)
PROCESSES = {
    "AR1": {"family": "AR1", "params": {"phi": 0.5, "gamma0": 1}},
    # every value below 1e-4, outside the row writer's NumPy window
    "AR1_TINY": {"family": "AR1", "params": {"phi": 0.5, "gamma0": 1e-12}},
    # mostly zeros
    "SPARSE_SPIKES": {"family": "SPARSE_SPIKES"},
    "COMMON_SHOCK": {"family": "COMMON_SHOCK", "params": {"sigma_z": 1, "sigma_eps": 1}},
    "DRIFTING_MEAN": {
        "family": "DRIFTING_MEAN",
        "params": {"trend": {"kind": "LINEAR", "a": 1, "b": 0.5}, "noise_sd": 1},
    },
}
# Two work units of 1024 replicates at n = 1000, so the threaded engine runs.
EXPERIMENT = {"n_grid": [10, 100, 1000], "replicates": 2048}
ALL_CHECKS = ["VARIANCE_IDENTITY", "L2_CONVERGENCE", "WLLN", "NONCONVERGENCE", "BOUNDS"]
# All five checks at seed 101, on experiments that reach verdict texts no
# default run prints.
SHORT = {
    # the eps = 0.1 tail is 1 at both points: WLLN's "no net decrease"
    "SPARSE_SPIKES_2_9": ("SPARSE_SPIKES", {"n_grid": [2, 9]}),
    # one grid point: "needs at least 2 grid points"
    "AR1_100": ("AR1", {"n_grid": [100]}),
    # eps^2 above the liminf: NONCONVERGENCE's "no configured eps satisfies"
    "COMMON_SHOCK_EPS_2": ("COMMON_SHOCK", {"epsilons": [2.0]}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> bytes:
    """Run one command in-process and return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code not in (0, 1):
        raise RuntimeError(f"{argv} exited {code}")
    return out.getvalue().encode()


def _analyze(csv_path: Path) -> str:
    return _sha(_run(["analyze", "--input", str(csv_path), "--max-lag", "200"]))


def written_digests(tmp: Path) -> dict[str, str]:
    """Digests that depend on no sampling: ``analyze`` of a CSV written here."""
    path = tmp / "written.csv"
    rows = (f"{t},{math.sin(t) * 10.0 ** (t % 9 - 5)!r}\n" for t in range(1, 5001))
    path.write_text("t,x\n" + "".join(rows), encoding="utf-8")
    return {"analyze/written/stdout": _analyze(path)}


def sampled_digests(tmp: Path) -> dict[str, str]:
    """Digests of every output drawn from a seeded ``Generator``."""
    digests = {}
    for name, process in PROCESSES.items():
        config = tmp / f"{name}.json"
        for seed in SEEDS:
            doc = {"process": process, "experiment": {"base_seed": seed, **EXPERIMENT}}
            config.write_text(json.dumps(doc), encoding="utf-8")
            key = f"{name}/{seed}"
            for shape, n, replicates in (("20x1000", 1000, 20), ("1x5000", 5000, 1)):
                csv_path = tmp / f"{name}-{seed}-{shape}.csv"
                _run(["simulate", "--config", str(config), "--out", str(csv_path),
                      "--seed", str(seed), "--n", str(n), "--replicates", str(replicates)])
                digests[f"simulate/{key}/{shape}.csv"] = _sha(csv_path.read_bytes())
            digests[f"analyze/{key}/1x5000/stdout"] = _analyze(csv_path)
            if name == "AR1_TINY":
                continue  # the same experiment as AR1, scaled
            out_dir = tmp / f"{name}-{seed}"
            stdout = _run(["experiment", "--config", str(config), "--out-dir", str(out_dir)])
            for output in ("report.json", "curves.csv"):
                digests[f"experiment/{key}/{output}"] = _sha((out_dir / output).read_bytes())
            digests[f"experiment/{key}/stdout"] = _sha(stdout)
            digests.update(_verdict_digests(tmp, key, process, seed, {}))
    for key, (name, experiment) in SHORT.items():
        digests.update(_verdict_digests(tmp, key, PROCESSES[name], 101, experiment))
    return digests


def _verdict_digests(
    tmp: Path, key: str, process: dict, seed: int, experiment: dict
) -> dict[str, str]:
    """Digests of an experiment that requests all five checks."""
    experiment = {"base_seed": seed, **EXPERIMENT, "checks": ALL_CHECKS, **experiment}
    config = tmp / "verdicts.json"
    config.write_text(json.dumps({"process": process, "experiment": experiment}),
                      encoding="utf-8")
    out_dir = tmp / "verdicts"
    stdout = _run(["experiment", "--config", str(config), "--out-dir", str(out_dir)])
    return {
        f"verdicts/{key}/report.json": _sha((out_dir / "report.json").read_bytes()),
        f"verdicts/{key}/stdout": _sha(stdout),
    }


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["unsampled"] and golden["sampled"]
    assert written_digests(tmp_path) == golden["unsampled"]
    if np.__version__ != golden["numpy"]:
        pytest.skip(
            f"numpy {np.__version__}, golden digests from numpy {golden['numpy']}: "
            f"compared only the {len(golden['unsampled'])} digest(s) that draw nothing"
        )
    assert sampled_digests(tmp_path) == golden["sampled"]


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {
            "numpy": np.__version__,
            "unsampled": written_digests(Path(tmp)),
            "sampled": sampled_digests(Path(tmp)),
        }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
