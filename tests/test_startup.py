"""No run of ergodiag loads scipy or fractions, and only ``simulate`` loads
its row writer.

Importing scipy.signal took most of the package's start-up, and scipy is a
test dependency only (the reference for the AR1 filter and the FFT length).
``fractions``, with the ``decimal`` it imports, serves only the spike
family's brute-force test oracle.  The row writer ``ergodiag._format``
builds its digit tables on import, which only ``simulate`` needs.  The test
process itself has scipy loaded
(``test_processes`` imports it), so each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ergodiag

SRC = str(Path(ergodiag.__file__).resolve().parents[1])

# scipy, and fractions with the decimal it imports, among the loaded modules.
LOADED = (
    "[m for m in sys.modules if m in ('scipy', 'fractions', 'decimal')"
    " or m.startswith('scipy.')]"
)


def run_fresh(code: str, *args: str) -> list:
    """Run ``code`` in a new interpreter; return the JSON its last line prints."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_analyze_and_spike_experiment_load_no_scipy(tmp_path):
    values = tmp_path / "path.csv"
    values.write_text("x\n" + "\n".join(str((7 * t) % 11 - 5) for t in range(200)) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "process": {"family": "SPARSE_SPIKES"},
        "experiment": {"base_seed": 3, "n_grid": [10, 100], "replicates": 200,
                       "epsilons": [0.1]},
    }))
    code = f"""
import json, sys
import ergodiag, ergodiag.cli
stages = [{LOADED}]
assert ergodiag.cli.main(["analyze", "--input", sys.argv[1], "--max-lag", "20"]) == 0
stages.append({LOADED})
assert ergodiag.cli.main(["experiment", "--config", sys.argv[2], "--out-dir", sys.argv[3]]) == 0
stages.append({LOADED})
print(json.dumps(stages))
"""
    stages = run_fresh(code, str(values), str(config), str(tmp_path / "out"))
    assert stages == [[], [], []]


def test_ar1_sampler_experiment_and_simulate_load_no_scipy(tmp_path):
    process = {"family": "AR1", "params": {"phi": 0.5, "gamma0": 1.0}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "process": process,
        "experiment": {"base_seed": 3, "n_grid": [10, 100], "replicates": 200,
                       "epsilons": [0.5]},
    }))
    code = f"""
import json, sys
import numpy as np
import ergodiag.cli
from ergodiag.processes import ProcessConfig, _block_sampler
sample = _block_sampler(ProcessConfig("AR1", {{"phi": 0.5, "gamma0": 1.0}}), 100)
sample([np.random.default_rng(0)], np.empty((1, 100)))
stages = [{LOADED}]
assert ergodiag.cli.main(["experiment", "--config", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
stages.append({LOADED})
assert ergodiag.cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[3],
                          "--seed", "5", "--n", "50", "--replicates", "3"]) == 0
stages.append({LOADED})
print(json.dumps(stages))
"""
    stages = run_fresh(code, str(config), str(tmp_path / "out"), str(tmp_path / "paths.csv"))
    assert stages == [[], [], []]


def test_only_simulate_loads_the_row_writer(tmp_path):
    values = tmp_path / "path.csv"
    values.write_text("x\n" + "\n".join(str((7 * t) % 11 - 5) for t in range(200)) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"process": {"family": "AR1",
                                              "params": {"phi": 0.5, "gamma0": 1.0}}}))
    loaded = "'ergodiag._format' in sys.modules"
    code = f"""
import json, sys
import ergodiag, ergodiag.cli
stages = [{loaded}]
assert ergodiag.cli.main(["analyze", "--input", sys.argv[1], "--max-lag", "20"]) == 0
stages.append({loaded})
assert ergodiag.cli.main(["simulate", "--config", sys.argv[2], "--out", sys.argv[3],
                          "--seed", "5", "--n", "50", "--replicates", "3"]) == 0
stages.append({loaded})
print(json.dumps(stages))
"""
    stages = run_fresh(code, str(values), str(config), str(tmp_path / "paths.csv"))
    assert stages == [False, False, True]


def test_only_analyze_loads_the_number_reader(tmp_path):
    """``ergodiag._parse`` builds its power table on import: ``experiment``
    and ``simulate`` leave it unloaded, and ``analyze`` loads it without the
    row writer."""
    values = tmp_path / "path.csv"
    values.write_text("x\n" + "\n".join(str((7 * t) % 11 - 5) for t in range(200)) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "process": {"family": "AR1", "params": {"phi": 0.5, "gamma0": 1.0}},
        "experiment": {"base_seed": 3, "n_grid": [10, 100], "replicates": 200,
                       "epsilons": [0.5]},
    }))
    loaded = "['ergodiag._parse' in sys.modules, 'ergodiag._format' in sys.modules]"
    code = f"""
import json, sys
import ergodiag, ergodiag.cli
stages = [{loaded}]
assert ergodiag.cli.main(["experiment", "--config", sys.argv[2], "--out-dir", sys.argv[4]]) == 0
stages.append({loaded})
assert ergodiag.cli.main(["simulate", "--config", sys.argv[2], "--out", sys.argv[3],
                          "--seed", "5", "--n", "50", "--replicates", "3"]) == 0
stages.append({loaded})
print(json.dumps(stages))
"""
    stages = run_fresh(code, str(values), str(config), str(tmp_path / "paths.csv"),
                       str(tmp_path / "out"))
    assert stages == [[False, False], [False, False], [False, True]]
    code = f"""
import json, sys
import ergodiag.cli
assert ergodiag.cli.main(["analyze", "--input", sys.argv[1], "--max-lag", "20"]) == 0
print(json.dumps({loaded}))
"""
    assert run_fresh(code, str(values)) == [True, False]
