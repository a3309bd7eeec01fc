"""scipy stays out of every run that does not sample AR1.

Importing scipy.signal takes most of the package's start-up, and only the AR1
filter needs it, so it is imported when an AR1 sampler is built.  The test
process itself has scipy loaded (``conftest`` imports it), so each check runs
in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ergodiag

SRC = str(Path(ergodiag.__file__).resolve().parents[1])

LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


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
        "experiment": {"base_seed": 3, "n_grid": [10, 100], "replicates": 200},
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


def test_building_an_ar1_sampler_loads_scipy_signal_before_any_draw():
    code = f"""
import json, sys
from ergodiag.processes import Family, ProcessConfig, _block_sampler
others = [
    ProcessConfig(Family.SPARSE_SPIKES),
    ProcessConfig(Family.COMMON_SHOCK, {{"sigma_z": 1.0, "sigma_eps": 1.0}}),
    ProcessConfig(Family.DRIFTING_MEAN, {{"trend": {{"kind": "LINEAR", "a": 0, "b": 1}},
                                        "noise_sd": 1.0}}),
]
for config in others:
    _block_sampler(config, 100)
before = {LOADED}
_block_sampler(ProcessConfig(Family.AR1, {{"phi": 0.5, "gamma0": 1.0}}), 100)
print(json.dumps([before, "scipy.signal" in sys.modules]))
"""
    before, signal_loaded = run_fresh(code)
    assert before == []
    assert signal_loaded
