"""Property test: any ``experiment`` config document exits 0, 1 or 2.

Documents mix valid and malformed processes and experiment sections, with
extreme but finite parameters among them, and grids and replicate counts
kept small so each run takes milliseconds.  Whatever the document, the
command must not raise (a traceback), must exit 0 (all checks pass), 1 (a
check failed) or 2 (rejected input), and a ``report.json`` it writes must
be strict JSON.  Each document's ``process`` section, when it is an object,
is also passed straight to ``ProcessConfig(family, params)``, and its
``experiment`` section, when it is an object of ``ExperimentConfig`` fields,
to ``ExperimentConfig(process, **section)`` (with an AR1 process where the
document's is rejected); each may raise only ``ValueError``.  The examples
are derandomized, so every run of the suite checks the same documents.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ergodiag import Check, ExperimentConfig, ProcessConfig
from ergodiag.cli import main

TINY_AND_HUGE = [5e-324, 1e-300, 1e-8, 1e8, 1e200, 1e300, 1.7e308]
positive = st.one_of(st.floats(0.01, 10.0), st.sampled_from(TINY_AND_HUGE))
real = st.one_of(st.floats(-10.0, 10.0), positive, positive.map(lambda x: -x))
junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=2), st.integers(-3, 3),
    st.sampled_from([0.0, -1.0, float("nan"), float("inf"), -float("inf")]),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=1), st.none()),
)

PARAMS = {
    "AR1": {"phi": st.floats(-0.99, 0.99), "gamma0": positive},
    "SPARSE_SPIKES": {},
    "COMMON_SHOCK": {"sigma_z": positive, "sigma_eps": st.one_of(st.just(0.0), positive)},
    "DRIFTING_MEAN": {
        "trend": st.one_of(
            st.fixed_dictionaries({"kind": st.just("LINEAR"), "a": real, "b": real}),
            st.fixed_dictionaries(
                {"kind": st.just("SINUSOID"), "amplitude": real, "period": positive}
            ),
        ),
        "noise_sd": positive,
    },
}
CHECKS = [c.value for c in Check]
EXPERIMENT_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"process"}


@st.composite
def documents(draw) -> dict:
    """A valid document, then with some chance one field made malformed."""
    family = draw(st.sampled_from(list(PARAMS)))
    experiment = {
        "base_seed": draw(st.integers(0, 2**64 - 1)),
        "n_grid": sorted(draw(st.lists(st.integers(1, 200), min_size=1, max_size=3,
                                       unique=True))),
        "replicates": draw(st.integers(100, 300)),
        "epsilons": draw(st.lists(st.floats(0.001, 2.0), min_size=1, max_size=3,
                                  unique=True)),
    }
    if draw(st.booleans()):
        experiment["checks"] = draw(st.lists(st.sampled_from(CHECKS), unique=True))
    doc = {
        "process": {"family": family, "params": draw(st.fixed_dictionaries(PARAMS[family]))},
        "experiment": experiment,
    }
    if draw(st.integers(0, 3)) == 0:
        section = draw(st.sampled_from([doc, doc["process"], doc["process"]["params"],
                                        experiment]))
        key = draw(st.sampled_from(sorted(section) + ["extra"]))
        section[key] = draw(junk)
    return doc


def reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=documents())
def test_experiment_documents_exit_0_1_or_2(doc):
    process = doc.get("process")
    config = ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1.0})
    if isinstance(process, dict):
        # The Python API takes what the file holds by the same rules.
        try:
            config = ProcessConfig(process.get("family"), process.get("params", {}))
        except ValueError:
            pass
    section = doc.get("experiment")
    # A key that is no field is named by the command, before ExperimentConfig.
    if isinstance(section, dict) and set(section) <= EXPERIMENT_FIELDS:
        try:
            ExperimentConfig(config, **section)
        except ValueError:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        out_dir = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["experiment", "--config", str(config), "--out-dir", str(out_dir)])
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not out_dir.exists()
        else:
            report = (out_dir / "report.json").read_text()
            json.loads(report, parse_constant=reject_constant)
