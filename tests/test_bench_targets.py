"""The traced benchmark wraps names by ``getattr``: each must still exist.

``bench/spans.py`` replaces every ``(owner, attribute)`` of its ``TARGETS``
with a timing wrapper.  A name deleted or renamed under ``src/`` would only
show up when a traced benchmark run fails; this test fails first.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans(monkeypatch):
    # read only: no bytecode cache is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    targets = load_spans(monkeypatch).TARGETS
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        for owner, attr, name, _ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
