"""The package's public names are its modules' ``__all__``, declared once.

``ergodiag`` re-exports the ``__all__`` of model, estimators, bounds,
processes and harness, in that order, after ``__version__``, and importing
it loads neither the command line nor its CSV reader and writer.
"""

import ergodiag
from ergodiag import bounds, estimators, harness, model, processes
from test_startup import run_fresh

MODULES = (model, estimators, bounds, processes, harness)


def test_all_is_the_modules_all_in_order():
    expected = ["__version__"]
    for module in MODULES:
        expected += module.__all__
    assert ergodiag.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_name_is_its_declaring_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ergodiag, name) is getattr(module, name), (module.__name__, name)


def test_import_loads_no_cli_writer_or_reader():
    code = """
import json, sys
import ergodiag
print(json.dumps(sorted(m for m in sys.modules
                        if m in ('ergodiag.cli', 'ergodiag._format', 'ergodiag._parse'))))
"""
    assert run_fresh(code) == []
