"""Every ``python`` code block of README.md runs, each in a fresh namespace.

A block's traceback points at its lines in README.md.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = [
    (TEXT.count("\n", 0, match.start(1)), match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


# Named by position, so an edit above a block leaves its test id alone.
@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_block_runs(line, code):
    exec(compile("\n" * line + code, str(README), "exec"), {"__name__": "readme"})
