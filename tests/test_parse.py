"""The analyze reader ``ergodiag._parse``: every field reads as ``float()``
reads it, bit for bit, and is accepted or rejected as ``np.loadtxt(...,
delimiter=",", comments=None)`` accepted or rejected it, except NaN and
infinities, which the reader rejects.

The NumPy kernel reads most fields; what it does not take goes to a
per-field fallback, so the properties below cover both, and the chunk loop
under them: lines and CR LF pairs cut by chunk ends, lines ended by a CR
alone, lines longer than a chunk, blank lines and a last line without its
line end.
"""

import contextlib
import decimal
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodiag import _parse, cli
from ergodiag.cli import main

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def read(data, names=("x",)) -> np.ndarray:
    """The rows ``read_rows`` yields for ``data`` after a header, as one array."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    blocks = list(_parse.read_rows(io.BytesIO(data), "f.csv", list(names), 2))
    return np.concatenate(blocks) if blocks else np.empty((0, len(names)))


def bits(values) -> np.ndarray:
    return np.asarray(values, np.float64).view(np.int64)


def loadtxt(text: str):
    """``np.loadtxt``'s table for ``text`` read as ``analyze`` read it before,
    through a text handle with ``newline=""``, or None if it rejects it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return np.loadtxt(io.StringIO(text, newline=""), delimiter=",", ndmin=2,
                              comments=None)
    except ValueError:
        return None


finite = st.floats(allow_nan=False, allow_infinity=False)


def finite_fields(fields: list[str]) -> list[str]:
    """The fields whose value is finite: the reader rejects the others."""
    return [f for f in fields if math.isfinite(float(f))]


@PROPERTY
@given(st.lists(finite, min_size=1, max_size=50), st.integers(1, 16))
def test_written_doubles_read_back_as_float(values, digits):
    fields = finite_fields(
        [f for v in values for f in (repr(v), "%.17g" % v, f"%.{digits}g" % v, "%e" % v)]
    )
    got = read("\n".join(fields) + "\n")[:, 0]
    assert np.array_equal(bits(got), bits([float(f) for f in fields]))


def near_midpoints(x: float, digits: int) -> list[str]:
    """The midpoint between ``x`` and the next double up, rounded to
    ``digits`` significant digits, and one unit of its last digit above
    and below."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # every midpoint of doubles is exact at this precision
        mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
        text = format(mid, f".{digits - 1}e")
        exponent = int(text.split("e")[1])
        unit = decimal.Decimal(1).scaleb(exponent - (digits - 1))
        rounded = decimal.Decimal(text)
        return [text, format(rounded + unit, f".{digits - 1}e"),
                format(rounded - unit, f".{digits - 1}e")]


@PROPERTY
@given(st.lists(finite.filter(lambda v: abs(v) < 1.7e308), min_size=1, max_size=20),
       st.sampled_from([17, 19, 20, 25]))
def test_decimals_at_and_around_midpoints_read_as_float(values, digits):
    fields = finite_fields([f for v in values for f in near_midpoints(v, digits)])
    got = read("\n".join(fields) + "\n")[:, 0]
    assert np.array_equal(bits(got), bits([float(f) for f in fields]))


def test_exact_ties_round_half_to_even():
    # 2**53 + 1, 2**53 + 3, 1 + 2**-53, 2**52 + 1.5 and 2**-1075 lie halfway
    # between two doubles.
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        smallest_tie = str(decimal.Decimal(2) ** -1075)
    fields = ["9007199254740993", "9007199254740995",
              "1.00000000000000011102230246251565404236316680908203125",
              "-4503599627370497.5", smallest_tie]
    got = read("\n".join(fields) + "\n")[:, 0]
    assert np.array_equal(bits(got), bits([float(f) for f in fields]))


# Fields np.loadtxt accepts or rejects for reasons of their own: whitespace,
# signs, words, underscores, non-ASCII digits, quotes, comment marks, hex,
# underflow, overflow, signed zero and leading zeros.
ODD_FIELDS = [
    " 1.5", "1.5 ", "\t2", "3\x0b", "\x0c4", "\x1c5\x1f", " 6", "7 ", "　8　",
    "9\x85", "+", "-", "+1", "+.5", "-.5", ".5", "7.", "1.e5", "1.5E+05", "1e0001",
    "inf", "-inf", "+Infinity", "infinit", "nan", "-NaN", "NAN", "1_0", "1_000.5", "١",
    "١.٥", "1٠", '"1"', "'1'", "", " ", "#", "#1", "1#", "0x10", "0X1p3", "1e-320",
    "-1e-320", "1e309", "-1e309", "1e-400", "-0", "-0.0", "-0e999", "007", "00.100", "1e",
    "e5", "1e+", "5e0+", "1e5-", "1e+5-", "1e-+5", "1-e5", "1.5-", "1.-5", "-1.5e3+", ".", "-.",
    "..5", "1.2.3", "1e5e5", "--1", "1-", "+-1", "1 2", "1\x00",
    "1d5", "½", "﻿1", "１", "1" * 30, "0." + "0" * 30 + "1",
    "123456789012345678901234567890e-10", "9" * 19, "9" * 20, "1" + "0" * 310, "4.9e-324",
    "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
    "1.7976931348623159e308",
]


@pytest.mark.parametrize("field", ODD_FIELDS, ids=lambda f: ascii(f))
@pytest.mark.parametrize("where", ["first", "last"])
def test_odd_field_read_as_loadtxt_reads_it(field, where):
    row = f"{field},0" if where == "first" else f"0,{field}"
    table = loadtxt(row + "\n")
    if table is not None and np.isfinite(table).all():
        got = read(row + "\n", names=("a", "b"))
        assert np.array_equal(bits(got), bits(table))
    else:
        message = "not a finite number" if table is not None else None
        with pytest.raises(ValueError, match=message) as caught:
            read(row + "\n", names=("a", "b"))
        column = "a" if where == "first" else "b"
        assert f"f.csv, line 2, column '{column}': " in str(caught.value)


@pytest.mark.parametrize(
    "text",
    ["1,2\r3,4\r", "1,2\r3,4", "1,2\r\r\n3,4\n", "\r1,2\n\r\n\r3,4\r\n", "1\r,2\n", "1,2\r3\n"],
    ids=["cr", "cr-no-end", "cr-crlf", "blank-cr-lines", "cr-before-comma", "cr-short-row"],
)
def test_lone_cr_ends_a_line_as_text_mode_ended_it(text):
    table = loadtxt(text)
    if table is None:
        with pytest.raises(ValueError, match="expected 2 columns, got 1"):
            read(text, names=("a", "b"))
    else:
        assert np.array_equal(bits(read(text, names=("a", "b"))), bits(table))


@contextlib.contextmanager
def chunk_size(size: int):
    """Read in chunks of ``size`` bytes within the block."""
    saved, _parse._CHUNK = _parse._CHUNK, size
    try:
        yield
    finally:
        _parse._CHUNK = saved


line_ends = st.sampled_from(["\n", "\r\n", "\r"])
numbers = st.one_of(
    finite.map(repr), finite.map(lambda v: "%.17g" % v), st.integers(-10**25, 10**25).map(str),
    st.sampled_from([" 1.5", "+2", "-0", ".5", "7.", "1e-320"]),
)


@PROPERTY
@given(
    rows=st.lists(st.tuples(numbers, numbers, numbers, line_ends, st.booleans()),
                  min_size=1, max_size=30),
    chunk=st.integers(1, 48),
    final=st.booleans(),
)
def test_chunk_ends_anywhere_in_lines_and_line_ends(rows, chunk, final):
    text = "".join(f"{a},{b},{c}{end}" + (end if blank else "") for a, b, c, end, blank in rows)
    if not final:
        text = text.rstrip("\r\n")
    want = np.array([[float(a), float(b), float(c)] for a, b, c, *_ in rows])
    want = want[np.isfinite(want).all(axis=1)]
    if len(want) < len(rows):
        return
    with chunk_size(chunk):
        got = read(text, names=("t", "r", "x"))
    assert np.array_equal(bits(got), bits(want))


def test_last_line_without_lf_is_read():
    for text in ["1,2\n3,4", "1,2\r\n3,4\r", "1,2\n3,4\r\n", "\n\n1,2\n\n3,4", "1,2\r3,4"]:
        for chunk in (1, 3, 1 << 16):
            with chunk_size(chunk):
                assert read(text, names=("a", "b")).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_blank_lines_count_in_line_numbers():
    with pytest.raises(ValueError, match=r"f\.csv, line 5, column 'b': cannot read 'x'"):
        read("1,2\n\r\n\n3,x\n", names=("a", "b"))
    with pytest.raises(ValueError, match=r"f\.csv, line 6, column 'b': cannot read 'x'"):
        read("1,2\r\r\n\r3,4\r5,x\n", names=("a", "b"))
    with pytest.raises(ValueError, match=r"f\.csv, line 4: expected 2 columns, got 3"):
        read("1,2\n\n1,2,3\n", names=("a", "b"))


def test_first_fault_of_a_chunk_is_reported():
    # A bad field before a bad column count, and the other way round.
    with pytest.raises(ValueError, match="line 3, column 'b'"):
        read("1,2\n3,x\n4\n", names=("a", "b"))
    with pytest.raises(ValueError, match="line 3: expected 2 columns, got 1"):
        read("1,2\n4\n3,x\n", names=("a", "b"))


@pytest.mark.parametrize("edge", ["cr", "lf", "number", "comma"])
def test_lines_across_the_buffer_edge_and_a_fault_past_it(edge):
    # Rows as simulate writes them, with CR LF line ends, placed so that the
    # first read of _parse._CHUNK bytes ends on the CR of a line end, on its
    # LF, inside a number or on a comma: the next read holds the rest of that
    # line.  A bad field in a line past the first chunk names that line.
    rng = np.random.default_rng(17)
    values = rng.standard_normal(2 * _parse._CHUNK // 20)
    lines = [f"{t},0,{x!r}\r\n" for t, x in enumerate(values.tolist(), start=1)]
    offsets = np.cumsum([0] + [len(line) for line in lines])
    at = {"cr": -2, "lf": -1, "number": -6, "comma": None}
    # Line j's chosen byte, moved onto the last byte of the first read by
    # rewriting line 1 as "1,0,0.5000...".
    def byte(j):
        i = at[edge]
        return offsets[j] + (lines[j].rindex(",") if i is None else len(lines[j]) + i)
    j = max(j for j in range(1, len(lines)) if byte(j) <= _parse._CHUNK - 1)
    length = len(lines[0]) + _parse._CHUNK - 1 - byte(j)
    lines[0] = "1,0,0.5".ljust(length - 2, "0") + "\r\n"
    offsets = np.cumsum([0] + [len(line) for line in lines])
    values[0] = 0.5
    text = "".join(lines)
    assert text[_parse._CHUNK - 1] == {"cr": "\r", "lf": "\n", "number": lines[j][-6],
                                       "comma": ","}[edge]
    got = read(text, names=("t", "r", "x"))
    assert np.array_equal(got[:, 0], np.arange(1, len(lines) + 1))
    assert np.array_equal(bits(got[:, 2]), bits(values))
    bad = len(lines) - 3  # past the first chunk
    assert offsets[bad] > _parse._CHUNK
    lines[bad] = f"{bad + 1},0,12x\r\n"
    message = rf"^f\.csv, line {bad + 2}, column 'x': cannot read '12x'"
    with pytest.raises(ValueError, match=message):
        read("".join(lines), names=("t", "r", "x"))


def write_path(tmp_path, n: int):
    out = tmp_path / "path.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"process": {"family": "AR1",
                                              "params": {"phi": 0.5, "gamma0": 1.0}}}))
    assert main(["simulate", "--config", str(config), "--out", str(out), "--seed", "11",
                 "--n", str(n), "--replicates", "1"]) == 0
    return out


def test_reading_a_long_path_holds_the_output_and_a_few_chunks(tmp_path):
    n = 200_000
    path = write_path(tmp_path, n)
    tracemalloc.start()
    try:
        values = cli._read_single_path(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.size == n and values.nbytes == 8 * n
    # The 1.6 MB output with the slack of its size estimate, and a chunk's
    # buffers and temporaries: well under the 5.7 MB of text or the 4.8 MB
    # table of all three columns.
    assert peak < values.nbytes * 1.25 + 2_000_000, peak


class TestAnalyzeMessages:
    """Every reader fault exits 2 naming the file, the line and the column."""

    def analyze(self, tmp_path, capsys, data: bytes):
        path = tmp_path / "path.csv"
        path.write_bytes(data)
        code = main(["analyze", "--input", str(path)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        return code, captured.err

    def test_line_numbers_count_from_1_with_the_header(self, tmp_path, capsys):
        code, err = self.analyze(tmp_path, capsys, b"t,replicate,x\n1,0,0.5\n2,0,abc\n")
        assert code == 2
        assert err == (f"error: {tmp_path / 'path.csv'}, line 3, column 'x': "
                       "cannot read 'abc' as a number\n")

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path, capsys):
        code, err = self.analyze(tmp_path, capsys, b"t,replicate,x\n1,0,\xff\xfe\n")
        assert code == 2
        assert err == (f"error: {tmp_path / 'path.csv'}, line 2, column 'x': "
                       "b'\\xff\\xfe' is not UTF-8 text\n")

    def test_a_header_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        code, err = self.analyze(tmp_path, capsys, b"t,\xff\n1,2\n")
        assert code == 2
        assert f"{tmp_path / 'path.csv'}, line 1: " in err and "not UTF-8 text" in err

    @pytest.mark.parametrize(
        ("body", "where", "field"),
        [("t,x\n1,0.5\nnan,0.5\n", "line 3, column 't'", "nan"),
         ("t,replicate,x\n1,0,1e400\n", "line 2, column 'x'", "1e400"),
         ("t,replicate,x\n1,inf,0.5\n", "line 2, column 'replicate'", "inf"),
         ("x\n0.5\n-Infinity\n", "line 3, column 'x'", "-Infinity")],
        ids=["nan-t", "overflow-x", "inf-replicate", "inf-x"],
    )
    def test_nan_or_infinity_in_any_column_exits_2(self, tmp_path, capsys, body, where, field):
        code, err = self.analyze(tmp_path, capsys, body.encode())
        assert code == 2
        assert err == (f"error: {tmp_path / 'path.csv'}, {where}: "
                       f"{field!r} is not a finite number\n")
