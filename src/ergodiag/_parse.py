"""CSV rows of decimal numbers to float64, bit for bit ``float()``, in NumPy.

:func:`read_rows` reads a file as bytes, in chunks cut at the last line end,
and turns every field into the float64 that ``float()`` gives it.  NumPy
finds the bytes that are not digits in each chunk: the commas and line ends
among them cut the fields, and the rest are each field's sign, point and
exponent.  A field of 1 to 8 digits and nothing else is read from one
8-byte load; a kernel reads the others with NumPy alone, and what it does
not take goes, one field at a time, to :func:`_field`, which accepts exactly
what ``np.loadtxt(..., delimiter=",", comments=None)`` accepts.

The kernel takes a field ``[+-]D[.F][(e|E)[+-]X]`` of ASCII digits ``D``,
``F`` and ``X`` (Clinger 1990, *How to read floating point numbers
accurately*; Lemire 2021, *Number parsing at a gigabyte per second*):

* The 24 bytes that end with the mantissa are loaded as three unaligned
  little-endian ``uint64`` words, and so are the 24 bytes one byte before:
  in those, ``D`` stands one byte over the point, next to ``F``.  Masks keep
  the digits of ``D .F`` from the two loads and zero the other bytes, and a
  SWAR multiply-shift turns each word into its 8-digit value.  With at most
  19 significant digits ``M = g0 * 10**16 + g1 * 10**8 + g2 < 10**19`` is
  exact in ``uint64``, and the field's value is ``M * 10**q``, ``q = X -
  len(F)``.
* ``10**q = m * 2**e`` with ``1 <= m < 2``; a table built with Python
  integers holds ``e`` and ``m`` as ``hi + lo``, each correctly rounded, so
  ``|lo| <= 2**-53`` and ``|m - hi - lo| <= 2**-106``.  ``M = a + b``
  exactly, ``a`` the double nearest ``M`` and ``|b| <= 2**-53 * a``.
  Dekker's exact product (``processes._two_product``) gives ``p + t == a *
  hi``, and ``s = t + (a * lo + b * hi)``.  Each of ``t``, ``a * lo`` and
  ``b * hi`` is at most ``2**-53 * p``; their three roundings, the dropped
  ``b * lo`` and the table's error put ``p + s`` within ``17 * 2**-106 * p``
  of ``M * m``.
* ``r = p + s`` rounded and its exact remainder ``err = (p + s) - r``
  (Fast2Sum) place ``p + s`` among the doubles.  The midpoints next to
  ``r`` lie ``h`` above it, ``h`` half the spacing of doubles above ``r``,
  and ``h`` below it, or ``h / 2`` when ``r`` is a power of two.  If neither
  lies within the guard ``2**-100 * r`` of ``p + s``, the exact ``M * m``
  rounds to ``r`` too, and ``r * 2**e`` is the correctly rounded value of
  the field whenever it is a normal double, since scaling by a power of two
  moves the grid of doubles with it.  Both differences to a midpoint are
  exact where they are small (Sterbenz), so the test has no rounding of its
  own, and ``r * 2**e`` is formed by adding ``e`` to the exponent bits.

A field outside that syntax, with more than 19 significant digits or 24
bytes of mantissa, with ``q`` outside the table, with a value that is not a
normal double (a zero is read as a signed zero), or within the guard of a
tie goes to :func:`_field`.  Every ``%.17g`` text of a normal double is
taken; a random 17-digit decimal falls within the guard about once in
``2**47``.
"""

from __future__ import annotations

import re
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .model import _echo
from .processes import _Scratch, _exact_product, _split

__all__ = ["read_rows"]

# Bytes read at once.  The chunk's byte mask, field arrays and the kernel's
# work arrays are reused from chunk to chunk (one working set per call), so
# the size is no longer held below glibc's 128 KB mmap threshold.  Reading a
# 2e5-row `simulate` path (5.6 MB) took a median 105, 96 and 93 ms of CPU
# with 64, 96 and 128 KB chunks (four alternating runs of 25 reads on a
# loaded host; 55 and 52 ms for 64 and 128 KB on a quiet one), and in a
# fresh process 9488, 9679 and 9837 minor faults (10 418 before the working
# set, at 64 KB).  Its traced peak was 3.09, 3.70 and 4.35 MB, against the
# 4.0 MB that tests/test_parse.py allows the 1.6 MB path: 96 KB is the
# largest that fits (2-vCPU Xeon).
_CHUNK = 96 << 10
# Bytes kept before and after the data, so every 24-byte load stays in the buffer.
_PAD = 32

_LF, _CR, _COMMA, _DOT, _MINUS, _PLUS, _E = 10, 13, 44, 46, 45, 43, 101
_EXPONENT_BITS = 0x7FF0000000000000


def _tail_masks(size: int) -> np.ndarray:
    """Row ``k``: masks of the last ``k`` bytes of ``size`` bytes read as
    little-endian uint64 words."""
    rows = np.arange(size + 1)[:, None] > np.arange(size)[::-1]
    return np.ascontiguousarray(rows, np.uint8).view(np.uint64) * np.uint64(255)


_TAIL8 = _tail_masks(8)[:, 0]
_TAIL24 = _tail_masks(24)
# Row 25 * k + n: the bytes of the last n of 24 but not of the last k.
_LEAD24 = (_TAIL24[None, :] & ~_TAIL24[:, None]).reshape(-1, 3)

# 10**q = (_HI + _LO) * 2**e for q in [_Q_MIN, _Q_MAX], 1 <= _HI < 2: far
# enough that every normal double is M * 10**q for some M < 10**19.
_Q_MIN, _Q_MAX = -342, 308


def _power_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``hi``, ``lo`` and ``e * 2**52`` for each ``q``."""
    hi, lo, bits = [], [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        e = num.bit_length() - den.bit_length()
        if num << max(-e, 0) < den << max(e, 0):
            e -= 1
        # m = num / den / 2**e = n / d, in [1, 2).
        n, d = num << max(-e, 0), den << max(e, 0)
        h = n / d  # int / int is correctly rounded
        units = int(h * 2**52)  # h == units / 2**52 exactly
        hi.append(h)
        lo.append((n * 2**52 - units * d) / (d * 2**52))
        bits.append(e << 52)
    return np.array(hi), np.array(lo), np.array(bits, np.int64)


_HI, _LO, _EXP_BITS = _power_table()
_HI_HI, _HI_LO = _split(_HI)  # Dekker's halves of _HI

# What np.loadtxt's float64 converter accepts once a field is stripped of
# whitespace: PyOS_string_to_double on ASCII text, consumed in full.
_LITERAL = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)",
    re.IGNORECASE,
)


def _loads(buf: np.ndarray, size: int) -> np.ndarray:
    """Unaligned loads of ``size`` bytes: item ``i`` is ``buf[i : i + size]``."""
    return np.ndarray((buf.size - size + 1,), f"V{size}", buffer=buf, strides=(1,))


# Each step adds pairs of neighbouring digit groups, the left one scaled.
_SWAR = [
    (np.uint64(keep), np.uint64(factor), np.uint64(shift))
    for keep, factor, shift in (
        (0x0F0F0F0F0F0F0F0F, 2561, 8),
        (0x00FF00FF00FF00FF, 6553601, 16),
        (0x0000FFFF0000FFFF, 42949672960001, 32),
    )
]


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """Turn the 8 ASCII digits, the first the most significant, in each
    little-endian word of ``w`` into their value, in place; 0 for a byte
    that is 0."""
    for keep, factor, shift in _SWAR:
        w &= keep
        w *= factor
        w >>= shift
    return w


def _integers(
    buf: np.ndarray, end: np.ndarray, count: np.ndarray, scratch: _Scratch
) -> np.ndarray:
    """The integers of the ``count`` (0 to 8) ASCII digits before ``end``,
    as a new uint64 array."""
    # Indexing, not np.take, which would first copy the overlapping loads.
    at = np.subtract(end, 8, out=scratch.take("at", (end.size,), np.int64))
    words = _loads(buf, 8)[at].view("<u8")
    words &= np.take(_TAIL8, count, out=at.view(np.uint64), mode="clip")
    return _eight_digits(words)


def _mantissa(
    buf: np.ndarray, end: np.ndarray, kept: np.ndarray, digits: np.ndarray,
    scratch: _Scratch,
) -> np.ndarray:
    """The integers of the ``digits`` digits before ``end``, where the last
    ``kept`` are digits and the others, if any, stand one byte further back
    (a point between them).  A value at or past ``10**19`` (more digits)
    reads as ``10**19``.  ``kept`` is overwritten."""
    # The 24 bytes that end with the mantissa, and the 24 bytes before its
    # last, which hold the digits before the point moved one byte over it.
    # Indexing, not np.take, which would first copy the overlapping loads.
    loads = _loads(buf, 24)
    at = np.subtract(end, 24, out=scratch.take("at", (end.size,), np.int64))
    mantissa = loads[at].view("<u8").reshape(-1, 3)
    at -= 1
    moved = loads[at].view("<u8").reshape(-1, 3)
    mask = scratch.take("mask", moved.shape, np.uint64)
    mantissa &= np.take(_TAIL24, kept, axis=0, out=mask, mode="clip")
    kept *= 25
    kept += digits
    moved &= np.take(_LEAD24, kept, axis=0, out=mask, mode="clip")
    mantissa |= moved
    groups = _eight_digits(mantissa).T
    big = np.greater_equal(groups[0], 1000, out=scratch.take("big", (end.size,), bool))
    m = np.multiply(groups[0], np.uint64(10**16), out=scratch.take("m", (end.size,), np.uint64))
    m += np.multiply(groups[1], np.uint64(10**8), out=groups[1])
    m += groups[2]
    np.copyto(m, np.uint64(10**19), where=big)
    return m


def _scale(
    m: np.ndarray, q: np.ndarray, scratch: _Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """``m * 10**q`` correctly rounded for ``0 < m < 10**19`` and ``q`` in the
    table, and a mask of the values this proves correct: normal, and not
    within the guard of a tie.  ``q`` is overwritten; the results are
    arrays of ``scratch``."""
    a, hi, hi_hi, hi_lo, p, e, a_hi, a_lo = scratch.take("scale", (8, m.size))
    row = np.subtract(q, _Q_MIN, out=q)
    np.take(_HI, row, out=hi, mode="clip")
    np.copyto(a, m, casting="unsafe")  # the double nearest m
    np.take(_HI_HI, row, out=hi_hi, mode="clip")
    np.take(_HI_LO, row, out=hi_lo, mode="clip")
    _exact_product(a, hi, hi_hi, hi_lo, p, e, a_hi, a_lo)
    # m = a + b exactly, b through int64; then e += a * lo + b * hi.
    rest = hi_hi.view(np.uint64)
    np.copyto(rest, a, casting="unsafe")
    np.subtract(m, rest, out=rest)
    b = hi_lo
    np.copyto(b, rest.view(np.int64), casting="unsafe")
    low = np.multiply(a, np.take(_LO, row, out=a_hi, mode="clip"), out=a_hi)
    low += np.multiply(b, hi, out=a_lo)
    e += low
    r = np.add(p, e, out=a)
    err = np.subtract(e, np.subtract(r, p, out=p), out=e)
    rb = r.view(np.int64)
    above = np.bitwise_and(rb, _EXPONENT_BITS, out=a_hi.view(np.int64)).view(np.float64)
    above *= 2.0**-53
    # One unit below r: the same exponent, or one less when r is a power of two.
    below = np.subtract(rb, 1, out=a_lo.view(np.int64))
    below &= _EXPONENT_BITS
    below = below.view(np.float64)
    below *= 2.0**-53
    guard = np.multiply(r, 2.0**-100, out=p)
    ok, test = scratch.take("exact", (2, m.size), bool)
    np.greater(np.subtract(above, err, out=above), guard, out=ok)
    ok &= np.greater(np.add(err, below, out=below), guard, out=test)
    # Times 2**e, exact while the result is normal: not 0 or subnormal, finite.
    rb += np.take(_EXP_BITS, row, out=a_hi.view(np.int64), mode="clip")
    biased = np.right_shift(rb, 52, out=a_lo.view(np.int64))
    ok &= np.greater_equal(biased, 1, out=test)
    ok &= np.less_equal(biased, 2046, out=test)
    return r, ok


def _kernel(
    buf: np.ndarray, marks: np.ndarray, values: np.ndarray,
    start: np.ndarray, end: np.ndarray, first: np.ndarray, others: np.ndarray,
    scratch: _Scratch,
) -> tuple[np.ndarray, np.ndarray]:
    """The values of the fields ``buf[start:end]`` the kernel takes, and a
    mask of those it takes, both arrays of ``scratch``.

    ``marks[first : first + others]`` are the positions of a field's bytes
    that are not ASCII digits, and ``values`` all the bytes at ``marks``.
    """
    size = end.size
    at, dot, marked, integer, digits = scratch.take("kernel", (5, size), np.int64)
    negative, signed, has_dot, has_exp, zero, flag = scratch.take("flags", (6, size), bool)
    lead = np.take(buf, start, out=scratch.take("byte", (size,), np.uint8), mode="clip")
    np.equal(lead, _MINUS, out=negative)
    np.equal(lead, _PLUS, out=signed)
    signed |= negative
    # The marks of a field the kernel takes: sign, point, e, exponent sign,
    # each one optional, in this order.
    np.add(first, signed, out=at)
    mark = np.take(values, at, out=lead, mode="clip")  # lead is used up
    np.equal(mark, _DOT, out=has_dot)
    np.take(marks, at, out=dot, mode="clip")
    at += has_dot
    np.take(values, at, out=mark, mode="clip")
    mark |= 0x20
    np.equal(mark, _E, out=has_exp)
    np.copyto(marked, signed)
    marked += has_dot
    mantissa_end = end
    if has_exp.any():
        mantissa_end = np.where(has_exp, marks[at], end)
        at += has_exp
        exp_lead = values[at]
        right_after = has_exp & (marks[at] == mantissa_end + 1)
        exp_negative = right_after & (exp_lead == _MINUS)
        exp_signed = exp_negative | (right_after & (exp_lead == _PLUS))
        marked += has_exp
        marked += exp_signed
        exp_digits = np.where(has_exp, end - mantissa_end - 1 - exp_signed, 0)
        ok = (exp_digits >= 1) == has_exp
        ok &= exp_digits <= 8
        q = _integers(buf, end, exp_digits, scratch).view(np.int64)
        np.negative(q, out=q, where=exp_negative)
    else:
        q = scratch.take("q", (size,), np.int64)
        q.fill(0)
        ok = scratch.take("ok", (size,), bool)
        ok.fill(True)
    # Without a point, the fraction is empty and the point sits at the end.
    np.copyto(dot, mantissa_end, where=np.logical_not(has_dot, out=flag))
    np.subtract(dot, start, out=integer)
    integer -= signed
    fraction = np.subtract(mantissa_end, dot, out=dot)
    fraction -= has_dot
    np.add(integer, fraction, out=digits)
    # Every byte that is not a digit is one of the sign, point, e and
    # exponent sign at their places, so the others are all digits.
    ok &= np.equal(others, marked, out=flag)
    ok &= np.greater_equal(integer, 1, out=flag)
    ok &= np.greater_equal(fraction, has_dot, out=flag)
    ok &= np.less_equal(np.add(digits, has_dot, out=marked), 24, out=flag)
    q -= fraction
    ok &= np.greater_equal(q, _Q_MIN, out=flag)
    ok &= np.less_equal(q, _Q_MAX, out=flag)
    np.copyto(q, 0, where=np.logical_not(ok, out=flag))

    # The digits after the point if there is one, else all of them.
    kept = integer
    np.copyto(kept, fraction, where=has_dot)
    m = _mantissa(buf, mantissa_end, kept, digits, scratch)
    ok &= np.less(m, 10**19, out=flag)  # at most 19 significant digits
    np.equal(m, 0, out=zero)
    np.copyto(q, 0, where=zero)
    value, exact = _scale(m, q, scratch)
    exact |= zero
    ok &= exact
    sign = integer
    np.copyto(sign, negative)
    sign <<= 63
    bits = value.view(np.int64)
    bits |= sign
    return value, ok


def _field(raw: bytes) -> float:
    """The value ``np.loadtxt`` gives the field ``raw``; ValueError for a
    field it rejects, and for NaN and infinities."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{_echo(raw)} is not UTF-8 text") from None
    number = text.strip()  # more than float() strips: \x1c to \x1f too
    if not _LITERAL.fullmatch(number):
        raise ValueError(f"cannot read {_echo(text)} as a number")
    value = float(number)
    if not np.isfinite(value):
        raise ValueError(f"{_echo(text)} is not a finite number")
    return value


def read_rows(
    fh: BinaryIO, path: str, names: Sequence[str], line: int
) -> Iterator[np.ndarray]:
    """Read the rest of ``fh``, whose next line is line ``line`` of ``path``,
    as CSV rows of ``len(names)`` numbers, and yield them in order as float64
    blocks of shape ``(rows, len(names))``.

    Lines end in LF, CR LF or CR, or at the end of the file, as a text-mode
    ``readline`` with ``newline=""`` ends them; blank lines are skipped.  A
    row with another field count, a field ``np.loadtxt`` would not read, and
    NaN or an infinity raise ValueError naming the file, the line and the
    column.
    """
    buf = np.zeros(_PAD + _CHUNK + _PAD, np.uint8)
    held = 0  # bytes of an unfinished line at the head of the chunk
    # The chunk's byte mask, marks and per-field arrays, reused from chunk to
    # chunk and freed when the reader returns.
    scratch = _Scratch()
    while True:
        stop = buf.size - _PAD
        end = _PAD + held + fh.readinto(memoryview(buf)[_PAD + held : stop])
        last = end < stop  # the read stopped at the end of the file
        if last:
            if end == _PAD:
                return
            if buf[end - 1] != _LF:
                buf[end] = _LF
                end += 1
        data = buf[_PAD:end]
        marked = np.bitwise_xor(data, 0x30, out=scratch.take("marked", (data.size,), np.uint8))
        marks = np.flatnonzero(np.greater(marked, 9, out=marked.view(bool)))
        marks += _PAD  # the bytes not digits
        values = scratch.take("values", (marks.size,), np.uint8)
        np.take(buf, marks, out=values, mode="clip")
        line_end = np.equal(values, _LF, out=scratch.take("line_end", (values.size,), bool))
        if line_end.any():
            cut = values.size - np.argmax(line_end[::-1])  # one past the last LF
        else:
            # Lines that end in CR alone; the last CR may yet have its LF.
            line_ends = np.flatnonzero((values == _CR) & (marks < end - 1))
            if line_ends.size == 0:
                # A line longer than the buffer: make room and read on.
                buf = np.concatenate((buf, np.zeros(buf.size, np.uint8)))
                held = end - _PAD
                continue
            cut = line_ends[-1] + 1
        block, lines = _block(
            buf, marks[:cut], values[:cut], line_end[:cut], path, names, line, scratch
        )
        yield block
        line += lines
        tail = marks[cut - 1] + 1
        held = end - tail
        buf[_PAD : _PAD + held] = buf[tail:end]
        if last:
            return


def _block(
    buf: np.ndarray, marks: np.ndarray, values: np.ndarray, is_lf: np.ndarray,
    path: str, names: Sequence[str], line: int, scratch: _Scratch,
) -> tuple[np.ndarray, int]:
    """The rows of the lines from ``buf[_PAD]`` to the line end at
    ``marks[-1]``, the first of them line ``line``, and the count of those
    lines.  ``marks`` are the positions of the bytes in them that are not
    digits, ``values`` those bytes and ``is_lf`` marks their LFs.  The
    per-field arrays are ``scratch``'s; the rows are a new array."""
    width = len(names)

    def take(key: str, size: int, dtype=np.int64) -> np.ndarray:
        return scratch.take(key, (size,), dtype)

    is_cr = np.equal(values, _CR, out=take("separator", values.size, bool))
    has_cr = is_cr.any()
    if has_cr:
        # A line ends in LF, CR LF or CR, as a text-mode readline ends it;
        # the CR of a CR LF is dropped, and the LF ends the line.
        cr = np.flatnonzero(is_cr)
        cr = cr[buf[marks[cr] + 1] == _LF]
        marks, values = np.delete(marks, cr), np.delete(values, cr)
        line_end = (values == _LF) | (values == _CR)
    else:
        line_end = is_lf
    separator = np.equal(values, _COMMA, out=take("separator", values.size, bool))
    separator |= line_end
    separators = np.flatnonzero(separator)
    count = separators.size
    # The end of every field, and of every blank line; its length; and the
    # count of its bytes that are not digits.  Each starts one byte after
    # the end before it.
    ends = np.take(marks, separators, out=take("ends", count), mode="clip")
    length = take("length", count)
    length[0] = ends[0] - _PAD
    np.subtract(ends[1:], ends[:-1], out=length[1:])
    length[1:] -= 1
    others = take("others", count)
    others[0] = separators[0]
    np.subtract(separators[1:], separators[:-1], out=others[1:])
    others[1:] -= 1
    closes = np.take(line_end, separators, out=take("closes", count, bool), mode="clip")
    if has_cr:
        crlf = (buf[ends] == _LF) & (buf[ends - 1] == _CR)
        ends[crlf] -= 1
        length[crlf] -= 1

    lines = np.count_nonzero(closes)
    rows = None  # the line of each row, counted from ``line``, if not all
    fault = None
    if not (
        ends.size == lines * width
        and closes[width - 1 :: width].all()
        and (width > 1 or (length > 0).all())
    ):
        last = np.flatnonzero(closes)  # each line's last field
        fields = np.diff(last, prepend=-1)
        blank = (fields == 1) & (length[last] == 0)
        bad = np.flatnonzero(~blank & (fields != width))
        keep = ~blank
        if bad.size:
            # Read the lines before the first bad one first, so that the
            # first fault of the file is the one reported.
            j = bad[0]
            fault = f"{path}, line {line + j}: expected {width} columns, got {fields[j]}"
            keep[j:] = False
        rows = np.flatnonzero(keep)
        keep = np.repeat(keep, fields)
        ends, length, others, separators = (
            a[keep] for a in (ends, length, others, separators)
        )

    # Fields of 1 to 8 digits and nothing else read as integers; the kernel
    # takes the others, and _field what it does not take.
    value = _integers(buf, ends, length, scratch).astype(np.float64)
    special = np.not_equal(others, 0, out=take("special", ends.size, bool))
    special |= np.less(length, 1, out=take("closes", ends.size, bool))
    special |= np.greater(length, 8, out=take("closes", ends.size, bool))
    rest = np.flatnonzero(special)
    if rest.size:
        start, end, first, other = (take(k, rest.size) for k in ("start", "end", "first", "other"))
        np.take(ends, rest, out=end, mode="clip")
        np.subtract(end, np.take(length, rest, out=start, mode="clip"), out=start)
        np.take(others, rest, out=other, mode="clip")
        np.subtract(np.take(separators, rest, out=first, mode="clip"), other, out=first)
        value[rest], ok = _kernel(buf, marks, values, start, end, first, other, scratch)
        for i in np.flatnonzero(~ok):
            try:
                value[rest[i]] = _field(buf[start[i] : end[i]].tobytes())
            except ValueError as exc:
                row, column = divmod(int(rest[i]), width)
                at = line + (row if rows is None else int(rows[row]))
                raise ValueError(f"{path}, line {at}, column {names[column]!r}: {exc}") from None
    if fault is not None:
        raise ValueError(fault)
    return value.reshape(-1, width), lines
