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

from .processes import _two_product

__all__ = ["read_rows"]

# Bytes read at once.  Every per-chunk temporary stays below glibc's 128 KB
# mmap threshold: the byte mask is one chunk, the positions of the bytes that
# are not digits take 8 bytes each (18% of a `simulate` file's bytes), and
# the rest 8 to 24 bytes a field.  Reading a 2e5-row `simulate` path (5.7 MB)
# in a fresh process took 73 minor faults with 64 KB chunks, 17 with 32 KB
# and 4834 with 128 KB (malloc handing the freed heap back and faulting it in
# again), and 83 ms of CPU against 89 ms with 128 KB; after larger arrays
# had raised malloc's thresholds it took 54 ms, against 49 ms with 128 KB
# and 57 and 67 ms with 48 and 32 KB (medians of 5 and 12 runs, 2-vCPU Xeon).
_CHUNK = 1 << 16
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

# What np.loadtxt's float64 converter accepts once a field is stripped of
# whitespace: PyOS_string_to_double on ASCII text, consumed in full.
_LITERAL = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)",
    re.IGNORECASE,
)


def _loads(buf: np.ndarray, size: int) -> np.ndarray:
    """Unaligned loads of ``size`` bytes: item ``i`` is ``buf[i : i + size]``."""
    return np.ndarray((buf.size - size + 1,), f"V{size}", buffer=buf, strides=(1,))


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The value of the 8 ASCII digits, the first the most significant, in
    each little-endian word of ``w``; 0 for a byte that is 0."""
    w = (w & np.uint64(0x0F0F0F0F0F0F0F0F)) * np.uint64(2561) >> np.uint64(8)
    w = (w & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(6553601) >> np.uint64(16)
    return (w & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(42949672960001) >> np.uint64(32)


def _integers(buf: np.ndarray, end: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The integers of the ``count`` (0 to 8) ASCII digits before ``end``."""
    words = _loads(buf, 8)[end - 8].view("<u8")
    return _eight_digits(words & np.take(_TAIL8, count, mode="clip"))


def _mantissa(
    buf: np.ndarray, end: np.ndarray, kept: np.ndarray, digits: np.ndarray
) -> np.ndarray:
    """The integers of the ``digits`` digits before ``end``, where the last
    ``kept`` are digits and the others, if any, stand one byte further back
    (a point between them).  A value at or past ``10**19`` (more digits)
    reads as ``10**19``."""
    # The 24 bytes that end with the mantissa, and the 24 bytes before its
    # last, which hold the digits before the point moved one byte over it.
    loads = _loads(buf, 24)
    mantissa = loads[end - 24].view("<u8").reshape(-1, 3)
    moved = loads[end - 25].view("<u8").reshape(-1, 3)
    mantissa &= np.take(_TAIL24, kept, axis=0, mode="clip")
    moved &= np.take(_LEAD24, kept * 25 + digits, axis=0, mode="clip")
    mantissa |= moved
    groups = _eight_digits(mantissa).T
    m = groups[0] * np.uint64(10**16) + groups[1] * np.uint64(10**8) + groups[2]
    m[groups[0] >= 1000] = 10**19
    return m


def _scale(m: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``m * 10**q`` correctly rounded for ``0 < m < 10**19`` and ``q`` in the
    table, and a mask of the values this proves correct: normal, and not
    within the guard of a tie."""
    row = q - _Q_MIN
    hi = np.take(_HI, row)
    a = m.astype(np.float64)
    b = (m - a.astype(np.uint64)).view(np.int64).astype(np.float64)
    p, e = _two_product(a, hi)
    e += a * np.take(_LO, row) + b * hi
    r = p + e
    err = e - (r - p)
    rb = r.view(np.int64)
    above = (rb & _EXPONENT_BITS).view(np.float64) * 2.0**-53
    # One unit below r: the same exponent, or one less when r is a power of two.
    below = ((rb - 1) & _EXPONENT_BITS).view(np.float64) * 2.0**-53
    guard = r * 2.0**-100
    ok = (above - err > guard) & (err + below > guard)
    rb += np.take(_EXP_BITS, row)  # times 2**e, exact while the result is normal
    biased = rb >> 52
    ok &= (biased >= 1) & (biased <= 2046)  # normal: not 0 or subnormal, finite
    return rb.view(np.float64), ok


def _kernel(
    buf: np.ndarray, marks: np.ndarray, values: np.ndarray,
    start: np.ndarray, end: np.ndarray, first: np.ndarray, others: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The values of the fields ``buf[start:end]`` the kernel takes, and a
    mask of those it takes.

    ``marks[first : first + others]`` are the positions of a field's bytes
    that are not ASCII digits, and ``values`` all the bytes at ``marks``.
    """
    lead = buf[start]
    negative = lead == _MINUS
    signed = negative | (lead == _PLUS)
    # The marks of a field the kernel takes: sign, point, e, exponent sign,
    # each one optional, in this order.
    at = first + signed
    has_dot = values[at] == _DOT
    dot = marks[at]
    at += has_dot
    has_exp = (values[at] | 0x20) == _E
    marked = signed.astype(np.int64) + has_dot
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
        q = _integers(buf, end, exp_digits).view(np.int64)
        np.negative(q, out=q, where=exp_negative)
    else:
        q = np.zeros(end.size, np.int64)
        ok = np.ones(end.size, bool)
    # Without a point, the fraction is empty and the point sits at the end.
    dot = np.where(has_dot, dot, mantissa_end)
    integer = dot - start - signed
    fraction = mantissa_end - dot - has_dot
    digits = integer + fraction
    # Every byte that is not a digit is one of the sign, point, e and
    # exponent sign at their places, so the others are all digits.
    ok &= others == marked
    ok &= (integer >= 1) & (fraction >= has_dot) & (digits + has_dot <= 24)
    q -= fraction
    ok &= (q >= _Q_MIN) & (q <= _Q_MAX)
    q[~ok] = 0

    m = _mantissa(buf, mantissa_end, np.where(has_dot, fraction, integer), digits)
    ok &= m < 10**19  # at most 19 significant digits
    zero = m == 0
    q[zero] = 0
    value, exact = _scale(m, q)
    ok &= exact | zero
    value = value.view(np.int64)
    value |= negative.astype(np.int64) << 63
    value = value.view(np.float64)
    return value, ok


def _field(raw: bytes) -> float:
    """The value ``np.loadtxt`` gives the field ``raw``; ValueError for a
    field it rejects, and for NaN and infinities."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{raw!r} is not UTF-8 text") from None
    number = text.strip()  # more than float() strips: \x1c to \x1f too
    if not _LITERAL.fullmatch(number):
        raise ValueError(f"cannot read {text!r} as a number")
    value = float(number)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
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
        marks = np.flatnonzero((buf[_PAD:end] ^ 0x30) > 9)  # the bytes not digits
        marks += _PAD
        values = buf[marks]
        line_ends = np.flatnonzero(values == _LF)
        if line_ends.size == 0:
            # Lines that end in CR alone; the last CR may yet have its LF.
            line_ends = np.flatnonzero((values == _CR) & (marks < end - 1))
        if line_ends.size == 0:
            # A line longer than the buffer: make room and read on.
            buf = np.concatenate((buf, np.zeros(buf.size, np.uint8)))
            held = end - _PAD
            continue
        cut = line_ends[-1] + 1
        block, lines = _block(buf, marks[:cut], values[:cut], path, names, line)
        yield block
        line += lines
        tail = marks[cut - 1] + 1
        held = end - tail
        buf[_PAD : _PAD + held] = buf[tail:end]
        if last:
            return


def _block(
    buf: np.ndarray, marks: np.ndarray, values: np.ndarray,
    path: str, names: Sequence[str], line: int,
) -> tuple[np.ndarray, int]:
    """The rows of the lines from ``buf[_PAD]`` to the line end at
    ``marks[-1]``, the first of them line ``line``, and the count of those
    lines.  ``marks`` are the positions of the bytes in them that are not
    digits, and ``values`` those bytes."""
    width = len(names)
    has_cr = (values == _CR).any()
    if has_cr:
        # A line ends in LF, CR LF or CR, as a text-mode readline ends it;
        # the CR of a CR LF is dropped, and the LF ends the line.
        cr = np.flatnonzero(values == _CR)
        cr = cr[buf[marks[cr] + 1] == _LF]
        marks, values = np.delete(marks, cr), np.delete(values, cr)
        line_end = (values == _LF) | (values == _CR)
    else:
        line_end = values == _LF
    separators = np.flatnonzero(line_end | (values == _COMMA))
    ends = marks[separators]  # of every field, and of every blank line
    starts = np.empty_like(ends)
    starts[0] = _PAD
    starts[1:] = ends[:-1] + 1
    firsts = np.empty_like(separators)
    firsts[0] = 0
    firsts[1:] = separators[:-1] + 1
    closes = line_end[separators]
    if has_cr:
        ends[(buf[ends] == _LF) & (buf[ends - 1] == _CR)] -= 1

    lines = np.count_nonzero(closes)
    rows = None  # the line of each row, counted from ``line``, if not all
    fault = None
    if not (
        ends.size == lines * width
        and closes[width - 1 :: width].all()
        and (width > 1 or (ends > starts).all())
    ):
        last = np.flatnonzero(closes)  # each line's last field
        fields = np.diff(last, prepend=-1)
        blank = (fields == 1) & (ends[last] == starts[last])
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
        starts, ends, firsts, separators = (
            a[keep] for a in (starts, ends, firsts, separators)
        )

    # Fields of 1 to 8 digits and nothing else read as integers; the kernel
    # takes the others, and _field what it does not take.
    length = ends - starts
    others = separators - firsts
    value = _integers(buf, ends, length).astype(np.float64)
    rest = np.flatnonzero((others != 0) | (length < 1) | (length > 8))
    if rest.size:
        start, end = starts[rest], ends[rest]
        value[rest], ok = _kernel(buf, marks, values, start, end, firsts[rest], others[rest])
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
