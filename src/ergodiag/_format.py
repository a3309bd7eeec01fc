"""CSV rows ``t,r,x`` whose bytes are those of ``"%d,%d,%.17g\\n"``, in NumPy.

CPython prints ``%.17g`` with correctly rounded, ties-to-even decimal digits
(Gay 1990, *Correctly rounded binary-decimal and decimal-binary
conversions*).  Seventeen digits take its bignum route, about 1 us a value.
In the window ``1e-4 <= |x| < 1e16``, which lies inside the range
``1e-4 <= |x| < 1e17`` that ``%.17g`` prints in fixed notation, the same
digits come from float64 arithmetic alone:

* ``k = floor(log10|x|)`` lies in ``[-4, 15]`` and ``10**(16 - k)`` is an
  exact double, so Dekker's error-free product (Dekker 1971,
  ``processes._two_product``) gives ``hi + lo = |x| * 10**(16 - k)`` exactly.
* ``log10`` only guesses ``k``: the decade test ``1e16 <= hi + lo < 1e17``
  on the exact pair decides it.
* ``hi >= 2**53`` is an even integer and ``|lo|`` is at most half its ulp,
  so ``int(hi) + rint(lo)``, rounding ties to even, is ``hi + lo`` rounded
  half to even: the 17 digits.  They never round up to ``10**17``: for
  every double of decade ``k``, ``|x| * 10**(16 - k)`` is at least 8.3
  below it (``tests/test_format.py`` checks each decade's largest double).

``0.0`` and ``-0.0`` print as ``0`` and ``-0``.  Any other value (outside the
window, or not finite) is printed by ``%.17g`` itself, all such values of a
chunk in one ``%`` call.  A chunk with more than three quarters of its
values outside the window is left to :func:`percent_rows`, which prints it
by ``%`` alone, one call per replicate: past about that share the byte
matrix below costs more than the digits it saves.

Each line is one row of a byte matrix, written four bytes at a time from
tables of digit groups, with a mask of the bytes in use; the masked bytes,
read row by row, are the chunk's bytes, which :func:`format_rows` returns
as a uint8 array for a binary file.  The number takes 48 bytes of its row:

    ",-0L" AAAA AAAA AAAA AAAA ".000" "   L" BBBB BBBB BBBB BBBB "\\n   "

``L`` is the leading digit and ``A`` and ``B`` are both the other 16.  The
integer part is taken from the ``A`` copy and the fraction from the ``B``
copy, so the decimal point needs no shift.  Which bytes are in use depends
only on the decade ``k``, the count of significant digits and the sign, and
one table row per combination holds the mask.

Threads: :func:`format_rows` spends most of its time in NumPy calls that
release the interpreter lock, and shares nothing between threads but
read-only tables, so ``simulate`` runs it on two threads at once.
:func:`percent_rows` holds the lock nearly all the time, and ``simulate``
calls it on the calling thread only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import BinaryIO

import numpy as np

from .processes import _two_product

__all__ = ["format_rows", "percent_rows"]

# 10**q for q = 0 .. 20, exact doubles.
_POW10 = np.array([float(10**q) for q in range(21)])
_INT_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _words(rows) -> np.ndarray:
    """Rows of four bytes as one uint32 each, in this machine's byte order."""
    return np.ascontiguousarray(rows, np.uint8).view(np.uint32)[..., 0]


def _with_digit(text: bytes) -> np.ndarray:
    """The four bytes ``text`` with digit ``d`` as last byte, for d = 0 .. 9."""
    rows = np.tile(np.frombuffer(text, np.uint8), (10, 1))
    rows[:, 3] += np.arange(10, dtype=np.uint8)
    return _words(rows)


_GROUPS = np.arange(10_000)
# The four ASCII digits of each group 0 .. 9999, and its trailing zeros.
_DIGITS = _words(_GROUPS[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
_TRAILING = sum(_GROUPS % 10**j == 0 for j in range(1, 5)).astype(np.int8)
del _GROUPS

_LEAD_A = _with_digit(b",-00")
_LEAD_B = _with_digit(b"   0")
_POINT = _words(np.frombuffer(b".000", np.uint8))
_NEWLINE = _words(np.frombuffer(b"\n   ", np.uint8))
_COMMA = _words(np.frombuffer(b",   ", np.uint8))
_NUMBER_WORDS = 12


def _number_masks() -> np.ndarray:
    """Bytes in use of the 48-byte number, one row per code.

    Row ``((k + 4) * 18 + significant) * 2 + negative`` is a number in the
    window, row ``_ZERO_CODE + negative`` a zero, and row ``_FALLBACK + size`` a
    ``%.17g`` text of ``size`` bytes, written over bytes 1 .. 24.
    """
    k = np.arange(-4, 16)[:, None, None, None]
    significant = np.arange(18)[None, :, None, None]
    negative = np.arange(2)[None, None, :, None] == 1
    digit = np.arange(1, 17)
    # Bytes of the layout: 0 ",", 1 "-", 2 "0", 3 L, 4-19 A, 20 ".", 21-23
    # "000", 27 L, 28-43 B, 44 newline; 24-26 and 45-47 are never used.
    window = np.zeros((20, 18, 2, 48), bool)
    window[..., 0] = True
    window[..., 1:2] = negative
    window[..., 2:3] = k < 0
    window[..., 3:4] = k >= 0
    window[..., 4:20] = digit <= k
    window[..., 20:21] = (k < 0) | (significant > k + 1)
    window[..., 21:24] = np.arange(3) < -k - 1
    window[..., 27:28] = k < 0
    window[..., 28:44] = (np.maximum(k, -1) < digit) & (digit < significant)
    window[..., 44] = True
    # A zero is "0" or "-0", the "0" of ",-0L".
    zero = np.zeros((2, 48), bool)
    zero[:, [0, 2, 44]] = True
    zero[1, 1] = True
    fallback = np.zeros((25, 48), bool)
    fallback[:, [0, 44]] = True
    fallback[:, 1:25] = np.arange(24) < np.arange(25)[:, None]
    return np.concatenate((window.reshape(-1, 48), zero, fallback))


_MASKS = _number_masks()
_ZERO_CODE = 20 * 18 * 2
_FALLBACK = _ZERO_CODE + 2


def _items(rows: np.ndarray) -> np.ndarray:
    """Each row of the C-contiguous 2-D array ``rows`` as one opaque item."""
    return rows.view(np.dtype((np.void, rows.shape[1])))[:, 0]


@lru_cache(maxsize=None)
def _row_masks(prefix: int) -> np.ndarray:
    """``_MASKS`` after ``prefix`` unused bytes, one item per code: a whole
    row of ``used``, so one ``np.take`` gathers a chunk's masks into it."""
    rows = np.zeros((len(_MASKS), prefix + 48), bool)
    rows[:, prefix:] = _MASKS
    return _items(rows)


def _integers(words: np.ndarray, used: np.ndarray, values: np.ndarray) -> None:
    """Write the digits of non-negative ``values``, right-aligned, into the
    columns of ``words``, and mark the bytes in use in ``used``."""
    width = 4 * words.shape[1]
    for g in range(words.shape[1]):
        words[:, g] = _DIGITS[values // _INT_POW10[width - 4 - 4 * g] % 10_000]
    count = np.searchsorted(_INT_POW10[1:], values, side="right") + 1
    masks = np.arange(width) >= width - np.arange(width + 1)[:, None]
    used[:] = np.take(masks, count, axis=0)


def _digits(x: np.ndarray, ax: np.ndarray, window: np.ndarray, other: np.ndarray) -> tuple:
    """The parts of the numbers ``x`` (``ax`` their magnitudes) in the layout
    of the module docstring.  ``window`` marks the values in the window,
    ``other`` indexes those printed by ``%.17g``; the rest are zeros.

    Returns ``rows``, which selects the values given digits, their leading
    digits and the four groups of the other 16 digits; each value's code in
    ``_MASKS``; and the ``%.17g`` texts of ``other``, left-justified in a byte
    matrix of 24 columns, or None.
    """
    inside = np.count_nonzero(window)
    # Digits for every value, so that whole columns are written with no
    # index, once at least 7/8 of the chunk is in the window; below that
    # only for the values in it.  The crossover: on 8192-value chunks whose
    # other values were zeros or below the window, digits for every value
    # took 1.2-1.6x the time at shares of 0-1/2, 1.02-1.04x at 3/4, -0.36 to
    # +0.14 ms at 4/5-7/8, and 0.91-0.97x at 9/10 up to all in the window
    # (medians of 60-80 interleaved calls, 2-vCPU Xeon).
    rows = slice(None) if 8 * inside >= 7 * x.size else np.flatnonzero(window)
    # Values outside the window that are given digits get those of 2.0,
    # which their masks hide.
    a =ax[rows] if inside == x.size else np.where(window, ax, 2.0)[rows]
    k = np.floor(np.log10(a)).astype(np.int64)
    np.clip(k, -4, 15, out=k)
    hi, lo = _two_product(a, _POW10[16 - k])
    # log10 only guesses k.  The decade test 1e16 <= hi + lo < 1e17 on the
    # exact pair decides it, and only a pair at or past a bound can fail it.
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if edge.size:
        edge_hi, edge_lo = hi[edge], lo[edge]
        up = (edge_hi > 1e17) | ((edge_hi == 1e17) & (edge_lo >= 0))
        down = (edge_hi < 1e16) | ((edge_hi == 1e16) & (edge_lo < 0))
        k[edge] += up.astype(np.int64) - down
        hi[edge], lo[edge] = _two_product(a[edge], _POW10[16 - k[edge]])
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    upper, lower = np.divmod(digits, 10**8)
    lead, upper = np.divmod(upper, 10**8)
    groups = (*np.divmod(upper, 10_000), *np.divmod(lower, 10_000))
    # Trailing zeros of the 16 digits after the leading one, which is never
    # 0: those of the last group, and where it is 0 of the groups before it.
    trailing = _TRAILING[groups[3]]
    ends = np.flatnonzero(groups[3] == 0)
    if ends.size:
        zeros = np.int8(0)
        for group in groups:
            zeros = np.where(group[ends] == 0, 4 + zeros, _TRAILING[group[ends]])
        trailing[ends] = zeros
    negative = np.signbit(x)
    code = np.empty(x.size, np.int64)
    code[rows] = ((k + 4) * 18 + (17 - trailing)) * 2 + negative[rows]
    if inside < x.size:
        outside = ~window
        code[outside] = _ZERO_CODE + negative[outside]
    texts = None
    if other.size:
        # Left-justified in 24 bytes, so the texts form a matrix.
        text = b"%-24.17g" * other.size % tuple(x[other].tolist())
        texts = np.frombuffer(text, np.uint8).reshape(other.size, 24)
        code[other] = _FALLBACK + np.count_nonzero(texts != ord(" "), axis=1)
    return rows, lead, groups, code, texts


def _layout(
    x: np.ndarray, ax: np.ndarray, window: np.ndarray, other: np.ndarray,
    start: int, n: int, first: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The byte matrix of the lines of ``x`` as 4-byte words, and its mask."""
    # The digits first: their temporaries are gone before the matrix exists.
    rows, lead, groups, code, texts = _digits(x, ax, window, other)
    r, t = np.divmod(np.arange(start, start + x.size), n)
    t += 1
    r += first
    t_words = -(-len(str(int(t.max()))) // 4)
    r_words = -(-len(str(int(r[-1]))) // 4)
    # t, then "," and three unused bytes, then r, then the number.
    cols = np.cumsum([0, t_words, 1, r_words, _NUMBER_WORDS])
    words = np.empty((x.size, cols[-1]), np.uint32)
    used = np.empty((x.size, 4 * cols[-1]), bool)
    # Every row of used from its number's code; t, "," and r overwrite the rest.
    np.take(_row_masks(4 * cols[3]), code, out=_items(used), mode="clip")
    _integers(words[:, : cols[1]], used[:, : 4 * cols[1]], t)
    words[:, cols[1]] = _COMMA
    used[:, 4 * cols[1] : 4 * cols[2]] = (True, False, False, False)
    _integers(words[:, cols[2] : cols[3]], used[:, 4 * cols[2] : 4 * cols[3]], r)

    number = words[:, cols[3] :]
    # Zeros and %.17g texts use only the bytes ",-0" and "\n" of these.
    number[:, 0] = _LEAD_A[0]
    number[rows, 0] = _LEAD_A[lead]
    for g, group in enumerate(groups, start=1):
        number[rows, g] = number[rows, g + 6] = _DIGITS[group]
    number[:, 5] = _POINT
    number[rows, 6] = _LEAD_B[lead]
    number[:, 11] = _NEWLINE
    if texts is not None:
        words.view(np.uint8)[other, 4 * cols[3] + 1 : 4 * cols[3] + 25] = texts
    return words, used


def format_rows(x: np.ndarray, start: int, n: int, first: int) -> np.ndarray | None:
    """The CSV lines ``t,r,x`` of values ``start .. start + len(x) - 1`` of
    replicate-major paths of length ``n``, the first of replicate ``first``,
    as ASCII bytes in a uint8 array; None for a chunk left to
    :func:`percent_rows`.

    Value ``i`` of ``x`` is step ``t = (start + i) % n + 1`` of replicate
    ``r = first + (start + i) // n``, and its line is ``"%d,%d,%.17g\\n" %
    (t, r, x[i])``.  ``x`` is kept to a few thousand values, so the byte
    matrix stays small.  Calls share only read-only tables, so threads may
    make them at once.
    """
    ax = np.abs(x)
    window = (ax >= 1e-4) & (ax < 1e16)
    other = np.flatnonzero(~window & (ax != 0))
    if 4 * other.size > 3 * x.size:
        # Mostly printed by %.17g anyway: % for every line costs less.  On
        # 8192-value chunks of rows of 100 and 1000 steps, values below and
        # above the window, the byte matrix took 0.89-1.00x the time of %
        # alone at three quarters outside, 0.94-1.04x at 0.8 and 1.01-1.16x
        # with every value outside (medians of 40-80 interleaved calls in
        # each of three runs, 2-vCPU Xeon).
        return None
    words, used = _layout(x, ax, window, other, start, n, first)
    # A boolean index copies the bytes in use; np.compress would first list
    # their positions, 8 bytes for each byte of text.
    return words.view(np.uint8).reshape(-1)[used.reshape(-1)]


def percent_rows(out: BinaryIO, x: np.ndarray, start: int, n: int, first: int) -> None:
    """Write the lines :func:`format_rows` describes to ``out`` by ``%``
    alone.  One call and one write per replicate: joining them into one
    string per chunk faulted in fresh pages for it on every chunk.  Bytes
    ``%`` prints floats as ``str`` ``%`` does, and took 0.93x its time with
    the encode (1000-value rows)."""
    values = iter(x.tolist())
    for row in range(start // n, (start + x.size - 1) // n + 1):
        lo, hi = max(start - row * n, 0), min(start + x.size - row * n, n)
        rows = chain.from_iterable(zip(range(lo + 1, hi + 1), values))
        out.write((b"%%d,%d,%%.17g\n" % (first + row)) * (hi - lo) % tuple(rows))
