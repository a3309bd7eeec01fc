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
chunk in one ``%`` call, and its text goes into the byte matrix below with
the rest.  Every chunk takes this one route, whatever share of it lies
outside the window.

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

Working set and threads: a call's byte matrix, mask and digit arrays live
in a ``processes._Scratch`` that one thread reuses from chunk to chunk, so
no chunk faults in fresh pages for them; only the text returned is new.
:func:`format_rows` spends most of its time in NumPy calls that release the
interpreter lock, and threads with their own working sets share nothing but
read-only tables, so ``simulate`` runs it on two threads at once.  Two
threads took 0.69x the time of one on 16 384-value chunks and 0.89x on
8192-value chunks, which make twice as many NumPy calls a value (196 608
values of a 200 x 1000 AR1 ensemble, 2-vCPU Xeon).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .processes import _Scratch, _exact_product, _split, _two_product

__all__ = ["format_rows"]

# 10**q for q = 0 .. 20, exact doubles, and their halves in Dekker's split.
_POW10 = np.array([float(10**q) for q in range(21)])
_POW10_HI, _POW10_LO = _split(_POW10)
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


def _group_masks(zero: int) -> np.ndarray:
    """Bytes in use of a group's word in a right-aligned integer, for the
    leading group 0 .. 9999, whose leading zeros are unused (``zero`` bytes
    for 0), and for 10 000, which stands for any group after a nonzero one."""
    count = 1 + sum(_GROUPS >= 10**j for j in range(1, 4))
    count = np.append(np.where(_GROUPS == 0, zero, count), 4)
    return _words(np.arange(4) >= 4 - count[:, None])


# The last word of an integer shows "0" for 0; a word before it shows nothing.
_HEAD_MASKS, _LAST_MASKS = _group_masks(0), _group_masks(1)
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
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


@lru_cache(maxsize=None)
def _row_tables(t_words: int, r_words: int) -> tuple[np.ndarray, np.ndarray]:
    """Whole rows of the byte matrix and of its mask before t and r are
    written, for t and r of ``t_words`` and ``r_words`` words, one item per
    row, so that one ``np.take`` gathers a chunk's rows.  Row ``d`` of the
    words holds the comma after t and the number's fixed words with leading
    digit ``d``; row ``code`` of the masks holds the comma's and
    ``_MASKS[code]``."""
    prefix = t_words + 1 + r_words
    words = np.zeros((10, prefix + _NUMBER_WORDS), np.uint32)
    words[:, t_words] = _COMMA
    for column, table in ((0, _LEAD_A), (5, _POINT), (6, _LEAD_B), (11, _NEWLINE)):
        words[:, prefix + column] = table
    masks = np.zeros((len(_MASKS), 4 * prefix + 48), bool)
    masks[:, 4 * t_words] = True
    masks[:, 4 * prefix :] = _MASKS
    return _items(words), _items(masks)


def _divmod(x: np.ndarray, d: int, quotient: np.ndarray, remainder: np.ndarray) -> None:
    """``divmod(x, d)`` of non-negative integers ``x`` into two arrays other
    than ``x``, or the remainder alone when both are one array.  NumPy
    divides by a constant fast, and np.divmod slowly: on 16 384 int64 values
    3.8 ns a value, against 1.5 ns for this division, multiplication and
    subtraction (2-vCPU Xeon)."""
    np.floor_divide(x, d, out=quotient)
    np.multiply(quotient, d, out=remainder)
    np.subtract(x, remainder, out=remainder)


def _integers(
    words: np.ndarray, used: np.ndarray, values: np.ndarray,
    head: np.ndarray, part: np.ndarray, gathered: np.ndarray,
) -> None:
    """Write the digits of non-negative ``values``, right-aligned, into the
    columns of ``words``, and the masks of their bytes in use into the same
    columns of ``used``, a uint32 view of the byte mask.  ``head`` and
    ``part`` (int64) and ``gathered`` (uint32) are work arrays."""
    last = words.shape[1] - 1
    for g in range(last + 1):
        # The digits up to word g as one number.  Its last group is word g's,
        # and it is at least 10 000 when a group before that is not 0; the
        # first word's number is a group.
        if g < last:
            upto = np.floor_divide(values, _INT_POW10[4 * (last - g)], out=head)
        else:
            upto = values
        index = upto if g == 0 else np.minimum(upto, 10_000, out=part)
        masks = _LAST_MASKS if g == last else _HEAD_MASKS
        used[:, g] = np.take(masks, index, out=gathered, mode="clip")
        group = upto
        if g > 0:
            _divmod(upto, 10_000, part, part)
            group = part
        words[:, g] = np.take(_DIGITS, group, out=gathered, mode="clip")


def _scaled(a: np.ndarray, k: np.ndarray, product: np.ndarray) -> None:
    """``product[0] + product[1] == a * 10**(16 - k)`` exactly, Dekker's
    product with the power's halves read from tables, in the float64 rows
    of ``product``."""
    hi, lo, b_hi, b_lo, a_hi, a_lo = product
    q = np.subtract(16, k, out=a_lo.view(np.int64))
    np.take(_POW10, q, out=lo, mode="clip")
    np.take(_POW10_HI, q, out=b_hi, mode="clip")
    np.take(_POW10_LO, q, out=b_lo, mode="clip")
    _exact_product(a, lo, b_hi, b_lo, hi, lo, a_hi, a_lo)


def _digits(
    x: np.ndarray, ax: np.ndarray, window: np.ndarray, outside: np.ndarray,
    other: np.ndarray, scratch: _Scratch,
) -> tuple:
    """The parts of the numbers ``x`` (``ax`` their magnitudes) in the layout
    of the module docstring.  ``window`` and ``outside`` mark the values in
    and outside the window, ``other`` indexes those printed by ``%.17g``;
    the rest are zeros.

    Returns ``rows``, which selects the values given digits; their leading
    digits, a row of ``scratch``'s array ``"product"``; the four groups of
    the other 16 digits, one row a value, in the bytes of its array
    ``"used"``; each value's code in ``_MASKS``; and the ``%.17g`` texts of
    ``other``, left-justified in a byte matrix of 24 columns, or None.
    ``ax`` may be overwritten.
    """
    size = x.size
    inside = np.count_nonzero(window)
    # Digits for every value, so that whole columns are written with no
    # index, once at least 7/8 of the chunk is in the window; below that
    # only for the values in it.  The crossover: on 8192-value chunks whose
    # other values were zeros or below the window, digits for every value
    # took 1.2-1.6x the time at shares of 0-1/2, 1.02-1.04x at 3/4, -0.36 to
    # +0.14 ms at 4/5-7/8, and 0.91-0.97x at 9/10 up to all in the window
    # (medians of 60-80 interleaved calls, 2-vCPU Xeon).
    if 8 * inside >= 7 * size:
        rows, a = slice(None), ax
        # Values outside the window that are given digits get those of 2.0,
        # which their masks hide.
        if inside < size:
            np.copyto(a, 2.0, where=outside)
    else:
        rows = np.flatnonzero(window)
        a = np.take(ax, rows, out=scratch.take("a", (inside,)), mode="clip")
    m = a.size
    # The exact product's six rows, then the digits, their halves and the
    # leading digit in their bytes.
    product = scratch.take("product", (6, m))
    ints = product.view(np.int64)
    guess = np.log10(a, out=product[0])
    k = scratch.take("k", (m,), np.int64)
    np.copyto(k, np.floor(guess, out=guess), casting="unsafe")
    np.clip(k, -4, 15, out=k)
    _scaled(a, k, product)
    hi, lo = product[:2]
    # log10 only guesses k.  The decade test 1e16 <= hi + lo < 1e17 on the
    # exact pair decides it, and only a pair at or past a bound can fail it.
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if edge.size:
        edge_hi, edge_lo = hi[edge], lo[edge]
        up = (edge_hi > 1e17) | ((edge_hi == 1e17) & (edge_lo >= 0))
        down = (edge_hi < 1e16) | ((edge_hi == 1e16) & (edge_lo < 0))
        k[edge] += up.astype(np.int64) - down
        hi[edge], lo[edge] = _two_product(a[edge], _POW10[16 - k[edge]])
    digits, low = ints[2:4]
    np.copyto(digits, hi, casting="unsafe")
    np.copyto(low, np.rint(lo, out=lo), casting="unsafe")
    digits += low
    # The leading digit, and the four groups as the columns of one matrix,
    # which borrows the bytes of the mask: _layout writes that only once it
    # has read the groups.
    upper, lower, lead = ints[0], ints[1], ints[4]
    groups = scratch.take("used", (m, 4), np.int64)
    _divmod(digits, 10**8, upper, lower)
    _divmod(upper, 10**8, lead, digits)
    _divmod(digits, 10_000, groups[:, 0], groups[:, 1])
    _divmod(lower, 10_000, groups[:, 2], groups[:, 3])
    # Trailing zeros of the 16 digits after the leading one, which is never
    # 0: those of the last group, and where it is 0 of the groups before it.
    trailing = scratch.take("trailing", (m,), np.int8)
    np.take(_TRAILING, groups[:, 3], out=trailing, mode="clip")
    ends = np.flatnonzero(groups[:, 3] == 0)
    if ends.size:
        zeros = np.int8(0)
        for group in groups[ends].T:
            zeros = np.where(group == 0, 4 + zeros, _TRAILING[group])
        trailing[ends] = zeros
    negative = np.signbit(x, out=scratch.take("negative", (size,), bool))
    # The code ((k + 4) * 18 + (17 - trailing)) * 2 + negative, made in k.
    k *= 36
    k += 178
    k -= trailing
    k -= trailing
    k += negative[rows]
    if m == size:
        code = k
    else:
        code = scratch.take("code", (size,), np.int64)
        code[rows] = k
    if inside < size:
        code[outside] = _ZERO_CODE + negative[outside]
    texts = None
    if other.size:
        # Left-justified in 24 bytes, so the texts form a matrix.
        text = b"%-24.17g" * other.size % tuple(x[other].tolist())
        texts = np.frombuffer(text, np.uint8).reshape(other.size, 24)
        code[other] = _FALLBACK + np.count_nonzero(texts != ord(" "), axis=1)
    return rows, lead, groups, code, texts


def _layout(
    x: np.ndarray, ax: np.ndarray, window: np.ndarray, outside: np.ndarray,
    other: np.ndarray, start: int, n: int, first: int, scratch: _Scratch,
) -> tuple[np.ndarray, np.ndarray]:
    """The byte matrix of the lines of ``x`` as 4-byte words, and its mask,
    both arrays of ``scratch``."""
    rows, lead, groups, code, texts = _digits(x, ax, window, outside, other, scratch)
    size = x.size
    last = start + size - 1
    # The largest t is n once the chunk reaches the end of a row.
    t_max = n if last // n > start // n else last % n + 1
    t_words = -(-len(str(t_max)) // 4)
    r_words = -(-len(str(first + last // n)) // 4)
    # t, then "," and three unused bytes, then r, then the number.
    cols = np.cumsum([0, t_words, 1, r_words, _NUMBER_WORDS]).tolist()
    # The digits of the groups, before the mask is written over them, in the
    # bytes of the first two rows of "product", whose values are used up.
    m = lead.size
    gathered = scratch.take("product", (m, 4), np.uint32)
    np.take(_DIGITS, groups, out=gathered, mode="clip")
    words = scratch.take("words", (size, cols[-1]), np.uint32)
    used = scratch.take("used", (size, 4 * cols[-1]), bool)
    # Every row from the tables, by its number's code and leading digit;
    # then the other digits of the number, and t and r.
    row_words, row_masks = _row_tables(t_words, r_words)
    np.take(row_masks, code, out=_items(used), mode="clip")
    if m < size:
        # Zeros and %.17g texts use only the bytes ",-0" and "\n" of the
        # number's words: any leading digit serves them.  code is free now.
        index = code
        index.fill(0)
        index[rows] = lead
    else:
        index = lead
    np.take(row_words, index, out=_items(words), mode="clip")
    number = words[:, cols[3] :]
    number[rows, 1:5] = number[rows, 7:11] = gathered
    if texts is not None:
        words.view(np.uint8)[other, 4 * cols[3] + 1 : 4 * cols[3] + 25] = texts

    # The number is written: t and r reuse "product".
    t, r, head, part = scratch.take("product", (4, size), np.int64)
    _divmod(np.arange(start, start + size), n, r, t)
    t += 1
    r += first
    masks = used.view(np.uint32)
    picked = scratch.take("gathered", (size,), np.uint32)
    _integers(words[:, : cols[1]], masks[:, : cols[1]], t, head, part, picked)
    _integers(words[:, cols[2] : cols[3]], masks[:, cols[2] : cols[3]], r, head, part, picked)
    return words, used


def format_rows(
    x: np.ndarray, start: int, n: int, first: int, scratch: _Scratch | None = None
) -> np.ndarray:
    """The CSV lines ``t,r,x`` of values ``start .. start + len(x) - 1`` of
    replicate-major paths of length ``n``, the first of replicate ``first``,
    as ASCII bytes in a uint8 array.

    Value ``i`` of ``x`` is step ``t = (start + i) % n + 1`` of replicate
    ``r = first + (start + i) // n``, and its line is ``"%d,%d,%.17g\\n" %
    (t, r, x[i])``.  ``x`` is kept to some thousands of values, so the byte
    matrix stays small, and is only read.  ``scratch`` holds the chunk's
    working set, which one thread reuses from chunk to chunk; by default it
    is allocated for this call.  Calls with their own ``scratch`` share only
    read-only tables, so threads may make them at once.
    """
    if scratch is None:
        scratch = _Scratch()
    size = x.size
    ax = np.abs(x, out=scratch.take("ax", (size,)))
    window = np.greater_equal(ax, 1e-4, out=scratch.take("window", (size,), bool))
    window &= np.less(ax, 1e16, out=scratch.take("flags", (size,), bool))
    outside = np.logical_not(window, out=scratch.take("outside", (size,), bool))
    printed = np.not_equal(ax, 0.0, out=scratch.take("flags", (size,), bool))
    printed &= outside
    other = np.flatnonzero(printed)
    words, used = _layout(x, ax, window, outside, other, start, n, first, scratch)
    # A boolean index copies the bytes in use; np.compress would first list
    # their positions, 8 bytes for each byte of text.
    return words.view(np.uint8).reshape(-1)[used.reshape(-1)]

