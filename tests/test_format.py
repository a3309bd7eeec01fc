"""``_format`` writes the bytes of ``"%d,%d,%.17g\\n"``, value by value.

Every test compares the kernel's text for one chunk with the ``%`` writer
on the same rows.  Chunks hold at most half their values outside the
window ``1e-4 <= |x| < 1e16`` unless a test says otherwise, so the NumPy
digits and the in-chunk ``%.17g`` texts are both exercised.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ergodiag import cli
from ergodiag._format import format_rows
from ergodiag.processes import _Scratch

RNG_SEED = 2016


def rows(x, start, n, first, scratch=None) -> str:
    """The chunk's lines as ``simulate`` writes them: ``format_rows``'s bytes."""
    text = format_rows(np.asarray(x, dtype=float), start, n, first, scratch=scratch)
    assert text.dtype == np.uint8 and text.ndim == 1
    return text.tobytes().decode("ascii")


def reference(x, start, n, first) -> str:
    return "".join(
        "%d,%d,%.17g\n" % ((start + i) % n + 1, first + (start + i) // n, value)
        for i, value in enumerate(x.tolist())
    )


def assert_same(x, start=0, n=None, first=0, scratch=None):
    """The kernel's lines for ``x`` equal the ``%`` writer's; by default
    ``x`` is one row from step 1 of replicate 0."""
    x = np.asarray(x, dtype=float)
    n = x.size if n is None else n
    got, want = rows(x, start, n, first, scratch), reference(x, start, n, first)
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got.splitlines(), want.splitlines())) if g != w)
        pytest.fail(f"row {bad}: {got.splitlines()[bad]!r} != {want.splitlines()[bad]!r}")


def in_window(rng, size):
    """Values spread log-uniformly over the window, with random signs."""
    return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-4, 16, size)


def with_window_values(rng, values):
    """``values`` interleaved with as many window values, in 8192-value chunks."""
    out = np.empty(2 * len(values))
    out[0::2], out[1::2] = values, in_window(rng, len(values))
    return out


def neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate((x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)))


def test_random_bit_patterns_in_every_binade():
    rng = np.random.default_rng(RNG_SEED)
    size = 200_000
    exponent = np.arange(size, dtype=np.uint64) % np.uint64(2047)  # 2047 is inf / nan
    mantissa = rng.integers(0, 1 << 52, size, dtype=np.uint64)
    sign = rng.integers(0, 2, size, dtype=np.uint64)
    bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
    values = with_window_values(rng, bits.view(np.float64))
    for lo in range(0, values.size, 8192):
        assert_same(values[lo : lo + 8192])


def test_random_values_in_the_window():
    rng = np.random.default_rng(RNG_SEED + 1)
    values = in_window(rng, 4 * 8192)
    for lo in range(0, values.size, 8192):
        assert_same(values[lo : lo + 8192])


def test_powers_of_ten_and_their_neighbours():
    powers = [float(Fraction(10) ** j) for j in range(-30, 31)]
    values = neighbours(powers)
    assert_same(with_window_values(np.random.default_rng(RNG_SEED + 2), np.r_[values, -values]))


def test_window_edges_and_their_neighbours():
    values = neighbours([1e-4, 1e16])
    assert_same(with_window_values(np.random.default_rng(RNG_SEED + 3), np.r_[values, -values]))


def test_exact_ties_round_half_to_even():
    values = 1e15 + 0.25 * np.arange(400)
    assert_same(values)
    assert_same(-values)
    assert rows([1e15 + 0.25, 1e15 + 0.75], 0, 2, 0) == (
        "1,0,1000000000000000.2\n2,0,1000000000000000.8\n"
    )


def test_digits_never_carry_into_the_next_decade():
    # The kernel has no carry step: below each decade bound 10**(k + 1), the
    # largest double scales by 10**(16 - k) to more than 1/2 short of 10**17.
    for k in range(-4, 16):
        bound = Fraction(10) ** (k + 1)
        below = float(bound)
        if Fraction(below) >= bound:
            below = math.nextafter(below, 0.0)
        assert Fraction(below) * Fraction(10) ** (16 - k) < 10**17 - Fraction(1, 2), k
        assert_same([below, -below])


def test_zeros_subnormals_and_extremes():
    largest = np.finfo(float).max
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, largest, -largest,
              np.inf, -np.inf, np.nan]
    assert_same(with_window_values(np.random.default_rng(RNG_SEED + 4), values))
    assert rows([0.0, -0.0], 0, 2, 3) == "1,3,0\n2,3,-0\n"


def test_only_zeros_and_round_numbers():
    values = np.array([0.0, -0.0, 1.0, -2.0, 10.0, 0.5, 0.001, 1200.0, 123456789.0, 1e15])
    assert_same(np.tile(values, 50))


def test_step_counts_crossing_each_digit_count():
    # Steps 10**j - 2 .. 10**j + 2, then the next row from step 1.
    rng = np.random.default_rng(RNG_SEED + 5)
    for j in range(1, 10):
        assert_same(in_window(rng, 10), start=10**j - 3, n=10**j + 2)


def test_replicates_of_one_to_five_digits():
    # Rows of 3 steps, replicates 10**j - 2 .. 10**j.
    rng = np.random.default_rng(RNG_SEED + 6)
    for j in range(1, 6):
        assert_same(in_window(rng, 9), n=3, first=10**j - 2)


def test_a_chunk_spanning_rows():
    # Rows of 1000 steps, replicates 9 .. 17: t restarts at 1 in the chunk.
    rng = np.random.default_rng(RNG_SEED + 7)
    x = rng.standard_normal(8192)
    x[::7] = 0.0
    x[3::11] = 1e-9
    assert_same(x, start=2500, n=1000, first=7)


def test_chunks_mostly_outside_the_window_across_rows():
    # Four fifths and all of the values printed by %.17g, laid out in the
    # byte matrix with the rest, as every chunk is.
    rng = np.random.default_rng(RNG_SEED + 8)
    x = 1e-12 * rng.standard_normal(500)
    x[::5] = rng.standard_normal(100)
    assert_same(x, start=950, n=100)
    assert_same(x, start=0, n=1, first=5)
    assert_same([1e17, np.inf, -np.inf, np.nan, 5.0])
    assert_same([1e17, -1e-5, np.nan, 5.0], n=3)


@pytest.mark.parametrize("inside", [0.0, 0.25, 0.5, 0.87, 0.875, 0.9, 8191 / 8192])
def test_any_share_of_values_in_the_window(inside):
    # Below 7/8 in the window only those values are given digits; from 7/8
    # on every value is, and the masks hide the digits of the rest.  The
    # rest are zeros and values printed by %.17g, in equal numbers.
    rng = np.random.default_rng(RNG_SEED + 9)
    x = in_window(rng, 8192)
    rest = rng.permutation(8192)[: round((1 - inside) * 8192)]
    x[rest[::2]] = rng.choice([0.0, -0.0], rest[::2].size)
    x[rest[1::2]] = rng.choice([1e-300, -3e-5, 2e17, np.inf, np.nan], rest[1::2].size)
    assert_same(x, start=500, n=1000, first=3)


def mixed(rng, size, inside):
    """``size`` values, the share ``inside`` in the window, the rest zeros
    and values printed by ``%.17g`` in equal numbers."""
    x = in_window(rng, size)
    rest = rng.permutation(size)[: round((1 - inside) * size)]
    x[rest[::2]] = rng.choice([0.0, -0.0], rest[::2].size)
    x[rest[1::2]] = rng.choice([1e-300, -3e-5, 2e17, np.inf, np.nan], rest[1::2].size)
    return x


def outside(rng, size):
    """``size`` values, each printed by ``%.17g``: below the window, above
    it, or not finite."""
    below = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-320, -4, size)
    above = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(16, 308, size)
    x = np.where(rng.random(size) < 0.5, below, above)
    x[rng.permutation(size)[: size // 10]] = rng.choice([np.inf, -np.inf, np.nan], size // 10)
    x[x == 0.0] = 5e-324
    return x


@pytest.mark.parametrize("inside", [0.5, 0.9, 1.0])
def test_a_whole_write_chunk_of_window_values_fallbacks_and_zeros(inside):
    # The chunk simulate formats at once, across rows of 1000 steps, with
    # both ways of giving digits (below and from 7/8 in the window).
    x = mixed(np.random.default_rng(RNG_SEED + 10), cli._WRITE_CHUNK, inside)
    assert_same(x, start=999, n=1000, first=9998)


def test_a_whole_write_chunk_outside_the_window():
    # No value of the chunk is given digits: every line's number is a
    # %.17g text, in fixed and exponent form.
    x = outside(np.random.default_rng(RNG_SEED + 12), cli._WRITE_CHUNK)
    assert not np.any((np.abs(x) >= 1e-4) & (np.abs(x) < 1e16))
    assert_same(x, start=999, n=1000, first=9998)


def test_one_working_set_serves_chunks_of_every_kind():
    # What one chunk leaves in the working set must not show in the next:
    # chunks of the write size and smaller, every share of values in the
    # window, chunks with none in it, and t and r of one to three words, in
    # turn.
    rng = np.random.default_rng(RNG_SEED + 11)
    scratch = _Scratch()
    chunk = cli._WRITE_CHUNK
    cases = [
        (chunk, 1.0, 0, 1000, 0), (chunk, 0.3, 5, 7, 10**5), (100, 0.9, 0, 10**9, 3),
        (chunk, None, 3, 1000, 0), (chunk, 0.1, 17, 20_000, 10**9),
        (chunk - 1, 0.875, 3, 1, 0), (chunk, 0.95, 0, 12345, 7), (1, None, 0, 1, 0),
        (1, 1.0, 0, 1, 0), (chunk, 0.6, chunk, 10**5, 99),
    ]
    for size, inside, start, n, first in cases:
        x = outside(rng, size) if inside is None else mixed(rng, size, inside)
        assert_same(x, start, n, first, scratch)
