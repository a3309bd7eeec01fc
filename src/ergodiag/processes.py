"""Seeded samplers for process models, with exact moment oracles.

Families
--------
``AR1``
    Stationary first-order autoregression with Gaussian innovations,
    ``X_t = phi * X_{t-1} + e_t``, started from the stationary marginal so
    the stationary covariance ``gamma(h) = gamma0 * phi**|h|`` holds from
    ``t = 1`` with no burn-in.
``SPARSE_SPIKES``
    Independent ``X_t`` equal to ``+t**1.5`` or ``-t**1.5`` with probability
    ``t**-2 / 2`` each, else 0.  The mean is 0 at every ``t`` while
    ``Var(X_t) = t``, so the covariance sum grows quadratically: the time
    average converges to 0 in probability but not in mean square.  Fully
    determined, no parameters.  In floats the magnitude is ``t * sqrt(t)``
    and the probability ``1 / (t * t)``, so every CPU draws the same bits.
``COMMON_SHOCK``
    ``X_t = Z + e_t`` with one Gaussian shock ``Z`` shared by the whole path
    plus i.i.d. Gaussian noise.  Every pair of terms is correlated, so the
    time average never concentrates: the canonical quadratic-growth example.
``DRIFTING_MEAN``
    i.i.d. Gaussian noise around a deterministic trend (linear or
    sinusoidal).  The mean sequence need not converge for the time average
    to track it.

Models
------
Each family is one :class:`Model`, registered under its name in
:data:`FAMILIES`, the one list of families (read-only, in the order above).
:class:`ProcessConfig` alone resolves a family's name to its model, or takes
a caller's model.  A model holds

* ``name``, which ``ProcessConfig.to_dict`` writes as the family;
* ``validate(params)``: the checked parameters ``p``, or a ``ValueError``
  naming the parameter at fault.  ``params`` is a mapping (a JSON object)
  and a parameter is any finite real number but a bool (a JSON number; from
  Python, NumPy and ``fractions`` reals too);
* the exact moments ``mean(p, t)`` plus either ``gamma(p, h)`` (stationary
  families) or ``variance(p, t)`` (independent terms), each returning
  floats of its index array's shape.  :func:`build_spec` derives ``cov_fn``
  from them and hands ``gamma`` on as the spec's ``stationary`` and
  ``variance`` as its ``var_fn``;
* ``draw(p, n)``: the block draw and transform described below, whose
  callable runs on the engine's worker threads, on disjoint blocks at once.
  The harness reads a path's first ``m`` values as a path of length ``m``;
* ``checks``: the names of the default checks;
* ``squared_deviation_sd(n, var_an)``: the exact ``sd((A_n - m_n)^2)``
  behind the standard error of every MSE leg and, squared, the
  Paley-Zygmund bounds, and ``max_n``, the longest ``n`` it holds for
  (``None``: any), which :class:`~ergodiag.harness.ExperimentConfig`
  checks ``n_grid`` against.

The base class supplies no parameters, a zero mean, the checks of a
convergent family and the Gaussian ``sqrt(2) * Var(A_n)``, exact for AR1,
COMMON_SHOCK and DRIFTING_MEAN; a non-Gaussian model that keeps it assumes it.
A caller's model is checked when :class:`ProcessConfig` takes it: a name
that is not a non-empty str or is a key of :data:`FAMILIES` held by another
model, neither or both of ``gamma`` and ``variance``, a ``draw`` that is not
callable or an unknown check name raises a ``ValueError`` naming the model's
class and the hook.

Reproducibility
---------------
Each (base seed, replicate) pair maps to its own generator stream through a
fixed 64-bit avalanche mix (:func:`derive_stream`): SplitMix64's finalizer
applied to ``base_seed + (index + 1) * 0x9E3779B97F4A7C15`` (mod 2**64),
with multipliers ``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB``.  The
input map is injective per base seed, so distinct replicates get distinct
streams, and the same inputs give the same stream on every platform.  The
derived value seeds a PCG64 generator.

Draw order is fixed per family: AR1 draws the initial state then the
innovations in ascending time order; SPARSE_SPIKES draws one uniform per
step ascending, partitioned ``[0, p/2) -> +``, ``[p/2, p) -> -``,
``[p, 1) -> 0`` with ``p = 1 / (t * t)``; COMMON_SHOCK draws the shared
shock then the per-step noise; DRIFTING_MEAN draws the per-step noise.

Every sampler goes through one block engine.  A block is a ``(rows, n)``
array: row ``i`` is drawn from its own replicate's stream, in the order
above, straight into the row (``standard_normal(out=row)`` or
``random(out=row)``); the family transform (AR1 filter, spike table, shock
offset, trend) then runs once over the whole block.  :func:`sample_path` is
the one-row case fed by :meth:`RngSeed.generator`.  :func:`sample_blocks`
derives the streams of up to 1024 replicates at once with the same
arithmetic NumPy uses: ``derive_stream``'s finalizer on ``uint64`` arrays,
``SeedSequence``'s pool hash (pool size 4, ``generate_state(4, uint64)``)
on ``uint32`` arrays, and PCG64's ``set_seed`` (two 128-bit LCG steps) in
Python integers.  Each resulting state is loaded into one reused generator
through ``bit_generator.state``, which leaves it exactly as
``RngSeed(base_seed, r).generator()`` would be, so every row is bit for bit
the path :func:`sample_path` returns for that replicate, whichever worker
draws it: the calling thread or one of its helper threads
(:func:`sample_blocks` picks the worker count).  NEP 19 fixes both
the ``SeedSequence`` and the PCG64 streams, and the tests compare the
derived states against ``np.random.PCG64`` itself.

The block size and the default worker count were measured; see
``_BLOCK_ELEMENTS``, ``_THREADED_LENGTH`` and :func:`sample_blocks`.

The AR1 filter
--------------
AR1's recursion ``y_t = phi * y_{t-1} + e_t`` is a first-order linear scan,
which :func:`lfilter` runs in place on the whole block with NumPy alone, so
no family needs scipy.  Each row is cut into segments of ``L`` steps.  The
local recursion of every segment, started from zero, runs for all segments
of all rows at once, one step per NumPy call, on a transposed copy of the
block; AR1's start and innovation scales are multiplied in as the block is
copied, and the copy and the scan's other work arrays can be kept from
block to block (``_Scratch``).  The segment ends are then turned into the
true ends by doubling (Hillis-Steele) with coefficient ``phi**L``,
``phi**(2L)``, ... .  One fix-up pass adds ``phi**(j+1)`` times the
previous segment's end to step ``j`` of each segment.  Two rules keep every
row bit for bit the path :func:`sample_path` draws:

* ``L`` depends on ``n`` only (``min(10, n)``), never on the rows, block
  size or worker count, so a row goes through the same operations in every
  block;
* the scan uses only elementwise float64 multiplications and additions, and
  the powers of ``phi`` are double-double products rounded once (Dekker
  1971), so no bit depends on the CPU, libm or the BLAS build.

The result agrees with the sequential recursion to a few units in the last
place of ``max|y|``, not bit for bit.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .estimators import SamplePath
from .model import ProcessSpec, StationaryCov, _cut, _echo, _integer

__all__ = [
    "FAMILIES",
    "Model",
    "ProcessConfig",
    "RngSeed",
    "derive_stream",
    "build_spec",
    "sample_path",
    "sample_blocks",
    "worker_count",
    "sparse_spike_squared_average_variance",
    "enumerate_squared_average_variance",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Replicates per work unit: one vectorized stream derivation each.  Results
# do not depend on it, nor on the worker count.
_WORK_UNIT = 1024
# Values per block (1 MiB); paths longer than this take one row per block.
# Each transform, check and reduction call covers more rows: 13 at
# n = 10 000, against 6 with 65 536-value blocks and 1 with 8192.  On two
# threads every NumPy call hands the interpreter lock to the other thread.
# The four default ensembles (10 000 replicates, n = 10 000; 2-vCPU Xeon,
# 2 MiB L2 per core; fresh processes, 5 alternating pairs, medians), with
# the AR1 scan's arrays reused from block to block, took 3.72 s on two
# threads against 3.81 s with 65 536-value blocks and per-block arrays (AR1
# 1.20 s against 1.48 s), and 6.26 s against 6.71 s on one thread.  Each
# worker keeps its block and work arrays for the whole call, and the calling
# thread allocates every worker's block, so a helper makes only its work
# arrays.  With each thread allocating its own block, two rounds of the four
# faulted in about 3400 pages on two threads and 2000 on one, against 6000
# and 5000 with per-block arrays.  Measured earlier with
# per-block arrays, 8192-value blocks took 1.06-1.13x the time of 65 536 on
# one thread and 1.14-1.55x on two, and 262 144-value blocks, the size of
# the L2, 0.99-1.15x and 0.97-1.07x.
_BLOCK_ELEMENTS = 131072
# Shortest path sampled on more than one thread by default.  Shorter rows
# spend their time in per-row Python that holds the interpreter lock.
# Measured as above, two threads took 1.28-1.60x the time of one at n = 100.
# Measured again with the AR1 scan and flat spike indices, they took
# 1.04-2.01x at n = 300, 0.75-0.83x at n = 1000 (1.15x for SPARSE_SPIKES),
# 0.59-0.68x at n = 3000 (1.03x for SPARSE_SPIKES) and 0.54-0.72x at
# n = 10 000.  With 131 072-value blocks (10 000 replicates, medians of 7
# alternating repeats) they took 0.72-0.81x at n = 1000 and 0.60-0.70x at
# n = 3000, except SPARSE_SPIKES: 1.11x and 1.13x, against 1.58x and 1.47x
# with 65 536-value blocks on the same day.  With the calling thread as one
# of two workers (10 000 replicates; medians of 11, 21 and 21 alternating
# repeats), SPARSE_SPIKES took 1.37-1.64x the one-worker time at n = 1000,
# against 1.24-1.57x with two pool threads on the same day, and 1.32x at
# n = 3000; AR1, COMMON_SHOCK and DRIFTING_MEAN took 0.79-0.94x at n = 1000
# and 0.67-0.70x at n = 3000.  One threshold serves every family until the
# stages of each are timed apart.
_THREADED_LENGTH = 1000

# NumPy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SS_POOL = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


# Steps per segment of the AR1 scan.  On 65 536-value blocks ((rows, n) =
# (655, 100), (65, 1000), (6, 10 000)) and on one 2e5-step row, the scan took
# 0.59-0.89x the time per value of scipy.signal.lfilter (medians of 300
# interleaved calls, 2-vCPU Xeon).  In the same kind of run 8, 12, 16 and 24
# were slower than 10 on these shapes, by up to 2.1x, because their
# transposed copies are slower; 20 was within 10% of 10 on them but took
# 2.7x its time at n = 30, which it pads to 40.
_SCAN_SEGMENT = 10
# 2**27 + 1: Veltkamp's splitting constant for float64.
_SPLIT = np.float64(134217729.0)


def _two_product(a, b) -> tuple:
    """Dekker's exact product ``p + e == a * b``, elementwise, of float64
    scalars or arrays: multiplications and additions only, one ufunc call
    each, so no multiply-add is contracted."""
    p = a * b
    ca, cb = _SPLIT * a, _SPLIT * b
    a_hi, b_hi = ca - (ca - a), cb - (cb - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's halves of the doubles ``b``, as :func:`_two_product` splits
    a factor, for tables of factors."""
    cb = _SPLIT * b
    hi = cb - (cb - b)
    return hi, b - hi


def _exact_product(
    a: np.ndarray, b: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray,
    p: np.ndarray, e: np.ndarray, a_hi: np.ndarray, a_lo: np.ndarray,
) -> None:
    """:func:`_two_product` of the arrays ``a`` and ``b`` into ``p`` and
    ``e``, given the halves of ``b`` from :func:`_split`: the same operations
    in the same order, into the caller's arrays.  ``a_hi``, ``a_lo``,
    ``b_hi`` and ``b_lo`` are overwritten, and ``b`` may be ``e``."""
    np.multiply(a, b, out=p)
    np.multiply(_SPLIT, a, out=a_hi)
    np.subtract(a_hi, a, out=a_lo)
    np.subtract(a_hi, a_lo, out=a_hi)
    np.subtract(a, a_hi, out=a_lo)
    np.multiply(a_hi, b_hi, out=e)
    e -= p
    e += np.multiply(a_hi, b_lo, out=a_hi)
    e += np.multiply(a_lo, b_hi, out=b_hi)
    e += np.multiply(a_lo, b_lo, out=a_lo)


def _dd_mul(x: tuple, y: tuple) -> tuple:
    """Product of two double-double numbers ``(hi, lo)``, with Dekker's exact
    product of the high parts: float64 multiplications and additions only."""
    (xh, xl), (yh, yl) = x, y
    p, e = _two_product(xh, yh)
    e = e + (xh * yl + xl * yh)
    hi = p + e
    return hi, e - (hi - p)


@lru_cache(maxsize=8)
def _scan_powers(phi: float, n: int) -> tuple[np.ndarray, tuple[np.float64, ...]]:
    """``phi**1 .. phi**L`` and the doubling coefficients ``phi**(L * 2**k)``
    of a length-``n`` scan, each a double-double product rounded once."""
    length = min(_SCAN_SEGMENT, n)
    base = (np.float64(phi), np.float64(0.0))
    power, powers = base, [base[0]]
    for _ in range(length - 1):
        power = _dd_mul(power, base)
        powers.append(power[0])
    segments, doubling, shift = -(-n // length), [], 1
    while shift < segments - 1:
        doubling.append(power[0])
        power = _dd_mul(power, power)
        shift *= 2
    table = np.array(powers)
    table.flags.writeable = False  # the cache hands it to every thread
    return table, tuple(doubling)


class _Scratch:
    """Work arrays that one caller reuses from block to block.

    ``take(key, shape, dtype)`` returns a C-contiguous ``dtype`` view of
    ``shape`` (float64 by default) at the front of the bytes kept under
    ``key``, which grow to the largest size asked of them.  The view holds
    whatever the last block left there, and one key may serve arrays of
    different dtypes whose uses do not overlap.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        array = self._arrays.get(key)
        if array is not None:
            try:
                return np.ndarray(shape, dtype, array)
            except TypeError:  # the bytes kept are too few
                pass
        array = self._arrays[key] = np.empty(math.prod(shape) * np.dtype(dtype).itemsize, np.uint8)
        return np.ndarray(shape, dtype, array)


def lfilter(
    block: np.ndarray,
    phi: float,
    scale: tuple[float, float] = (1.0, 1.0),
    scratch: _Scratch | None = None,
) -> None:
    """Run ``block[:, t] = phi * block[:, t-1] + block[:, t]`` for ``t >= 1``
    on every row, in place, as the blocked scan of the module docstring.

    The recursion's input is ``scale[0]`` times step 0 and ``scale[1]``
    times every later step, multiplied in as the block is copied into the
    scan (a factor of 1.0 changes no bit).  ``scratch`` holds the scan's
    work arrays; by default they are allocated for this call.
    """
    first, rest = scale
    rows, n = block.shape
    if n == 1:
        np.multiply(block, first, out=block)
        return
    powers, doubling = _scan_powers(phi, n)
    length = len(powers)
    whole, tail = divmod(n, length)
    segments = whole + (tail > 0)
    cells = rows * segments
    if scratch is None:
        scratch = _Scratch()
    # scan[j, i * S + s] = grid[j, i, s] is step j of segment s of row i, so
    # each step of the recursion is one row of scan.  Splitting the last
    # axis of block makes views of it, also of a strided block.
    scan = scratch.take("scan", (length, cells))
    grid = scan.reshape(length, rows, segments)
    pieces = [(
        block[:, : whole * length].reshape(rows, whole, length).transpose(2, 0, 1),
        grid[:, :, :whole],
    )]
    if tail:
        # The last segment is padded with zeros, which reach no step of the row.
        pieces.append((block[:, whole * length :].T, grid[:tail, :, whole]))
        grid[tail:, :, whole] = 0.0
    for source, target in pieces:
        np.multiply(source, rest, out=target)
    np.multiply(block[:, 0], first, out=grid[0, :, 0])
    step = scratch.take("step", (cells,))
    for j in range(1, length):
        np.multiply(scan[j - 1], phi, out=step)
        np.add(scan[j], step, out=scan[j])
    if segments > 1:
        # carry[s, i]: the local end of segment s - 1 of row i (0 for s = 0),
        # which the doubling turns into the true end in place.  Doubling
        # along the rows of this flat layout took a third of the time of
        # doubling along the segments of a (rows, segments) one.
        carry = scratch.take("carry", (segments, rows))
        carry[0] = 0.0
        carry[1:] = grid[-1, :, :-1].T
        ends = carry[1:].reshape(-1)
        shifted = step[: ends.size]  # step is not read again until the fix-up
        shift = rows
        for coefficient in doubling:
            np.multiply(ends[:-shift], coefficient, out=shifted[:-shift])
            np.add(ends[shift:], shifted[:-shift], out=ends[shift:])
            shift *= 2
        # The carries in the cell order of scan.
        carried = scratch.take("carried", (rows, segments))
        carried[...] = carry.T
        carried = carried.reshape(cells)
        for j in range(length):
            np.multiply(carried, powers[j], out=step)
            np.add(scan[j], step, out=scan[j])
    for source, target in pieces:
        source[...] = target


def derive_stream(base_seed: int, index: int) -> int:
    """The 64-bit stream seed of (base_seed, index): SplitMix64's finalizer,
    injective in ``index`` (see "Reproducibility" in the module docstring)."""
    base_seed = _integer(base_seed, "base_seed", 0, _MASK64)
    index = _integer(index, "index", 0, _MASK64)
    z = (base_seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngSeed:
    """Seed of one replicate stream: a base seed plus a replicate index."""

    base_seed: int
    replicate: int = 0

    def stream_seed(self) -> int:
        return derive_stream(self.base_seed, self.replicate)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.stream_seed()))


def _hash_constants(init: int, mult: int, steps: int) -> list[np.uint32]:
    """The ``hash_const`` sequence of ``steps`` SeedSequence hash steps."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    return [np.uint32(c) for c in consts]


# Filling the pool hashes each word once, mixing hashes every ordered pair of
# distinct words; generate_state(4, uint64) hashes out eight uint32 words.
_HASH_A = _hash_constants(_SS_INIT_A, _SS_MULT_A, _SS_POOL * _SS_POOL)
_HASH_B = _hash_constants(_SS_INIT_B, _SS_MULT_B, 2 * _SS_POOL)


def _hashmix(value: np.ndarray, consts: list[np.uint32], step: int) -> np.ndarray:
    value = (value ^ consts[step]) * consts[step + 1]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _SS_MIX_L * x - _SS_MIX_R * y
    return result ^ (result >> np.uint32(16))


def _stream_states(base_seed: int, start: int, count: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``RngSeed(base_seed, r).generator()``.

    One pair per replicate ``r`` in ``[start, start + count)``, computed for
    all of them at once (see the module docstring).
    """
    base_seed = _integer(base_seed, "base_seed", 0, _MASK64)
    start = _integer(start, "start", 0, _MASK64)
    # Replicate indices are u64: the last is start + count - 1.
    count = _integer(count, "count", 0, (1 << 64) - start)
    u64 = np.uint64
    z = u64(base_seed) + (u64(start) + np.arange(count, dtype=u64) + u64(1)) * u64(_GOLDEN)
    z = (z ^ (z >> u64(30))) * u64(_MIX1)
    z = (z ^ (z >> u64(27))) * u64(_MIX2)
    z ^= z >> u64(31)

    # SeedSequence(z): the entropy is z's two little-endian uint32 words
    # (a word of 0 hashes the same as a missing word), zero-padded to the pool.
    zero = np.zeros(count, dtype=np.uint32)
    low, high = (z & u64(_MASK32)).astype(np.uint32), (z >> u64(32)).astype(np.uint32)
    pool = [low, high, zero, zero]
    step = 0
    for i in range(_SS_POOL):
        pool[i] = _hashmix(pool[i], _HASH_A, step)
        step += 1
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A, step))
                step += 1
    words = [
        _hashmix(pool[i % _SS_POOL], _HASH_B, i).astype(u64) for i in range(2 * _SS_POOL)
    ]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[2 * j] | (words[2 * j + 1] << u64(32))).tolist() for j in range(4)
    )

    # PCG64 set_seed: state = 0, inc = 2 * initseq + 1, step, add the
    # initial state, step.
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _reseeded(
    rng: np.random.Generator, states: Iterable[tuple[int, int]]
) -> Iterator[np.random.Generator]:
    """Yield ``rng`` once per state, loaded with that PCG64 state."""
    bit_generator = rng.bit_generator
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _number(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {_echo(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is past the float range") from None


def _require_number(params: Mapping, key: str, prefix: str = "") -> float:
    name = prefix + key
    if key not in params:
        raise ValueError(f"missing required parameter {name!r}")
    value = _number(params[key], name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _reject_unknown(
    mapping: Mapping, allowed: set[str], what: str = "parameter(s)", prefix: str = ""
) -> None:
    unknown = set(mapping) - allowed
    # A key that is not a string (from Python only) is shown by its repr.
    names = sorted(prefix + (k if isinstance(k, str) else repr(k)) for k in unknown)
    if names:
        raise ValueError(f"unknown {what}: {_cut(', '.join(names), f'{len(names)} names')}")


class Model:
    """A process model; see "Models" in the module docstring."""

    name: str
    checks = ("VARIANCE_IDENTITY", "L2_CONVERGENCE", "WLLN", "BOUNDS")
    gamma: Callable | None = None
    variance: Callable | None = None
    max_n: int | None = None

    def validate(self, params: Mapping) -> dict:
        _reject_unknown(params, set())
        return {}

    def mean(self, p: dict, t) -> np.ndarray:
        return np.zeros(np.shape(t))

    def cov(self, p: dict, t, s) -> np.ndarray:
        t, s = np.asarray(t), np.asarray(s)
        if self.gamma is not None:
            return self.gamma(p, np.abs(t - s))
        return np.where(np.equal(t, s), self.variance(p, t), 0.0)

    def squared_deviation_sd(self, n: int, var_an: float) -> float:
        # A_n - m_n is Gaussian with mean 0, so its square has sd sqrt(2) Var(A_n).
        return math.sqrt(2.0) * var_an


def _ar1_zero_lag(phi: float) -> int:
    """AR1's zero lag: the lag ``H`` from which ``phi**h`` is exactly 0.0.

    ``H = ceil(1080 / -log2|phi|)``, and 1 for ``phi == 0`` (``phi**0`` is
    1).  From ``H`` on, ``|phi|**h`` is at most about ``2**-1080``, below
    half the least subnormal (``2**-1075``), so a correctly rounded ``pow``
    returns 0.0; the 5 binary orders of margin cover the rounding of
    ``log2`` and of the division.  ``H`` is 1757 at ``phi = 0.653``, 3355 at
    0.8 and 748 225 at 0.999.
    """
    if phi == 0.0:
        return 1
    return math.ceil(1080.0 / -math.log2(abs(phi)))


class _AR1(Model):
    name = "AR1"
    def validate(self, params: Mapping) -> dict:
        _reject_unknown(params, {"phi", "gamma0"})
        phi = _require_number(params, "phi")
        gamma0 = _require_number(params, "gamma0")
        if not -1.0 < phi < 1.0:
            raise ValueError(f"phi must be in (-1, 1), got {phi}")
        if gamma0 <= 0:
            raise ValueError(f"gamma0 must be > 0, got {gamma0}")
        return {"phi": phi, "gamma0": gamma0}

    def gamma(self, p: dict, h) -> np.ndarray:
        # gamma0 * phi**|h|, with pow called only below the zero lag; past
        # it the lag keeps the 0.0 of np.zeros.  That zero differs from
        # gamma0 * phi**h only in its sign (phi < 0, odd h), and adding +-0
        # to a nonzero partial sum is exact, so V_n and tau keep every bit.
        h = np.absolute(h)
        out = np.zeros(h.shape)
        live = h < _ar1_zero_lag(p["phi"])
        out[live] = p["gamma0"] * p["phi"] ** h[live]
        return out

    def draw(self, p: dict, n: int) -> Callable:
        phi, gamma0 = p["phi"], p["gamma0"]
        x1_scale = math.sqrt(gamma0)
        innov_scale = math.sqrt(gamma0 * (1.0 - phi * phi))

        def draw(rngs, block, scratch):
            for row, rng in zip(block, rngs):
                rng.standard_normal(out=row)
            lfilter(block, phi, (x1_scale, innov_scale), scratch)

        return draw


@lru_cache(maxsize=8)
def _spike_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``p / 2``, ``p = 1 / (t * t)`` and the magnitude ``t * sqrt(t)`` for
    ``t = 1 .. n``.  Each is one or two correctly rounded IEEE operations
    (``t * t`` is exact for ``t <= max_n``), so no bit depends on the CPU:
    NumPy's ``pow`` gives different last bits under different SIMD
    dispatch.  ``p`` is the correctly rounded ``t**-2``; the magnitude is
    within one unit in the last place of ``t**1.5``."""
    # The cache hands these arrays to every caller and thread: read-only.
    t = np.arange(1, n + 1, dtype=float)
    prob = 1.0 / (t * t)
    tables = (0.5 * prob, prob, t * np.sqrt(t))
    for table in tables:
        table.flags.writeable = False
    return tables


class _SparseSpikes(Model):
    name = "SPARSE_SPIKES"
    checks = ("VARIANCE_IDENTITY", "WLLN", "BOUNDS")
    max_n = 10**6

    def variance(self, p: dict, t) -> np.ndarray:
        return np.asarray(t, dtype=float)

    def draw(self, p: dict, n: int) -> Callable:
        half_prob, prob, magnitude = _spike_tables(n)

        def draw(rngs, block, scratch):
            for row, rng in zip(block, rngs):
                rng.random(out=row)
            # A row has about sum(t**-2) < 1.65 steps below p: scatter their
            # signed magnitudes into zeros, the same partition as above.
            # flatnonzero and t = index % n: about 4x faster than 2-d nonzero.
            hits = np.flatnonzero(block < prob)
            t = hits % n
            u = block.flat[hits]
            block.fill(0.0)
            block.flat[hits] = np.where(u < half_prob[t], magnitude[t], -magnitude[t])

        return draw

    def squared_deviation_sd(self, n: int, var_an: float) -> float:
        return math.sqrt(sparse_spike_squared_average_variance(n))


class _CommonShock(Model):
    name = "COMMON_SHOCK"
    checks = ("VARIANCE_IDENTITY", "NONCONVERGENCE", "BOUNDS")

    def validate(self, params: Mapping) -> dict:
        _reject_unknown(params, {"sigma_z", "sigma_eps"})
        sigma_z = _require_number(params, "sigma_z")
        sigma_eps = _require_number(params, "sigma_eps")
        if sigma_z <= 0:
            raise ValueError(f"sigma_z must be > 0, got {sigma_z}")
        if sigma_eps < 0:
            raise ValueError(f"sigma_eps must be >= 0, got {sigma_eps}")
        return {"sigma_z": sigma_z, "sigma_eps": sigma_eps}

    def gamma(self, p: dict, h) -> np.ndarray:
        # numpy scalars: a square out of the float range is inf, not an error.
        z2, e2 = np.float64(p["sigma_z"]) ** 2, np.float64(p["sigma_eps"]) ** 2
        zero = np.equal(h, 0)
        out = np.empty(zero.shape)
        out.fill(z2)
        out[zero] = z2 + e2
        return out

    def draw(self, p: dict, n: int) -> Callable:
        def draw(rngs, block, scratch):
            shock = np.empty(block.shape[0])
            for i, (row, rng) in enumerate(zip(block, rngs)):
                shock[i] = rng.standard_normal()
                rng.standard_normal(out=row)
            block *= p["sigma_eps"]
            block += (p["sigma_z"] * shock)[:, None]

        return draw


_TREND_KINDS = ("LINEAR", "SINUSOID")


def _validate_trend(trend: object) -> dict:
    if not isinstance(trend, Mapping):
        raise ValueError(f"trend must be a mapping with a 'kind' key, got {_echo(trend)}")
    kind = trend.get("kind")
    if kind not in _TREND_KINDS:
        raise ValueError(f"trend.kind must be one of {_TREND_KINDS}, got {_echo(kind)}")
    if kind == "LINEAR":
        _reject_unknown(trend, {"kind", "a", "b"}, prefix="trend.")
        return {
            "kind": "LINEAR",
            "a": _require_number(trend, "a", prefix="trend."),
            "b": _require_number(trend, "b", prefix="trend."),
        }
    _reject_unknown(trend, {"kind", "amplitude", "period"}, prefix="trend.")
    period = _require_number(trend, "period", prefix="trend.")
    if period <= 0:
        raise ValueError(f"trend.period must be > 0, got {period}")
    return {
        "kind": "SINUSOID",
        "amplitude": _require_number(trend, "amplitude", prefix="trend."),
        "period": period,
    }


class _DriftingMean(Model):
    name = "DRIFTING_MEAN"
    def validate(self, params: Mapping) -> dict:
        _reject_unknown(params, {"trend", "noise_sd"})
        if "trend" not in params:
            raise ValueError("missing required parameter 'trend'")
        noise_sd = _require_number(params, "noise_sd")
        if noise_sd <= 0:
            raise ValueError(f"noise_sd must be > 0, got {noise_sd}")
        return {"trend": _validate_trend(params["trend"]), "noise_sd": noise_sd}

    def mean(self, p: dict, t) -> np.ndarray:
        trend, t = p["trend"], np.asarray(t, dtype=float)
        if trend["kind"] == "LINEAR":
            return trend["a"] + trend["b"] * t
        return trend["amplitude"] * np.sin(2.0 * np.pi * t / trend["period"])

    def variance(self, p: dict, t) -> np.ndarray:
        return np.full(np.shape(t), np.float64(p["noise_sd"]) ** 2)

    def draw(self, p: dict, n: int) -> Callable:
        trend = self.mean(p, np.arange(1, n + 1, dtype=np.int64))

        def draw(rngs, block, scratch):
            for row, rng in zip(block, rngs):
                rng.standard_normal(out=row)
            block *= p["noise_sd"]
            block += trend

        return draw


FAMILIES: Mapping[str, Model] = MappingProxyType({
    model.name: model
    for model in (_AR1(), _SparseSpikes(), _CommonShock(), _DriftingMean())
})


def _model(family: object) -> Model:
    """The model ``family`` names, by the rule of :class:`ProcessConfig`."""
    if isinstance(family, Model):
        return _checked(family)
    if isinstance(family, str) and family in FAMILIES:
        return FAMILIES[family]
    raise ValueError(f"family must be one of {list(FAMILIES)}, got {_echo(family)}")


def _checked(model: Model) -> Model:
    """``model``, else a ``ValueError`` naming its class and the hook at
    fault: ``name`` must be a non-empty str that no other model in
    :data:`FAMILIES` holds, exactly one of ``gamma`` and ``variance`` must be
    set, ``draw`` must be callable and every name in ``checks`` must be a
    check."""
    from .harness import Check  # harness imports this module

    who = f"model {type(model).__name__}"
    name = getattr(model, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"{who}: name must be a non-empty str, got {_echo(name)}")
    if FAMILIES.get(name, model) is not model:
        raise ValueError(f"{who}: name {_echo(name)} is taken by a registered family")
    if (model.gamma is None) == (model.variance is None):
        got = "neither" if model.gamma is None else "both"
        raise ValueError(f"{who}: exactly one of gamma and variance must be set, got {got}")
    if not callable(getattr(model, "draw", None)):
        raise ValueError(f"{who}: draw must be callable")
    valid = [c.value for c in Check]
    for check in model.checks:
        if check not in valid:
            raise ValueError(f"{who}: unknown check {_echo(check)}; valid checks: {valid}")
    return model


@dataclass(frozen=True)
class ProcessConfig:
    """A process model plus its validated parameters: ``family`` is a
    :class:`Model`, or a name in :data:`FAMILIES`, resolved into ``model``.
    ``family`` is kept as given; equality compares ``model`` and ``params``."""

    family: str | Model = field(compare=False)
    params: dict = field(default_factory=dict)
    model: Model = field(init=False, repr=False)

    def __post_init__(self) -> None:
        model = _model(self.family)
        object.__setattr__(self, "model", model)
        if not isinstance(self.params, Mapping):
            raise ValueError(f"params must be a mapping, got {_echo(self.params)}")
        object.__setattr__(self, "params", model.validate(self.params))

    def to_dict(self) -> dict:
        return {"family": self.model.name, "params": dict(self.params)}


def build_spec(config: ProcessConfig) -> ProcessSpec:
    """Exact mean and covariance functions for a configured model."""
    model, p = config.model, config.params
    gamma, variance = model.gamma, model.variance
    return ProcessSpec(
        mean_fn=partial(model.mean, p),
        cov_fn=partial(model.cov, p),
        stationary=None if gamma is None else StationaryCov(gamma=partial(gamma, p)),
        var_fn=None if variance is None else partial(variance, p),
    )


def _block_sampler(config: ProcessConfig, n: int) -> Callable[..., None]:
    """The model's sampler for blocks of paths of length ``n``.

    ``sample(rngs, block, scratch=None)`` draws row ``i`` of ``block`` from
    the ``i``-th generator of ``rngs``, in the documented order, then
    applies the family transform to the whole block in place, with its work
    arrays in ``scratch`` (allocated for the call by default).  The tables
    it needs are built here, once.  Values out of the float range raise one
    ``ValueError`` naming the model and ``n``, with no numpy warning before
    it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        draw = config.model.draw(config.params, n)

    def sample(rngs, block, scratch=None):
        # errstate is per thread, so it is set in the thread that draws.
        with np.errstate(over="ignore", invalid="ignore"):
            draw(rngs, block, scratch)
        if not np.isfinite(block).all():
            raise ValueError(
                f"{config.model.name} paths of length n={n}: values must be "
                "finite (no NaN or inf); scale the process down"
            )

    return sample


def _require_in_memory(count: int, what: str) -> None:
    """Raise ValueError when ``count`` floats exceed the host's physical memory.

    ``what`` names the input at fault and the array it sizes.
    """
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if 8 * count > memory:
        raise ValueError(
            f"{what} would take {8 * count} bytes, more than the {memory} bytes of "
            "physical memory"
        )


def sample_path(config: ProcessConfig, n: int, seed: RngSeed) -> SamplePath:
    """Sample one trajectory of length ``n``, deterministically from ``seed``."""
    n = _integer(n, "n", 1)
    values = np.empty((1, n), dtype=float)
    _block_sampler(config, n)([seed.generator()], values)
    return SamplePath(values=values[0])


def worker_count() -> int:
    """Usable CPUs: the size of the CPU affinity mask, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_blocks(
    config: ProcessConfig,
    n: int,
    base_seed: int,
    replicates: int,
    consume: Callable[[int, np.ndarray], None],
    *,
    max_workers: int | None = None,
) -> None:
    """Sample replicates ``0 .. replicates - 1`` block by block.

    Calls ``consume(first, block)`` once per block: row ``i`` of ``block``
    is the path of ``RngSeed(base_seed, first + i)``, bit for bit what
    :func:`sample_path` returns for it.  A block holds at most 131 072
    values (one row when ``n`` is longer) and is reused once ``consume``
    returns, so ``consume`` must copy or reduce it.  Replicates are split
    into work units of 1024 indices, which ``min(max_workers, work units)``
    workers take in turn: the calling thread and, when there are more
    workers, a pool of ``workers - 1`` helper threads.  The calling thread
    allocates every worker's block; each worker keeps its block, one
    generator and the transform's work arrays for all its units, and all
    are freed before this function returns.  By default ``max_workers`` is
    :func:`worker_count` for ``n >= 1000`` and 1 for shorter rows, where two
    threads ran slower than one (see ``_THREADED_LENGTH``).  ``consume``
    runs on every worker, for disjoint replicate ranges; with one worker,
    blocks arrive in replicate order.  Once ``consume`` or the sampling
    raises on any worker, every worker stops before its next block, and the
    first exception is raised when all have stopped.  No result depends on
    the block size, the work unit or the worker count.
    """
    n = _integer(n, "n", 1)
    base_seed = _integer(base_seed, "base_seed", 0, _MASK64)
    # Replicate indices are u64.
    replicates = _integer(replicates, "replicates", 1, 1 << 64)
    if max_workers is None:
        max_workers = worker_count() if n >= _THREADED_LENGTH else 1
    max_workers = _integer(max_workers, "max_workers", 1)
    sample = _block_sampler(config, n)
    rows = max(1, _BLOCK_ELEMENTS // n)

    # Work unit k holds replicates [1024 k, 1024 (k + 1)), clipped to the range.
    # The workers take them in turn from one iterator, in O(1) memory.
    units = range(0, replicates, _WORK_UNIT)
    pending = iter(units)
    lock = threading.Lock()
    # Set by the first work() that raises: every worker stops before its
    # next block, and failures[0] is raised once all have stopped.
    stop = threading.Event()
    failures: list[BaseException] = []

    def work(buffer: np.ndarray) -> None:
        # Runs work units until none is left or a worker has failed.  The
        # block and the transform's work arrays are reused for every block
        # of them, and freed when sample_blocks returns.
        try:
            rng = np.random.Generator(np.random.PCG64(0))  # re-seeded for every row
            scratch = _Scratch()
            while True:
                with lock:
                    lo = next(pending, None)
                if lo is None:
                    return
                states = _stream_states(base_seed, lo, min(lo + _WORK_UNIT, replicates) - lo)
                for offset in range(0, len(states), rows):
                    if stop.is_set():
                        return
                    chunk = states[offset : offset + rows]
                    block = buffer[: len(chunk)]
                    sample(_reseeded(rng, chunk), block, scratch)
                    consume(lo + offset, block)
        except BaseException as failure:  # raised below, also an interrupt
            failures.append(failure)
            stop.set()

    # The calling thread is a worker, with workers - 1 helpers.  It allocates
    # every worker's block, so no helper makes one on its own malloc arena.
    workers = min(max_workers, len(units))
    buffers = [
        np.empty((min(rows, _WORK_UNIT, replicates), n), dtype=float) for _ in range(workers)
    ]
    # Leaving the block waits for the helpers, which stop once work() fails.
    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        for buffer in buffers[1:]:
            pool.submit(work, buffer)
        work(buffers[0])
    if failures:
        raise failures[0]


def sparse_spike_squared_average_variance(n: int) -> float:
    """Exact ``Var(A_n^2)`` for the sparse-spike process.

    Expanding ``(sum X_t)^2`` and using independence, the only surviving
    terms are the per-index ``Var(X_t^2) = t^4 - t^2`` and, for each pair
    ``t < s``, ``Var(2 X_t X_s) = 4 t s``:

        Var(A_n^2) = n**-4 * [ sum_t (t^4 - t^2) + 4 * sum_{t<s} t*s ]

    Computed in exact integer arithmetic, then divided once, so the result
    is the correctly rounded float for any ``n <= 10**6``.  Grows like
    ``n / 5``, while ``Var(A_n)^2`` stays bounded: the fluctuations of the
    squared average blow up even though the average itself settles down.
    """
    n = _integer(n, "n", 1, _SparseSpikes.max_n)
    sum_t = n * (n + 1) // 2
    sum_t2 = n * (n + 1) * (2 * n + 1) // 6
    sum_t4 = n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1) // 30
    cross = (sum_t * sum_t - sum_t2) // 2
    return (sum_t4 - sum_t2 + 4 * cross) / n**4


def enumerate_squared_average_variance(n: int) -> float:
    """``Var(A_n^2)`` by exhaustive enumeration of the joint outcome space.

    Each ``X_t`` takes one of three values, so the joint space has ``3**n``
    points; this is the brute-force cross-check for
    :func:`sparse_spike_squared_average_variance` and is capped at ``n <= 8``.
    """
    from fractions import Fraction  # imported here: no command needs it

    n = _integer(n, "n", 1, 8)
    values, probs = [], []
    for t in range(1, n + 1):
        p = Fraction(1, 2 * t * t)
        magnitude = t * math.sqrt(t)
        values.append((magnitude, -magnitude, 0.0))
        probs.append((p, p, 1 - 2 * p))

    second_terms, fourth_terms = [], []
    for combo in itertools.product(range(3), repeat=n):
        prob = math.prod(probs[t][i] for t, i in enumerate(combo))
        if prob == 0:
            continue
        a = math.fsum(values[t][i] for t, i in enumerate(combo)) / n
        a2 = a * a
        weight = float(prob)
        second_terms.append(weight * a2)
        fourth_terms.append(weight * a2 * a2)
    second = math.fsum(second_terms)
    fourth = math.fsum(fourth_terms)
    return fourth - second * second
