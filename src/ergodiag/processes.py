"""Seeded samplers for four process families, with exact moment oracles.

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
    determined, no parameters.
``COMMON_SHOCK``
    ``X_t = Z + e_t`` with one Gaussian shock ``Z`` shared by the whole path
    plus i.i.d. Gaussian noise.  Every pair of terms is correlated, so the
    time average never concentrates: the canonical quadratic-growth example.
``DRIFTING_MEAN``
    i.i.d. Gaussian noise around a deterministic trend (linear or
    sinusoidal).  The mean sequence need not converge for the time average
    to track it.

Gaussian innovations are a deliberate choice for the three noise-driven
families: only first and second moments are constrained by the model, and
Gaussianity gives the common-shock family the exact fourth-moment relation
``Var(A_n^2) = 2 * Var(A_n)^2`` used by the non-convergence diagnostics.

Definitions
-----------
Each family is one definition, a ``_Definition`` subclass found through the
one ``Family -> definition`` table ``_FAMILIES``.  A definition holds

* ``validate(params)``: the checked parameters ``p``, or a ``ValueError``
  naming the parameter at fault;
* the exact moments ``mean(p, t)`` plus either ``gamma(p, h)`` (stationary
  families) or ``variance(p, t)`` (independent terms), from which
  :func:`build_spec` derives ``cov_fn`` and the ``diagonal`` flag;
* ``draw(p, n)``: the block draw and transform described below;
* ``checks``: the names of the default checks;
* ``squared_deviation_variance(n, var_an)``: the exact
  ``Var((A_n - m_n)^2)`` behind the Paley-Zygmund bounds, and ``max_n``,
  the longest ``n`` it holds for (``None``: any), which
  :class:`~ergodiag.harness.ExperimentConfig` checks ``n_grid`` against.

The base class supplies no parameters, a zero mean, the checks of a
convergent family and the Gaussian ``2 * Var(A_n)^2``.

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
``[p, 1) -> 0`` with ``p = t**-2``; COMMON_SHOCK draws the shared shock then
the per-step noise; DRIFTING_MEAN draws the per-step noise.

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
the path :func:`sample_path` returns for that replicate, whichever thread
draws it (:func:`sample_blocks` picks the worker count).  NEP 19 fixes both
the ``SeedSequence`` and the PCG64 streams, and the tests compare the
derived states against ``np.random.PCG64`` itself.

A block holds up to 65 536 values (512 KiB), so the rows of short paths
share each NumPy call; larger blocks were not faster at short lengths.  By
default paths of 1000 or more steps are sampled on one thread per usable
CPU and shorter ones on one thread, because their per-row Python holds the
interpreter lock.  Both numbers were measured; see their constants.

The AR1 filter
--------------
AR1's recursion ``y_t = phi * y_{t-1} + e_t`` is a first-order linear scan,
which :func:`lfilter` runs in place on the whole block with NumPy alone, so
no family needs scipy.  Each row is cut into segments of ``L`` steps.  The
local recursion of every segment, started from zero, runs for all segments
of all rows at once, one step per NumPy call, on a transposed copy of the
block.  The segment ends are then turned into the true ends by doubling
(Hillis-Steele) with coefficient ``phi**L``, ``phi**(2L)``, ... .  One
fix-up pass adds ``phi**(j+1)`` times the previous segment's end to step
``j`` of each segment.  Two rules keep every row bit for bit the path
:func:`sample_path` draws:

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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .estimators import SamplePath
from .model import ProcessSpec, StationaryCov, _check_n

__all__ = [
    "Family",
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

# Replicates per work unit: one generator and one vectorized stream
# derivation each.  Results do not depend on it, nor on the worker count.
_WORK_UNIT = 1024
# Values per block (512 KiB); paths longer than this take one row per block.
# Each transform and reduction call covers more rows (6 at n = 10 000, where
# 8192-value blocks held 1).  Sampling and reducing (``block.sum(axis=1)``)
# the four families at 10 000 replicates, n = 100, 300, 1000, 3000 and
# 10 000 (2-vCPU Xeon, 2 MiB L2 per core; medians of 7 alternating
# repeats), 8192-value blocks took 1.06-1.13x the time on one thread and
# 1.14-1.55x on two; 262 144-value blocks, the size of the L2, took
# 0.99-1.15x and 0.97-1.07x.  In a fresh process the block and its
# temporaries lie above glibc's mmap threshold, so they are faulted in
# afresh: about 3900-4100 minor faults for 4 x 10 000 paths of n = 100, 1000
# or 10 000 on one thread, against 160-220 with 8192-value blocks.  The
# times above were taken in one process, where freed larger blocks had
# raised glibc's dynamic threshold, so they do not include these faults.
_BLOCK_ELEMENTS = 65536
# Shortest path sampled on more than one thread by default.  Shorter rows
# spend their time in per-row Python that holds the interpreter lock.
# Measured as above, two threads took 1.28-1.60x the time of one at n = 100.
# Measured again with the AR1 scan and flat spike indices, they took
# 1.04-2.01x at n = 300, 0.75-0.83x at n = 1000 (1.15x for SPARSE_SPIKES),
# 0.59-0.68x at n = 3000 (1.03x for SPARSE_SPIKES) and 0.54-0.72x at
# n = 10 000.
_THREADED_LENGTH = 1000

# NumPy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SS_POOL = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


# Steps per segment of the AR1 scan.  On the engine's blocks ((rows, n) =
# (655, 100), (65, 1000), (6, 10 000)) and on one 2e5-step row, the scan took
# 0.59-0.89x the time per value of scipy.signal.lfilter (medians of 300
# interleaved calls, 2-vCPU Xeon).  In the same kind of run 8, 12, 16 and 24
# were slower than 10 on these shapes, by up to 2.1x, because their
# transposed copies are slower; 20 was within 10% of 10 on them but took
# 2.7x its time at n = 30, which it pads to 40.
_SCAN_SEGMENT = 10
# 2**27 + 1: Veltkamp's splitting constant for float64.
_SPLIT = np.float64(134217729.0)


def _dd_mul(x: tuple, y: tuple) -> tuple:
    """Product of two double-double numbers ``(hi, lo)``, with Dekker's exact
    product of the high parts: float64 multiplications and additions only."""
    (xh, xl), (yh, yl) = x, y
    p = xh * yh
    cx, cy = _SPLIT * xh, _SPLIT * yh
    xh_hi, yh_hi = cx - (cx - xh), cy - (cy - yh)
    xh_lo, yh_lo = xh - xh_hi, yh - yh_hi
    e = ((xh_hi * yh_hi - p) + xh_hi * yh_lo + xh_lo * yh_hi) + xh_lo * yh_lo
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


def lfilter(block: np.ndarray, phi: float) -> None:
    """Run ``block[:, t] = phi * block[:, t-1] + block[:, t]`` for ``t >= 1``
    on every row, in place, as the blocked scan of the module docstring."""
    rows, n = block.shape
    if n == 1:
        return
    powers, doubling = _scan_powers(phi, n)
    length = len(powers)
    segments = -(-n // length)
    cells = rows * segments
    # padded[i, s * L + j] is step j of segment s of row i; scan[j, i * S + s]
    # holds the same value, so each step of the recursion is one row of scan.
    padded = block
    if segments * length != n or not block.flags.c_contiguous:
        padded = np.zeros((rows, segments * length))
        padded[:, :n] = block
    scan = padded.reshape(cells, length).T.copy()
    step = np.empty(cells)
    for j in range(1, length):
        np.multiply(scan[j - 1], phi, out=step)
        np.add(scan[j], step, out=scan[j])
    if segments > 1:
        # carry[s, i]: the local end of segment s - 1 of row i (0 for s = 0),
        # which the doubling turns into the true end in place.
        carry = np.empty((segments, rows))
        carry[0] = 0.0
        carry[1:] = scan[-1].reshape(rows, segments)[:, :-1].T
        ends = carry[1:].reshape(-1)
        shifted = np.empty_like(ends)
        shift = rows
        for coefficient in doubling:
            np.multiply(ends[:-shift], coefficient, out=shifted[:-shift])
            np.add(ends[shift:], shifted[:-shift], out=ends[shift:])
            shift *= 2
        carry = np.ascontiguousarray(carry.T).reshape(cells)
        for j in range(length):
            np.multiply(carry, powers[j], out=step)
            np.add(scan[j], step, out=scan[j])
    padded.reshape(cells, length)[...] = scan.T
    if padded is not block:
        block[...] = padded[:, :n]


def derive_stream(base_seed: int, index: int) -> int:
    """Derive the 64-bit stream seed for (base_seed, index).

    SplitMix64 finalizer over ``base_seed + (index + 1) * GOLDEN`` mod 2**64.
    Injective in ``index`` for a fixed base seed (odd multiplier), so
    distinct indices never share a stream.
    """
    if not 0 <= base_seed < 1 << 64:
        raise ValueError(f"base_seed must be an unsigned 64-bit integer, got {base_seed}")
    if not 0 <= index < 1 << 64:
        raise ValueError(f"index must be an unsigned 64-bit integer, got {index}")
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
    if not 0 <= base_seed < 1 << 64:
        raise ValueError(f"base_seed must be an unsigned 64-bit integer, got {base_seed}")
    if not (0 <= start and count >= 0 and start + count <= 1 << 64):
        raise ValueError(f"replicate indices must be unsigned 64-bit integers, got "
                         f"[{start}, {start + count})")
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


class Family(str, Enum):
    """Process family identifiers, as spelled in configuration files."""

    AR1 = "AR1"
    SPARSE_SPIKES = "SPARSE_SPIKES"
    COMMON_SHOCK = "COMMON_SHOCK"
    DRIFTING_MEAN = "DRIFTING_MEAN"


def _require_number(params: Mapping, key: str, prefix: str = "") -> float:
    name = prefix + key
    if key not in params:
        raise ValueError(f"missing required parameter {name!r}")
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _reject_unknown(params: Mapping, allowed: set[str], prefix: str = "") -> None:
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ValueError(f"unknown parameter(s): {', '.join(prefix + k for k in unknown)}")


class _Definition:
    """One process family; see "Definitions" in the module docstring."""

    checks = ("VARIANCE_IDENTITY", "L2_CONVERGENCE", "WLLN", "BOUNDS")
    gamma: Callable | None = None
    variance: Callable | None = None
    # Longest series for which squared_deviation_variance holds; None: any.
    max_n: int | None = None

    def validate(self, params: Mapping) -> dict:
        _reject_unknown(params, set())
        return {}

    def mean(self, p: dict, t) -> np.ndarray:
        return np.zeros_like(np.asarray(t, dtype=float))

    def cov(self, p: dict, t, s) -> np.ndarray:
        t, s = np.asarray(t), np.asarray(s)
        if self.gamma is not None:
            return self.gamma(p, np.abs(t - s))
        return np.where(np.equal(t, s), self.variance(p, t), 0.0)

    def squared_deviation_variance(self, n: int, var_an: float) -> float:
        # A_n - m_n is Gaussian with mean 0, so its square has variance 2 Var(A_n)^2.
        return 2.0 * var_an * var_an


class _AR1(_Definition):
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
        return p["gamma0"] * p["phi"] ** np.abs(np.asarray(h))

    def draw(self, p: dict, n: int) -> Callable:
        phi, gamma0 = p["phi"], p["gamma0"]
        x1_scale = math.sqrt(gamma0)
        innov_scale = math.sqrt(gamma0 * (1.0 - phi * phi))

        def draw(rngs, block):
            for row, rng in zip(block, rngs):
                rng.standard_normal(out=row)
            x1 = x1_scale * block[:, 0]
            block *= innov_scale
            block[:, 0] = x1
            lfilter(block, phi)

        return draw


@lru_cache(maxsize=8)
def _spike_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The cache hands these arrays to every caller and thread: read-only.
    t = np.arange(1, n + 1, dtype=float)
    prob = t**-2.0
    tables = (0.5 * prob, prob, t**1.5)
    for table in tables:
        table.flags.writeable = False
    return tables


class _SparseSpikes(_Definition):
    checks = ("VARIANCE_IDENTITY", "WLLN", "BOUNDS", "FOURTH_MOMENT")
    max_n = 10**6

    def variance(self, p: dict, t) -> np.ndarray:
        return np.asarray(t, dtype=float)

    def draw(self, p: dict, n: int) -> Callable:
        half_prob, prob, magnitude = _spike_tables(n)

        def draw(rngs, block):
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

    def squared_deviation_variance(self, n: int, var_an: float) -> float:
        return sparse_spike_squared_average_variance(n)


class _CommonShock(_Definition):
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
        return np.where(np.equal(np.asarray(h), 0), z2 + e2, z2)

    def draw(self, p: dict, n: int) -> Callable:
        def draw(rngs, block):
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
        raise ValueError(f"trend must be a mapping with a 'kind' key, got {trend!r}")
    kind = trend.get("kind")
    if kind not in _TREND_KINDS:
        raise ValueError(f"trend.kind must be one of {_TREND_KINDS}, got {kind!r}")
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


class _DriftingMean(_Definition):
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

    def variance(self, p: dict, t) -> float:
        return np.float64(p["noise_sd"]) ** 2

    def draw(self, p: dict, n: int) -> Callable:
        trend = self.mean(p, np.arange(1, n + 1, dtype=np.int64))

        def draw(rngs, block):
            for row, rng in zip(block, rngs):
                rng.standard_normal(out=row)
            block *= p["noise_sd"]
            block += trend

        return draw


_FAMILIES: dict[Family, _Definition] = {
    Family.AR1: _AR1(),
    Family.SPARSE_SPIKES: _SparseSpikes(),
    Family.COMMON_SHOCK: _CommonShock(),
    Family.DRIFTING_MEAN: _DriftingMean(),
}


@dataclass(frozen=True)
class ProcessConfig:
    """A process family plus its validated parameters."""

    family: Family
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            family = Family(self.family)
        except ValueError:
            raise ValueError(
                f"family must be one of {[f.value for f in Family]}, got {self.family!r}"
            ) from None
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", _FAMILIES[family].validate(self.params))

    def to_dict(self) -> dict:
        return {"family": self.family.value, "params": dict(self.params)}


def build_spec(config: ProcessConfig) -> ProcessSpec:
    """Exact mean and covariance functions for a configured family."""
    definition, p = _FAMILIES[config.family], config.params
    gamma = definition.gamma
    return ProcessSpec(
        mean_fn=partial(definition.mean, p),
        cov_fn=partial(definition.cov, p),
        stationary=None if gamma is None else StationaryCov(gamma=partial(gamma, p)),
        # Independent terms: V_n is the sum of the variances.
        diagonal=gamma is None,
    )


def _block_sampler(
    config: ProcessConfig, n: int
) -> Callable[[Iterable[np.random.Generator], np.ndarray], None]:
    """The family's sampler for blocks of paths of length ``n``.

    ``sample(rngs, block)`` draws row ``i`` of ``block`` from the ``i``-th
    generator of ``rngs``, in the documented order, then applies the family
    transform to the whole block in place.  The tables it needs are built
    here, once.  Values out of the float range raise one ``ValueError``
    naming the family and ``n``, with no numpy warning before it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        draw = _FAMILIES[config.family].draw(config.params, n)

    def sample(rngs, block):
        # errstate is per thread, so it is set in the thread that draws.
        with np.errstate(over="ignore", invalid="ignore"):
            draw(rngs, block)
        if not np.isfinite(block).all():
            raise ValueError(
                f"{config.family.value} paths of length n={n}: values must be "
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
    n = _check_n(n)
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
    :func:`sample_path` returns for it.  A block holds at most 65 536
    values (one row when ``n`` is longer) and is reused once ``consume``
    returns, so ``consume`` must copy or reduce it.  Replicates are split
    into work units of 1024 indices, each with its own generator, run on
    ``min(max_workers, work units)`` threads.  By default ``max_workers`` is
    :func:`worker_count` for ``n >= 1000`` and 1 for shorter rows, where two
    threads ran slower than one (see ``_THREADED_LENGTH``).  With more than
    one thread ``consume`` runs on them, for disjoint replicate ranges; with
    one, the units run inline and blocks arrive in replicate order.  No
    result depends on the block size, the work unit or the worker count.
    """
    n = _check_n(n)
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if max_workers is None:
        max_workers = worker_count() if n >= _THREADED_LENGTH else 1
    elif max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    sample = _block_sampler(config, n)
    rows = max(1, _BLOCK_ELEMENTS // n)

    def unit(lo: int) -> None:
        states = _stream_states(base_seed, lo, min(lo + _WORK_UNIT, replicates) - lo)
        rng = np.random.Generator(np.random.PCG64(0))  # re-seeded for every row
        buffer = np.empty((min(rows, len(states)), n), dtype=float)
        for offset in range(0, len(states), rows):
            chunk = states[offset : offset + rows]
            block = buffer[: len(chunk)]
            sample(_reseeded(rng, chunk), block)
            consume(lo + offset, block)

    # Work unit k holds replicates [1024 k, 1024 (k + 1)), clipped to the range.
    units = range(0, replicates, _WORK_UNIT)
    workers = min(max_workers, len(units))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(unit, units))
    else:
        for lo in units:
            unit(lo)


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
    if not 1 <= n <= _SparseSpikes.max_n:
        raise ValueError(f"n must be in [1, {_SparseSpikes.max_n}], got {n}")
    n = int(n)
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
    if not 1 <= n <= 8:
        raise ValueError(f"enumeration supported for n in [1, 8], got {n}")
    n = int(n)
    values = []
    probs = []
    for t in range(1, n + 1):
        p = Fraction(1, 2 * t * t)
        values.append((float(t) ** 1.5, -(float(t) ** 1.5), 0.0))
        probs.append((p, p, 1 - 2 * p))

    second_terms = []
    fourth_terms = []
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
