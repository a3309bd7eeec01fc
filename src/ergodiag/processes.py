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
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np
from scipy.signal import lfilter

from .estimators import Ensemble, PathOrigin, SamplePath
from .model import ProcessSpec, StationaryCov

__all__ = [
    "Family",
    "ProcessConfig",
    "RngSeed",
    "derive_stream",
    "build_spec",
    "sample_path",
    "sample_ensemble",
    "SparseSpikeMoments",
    "sparse_spike_moments",
    "sparse_spike_squared_average_variance",
    "enumerate_squared_average_variance",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Replicates per work unit when filling an ensemble; fixed so results do not
# depend on the worker count.
_ENSEMBLE_BLOCK = 1024


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


class Family(str, Enum):
    """Process family identifiers, as spelled in configuration files."""

    AR1 = "AR1"
    SPARSE_SPIKES = "SPARSE_SPIKES"
    COMMON_SHOCK = "COMMON_SHOCK"
    DRIFTING_MEAN = "DRIFTING_MEAN"


_TREND_KINDS = ("LINEAR", "SINUSOID")


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


def _validate_params(family: Family, params: Mapping) -> dict:
    if family is Family.AR1:
        _reject_unknown(params, {"phi", "gamma0"})
        phi = _require_number(params, "phi")
        gamma0 = _require_number(params, "gamma0")
        if not -1.0 < phi < 1.0:
            raise ValueError(f"phi must be in (-1, 1), got {phi}")
        if gamma0 <= 0:
            raise ValueError(f"gamma0 must be > 0, got {gamma0}")
        return {"phi": phi, "gamma0": gamma0}
    if family is Family.SPARSE_SPIKES:
        _reject_unknown(params, set())
        return {}
    if family is Family.COMMON_SHOCK:
        _reject_unknown(params, {"sigma_z", "sigma_eps"})
        sigma_z = _require_number(params, "sigma_z")
        sigma_eps = _require_number(params, "sigma_eps")
        if sigma_z <= 0:
            raise ValueError(f"sigma_z must be > 0, got {sigma_z}")
        if sigma_eps < 0:
            raise ValueError(f"sigma_eps must be >= 0, got {sigma_eps}")
        return {"sigma_z": sigma_z, "sigma_eps": sigma_eps}
    # DRIFTING_MEAN
    _reject_unknown(params, {"trend", "noise_sd"})
    if "trend" not in params:
        raise ValueError("missing required parameter 'trend'")
    noise_sd = _require_number(params, "noise_sd")
    if noise_sd <= 0:
        raise ValueError(f"noise_sd must be > 0, got {noise_sd}")
    return {"trend": _validate_trend(params["trend"]), "noise_sd": noise_sd}


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
        object.__setattr__(self, "params", _validate_params(family, self.params))

    @property
    def label(self) -> str:
        return self.family.value

    def to_dict(self) -> dict:
        return {"family": self.family.value, "params": dict(self.params)}


def _trend_values(trend: Mapping, t: np.ndarray) -> np.ndarray:
    if trend["kind"] == "LINEAR":
        return trend["a"] + trend["b"] * np.asarray(t, dtype=float)
    return trend["amplitude"] * np.sin(
        2.0 * np.pi * np.asarray(t, dtype=float) / trend["period"]
    )


def build_spec(config: ProcessConfig) -> ProcessSpec:
    """Exact mean and covariance functions for a configured family."""
    family = config.family
    p = config.params
    if family is Family.AR1:
        phi, gamma0 = p["phi"], p["gamma0"]

        def mean_fn(t):
            return np.zeros_like(np.asarray(t, dtype=float))

        def cov_fn(t, s):
            return gamma0 * phi ** np.abs(np.asarray(t) - np.asarray(s))

        def gamma(h):
            return gamma0 * phi ** np.abs(np.asarray(h))

        stationary = StationaryCov(gamma=gamma)
    elif family is Family.SPARSE_SPIKES:

        def mean_fn(t):
            return np.zeros_like(np.asarray(t, dtype=float))

        def cov_fn(t, s):
            t = np.asarray(t)
            return np.where(np.equal(t, np.asarray(s)), t, 0).astype(float)

        stationary = None
    elif family is Family.COMMON_SHOCK:
        z2, e2 = p["sigma_z"] ** 2, p["sigma_eps"] ** 2

        def mean_fn(t):
            return np.zeros_like(np.asarray(t, dtype=float))

        def cov_fn(t, s):
            return np.where(np.equal(np.asarray(t), np.asarray(s)), z2 + e2, z2)

        def gamma(h):
            return np.where(np.equal(np.asarray(h), 0), z2 + e2, z2)

        stationary = StationaryCov(gamma=gamma)
    else:  # DRIFTING_MEAN
        trend, noise_sd = p["trend"], p["noise_sd"]
        nv = noise_sd**2

        def mean_fn(t):
            return _trend_values(trend, np.asarray(t))

        def cov_fn(t, s):
            return np.where(np.equal(np.asarray(t), np.asarray(s)), nv, 0.0)

        stationary = None

    return ProcessSpec(
        mean_fn=mean_fn,
        cov_fn=cov_fn,
        stationary=stationary,
        label=config.label,
        # Independent terms: V_n is the sum of the variances.
        diagonal=family in (Family.SPARSE_SPIKES, Family.DRIFTING_MEAN),
    )


@lru_cache(maxsize=8)
def _spike_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t = np.arange(1, n + 1, dtype=float)
    prob = t**-2.0
    return 0.5 * prob, prob, t**1.5


def sample_path(config: ProcessConfig, n: int, seed: RngSeed) -> SamplePath:
    """Sample one trajectory of length ``n``, deterministically from ``seed``."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    rng = seed.generator()
    family = config.family
    p = config.params

    if family is Family.AR1:
        phi, gamma0 = p["phi"], p["gamma0"]
        x1 = math.sqrt(gamma0) * rng.standard_normal()
        if n == 1:
            values = np.asarray([x1])
        else:
            innov = math.sqrt(gamma0 * (1.0 - phi * phi)) * rng.standard_normal(n - 1)
            rest, _ = lfilter([1.0], [1.0, -phi], innov, zi=np.asarray([phi * x1]))
            values = np.concatenate(([x1], rest))
    elif family is Family.SPARSE_SPIKES:
        half_prob, prob, magnitude = _spike_tables(n)
        u = rng.random(n)
        values = np.where(u < half_prob, magnitude, np.where(u < prob, -magnitude, 0.0))
    elif family is Family.COMMON_SHOCK:
        shock = p["sigma_z"] * rng.standard_normal()
        values = shock + p["sigma_eps"] * rng.standard_normal(n)
    else:  # DRIFTING_MEAN
        t = np.arange(1, n + 1, dtype=np.int64)
        values = _trend_values(p["trend"], t) + p["noise_sd"] * rng.standard_normal(n)

    origin = PathOrigin(config.label, seed.base_seed, seed.replicate)
    return SamplePath(values=values, origin=origin)


def sample_ensemble(
    config: ProcessConfig,
    n: int,
    replicates: int,
    base_seed: int,
    max_workers: int = 1,
) -> Ensemble:
    """Sample ``replicates`` independent paths into one ensemble.

    Replicate ``r`` uses the stream of ``RngSeed(base_seed, r)``; rows are
    filled by replicate index in fixed-size blocks, so the result is
    identical for any ``max_workers``.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    out = np.empty((replicates, n), dtype=float)

    def fill(lo: int) -> None:
        for r in range(lo, min(lo + _ENSEMBLE_BLOCK, replicates)):
            out[r] = sample_path(config, n, RngSeed(base_seed, r)).values

    starts = range(0, replicates, _ENSEMBLE_BLOCK)
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(fill, starts))
    else:
        for lo in starts:
            fill(lo)
    return Ensemble(values=out, spec_label=config.label, base_seed=base_seed)


@dataclass(frozen=True)
class SparseSpikeMoments:
    """Exact moments of the sparse-spike process at indices ``t != s``.

    ``var_x`` is ``Var(X_t) = t``; ``var_x_squared`` is
    ``Var(X_t^2) = t^4 - t^2``; ``var_product`` is ``Var(X_t X_s) = t*s``;
    and ``cov_of_squares`` is ``Cov(X_t^2, X_s^2) = 0`` by independence.
    """

    var_x: float
    var_x_squared: float
    var_product: float
    cov_of_squares: float


def sparse_spike_moments(t: int, s: int) -> SparseSpikeMoments:
    """Exact low-order moments of the sparse-spike process at ``(t, s)``."""
    if t < 1 or s < 1:
        raise ValueError(f"indices must be >= 1, got t={t}, s={s}")
    if t == s:
        raise ValueError("pairwise moments require distinct indices t != s")
    t, s = int(t), int(s)
    return SparseSpikeMoments(
        var_x=float(t),
        var_x_squared=float(t**4 - t**2),
        var_product=float(t * s),
        cov_of_squares=0.0,
    )


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
    if not 1 <= n <= 10**6:
        raise ValueError(f"n must be in [1, 10**6], got {n}")
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
