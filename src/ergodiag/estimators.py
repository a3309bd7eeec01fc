"""Empirical, data-side estimators computed from sampled trajectories.

Counterparts of the model-side quantities in :mod:`ergodiag.model`.  From
one :class:`SamplePath`: its time average, biased sample autocovariances,
and a windowed estimate of the integrated correlation time.  From the 1-d
array of per-replicate time averages: their mean squared error around the
target mean ``m_n`` (:func:`ensemble_mse`) and the frequency of misses by
at least eps (:func:`empirical_tail`).

A path's total is NumPy's pairwise sum (``np.sum``), the rule the exact
side uses for ``m_n`` and ``V_n``: its rounding error grows like
``eps * log(n) * sum|x_t|``, against ``eps * n * sum|x_t|`` for a
left-to-right sum (Higham, *Accuracy and Stability of Numerical Algorithms*,
2nd ed., ch. 4).  Autocovariances at every lag come from one zero-padded FFT
(Wiener-Khinchin), O(n log n) whatever the number of lags; they agree with
the direct lag sums to within a few ulps of ``gamma_hat(0)``, not bit for
bit.  The padded length is the smallest ``2**a * 3**b * 5**c`` at or above
``n + max_lag``, the length ``scipy.fft.next_fast_len(..., real=True)``
gives; it is computed here, so this module imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DegenerateSeriesError, _integer

__all__ = [
    "SamplePath",
    "AutocovEstimate",
    "TauEstimate",
    "time_average",
    "sample_autocovariance",
    "estimate_tau",
    "ensemble_mse",
    "empirical_tail",
]

# Estimates of tau from strongly anticorrelated data can come out nonpositive;
# they are floored here so downstream ESS arithmetic stays total.
_TAU_FLOOR = 1e-3


@dataclass(frozen=True)
class SamplePath:
    """One sampled trajectory of finite values."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("path values must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("path values must be finite (no NaN or inf)")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class AutocovEstimate:
    """Sample autocovariances ``gamma_hat(0..max_lag)`` from one path."""

    gamma_hat: np.ndarray
    n: int
    mean_used: float

    @property
    def max_lag(self) -> int:
        return self.gamma_hat.size - 1


@dataclass(frozen=True)
class TauEstimate:
    """Windowed estimate of the integrated correlation time.

    ``window`` is the number of lags summed.  ``saturated`` is set when no
    self-consistent window fit inside the available lags, ``floored`` when
    the raw estimate fell below the positivity floor.
    """

    value: float
    window: int
    saturated: bool = False
    floored: bool = False


def time_average(path: SamplePath) -> float:
    """Arithmetic mean of the path: its pairwise ``np.sum`` over ``n``."""
    v = path.values
    return float(np.sum(v)) / v.size


def _fft_length(target: int) -> int:
    """Smallest 5-smooth integer ``2**a * 3**b * 5**c >= target``.

    The length ``scipy.fft.next_fast_len(target, real=True)`` returns, found
    without importing scipy: for each ``3**b * 5**c`` below the best length
    so far, the least power-of-two multiple that reaches ``target``.
    """
    best = 1 << (target - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-target // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def sample_autocovariance(path: SamplePath, max_lag: int) -> AutocovEstimate:
    """Biased sample autocovariances of one path.

    ``gamma_hat(h) = (1/n) * sum_{t=1..n-h} (x_t - xbar)(x_{t+h} - xbar)``
    with ``xbar`` the full-path mean.  The 1/n normalization (rather than
    1/(n-h)) keeps the implied autocovariance matrix positive semi-definite
    and the windowed tau estimate bounded.

    All lags are computed at once as the inverse real FFT of the power
    spectrum ``|F|^2`` of the centred path, zero-padded to at least
    ``n + max_lag`` points so that no lag wraps around.  The cost is
    O(n log n) for any ``max_lag``, and each value is within a few ulps of
    ``gamma_hat(0)`` of the direct sum.  Raises ``OverflowError``, naming the
    range of the values, when the mean or an autocovariance leaves the float
    range.
    """
    n = len(path)
    max_lag = _integer(max_lag, "max_lag", 0, n - 1)
    size = _fft_length(n + max_lag)
    with np.errstate(over="ignore", invalid="ignore"):
        xbar = time_average(path)
        d = path.values - xbar
        # Scaled by an exact power of two to max|d| < 1, |F|^2 stays below
        # n^2: only a gamma_hat that is itself out of range overflows.
        _, exponent = math.frexp(float(np.max(np.abs(d))))
        spectrum = np.fft.rfft(np.ldexp(d, -exponent, out=d), n=size)
        power = spectrum.real**2 + spectrum.imag**2
        gamma = np.ldexp(np.fft.irfft(power, n=size)[: max_lag + 1] / n, 2 * exponent)
    if not (math.isfinite(xbar) and np.all(np.isfinite(gamma))):
        low, high = float(path.values.min()), float(path.values.max())
        raise OverflowError(
            f"autocovariances of a path with values in [{low!r}, {high!r}] "
            "leave the float range"
        )
    return AutocovEstimate(gamma_hat=gamma, n=n, mean_used=xbar)


def estimate_tau(acov: AutocovEstimate, window_c: float = 6.0) -> TauEstimate:
    """Integrated correlation time via a self-consistent window.

    Sums normalized autocovariances out to the smallest window ``W`` with
    ``W >= window_c * tau_hat(W)``, where
    ``tau_hat(W) = 1 + 2 * sum_{h=1..W} gamma_hat(h) / gamma_hat(0)``.
    Falls back to the full available lag range (flagged ``saturated``) when
    no window qualifies.  ``window_c`` trades bias (small) against noise
    (large); 6 is conventional.
    """
    if not 0 < window_c < math.inf:
        raise ValueError(f"window_c must be > 0 and finite, got {window_c}")
    g = acov.gamma_hat
    if g[0] <= 0:
        raise DegenerateSeriesError(
            f"sample variance must be > 0 to normalize, got gamma_hat(0)={g[0]}"
        )
    m = acov.max_lag
    if m == 0:
        return TauEstimate(1.0, window=0, saturated=True)

    taus = 1.0 + 2.0 * np.cumsum(g[1:] / g[0])
    # The first window W in 1..m with W >= window_c * tau_hat(W).
    fits = np.flatnonzero(np.arange(1, m + 1) >= window_c * taus)
    saturated = fits.size == 0
    window = m if saturated else int(fits[0]) + 1
    raw = float(taus[window - 1])
    floored = raw < _TAU_FLOOR
    return TauEstimate(
        value=max(raw, _TAU_FLOOR), window=window, saturated=saturated, floored=floored
    )


def ensemble_mse(averages: np.ndarray, m_n: float) -> float:
    """Mean squared error of per-replicate time averages around ``m_n``."""
    return float(np.mean((averages - m_n) ** 2))


def empirical_tail(averages: np.ndarray, m_n: float, eps: float) -> float:
    """Fraction of per-replicate time averages that miss ``m_n`` by >= eps."""
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return int(np.count_nonzero(np.abs(averages - m_n) >= eps)) / len(averages)

