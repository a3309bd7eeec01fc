import math
import random
import warnings

import numpy as np
import pytest

from ergodiag import (
    AutocovEstimate,
    DegenerateSeriesError,
    ProcessConfig,
    SamplePath,
    TauEstimate,
    empirical_tail,
    ensemble_mse,
    estimate_tau,
    sample_autocovariance,
    sample_path,
    time_average,
)
from ergodiag.estimators import _fft_length
from ergodiag.harness import _ensemble_averages
from ergodiag.processes import RngSeed


def path(*values: float) -> SamplePath:
    return SamplePath(np.asarray(values, dtype=float))


class TestSamplePath:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SamplePath(np.asarray([], dtype=float))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            path(1.0, bad)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            SamplePath(np.zeros((2, 2)))


class TestTimeAverage:
    def test_arithmetic_mean(self):
        assert time_average(path(1, 2, 3)) == 2.0

    def test_zero_path(self):
        assert time_average(path(0, 0, 0, 0)) == 0.0

    def test_symmetric_pair(self):
        assert time_average(path(0.5, -0.5)) == 0.0

    def test_singleton(self):
        assert time_average(path(5)) == 5.0

    def test_prefix_means(self):
        values = (2, 4, 6)
        assert [time_average(path(*values[:k])) for k in (1, 2, 3)] == [2.0, 3.0, 4.0]

    def test_alternating_prefixes(self):
        values = (1, -1, 1, -1)
        means = [time_average(path(*values[:k])) for k in (1, 2, 3, 4)]
        assert means == [1.0, 0.0, 1 / 3, 0.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 1000, 2001])
    def test_is_the_pairwise_total_over_n(self, n):
        # Any order of summation is within (n - 1) * eps * sum|x_t| of the
        # exact total, so the mean is within eps * sum|x_t| of the exact mean.
        rng = np.random.default_rng(n)
        p = SamplePath(rng.standard_normal(n) * rng.uniform(0.1, 100))
        assert time_average(p) == float(np.sum(p.values)) / n
        gap = abs(time_average(p) - math.fsum(p.values) / n)
        assert gap <= np.finfo(float).eps * float(np.sum(np.abs(p.values)))

    @pytest.mark.parametrize("seed", range(5))
    def test_pairwise_total_is_near_the_exact_mean(self, seed):
        # A large offset makes every left-to-right partial sum ~1e14, whose
        # rounding reached 2.9e-6 on these paths; the pairwise total stays
        # within 20 * eps * max|x| (4.4e-7) of the correctly rounded mean.
        x = 1e8 + np.random.default_rng(seed).standard_normal(10**6)
        exact = math.fsum(x) / x.size
        bound = 20 * np.finfo(float).eps * float(np.max(np.abs(x)))
        assert abs(time_average(SamplePath(x)) - exact) <= bound


class TestFftLength:
    def test_equals_scipy_next_fast_len_for_real_transforms(self):
        from scipy.fft import next_fast_len

        rng = random.Random(20)
        targets = list(range(1, 2**17 + 1))
        targets += [rng.randrange(1, 2**40 + 1) for _ in range(10_000)]
        ours = [_fft_length(t) for t in targets]
        assert ours == [next_fast_len(t, real=True) for t in targets]


class TestSampleAutocovariance:
    def test_constant_path_all_zero(self):
        est = sample_autocovariance(path(3.5, 3.5, 3.5, 3.5), max_lag=3)
        assert est.gamma_hat.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_alternating_path_known_values(self):
        est = sample_autocovariance(path(1, -1, 1, -1), max_lag=2)
        assert est.mean_used == 0.0
        assert est.gamma_hat.tolist() == [1.0, -0.75, 0.5]

    def test_matches_direct_double_loop(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(40)
        est = sample_autocovariance(SamplePath(values), max_lag=6)
        xbar = values.sum() / 40
        for h in range(7):
            direct = (
                math.fsum(
                    (values[t] - xbar) * (values[t + h] - xbar) for t in range(40 - h)
                )
                / 40
            )
            assert est.gamma_hat[h] == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_iid_normal_lags_within_clt_band(self):
        n = 100_000
        rng = np.random.default_rng(99)
        est = sample_autocovariance(SamplePath(rng.standard_normal(n)), max_lag=10)
        inside = sum(abs(est.gamma_hat[h]) < 3 / math.sqrt(n) for h in range(1, 11))
        assert inside >= 9

    def test_rejects_max_lag_not_below_n(self):
        with pytest.raises(ValueError):
            sample_autocovariance(path(1, 2, 3), max_lag=3)

    @pytest.mark.parametrize("seed", range(12))
    def test_implied_matrix_positive_semidefinite(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 65))
        m = int(rng.integers(1, min(9, n)))
        est = sample_autocovariance(SamplePath(rng.standard_normal(n)), max_lag=m)
        idx = np.arange(m + 1)
        matrix = est.gamma_hat[np.abs(idx[:, None] - idx[None, :])]
        assert np.linalg.eigvalsh(matrix).min() >= -1e-9

    @pytest.mark.parametrize(
        ("n", "max_lag"),
        [(n, lag) for n in (10, 1000, 4097) for lag in (1, n // 2, n - 1)],
    )
    def test_fft_matches_exact_lag_sums(self, n, max_lag):
        rng = np.random.default_rng(n)
        values = 3.0 + rng.standard_normal(n)
        est = sample_autocovariance(SamplePath(values), max_lag)
        assert est.gamma_hat.shape == (max_lag + 1,)
        assert est.mean_used == time_average(SamplePath(values))
        d = values - est.mean_used
        exact = [math.fsum((d[: n - h] * d[h:]).tolist()) / n for h in range(max_lag + 1)]
        tolerance = 1e-12 * exact[0]
        assert np.max(np.abs(est.gamma_hat - exact)) <= tolerance

    def test_large_values_whose_autocovariances_fit_do_not_overflow(self):
        # |F|^2 at the Nyquist frequency is (1000 * 1e152)^2, beyond the float
        # range, while every gamma_hat(h) = (-1)^h (1 - h/1000) 1e304 fits.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = sample_autocovariance(path(*([1e152, -1e152] * 500)), max_lag=999)
        h = np.arange(1000)
        exact = (-1.0) ** h * (1000 - h) * 1e304 / 1000
        assert np.max(np.abs(est.gamma_hat - exact)) <= 1e-12 * 1e304

    @pytest.mark.parametrize(
        "values",
        [[1e200, -1e200] * 25, [0.0, 1e300, 2e300] * 17, [1.7e308] * 20],
        ids=["pm1e200", "0-1e300-2e300", "sum-overflows"],
    )
    def test_overflow_raises_naming_the_value_range(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"values in \[.*e\+(200|300|308)\]"):
                sample_autocovariance(SamplePath(np.asarray(values)), max_lag=10)


def reference_tau(acov: AutocovEstimate, window_c: float) -> TauEstimate:
    """The window scan as a plain loop over W = 1..m."""
    g = acov.gamma_hat
    m = acov.max_lag
    taus = 1.0 + 2.0 * np.cumsum(g[1:] / g[0])
    window, saturated = m, True
    for w in range(1, m + 1):
        if w >= window_c * taus[w - 1]:
            window, saturated = w, False
            break
    raw = float(taus[window - 1])
    return TauEstimate(max(raw, 1e-3), window=window, saturated=saturated, floored=raw < 1e-3)


class TestEstimateTau:
    def test_white_noise_tau_is_one(self):
        est = AutocovEstimate(
            gamma_hat=np.asarray([1.0] + [0.0] * 20), n=1000, mean_used=0.0
        )
        result = estimate_tau(est)
        assert result.value == 1.0
        assert not result.saturated

    def test_ar1_path_recovers_tau_three(self):
        config = ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1.0})
        p = sample_path(config, 100_000, RngSeed(314, 0))
        acov = sample_autocovariance(p, max_lag=100)
        result = estimate_tau(acov)
        assert result.value == pytest.approx(3.0, abs=0.3)
        assert not result.saturated

    def test_constant_path_is_degenerate(self):
        acov = sample_autocovariance(path(*([2.0] * 50)), max_lag=10)
        with pytest.raises(DegenerateSeriesError):
            estimate_tau(acov)

    def test_saturation_flagged_when_no_window_fits(self):
        # gamma flat at 1: tau_hat(W) = 1 + 2W outruns every window
        est = AutocovEstimate(
            gamma_hat=np.ones(21), n=1000, mean_used=0.0
        )
        result = estimate_tau(est)
        assert result.saturated
        assert result.window == 20

    def test_strong_anticorrelation_hits_floor(self):
        est = AutocovEstimate(
            gamma_hat=np.asarray([1.0, -0.49995, 0.0, 0.0]), n=1000, mean_used=0.0
        )
        result = estimate_tau(est)
        assert result.floored
        assert result.value == 1e-3

    @pytest.mark.parametrize("seed", range(20))
    def test_vectorized_scan_equals_reference_loop(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 300))
        # Decaying, noisy and sign-alternating autocovariances.
        g = rng.standard_normal(m + 1) * rng.uniform(0.0, 0.5) + np.exp(
            -np.arange(m + 1) / rng.uniform(0.5, 50.0)
        ) * rng.choice([1.0, -1.0]) ** np.arange(m + 1)
        g[0] = abs(g[0]) + 0.1
        est = AutocovEstimate(gamma_hat=g, n=10 * m, mean_used=0.0)
        window_c = float(rng.uniform(0.5, 10.0))
        got = estimate_tau(est, window_c=window_c)
        want = reference_tau(est, window_c)
        assert got == want
        assert type(got.window) is int and type(got.saturated) is bool

    @pytest.mark.parametrize(
        "gamma",
        [np.ones(21), np.asarray([1.0, -0.49995, 0.0, 0.0]), np.asarray([1.0, 0.0]),
         np.asarray([1.0, 0.9, 0.8]), np.asarray([1.0] + [0.0] * 20)],
        ids=["saturated", "floored", "one-lag", "short-saturated", "white-noise"],
    )
    def test_saturated_and_floored_equal_reference_loop(self, gamma):
        est = AutocovEstimate(gamma_hat=gamma, n=1000, mean_used=0.0)
        assert estimate_tau(est) == reference_tau(est, 6.0)

    def test_rejects_nonpositive_window_c(self):
        est = AutocovEstimate(gamma_hat=np.asarray([1.0, 0.0]), n=10, mean_used=0.0)
        with pytest.raises(ValueError):
            estimate_tau(est, window_c=0.0)


def averages(*values: float) -> np.ndarray:
    return np.asarray(values, dtype=float)


class TestEnsembleMse:
    def test_zero_when_averages_hit_target(self):
        assert ensemble_mse(averages(2.0, 2.0), 2.0) == 0.0

    def test_symmetric_pair(self):
        assert ensemble_mse(averages(0.7, -0.7), 0.0) == pytest.approx(0.49)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.standard_normal((50, 8)).mean(axis=1) + rng.uniform(-2, 2)
            m = float(rng.uniform(-1, 1))
            decomposed = float(np.var(a)) + (float(np.mean(a)) - m) ** 2
            assert ensemble_mse(a, m) == pytest.approx(decomposed, abs=1e-12)

    def test_spike_ensemble_matches_exact_variance(self):
        # exact Var(A_100) = 101/200 = 0.505; R = 1e5 keeps the MC error
        # (~sqrt(Var(A^2)/R) ~ 0.014) well inside the 5% band
        config = ProcessConfig("SPARSE_SPIKES")
        (a,) = _ensemble_averages(config, (100,), 88, 100_000, None)
        assert ensemble_mse(a, 0.0) == pytest.approx(0.505, rel=0.05)


class TestEmpiricalTail:
    def test_direct_count(self):
        assert empirical_tail(averages(0.0, 0.2, 0.3), 0.0, 0.25) == pytest.approx(1 / 3)

    def test_all_zero(self):
        assert empirical_tail(averages(0.0, 0.0), 0.0, 0.1) == 0.0

    def test_common_shock_matches_gaussian_tail(self):
        # A_n = Z + mean(noise) ~ N(0, 1 + 1/n); oracle tail from the
        # normal CDF via erf
        n, replicates = 100, 20_000
        config = ProcessConfig("COMMON_SHOCK", {"sigma_z": 1.0, "sigma_eps": 1.0})
        (a,) = _ensemble_averages(config, (n,), 5150, replicates, None)
        sd = math.sqrt(1.0 + 1.0 / n)
        oracle = 2.0 * 0.5 * (1.0 + math.erf(-0.5 / sd / math.sqrt(2.0)))
        tail = empirical_tail(a, 0.0, 0.5)
        se = math.sqrt(oracle * (1 - oracle) / replicates)
        assert abs(tail - oracle) <= 4 * se

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            empirical_tail(averages(1.0), 0.0, 0.0)
