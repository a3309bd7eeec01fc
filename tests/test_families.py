"""Each family's model pinned against closed forms written here.

For every configuration in ``conftest`` the exact moments that
``build_spec`` returns, the covariance-sum route it selects and the
standard-error and Paley-Zygmund columns of an experiment must equal what
the family's formulas give, to the bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import ENGINE_CONFIGS
from ergodiag import (
    ExperimentConfig,
    ProcessConfig,
    build_spec,
    covariance_sum,
    paley_zygmund_lower,
    run_experiment,
)

CONFIGS = {
    **{f"engine-{name}": config for name, config in ENGINE_CONFIGS.items()},
    "fixture-AR1": ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1.0}),
    "fixture-SPARSE_SPIKES": ProcessConfig("SPARSE_SPIKES"),
    "fixture-COMMON_SHOCK": ProcessConfig(
        "COMMON_SHOCK", {"sigma_z": 1.0, "sigma_eps": 1.0}
    ),
    "fixture-DRIFTING_MEAN": ProcessConfig(
        "DRIFTING_MEAN",
        {"trend": {"kind": "LINEAR", "a": 1.0, "b": 0.5}, "noise_sd": 1.0},
    ),
}
STATIONARY = {"AR1", "COMMON_SHOCK"}

T = np.arange(1, 65, dtype=np.int64)
LAGS = np.arange(64, dtype=np.int64)


def closed_mean(config: ProcessConfig, t: np.ndarray) -> np.ndarray:
    if config.family != "DRIFTING_MEAN":
        return np.zeros(t.shape)
    trend, tf = config.params["trend"], t.astype(float)
    if trend["kind"] == "LINEAR":
        return trend["a"] + trend["b"] * tf
    return trend["amplitude"] * np.sin(2.0 * np.pi * tf / trend["period"])


def closed_gamma(config: ProcessConfig, h: np.ndarray) -> np.ndarray:
    p = config.params
    if config.family == "AR1":
        return p["gamma0"] * p["phi"] ** h
    z2 = p["sigma_z"] ** 2
    return np.where(h == 0, z2 + p["sigma_eps"] ** 2, z2)


def closed_cov(config: ProcessConfig, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    if config.family in STATIONARY:
        return closed_gamma(config, np.abs(t - s))
    if config.family == "SPARSE_SPIKES":
        variance = t.astype(float)
    else:
        variance = config.params["noise_sd"] ** 2
    return np.where(t == s, variance, 0.0)


def closed_squared_deviation_sd(family: str, n: int, var_an: float) -> float:
    """Exact ``sd((A_n - m_n)^2)``: Gaussian families ``sqrt(2) Var(A_n)``;
    spikes sum ``Var(X_t^2) = t^4 - t^2`` and ``Var(2 X_t X_s) = 4 t s``."""
    if family != "SPARSE_SPIKES":
        return math.sqrt(2.0) * var_an
    total = sum(Fraction(t**4 - t**2) for t in range(1, n + 1))
    total += 4 * sum(t * s for t in range(1, n + 1) for s in range(t + 1, n + 1))
    return math.sqrt(float(total / n**4))


@pytest.mark.parametrize("name", CONFIGS)
class TestExactMoments:
    def test_mean_function(self, name):
        config = CONFIGS[name]
        assert np.array_equal(build_spec(config).mean_fn(T), closed_mean(config, T))

    def test_covariance_function(self, name):
        config = CONFIGS[name]
        t, s = T[:, None], T[None, :]
        got = build_spec(config).cov_fn(t, s)
        assert np.array_equal(got, closed_cov(config, t, s))

    def test_stationary_gamma_and_var_fn(self, name):
        config = CONFIGS[name]
        spec = build_spec(config)
        if config.family in STATIONARY:
            assert spec.var_fn is None
            assert np.array_equal(spec.stationary.gamma(LAGS), closed_gamma(config, LAGS))
        else:
            assert spec.stationary is None
            assert np.array_equal(spec.var_fn(T), closed_cov(config, T, T))

    @pytest.mark.parametrize("n", [1, 2, 17, 64])
    def test_auto_route(self, name, n):
        config = CONFIGS[name]
        spec = build_spec(config)
        auto = covariance_sum(spec, n)
        double = covariance_sum(spec, n, method="double")
        if config.family in STATIONARY:
            # The lag decomposition sums in another order than the double sum.
            h = np.arange(1, n, dtype=np.int64)
            g0 = float(closed_gamma(config, np.zeros(1, dtype=np.int64))[0])
            lags = n * g0 + 2.0 * float(np.sum((n - h) * closed_gamma(config, h)))
            assert auto == lags
            assert auto == pytest.approx(double, rel=1e-12)
        else:
            assert auto == double


@pytest.mark.parametrize("name", CONFIGS)
def test_pz_lower_uses_exact_squared_deviation_variance(name):
    config = CONFIGS[name]
    report = run_experiment(
        ExperimentConfig(
            process=config,
            base_seed=3,
            n_grid=(10, 100),
            replicates=2,
            epsilons=(0.5, 0.1, 0.05),
            checks=frozenset(),
        ),
        max_workers=1,
    )
    for stats in report.per_n:
        var = stats.exact_var_an
        sd = closed_squared_deviation_sd(config.family, stats.n, var)
        # The MSE of R = 2 replicates has the exact SE sd / sqrt(2), and
        # Paley-Zygmund takes the square of sd.
        assert stats.mc_standard_error == sd / math.sqrt(2)
        var_sq = sd * sd
        expected = {
            eps: paley_zygmund_lower(var, var_sq, eps * eps) if eps * eps <= var else None
            for eps in report.epsilons
        }
        assert stats.pz_lower == expected
    assert any(v is not None for s in report.per_n for v in s.pz_lower.values())
