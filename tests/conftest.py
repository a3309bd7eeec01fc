import math

import numpy as np
import pytest
from scipy.signal import lfilter

from ergodiag import Family, ProcessConfig, ProcessSpec, RngSeed, StationaryCov
from ergodiag.processes import sample_blocks


@pytest.fixture
def ar1_config() -> ProcessConfig:
    return ProcessConfig(Family.AR1, {"phi": 0.5, "gamma0": 1.0})


@pytest.fixture
def spike_config() -> ProcessConfig:
    return ProcessConfig(Family.SPARSE_SPIKES)


@pytest.fixture
def shock_config() -> ProcessConfig:
    return ProcessConfig(Family.COMMON_SHOCK, {"sigma_z": 1.0, "sigma_eps": 1.0})


@pytest.fixture
def drift_config() -> ProcessConfig:
    return ProcessConfig(
        Family.DRIFTING_MEAN,
        {"trend": {"kind": "LINEAR", "a": 1.0, "b": 0.5}, "noise_sd": 1.0},
    )


def white_noise_spec(variance: float = 1.0) -> ProcessSpec:
    """Uncorrelated unit-mean-zero spec used across model tests."""
    return ProcessSpec(
        mean_fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        cov_fn=lambda t, s: np.where(np.equal(t, s), variance, 0.0),
        stationary=StationaryCov(
            gamma=lambda h: np.where(np.equal(h, 0), variance, 0.0),
            max_meaningful_lag=0,
        ),
        label="white",
    )


def reference_path(config: ProcessConfig, n: int, seed: RngSeed) -> np.ndarray:
    """One path drawn on its own: a fresh ``seed.generator()``, scalar draws
    for the AR1 start and the common shock, and a 1-d ``lfilter`` for AR1.
    The block engine's rows must equal it bit for bit.
    """
    rng = seed.generator()
    p = config.params
    if config.family is Family.AR1:
        phi, gamma0 = p["phi"], p["gamma0"]
        x1 = math.sqrt(gamma0) * rng.standard_normal()
        if n == 1:
            return np.asarray([x1])
        innov = math.sqrt(gamma0 * (1.0 - phi * phi)) * rng.standard_normal(n - 1)
        rest, _ = lfilter([1.0], [1.0, -phi], innov, zi=np.asarray([phi * x1]))
        return np.concatenate(([x1], rest))
    t = np.arange(1, n + 1, dtype=float)
    if config.family is Family.SPARSE_SPIKES:
        prob, magnitude = t**-2.0, t**1.5
        u = rng.random(n)
        return np.where(u < 0.5 * prob, magnitude, np.where(u < prob, -magnitude, 0.0))
    if config.family is Family.COMMON_SHOCK:
        shock = p["sigma_z"] * rng.standard_normal()
        return shock + p["sigma_eps"] * rng.standard_normal(n)
    trend = p["trend"]
    if trend["kind"] == "LINEAR":
        mean = trend["a"] + trend["b"] * t
    else:
        mean = trend["amplitude"] * np.sin(2.0 * np.pi * t / trend["period"])
    return mean + p["noise_sd"] * rng.standard_normal(n)


def sample_rows(config: ProcessConfig, n: int, replicates: int, base_seed: int) -> np.ndarray:
    """The paths of replicates ``0 .. replicates - 1`` as one ``(replicates, n)``
    array, row ``r`` from ``RngSeed(base_seed, r)``, gathered from the engine.
    """
    out = np.empty((replicates, n))

    def store(first: int, block: np.ndarray) -> None:
        out[first : first + len(block)] = block

    sample_blocks(config, n, base_seed, replicates, store)
    return out


# One configuration per family, including the edge parameters the block
# transforms must handle: a negative AR1 coefficient and a noiseless shock.
ENGINE_CONFIGS = {
    "AR1": ProcessConfig(Family.AR1, {"phi": -0.7, "gamma0": 2.0}),
    "SPARSE_SPIKES": ProcessConfig(Family.SPARSE_SPIKES),
    "COMMON_SHOCK": ProcessConfig(Family.COMMON_SHOCK, {"sigma_z": 1.3, "sigma_eps": 0.0}),
    "DRIFTING_MEAN": ProcessConfig(
        Family.DRIFTING_MEAN,
        {"trend": {"kind": "SINUSOID", "amplitude": 2.0, "period": 7.0}, "noise_sd": 0.5},
    ),
}
