import math

import numpy as np
import pytest

from ergodiag import ProcessConfig, ProcessSpec, RngSeed, StationaryCov
from ergodiag.processes import lfilter, sample_blocks


@pytest.fixture
def ar1_config() -> ProcessConfig:
    return ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1.0})


@pytest.fixture
def spike_config() -> ProcessConfig:
    return ProcessConfig("SPARSE_SPIKES")


@pytest.fixture
def shock_config() -> ProcessConfig:
    return ProcessConfig("COMMON_SHOCK", {"sigma_z": 1.0, "sigma_eps": 1.0})


@pytest.fixture
def drift_config() -> ProcessConfig:
    return ProcessConfig(
        "DRIFTING_MEAN",
        {"trend": {"kind": "LINEAR", "a": 1.0, "b": 0.5}, "noise_sd": 1.0},
    )


def white_noise_spec(variance: float = 1.0) -> ProcessSpec:
    """Uncorrelated unit-mean-zero spec used across model tests."""
    return ProcessSpec(
        mean_fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        cov_fn=lambda t, s: np.where(np.equal(t, s), variance, 0.0),
        stationary=StationaryCov(
            gamma=lambda h: np.where(np.equal(h, 0), variance, 0.0)
        ),
    )


def reference_path(config: ProcessConfig, n: int, seed: RngSeed) -> np.ndarray:
    """One path drawn on its own: a fresh ``seed.generator()``, scalar draws
    for the AR1 start and the common shock, and for AR1 the package's
    :func:`~ergodiag.processes.lfilter` on that one row.  The filter is
    checked against scipy and a Python loop in ``test_processes``; here it
    pins stream order and blocking: the block engine's rows must equal this
    path bit for bit.
    """
    rng = seed.generator()
    p = config.params
    if config.model.name == "AR1":
        phi, gamma0 = p["phi"], p["gamma0"]
        x1 = math.sqrt(gamma0) * rng.standard_normal()
        innov = math.sqrt(gamma0 * (1.0 - phi * phi)) * rng.standard_normal(n - 1)
        path = np.concatenate(([x1], innov))[None, :]
        lfilter(path, phi)
        return path[0]
    t = np.arange(1, n + 1, dtype=float)
    if config.model.name == "SPARSE_SPIKES":
        prob, magnitude = 1.0 / (t * t), t * np.sqrt(t)
        u = rng.random(n)
        return np.where(u < 0.5 * prob, magnitude, np.where(u < prob, -magnitude, 0.0))
    if config.model.name == "COMMON_SHOCK":
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
    "AR1": ProcessConfig("AR1", {"phi": -0.7, "gamma0": 2.0}),
    "SPARSE_SPIKES": ProcessConfig("SPARSE_SPIKES"),
    "COMMON_SHOCK": ProcessConfig("COMMON_SHOCK", {"sigma_z": 1.3, "sigma_eps": 0.0}),
    "DRIFTING_MEAN": ProcessConfig(
        "DRIFTING_MEAN",
        {"trend": {"kind": "SINUSOID", "amplitude": 2.0, "period": 7.0}, "noise_sd": 0.5},
    ),
}
