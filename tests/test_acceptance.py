"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Total runtime is about a minute on a laptop.
"""

import json
import math
import time

import numpy as np
import pytest

from ergodiag import (
    Check,
    ExperimentConfig,
    ProcessConfig,
    RngSeed,
    build_spec,
    chebyshev_bound,
    correlation_time,
    covariance_sum,
    derive_stream,
    enumerate_squared_average_variance,
    estimate_tau,
    markov_bound,
    paley_zygmund_lower,
    run_experiment,
    sample_autocovariance,
    sample_path,
    sparse_spike_squared_average_variance,
    time_average,
    time_average_variance,
)
from ergodiag import harness, processes
from ergodiag.cli import main

SPIKES = ProcessConfig("SPARSE_SPIKES")
AR1 = ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1.0})
SHOCK = ProcessConfig("COMMON_SHOCK", {"sigma_z": 1.0, "sigma_eps": 1.0})
DRIFT = ProcessConfig(
    "DRIFTING_MEAN", {"trend": {"kind": "LINEAR", "a": 0.0, "b": 0.01}, "noise_sd": 1.0}
)

# 20 sample lengths spanning 1..10^4
N_SAMPLES_20 = (
    1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
    144, 233, 377, 610, 987, 1597, 2584, 4181, 6765, 10_000,
)


def test_c01_spike_exact_covariance_sum():
    """Criterion 1: exact V_n and Var(A_n) for the spike family."""
    spec = build_spec(SPIKES)
    for n in N_SAMPLES_20:
        assert covariance_sum(spec, n) == n * (n + 1) / 2
    var_at_10k = time_average_variance(spec, 10_000)
    assert var_at_10k == pytest.approx(0.50005, abs=1e-15)
    assert abs(var_at_10k - 0.5) < 1e-3
    print(
        "\n[criterion 1] PASS: V_n = n(n+1)/2 exactly at 20 lengths; "
        f"Var(A_1e4) = {var_at_10k}"
    )


def test_c02_variance_identity_monte_carlo_all_families():
    """Criterion 2: empirical MSE matches exact Var(A_n), n=1e3, R=1e5."""
    started = time.perf_counter()
    for process in (AR1, SPIKES, SHOCK, DRIFT):
        config = ExperimentConfig(
            process=process, base_seed=1009, n_grid=(1000,), replicates=100_000,
            checks=["VARIANCE_IDENTITY"],
        )
        verdict = run_experiment(config).verdicts[Check.VARIANCE_IDENTITY]
        assert verdict.status == "PASS", (process.family, verdict.message)
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    print(f"\n[criterion 2] PASS: all four families within 4 MC standard errors "
          f"({elapsed:.1f} s)")


def test_c03_correlation_time_and_scaled_variance():
    """Criterion 3: tau exactly 3, tau-hat within 10%, n*Var(A_n) within 2%."""
    spec = build_spec(AR1)
    tau = correlation_time(spec.stationary, abs_tol=1e-9, max_terms=100_000)
    assert tau == pytest.approx(3.0, abs=1e-6)

    path = sample_path(AR1, 100_000, RngSeed(31337, 0))
    tau_hat = estimate_tau(sample_autocovariance(path, max_lag=100)).value
    assert tau_hat == pytest.approx(3.0, rel=0.10)

    n = 10_000
    scaled = n * time_average_variance(spec, n)
    assert abs(scaled - 3.0) <= 0.02 * 3.0
    print(
        f"\n[criterion 3] PASS: tau = {tau:.9f}, tau_hat = {tau_hat:.3f}, "
        f"n Var(A_n) = {scaled:.4f}"
    )


def test_c04_spike_tails_decrease():
    """Criterion 4: spike tail at eps=0.1 strictly decreases over the grid."""
    replicates = 100_000
    config = ExperimentConfig(
        process=SPIKES,
        base_seed=41,
        n_grid=(100, 1000, 10_000),
        replicates=replicates,
        epsilons=(0.1,),
        checks=frozenset({Check.WLLN}),
    )
    report = run_experiment(config)
    assert report.verdicts[Check.WLLN].status == "PASS"
    tails = [s.empirical_tails[0.1] for s in report.per_n]
    for a, b in zip(tails, tails[1:]):
        slack = 2.0 * math.hypot(
            math.sqrt(a * (1 - a) / replicates), math.sqrt(b * (1 - b) / replicates)
        )
        assert b < a + slack
    assert tails[-1] < tails[0]
    print(f"\n[criterion 4] PASS: tails {tails[0]:.4f} -> {tails[1]:.4f} -> {tails[2]:.4f}")


def test_c05_common_shock_nonconvergence():
    """Criterion 5: shock MSE floor at 0.9 and tail 0.617 +- 0.02 at n=1e4."""
    config = ExperimentConfig(
        process=SHOCK,
        base_seed=51,
        n_grid=(100, 1000, 10_000),
        replicates=10_000,
        epsilons=(0.5,),
        checks=frozenset({Check.NONCONVERGENCE}),
    )
    report = run_experiment(config)
    assert report.verdicts[Check.NONCONVERGENCE].status == "PASS"
    for stats in report.per_n:
        assert stats.empirical_mse >= 0.9
    last = report.per_n[-1]
    tail = last.empirical_tails[0.5]
    assert tail == pytest.approx(0.617, abs=0.02)
    pz = last.pz_lower[0.5]
    assert pz is not None and tail > pz
    print(f"\n[criterion 5] PASS: final tail {tail:.4f} (lower bound {pz:.4f}), "
          f"MSE floor held")


def test_c06_fourth_moment_oracle():
    """Criterion 6: Var(A_n^2) closed form vs enumeration; diverging ratio."""
    for n in range(1, 7):
        formula = sparse_spike_squared_average_variance(n)
        brute = enumerate_squared_average_variance(n)
        assert formula == pytest.approx(brute, rel=1e-12, abs=1e-12)
    assert sparse_spike_squared_average_variance(2) == 1.25

    ratios = []
    for n in (10, 25, 50, 100):
        var_an = (n + 1) / (2.0 * n)  # exact Var(A_n) of the spike family
        ratios.append(sparse_spike_squared_average_variance(n) / var_an**2)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    ratio = ratios[-1]
    assert ratio > 10.0
    print(f"\n[criterion 6] PASS: enumeration agrees to 1e-12; ratio(100) = {ratio:.1f}")


def test_c07_inequality_suite():
    """Criterion 7: Chebyshev = Markov on a grid, plus the sampled sandwich."""
    rng = np.random.default_rng(71)
    for v, eps in zip(rng.uniform(0, 5, 100), rng.uniform(0.01, 3, 100)):
        assert chebyshev_bound(v, eps) == pytest.approx(markov_bound(v, eps**2), abs=1e-12)

    replicates = 100_000
    samples = {
        "bernoulli(0.3)": (rng.random(replicates) < 0.3).astype(float),
        "exponential(1)": rng.exponential(1.0, replicates),
    }
    for label, z in samples.items():
        mean = float(np.mean(z))
        var = float(np.var(z))
        for eps in (0.25 * mean, 0.5 * mean, 0.9 * mean):
            tail = float(np.mean(z >= eps))
            se = math.sqrt(max(tail * (1 - tail), 1e-12) / replicates)
            assert paley_zygmund_lower(mean, var, eps) <= tail + 4 * se, label
            assert tail <= markov_bound(mean, eps) + 4 * se, label
    print("\n[criterion 7] PASS: Chebyshev = Markov to 1e-12; sandwich held on both samples")


def test_c08_vector_coordinates():
    """Criterion 8: 3 independent AR1 coordinates, gap MSE vs summed variance."""
    n, replicates = 1000, 20_000
    spec = build_spec(AR1)
    exact_sum = 3 * time_average_variance(spec, n)

    # Coordinate j of replicate r is the AR1 path of RngSeed(base_j, r), its
    # time average read off the block engine.
    base = derive_stream(8001, n)
    averages = np.stack([
        harness._ensemble_averages(AR1, (n,), derive_stream(base, j), replicates, None)[0]
        for j in range(3)
    ])
    for r in range(300):
        assert [
            time_average(sample_path(AR1, n, RngSeed(derive_stream(base, j), r)))
            for j in range(3)
        ] == averages[:, r].tolist()
    gap_sq = np.sum(averages * averages, axis=0)
    mse = float(np.mean(gap_sq))
    se = float(np.std(gap_sq, ddof=1)) / math.sqrt(replicates)
    assert abs(mse - exact_sum) <= 4 * se
    print(f"\n[criterion 8] PASS: gap MSE {mse:.6f} vs exact {exact_sum:.6f} "
          f"({abs(mse - exact_sum) / se:.2f} se)")


def test_c09_reproducibility(tmp_path, monkeypatch):
    """Criterion 9: byte-identical outputs across reruns and thread counts."""
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(json.dumps({"process": {"family": "SPARSE_SPIKES", "params": {}}}))
    exp_config = tmp_path / "exp.json"
    exp_config.write_text(
        json.dumps(
            {
                "process": {"family": "AR1", "params": {"phi": 0.5, "gamma0": 1.0}},
                "experiment": {
                    "base_seed": 90,
                    "n_grid": [10, 8192],
                    "replicates": 1100,
                    "epsilons": [0.2],
                    "checks": ["VARIANCE_IDENTITY"],
                },
            }
        )
    )

    sim_outputs = []
    exp_outputs = []
    # The engine's derived worker count is set to 1 and to 4 usable CPUs; at
    # n = 8192 the 1100 replicates are two work units, so two threads run.
    for name, cpus in [("a1", 1), ("b1", 1), ("a4", 4), ("b4", 4)]:
        monkeypatch.setattr(processes, "worker_count", lambda: cpus)
        sim_out = tmp_path / f"sim_{name}.csv"
        assert (
            main(
                [
                    "simulate", "--config", str(sim_config), "--out", str(sim_out),
                    "--seed", "7", "--n", "200", "--replicates", "50",
                ]
            )
            == 0
        )
        sim_outputs.append(sim_out.read_bytes())

        out_dir = tmp_path / f"exp_{name}"
        assert main(["experiment", "--config", str(exp_config), "--out-dir", str(out_dir)]) == 0
        exp_outputs.append(
            (out_dir / "report.json").read_bytes() + (out_dir / "curves.csv").read_bytes()
        )

    assert len(set(sim_outputs)) == 1
    assert len(set(exp_outputs)) == 1
    print("\n[criterion 9] PASS: simulate and experiment byte-identical across "
          "reruns and worker counts 1 and 4")
