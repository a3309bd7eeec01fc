import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest

from conftest import ENGINE_CONFIGS, reference_path
from ergodiag import (
    Check,
    ExperimentConfig,
    derive_stream,
    RngSeed,
    SamplePath,
    Verdict,
    Family,
    GrowthClass,
    ProcessConfig,
    ProcessSpec,
    build_spec,
    default_checks,
    mean_average,
    run_experiment,
    time_average,
    time_average_variance,
    verify_variance_identity,
    worker_count,
)
from ergodiag import harness, processes
from ergodiag.harness import _ensemble_averages

NO_CHECKS: frozenset = frozenset()
BLOCK = processes._BLOCK_ELEMENTS


def exact_only(process: ProcessConfig, n_grid, replicates=2) -> ExperimentConfig:
    return ExperimentConfig(
        process=process,
        base_seed=1,
        n_grid=n_grid,
        replicates=replicates,
        epsilons=(0.1,),
        checks=NO_CHECKS,
    )


class TestExperimentConfig:
    def test_rejects_empty_grid(self, ar1_config):
        with pytest.raises(ValueError):
            ExperimentConfig(process=ar1_config, base_seed=0, n_grid=())

    def test_rejects_non_increasing_grid(self, ar1_config):
        with pytest.raises(ValueError):
            ExperimentConfig(process=ar1_config, base_seed=0, n_grid=(10, 10, 100))

    def test_rejects_duplicate_epsilons(self, ar1_config):
        with pytest.raises(ValueError):
            ExperimentConfig(process=ar1_config, base_seed=0, epsilons=(0.1, 0.1))

    def test_rejects_nonpositive_epsilons(self, ar1_config):
        with pytest.raises(ValueError):
            ExperimentConfig(process=ar1_config, base_seed=0, epsilons=(0.1, 0.0))

    def test_rejects_small_replicate_budget_with_checks(self, ar1_config):
        with pytest.raises(ValueError):
            ExperimentConfig(process=ar1_config, base_seed=0, replicates=50)

    def test_allows_tiny_replicates_without_checks(self, ar1_config):
        config = ExperimentConfig(
            process=ar1_config, base_seed=0, replicates=2, checks=NO_CHECKS
        )
        assert config.replicates == 2

    def test_rejects_spike_grid_above_the_family_bound(self, spike_config):
        with pytest.raises(ValueError, match="n_grid.*SPARSE_SPIKES"):
            ExperimentConfig(
                process=spike_config, base_seed=1, n_grid=(10, 1_000_001),
                replicates=2, checks=NO_CHECKS,
            )
        config = ExperimentConfig(
            process=spike_config, base_seed=1, n_grid=(10, 10**6), replicates=2,
            checks=NO_CHECKS,
        )
        assert config.n_grid[-1] == 10**6

    def test_rejects_grid_entry_of_two_to_the_64(self, ar1_config):
        with pytest.raises(ValueError, match="n_grid"):
            ExperimentConfig(
                process=ar1_config, base_seed=1, n_grid=(10, 2**64),
                replicates=2, checks=NO_CHECKS,
            )

    @pytest.mark.parametrize("field", ["n_grid", "epsilons", "checks"])
    def test_list_fields_reject_strings_and_mappings(self, ar1_config, field):
        for value in ("WLLN", b"10", {"WLLN": 0}):
            with pytest.raises(ValueError, match=f"{field} must be a list"):
                ExperimentConfig(process=ar1_config, base_seed=0, **{field: value})

    def test_list_fields_take_any_other_iterable(self, ar1_config):
        config = ExperimentConfig(
            process=ar1_config, base_seed=0, n_grid=range(10, 40, 10),
            epsilons=np.array([0.5, 0.25]), checks=(c for c in ["WLLN"]),
        )
        assert config.n_grid == (10, 20, 30)
        assert config.epsilons == (0.5, 0.25)
        assert config.checks == {Check.WLLN}

    def test_rejects_unknown_check_name(self, ar1_config):
        with pytest.raises(ValueError):
            ExperimentConfig(process=ar1_config, base_seed=0, checks={"BOGUS"})

    def test_default_checks_depend_on_family(
        self, ar1_config, spike_config, shock_config, drift_config
    ):
        assert Check.L2_CONVERGENCE in default_checks(ar1_config.family)
        assert Check.FOURTH_MOMENT in default_checks(spike_config.family)
        assert Check.NONCONVERGENCE in default_checks(shock_config.family)
        assert Check.L2_CONVERGENCE not in default_checks(shock_config.family)
        config = ExperimentConfig(process=spike_config, base_seed=0)
        assert config.checks == default_checks(spike_config.family)
        convergent = {
            Check.VARIANCE_IDENTITY, Check.L2_CONVERGENCE, Check.WLLN, Check.BOUNDS
        }
        assert default_checks(ar1_config.family) == convergent
        assert default_checks(drift_config.family) == convergent
        assert default_checks(spike_config.family) == {
            Check.VARIANCE_IDENTITY, Check.WLLN, Check.BOUNDS, Check.FOURTH_MOMENT
        }
        assert default_checks(shock_config.family) == {
            Check.VARIANCE_IDENTITY, Check.NONCONVERGENCE, Check.BOUNDS
        }


class TestWorkerCount:
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity call")
    def test_equals_affinity_count(self, monkeypatch):
        assert worker_count() == len(os.sched_getaffinity(0))
        # a narrowed mask (as taskset sets it) caps the count below the CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert worker_count() == 3

    @pytest.mark.parametrize("cpus, expected", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity_call(self, monkeypatch, cpus, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert worker_count() == expected


class TestExactColumns:
    def test_spike_exact_variance_column(self, spike_config):
        report = run_experiment(
            exact_only(spike_config, (10, 100, 1000), replicates=100)
        )
        exact = [s.exact_var_an for s in report.per_n]
        assert exact[0] == pytest.approx(0.55, rel=1e-12)
        assert exact[1] == pytest.approx(0.505, rel=1e-12)
        assert exact[2] == pytest.approx(0.5005, rel=1e-12)

    def test_ar1_growth_subquadratic(self, ar1_config):
        report = run_experiment(exact_only(ar1_config, (100, 1000, 10_000)))
        assert report.growth.classification is GrowthClass.SUBQUADRATIC

    def test_shock_growth_quadratic_with_unit_liminf(self, shock_config):
        report = run_experiment(exact_only(shock_config, (100, 1000, 10_000)))
        assert report.growth.classification is GrowthClass.QUADRATIC
        assert report.growth.liminf_estimate == pytest.approx(1.0, rel=1e-3)

    def test_narrow_grid_has_no_growth_report(self, ar1_config):
        report = run_experiment(exact_only(ar1_config, (10, 50)))
        assert report.growth is None

    def test_ar1_scaled_variance_approaches_correlation_time(self, ar1_config):
        # n * Var(A_n) -> tau * gamma(0) = 3 for phi = 0.5, gamma0 = 1
        spec = build_spec(ar1_config)
        n = 10_000
        assert abs(n * time_average_variance(spec, n) - 3.0) < 0.02

    def test_drift_variance_decays_at_noise_rate(self, drift_config):
        spec = build_spec(drift_config)
        for n in (10, 100, 1000):
            assert time_average_variance(spec, n) == pytest.approx(1.0 / n, rel=1e-12)


class TestPerNStats:
    def test_dict_keys_follow_epsilons(self, ar1_config):
        config = ExperimentConfig(
            process=ar1_config,
            base_seed=3,
            n_grid=(10, 100),
            replicates=500,
            epsilons=(0.5, 0.05),
            checks=NO_CHECKS,
        )
        report = run_experiment(config)
        for stats in report.per_n:
            assert tuple(stats.empirical_tails) == (0.5, 0.05)
            assert tuple(stats.chebyshev_bounds) == (0.5, 0.05)
            assert tuple(stats.pz_lower) == (0.5, 0.05)
            assert stats.mc_standard_error > 0

    def test_pz_absent_when_eps_square_exceeds_variance(self, ar1_config):
        config = ExperimentConfig(
            process=ar1_config,
            base_seed=3,
            n_grid=(100,),
            replicates=500,
            epsilons=(0.5, 0.01),
            checks=NO_CHECKS,
        )
        stats = run_experiment(config).per_n[0]
        # Var(A_100) ~ 0.03: eps = 0.5 overshoots it, eps = 0.01 does not
        assert stats.pz_lower[0.5] is None
        assert stats.pz_lower[0.01] is not None


class TestVarianceIdentityCheck:
    def test_passes_for_ar1(self, ar1_config):
        config = ExperimentConfig(
            process=ar1_config, base_seed=11, replicates=5000, checks=NO_CHECKS
        )
        verdict = verify_variance_identity(config, n=100)
        assert verdict.status == "PASS"

    def test_passes_for_spike(self, spike_config):
        config = ExperimentConfig(
            process=spike_config, base_seed=12, replicates=5000, checks=NO_CHECKS
        )
        assert verify_variance_identity(config, n=100).status == "PASS"

    def test_corrupted_spec_fails(self, ar1_config):
        # negative control: a cov scaled x2 must be caught
        honest = build_spec(ar1_config)
        corrupted = ProcessSpec(
            mean_fn=honest.mean_fn,
            cov_fn=lambda t, s: 2.0 * np.asarray(honest.cov_fn(t, s)),
        )
        config = ExperimentConfig(
            process=ar1_config, base_seed=11, replicates=5000, checks=NO_CHECKS
        )
        verdict = verify_variance_identity(config, n=100, spec=corrupted)
        assert verdict.status == "FAIL"

    def test_rejects_small_replicates(self, ar1_config):
        config = ExperimentConfig(
            process=ar1_config, base_seed=11, replicates=500, checks=NO_CHECKS
        )
        with pytest.raises(ValueError):
            verify_variance_identity(config, n=100)

    def test_in_experiment_verdict_passes_per_family(
        self, ar1_config, spike_config, shock_config, drift_config
    ):
        for config in (ar1_config, spike_config, shock_config, drift_config):
            experiment = ExperimentConfig(
                process=config,
                base_seed=31,
                n_grid=(10, 100),
                replicates=4000,
                epsilons=(0.2,),
                checks=frozenset({Check.VARIANCE_IDENTITY}),
            )
            report = run_experiment(experiment)
            verdict = report.verdicts[Check.VARIANCE_IDENTITY]
            assert verdict.status == "PASS", (config.family, verdict.message)


class TestNonconvergenceCheck:
    def test_shock_refuses_to_converge(self, shock_config):
        config = ExperimentConfig(
            process=shock_config,
            base_seed=2,
            n_grid=(100, 1000),
            replicates=10_000,
            epsilons=(0.5,),
            checks=frozenset({Check.NONCONVERGENCE}),
        )
        verdict = run_experiment(config).verdicts[Check.NONCONVERGENCE]
        assert verdict.status == "PASS", verdict.message

    def test_pure_shock_mse_is_flat_at_one(self):
        config = ProcessConfig(Family.COMMON_SHOCK, {"sigma_z": 1.0, "sigma_eps": 0.0})
        experiment = ExperimentConfig(
            process=config,
            base_seed=8,
            n_grid=(10, 100, 1000),
            replicates=10_000,
            epsilons=(0.5,),
            checks=frozenset({Check.NONCONVERGENCE}),
        )
        report = run_experiment(experiment)
        for stats in report.per_n:
            assert stats.exact_var_an == 1.0
            assert abs(stats.empirical_mse - 1.0) <= 4 * stats.mc_standard_error
        assert report.verdicts[Check.NONCONVERGENCE].status == "PASS"

    def test_skipped_for_other_families(self, ar1_config):
        config = ExperimentConfig(
            process=ar1_config, base_seed=2, n_grid=(10, 100), replicates=1000,
            epsilons=(0.5,), checks=frozenset({Check.NONCONVERGENCE}),
        )
        assert run_experiment(config).verdicts[Check.NONCONVERGENCE].status == "SKIPPED"


class TestWllnCheck:
    def test_spike_tails_shrink(self, spike_config):
        config = ExperimentConfig(
            process=spike_config,
            base_seed=5,
            n_grid=(100, 1000),
            replicates=5000,
            epsilons=(0.1,),
            checks=frozenset({Check.WLLN}),
        )
        report = run_experiment(config)
        assert report.verdicts[Check.WLLN].status == "PASS"
        tails = [s.empirical_tails[0.1] for s in report.per_n]
        assert tails[1] < tails[0]

    def test_shock_tails_do_not_shrink(self, shock_config):
        # negative control: the harness must be able to fail
        config = ExperimentConfig(
            process=shock_config,
            base_seed=5,
            n_grid=(100, 1000),
            replicates=5000,
            epsilons=(0.5,),
            checks=frozenset({Check.WLLN}),
        )
        report = run_experiment(config)
        assert report.verdicts[Check.WLLN].status == "FAIL"


class TestBoundsCheck:
    @pytest.mark.parametrize("fixture", ["ar1_config", "spike_config", "shock_config"])
    def test_tails_respect_bound_sandwich(self, fixture, request):
        process = request.getfixturevalue(fixture)
        config = ExperimentConfig(
            process=process,
            base_seed=13,
            n_grid=(10, 100),
            replicates=4000,
            epsilons=(0.5, 0.1),
            checks=frozenset({Check.BOUNDS}),
        )
        report = run_experiment(config)
        assert report.verdicts[Check.BOUNDS].status == "PASS"


class TestL2ConvergenceCheck:
    def test_drifting_mean_converges(self, drift_config):
        config = ExperimentConfig(
            process=drift_config,
            base_seed=17,
            n_grid=(10, 100, 1000),
            replicates=2000,
            epsilons=(0.2,),
            checks=frozenset({Check.L2_CONVERGENCE, Check.VARIANCE_IDENTITY}),
        )
        report = run_experiment(config)
        assert report.verdicts[Check.L2_CONVERGENCE].status == "PASS"
        assert report.verdicts[Check.VARIANCE_IDENTITY].status == "PASS"

    def test_shock_fails_l2(self, shock_config):
        config = ExperimentConfig(
            process=shock_config,
            base_seed=17,
            n_grid=(10, 100, 1000),
            replicates=1000,
            epsilons=(0.2,),
            checks=frozenset({Check.L2_CONVERGENCE}),
        )
        report = run_experiment(config)
        assert report.verdicts[Check.L2_CONVERGENCE].status == "FAIL"

    def test_skipped_on_narrow_grid(self, ar1_config):
        config = ExperimentConfig(
            process=ar1_config,
            base_seed=17,
            n_grid=(10, 50),
            replicates=1000,
            epsilons=(0.2,),
            checks=frozenset({Check.L2_CONVERGENCE}),
        )
        report = run_experiment(config)
        assert report.verdicts[Check.L2_CONVERGENCE].status == "SKIPPED"


class TestFourthMomentCheck:
    def test_standalone_passes(self, spike_config):
        config = ExperimentConfig(
            process=spike_config,
            base_seed=0,
            n_grid=(50, 500),
            replicates=5000,
            epsilons=(0.1,),
            checks=frozenset({Check.FOURTH_MOMENT}),
        )
        verdict = run_experiment(config).verdicts[Check.FOURTH_MOMENT]
        assert verdict.status == "PASS", verdict.message

    def test_in_experiment_passes(self, spike_config):
        config = ExperimentConfig(
            process=spike_config,
            base_seed=23,
            n_grid=(100, 1000),
            replicates=5000,
            epsilons=(0.25,),  # 0.1 not configured; the check adds it internally
            checks=frozenset({Check.FOURTH_MOMENT}),
        )
        report = run_experiment(config)
        assert report.verdicts[Check.FOURTH_MOMENT].status == "PASS"

    def test_skipped_for_other_families(self, ar1_config):
        config = ExperimentConfig(
            process=ar1_config,
            base_seed=23,
            n_grid=(100, 1000),
            replicates=1000,
            epsilons=(0.25,),
            checks=frozenset({Check.FOURTH_MOMENT}),
        )
        report = run_experiment(config)
        assert report.verdicts[Check.FOURTH_MOMENT].status == "SKIPPED"


class TestVectorCheck:
    def test_independent_coordinates_match_summed_variance(self, ar1_config):
        config = ExperimentConfig(
            process=ar1_config,
            base_seed=29,
            n_grid=(10, 100),
            replicates=4000,
            epsilons=(0.2,),
            checks=frozenset({Check.VECTOR}),
        )
        report = run_experiment(config)
        verdict = report.verdicts[Check.VECTOR]
        assert verdict.status == "PASS", verdict.message


class TestDeterminism:
    def base_config(self, process) -> ExperimentConfig:
        return ExperimentConfig(
            process=process,
            base_seed=97,
            n_grid=(10, 100),
            replicates=600,
            epsilons=(0.2, 0.05),
            checks=frozenset({Check.VARIANCE_IDENTITY, Check.WLLN, Check.VECTOR}),
        )

    def test_identical_runs_identical_reports(self, ar1_config):
        first = run_experiment(self.base_config(ar1_config))
        second = run_experiment(self.base_config(ar1_config))
        assert first.to_dict() == second.to_dict()

    def pooled_config(self, process) -> ExperimentConfig:
        # two work units at a length the engine samples on its own worker
        # count (n >= 1000), so threads run at n = 8192
        return dataclasses.replace(
            self.base_config(process), n_grid=(10, 8192), replicates=1100
        )

    def test_worker_count_does_not_change_report(self, spike_config):
        config = self.pooled_config(spike_config)
        serial = run_experiment(config, max_workers=1).to_dict()
        for workers in (2, 4, None):
            assert run_experiment(config, max_workers=workers).to_dict() == serial

    def test_derived_worker_count_does_not_change_report(self, shock_config, monkeypatch):
        config = self.pooled_config(shock_config)
        monkeypatch.setattr(processes, "worker_count", lambda: 1)
        one = run_experiment(config)
        monkeypatch.setattr(processes, "worker_count", lambda: 4)
        four = run_experiment(config)
        assert one.to_dict() == four.to_dict()

    def test_verdict_for_every_requested_check(self, ar1_config):
        report = run_experiment(self.base_config(ar1_config))
        assert set(report.verdicts) == {Check.VARIANCE_IDENTITY, Check.WLLN, Check.VECTOR}
        assert report.checks == (Check.VARIANCE_IDENTITY, Check.WLLN, Check.VECTOR)


class TestEnsembleAverages:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, BLOCK // 2, BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("family", list(ENGINE_CONFIGS))
    def test_equal_per_path_time_average_of_reference(self, family, n, workers):
        # the block reduction must give time_average's float for every path;
        # the short paths span two work units of multi-row blocks and a
        # partial last block, the long ones blocks of 2 rows, then of 1 row
        config = ENGINE_CONFIGS[family]
        replicates = 1030 if n <= 1000 else 5
        averages = _ensemble_averages(config, n, 91, replicates, workers)
        expected = [
            time_average(SamplePath(reference_path(config, n, RngSeed(91, r))))
            for r in range(replicates)
        ]
        assert np.array_equal(averages, expected)

    def test_rows_are_summed_pairwise_as_np_sum(self, monkeypatch):
        # Rows whose left-to-right (or otherwise reordered) sums differ from
        # np.sum's pairwise ones, handed over as blocks of one row, of three
        # rows and of seventeen rows; the last row is all -0.0.
        n = 64
        pattern = np.resize([1e16, 1.0, -1e16, 1.0], n)
        rng = np.random.default_rng(3)
        wide = rng.standard_normal((17, n)) * 10.0 ** rng.uniform(-8, 8, (17, n))
        rows = np.vstack([pattern, pattern[::-1], wide[:2], pattern, wide[2:],
                          np.full(n, -0.0)])
        starts = [0, 1, 4, len(rows)]
        expected = np.array([np.sum(row) for row in rows]) / n
        for lo, hi in zip(starts, starts[1:]):
            left_to_right = np.cumsum(rows[lo:hi], axis=1)[:, -1] / n
            assert left_to_right.tobytes() != expected[lo:hi].tobytes()

        def crafted_blocks(config, length, base_seed, replicates, consume, *, max_workers):
            assert (length, replicates) == (n, len(rows))
            for lo, hi in zip(starts, starts[1:]):
                consume(lo, rows[lo:hi].copy())

        monkeypatch.setattr(harness, "sample_blocks", crafted_blocks)
        averages = _ensemble_averages(ENGINE_CONFIGS["AR1"], n, 1, len(rows), None)
        assert averages.tobytes() == expected.tobytes()
        # np.sum starts from +0.0, so the all -0.0 row averages to +0.0
        assert math.copysign(1.0, averages[-1]) == 1.0


class TestEnsembleAveragesUnderThreadSwitching:
    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("family", list(ENGINE_CONFIGS))
    def test_eight_threads_switching_often_equal_one(self, family, n):
        # 8197 replicates are nine work units, so eight threads, more than
        # the CPUs, share the output array and the cached tables while the
        # interpreter switches between them every microsecond.
        config, replicates = ENGINE_CONFIGS[family], 8 * 1024 + 5
        serial = _ensemble_averages(config, n, 23, replicates, 1)
        threaded = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: threaded.append(
                    _ensemble_averages(config, n, 23, replicates, 8)
                ),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "threaded sampling did not finish in 60 s"
        assert len(threaded) == 1 and threaded[0].tobytes() == serial.tobytes()


class TestExperimentStatistics:
    def test_per_n_statistics_equal_the_formulas_on_the_averages(self, drift_config):
        # MSE, plug-in standard error and tails, bit for bit, from the
        # averages of each grid point's ensemble
        config = ExperimentConfig(
            process=drift_config, base_seed=47, n_grid=(10, 100), replicates=500,
            epsilons=(0.5, 0.1, 0.02), checks=NO_CHECKS,
        )
        spec = build_spec(drift_config)
        for stats in run_experiment(config).per_n:
            base = derive_stream(47, stats.n)
            a = _ensemble_averages(drift_config, stats.n, base, 500, None)
            m_n = mean_average(spec, stats.n)
            dev_sq = (a - m_n) ** 2
            assert stats.empirical_mse == float(np.mean(dev_sq))
            assert stats.mc_standard_error == float(np.std(dev_sq, ddof=1)) / math.sqrt(500)
            for eps, tail in stats.empirical_tails.items():
                assert tail == int(np.count_nonzero(np.abs(a - m_n) >= eps)) / 500


class TestCheckDispatch:
    def test_every_check_verdicted_in_canonical_order(self, ar1_config):
        config = ExperimentConfig(
            process=ar1_config,
            base_seed=41,
            n_grid=(10, 100),
            replicates=1100,
            epsilons=(0.2,),
            checks=frozenset(Check),
        )
        serial = run_experiment(config, max_workers=1)
        assert tuple(serial.verdicts) == tuple(Check) == serial.checks
        assert serial.to_dict() == run_experiment(config, max_workers=2).to_dict()

    def test_variance_identity_uses_the_experiment_statistics(self, shock_config):
        config = ExperimentConfig(
            process=shock_config, base_seed=43, n_grid=(50,), replicates=1000,
            epsilons=(0.2,), checks=NO_CHECKS,
        )
        stats = run_experiment(config).per_n[0]
        # a covariance scaled x2 makes the verdict FAIL and print MSE and exact
        honest = build_spec(shock_config)
        corrupted = ProcessSpec(
            mean_fn=honest.mean_fn, cov_fn=lambda t, s: 2.0 * honest.cov_fn(t, s)
        )
        mse, exact = stats.empirical_mse, time_average_variance(corrupted, 50)
        gap = abs(mse - exact) / stats.mc_standard_error
        verdict = verify_variance_identity(config, n=50, spec=corrupted)
        assert verdict == Verdict(
            "FAIL",
            f"n=50: |MSE - exact| = {gap:.2f} MC standard errors "
            f"(exact {exact:.6g}, MSE {mse:.6g})",
        )
