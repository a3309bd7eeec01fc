import dataclasses
import itertools
import json
import math
import os
import sys
import threading

import numpy as np
import pytest

from conftest import ENGINE_CONFIGS, reference_path
import test_golden
from ergodiag import (
    Check,
    ConvergenceReport,
    ExperimentConfig,
    FAMILIES,
    derive_stream,
    RngSeed,
    SamplePath,
    Verdict,
    GrowthClass,
    GrowthReport,
    PerNStats,
    ProcessConfig,
    build_spec,
    default_checks,
    mean_average,
    run_experiment,
    sample_path,
    time_average,
    time_average_variance,
)
from ergodiag import harness, processes
from ergodiag.harness import _ensemble_averages
from ergodiag.processes import worker_count

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

    def test_memory_guard_counts_an_average_per_grid_length(
        self, ar1_config, monkeypatch
    ):
        # room for 2500 floats: 1000 replicates' averages fit at two grid
        # lengths, not at three
        sizes = {"SC_PHYS_PAGES": 2500, "SC_PAGE_SIZE": 8}
        monkeypatch.setattr(processes.os, "sysconf", sizes.__getitem__)
        ExperimentConfig(process=ar1_config, base_seed=0, n_grid=(100, 1000),
                         replicates=1000)
        with pytest.raises(ValueError, match="replicates = 1000.*physical memory"):
            ExperimentConfig(process=ar1_config, base_seed=0, n_grid=(10, 100, 1000),
                             replicates=1000)

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
            Check.VARIANCE_IDENTITY, Check.WLLN, Check.BOUNDS
        }
        assert default_checks(shock_config.family) == {
            Check.VARIANCE_IDENTITY, Check.NONCONVERGENCE, Check.BOUNDS
        }
        assert default_checks(shock_config.model) == default_checks("COMMON_SHOCK")

    @pytest.mark.parametrize("family", ["ar1", 3, None, ["AR1"]])
    def test_default_checks_rejects_a_family_as_process_config_does(self, family):
        with pytest.raises(ValueError, match=r"^family must be one of \[") as rejected:
            ProcessConfig(family)
        with pytest.raises(ValueError) as checks_rejected:
            default_checks(family)
        assert str(checks_rejected.value) == str(rejected.value)


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

    @pytest.mark.parametrize("family", sorted(ENGINE_CONFIGS))
    def test_default_grid_evaluates_each_vn_once(self, family, monkeypatch):
        # V_n is one gamma or var_fn call of n indices; the default grid's
        # growth grid adds two midpoints, so 5 evaluations, not 3 + 5.
        sizes = []

        def counted(fn):
            def wrapper(indices):
                sizes.append(np.size(indices))
                return fn(indices)

            return wrapper

        def counting_build_spec(config):
            spec = build_spec(config)
            if spec.stationary is None:
                return dataclasses.replace(spec, var_fn=counted(spec.var_fn))
            stationary = dataclasses.replace(spec.stationary,
                                             gamma=counted(spec.stationary.gamma))
            return dataclasses.replace(spec, stationary=stationary)

        monkeypatch.setattr(harness, "build_spec", counting_build_spec)
        config = ENGINE_CONFIGS[family]
        report = run_experiment(exact_only(config, harness.DEFAULT_N_GRID))
        growth = report.growth
        assert growth.n_grid == (100, 316, 1000, 3162, 10_000)
        assert sizes == list(growth.n_grid)
        spec = build_spec(config)
        for stats in report.per_n:
            vn = growth.vn_values[growth.n_grid.index(stats.n)]
            assert stats.exact_var_an == vn / float(stats.n * stats.n)
            assert stats.exact_var_an == time_average_variance(spec, stats.n)

    def test_growth_grid_keeps_the_grid_and_reaches_four_points(self):
        # Every grid of up to four lengths in 1..40: a grid spanning a
        # decade is refined to 4 or more points holding all of its own, so
        # run_experiment's V_n table covers every grid length.
        for size in (1, 2, 3, 4):
            for grid in itertools.combinations(range(1, 41), size):
                refined = harness._growth_grid(grid)
                if grid[-1] < 10 * grid[0]:
                    assert refined is None
                    continue
                assert len(refined) >= 4 and set(grid) <= set(refined)
                assert all(b > a for a, b in zip(refined, refined[1:]))

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


def variance_identity(process, n, base_seed, replicates) -> Verdict:
    """The VARIANCE_IDENTITY verdict of an experiment at the one length ``n``."""
    config = ExperimentConfig(process=process, base_seed=base_seed, n_grid=(n,),
                              replicates=replicates, checks=["VARIANCE_IDENTITY"])
    return run_experiment(config).verdicts[Check.VARIANCE_IDENTITY]


class TestFamilyAsModel:
    """A family passed as its registered ``Model`` is the family by name."""

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_report_json_is_byte_identical(self, name):
        # the golden all-check experiment at seed 101
        params = test_golden.PROCESSES[name].get("params", {})
        by_name = ProcessConfig(name, params)
        by_model = ProcessConfig(FAMILIES[name], params)
        assert by_model.family is by_name.model is FAMILIES[name]

        def report_json(process: ProcessConfig) -> str:
            config = ExperimentConfig(process=process, base_seed=101,
                                      checks=test_golden.ALL_CHECKS, **test_golden.EXPERIMENT)
            return json.dumps(run_experiment(config).to_dict(), indent=2, allow_nan=False)

        assert report_json(by_model) == report_json(by_name)


class TestVarianceIdentityCheck:
    def test_passes_for_ar1(self, ar1_config):
        verdict = variance_identity(ar1_config, 100, base_seed=11, replicates=5000)
        assert verdict == Verdict("PASS", "max deviation 0.99 MC standard errors (<= 4)")

    def test_passes_for_spike(self, spike_config):
        verdict = variance_identity(spike_config, 100, base_seed=12, replicates=5000)
        assert verdict.status == "PASS", verdict.message

    def test_corrupted_spec_fails(self, ar1_config):
        # negative control: AR1's sampler judged against a gamma scaled x2
        # must be caught, though the SE follows the x2 spec too
        class DoubledSpec(type(ar1_config.model)):
            name = "AR1_DOUBLED_SPEC"

            def gamma(self, p, h):
                return 2.0 * super().gamma(p, h)

        corrupted = ProcessConfig(DoubledSpec(), ar1_config.params)
        verdict = variance_identity(corrupted, 100, base_seed=11, replicates=5000)
        assert verdict == Verdict(
            "FAIL", "n=100: |MSE - exact Var(A_n)| = 25.49 MC standard errors exceeds 4"
        )

    @pytest.mark.parametrize(
        "config_name, n, held, named",
        [("ar1_config", 50, "0.01", r"Var\(A_n\) = nan, Var\(\(A_n - m_n\)\^2\) = nan"),
         # Every spike term at n = 1 is +-1: every squared deviation is 1,
         # so the MSE equals the exact 1 and the SE is 0.
         ("spike_config", 1, "0.00", r"Var\(A_n\) = nan")],
        ids=["ar1", "spikes-zero-se"],
    )
    def test_a_nan_exact_variance_is_rejected_not_passed(
        self, request, config_name, n, held, named
    ):
        # Every comparison with NaN is false, so no leg could FAIL it.
        process = request.getfixturevalue(config_name)
        assert variance_identity(process, n, base_seed=11, replicates=1000) == Verdict(
            "PASS", f"max deviation {held} MC standard errors (<= 4)"
        )
        stationary = process.model.gamma is not None

        class NanCovariance(type(process.model)):
            """The family's sampler with every covariance NaN."""

            name = "NAN_COVARIANCE"
            if stationary:
                def gamma(self, p, h):
                    return np.full(np.shape(h), np.nan)
            else:
                def variance(self, p, t):
                    return np.full(np.shape(t), np.nan)

        nan_cov = ProcessConfig(NanCovariance(), process.params)
        with pytest.raises(OverflowError,
                           match=rf"^n={n}: outside the float range: {named};"):
            variance_identity(nan_cov, n, base_seed=11, replicates=1000)

    def test_ar1_scaled_by_a_power_of_two_keeps_its_verdict(self):
        # Paths at gamma0 = 2**-900 are those at gamma0 = 1 scaled by
        # 2**-450, so every squared deviation scales by 2**-900; the SE must
        # follow, not underflow to 0 with the fourth powers.
        def run(gamma0):
            process = ProcessConfig("AR1", {"phi": 0.5, "gamma0": gamma0})
            config = ExperimentConfig(
                process=process, base_seed=3, n_grid=(10, 100), replicates=2000,
                epsilons=(0.1,), checks=frozenset({Check.VARIANCE_IDENTITY}),
            )
            return run_experiment(config)

        tiny, unit = run(2.0**-900), run(1.0)
        assert tiny.verdicts == unit.verdicts
        assert tiny.verdicts[Check.VARIANCE_IDENTITY].status == "PASS"
        for small, one in zip(tiny.per_n, unit.per_n):
            assert small.mc_standard_error == math.ldexp(one.mc_standard_error, -900)

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
        config = ProcessConfig("COMMON_SHOCK", {"sigma_z": 1.0, "sigma_eps": 0.0})
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

    def test_short_grid_tails_that_stay_at_one_fail(self, spike_config):
        # X_1 = +-1, so |A_n| >= 1/n > 0.1 for n <= 9 unless larger spikes
        # cancel it: the eps = 0.1 tail is 1 at both grid points, with a
        # binomial SE of 0, and a tail that did not fall is no shrinking tail.
        config = ExperimentConfig(
            process=spike_config,
            base_seed=5,
            n_grid=(2, 9),
            replicates=1000,
            epsilons=(0.1,),
            checks=frozenset({Check.WLLN}),
        )
        report = run_experiment(config)
        assert [s.empirical_tails[0.1] for s in report.per_n] == [1.0, 1.0]
        verdict = report.verdicts[Check.WLLN]
        assert verdict.status == "FAIL", verdict.message
        assert verdict.message == "eps=0.1: no net decrease (1 -> 1)"


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


class TestDeterminism:
    def base_config(self, process) -> ExperimentConfig:
        return ExperimentConfig(
            process=process,
            base_seed=97,
            n_grid=(10, 100),
            replicates=600,
            epsilons=(0.2, 0.05),
            checks=frozenset({Check.VARIANCE_IDENTITY, Check.WLLN, Check.BOUNDS}),
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
        assert set(report.verdicts) == {Check.VARIANCE_IDENTITY, Check.WLLN, Check.BOUNDS}
        assert report.checks == (Check.VARIANCE_IDENTITY, Check.WLLN, Check.BOUNDS)


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
        (averages,) = _ensemble_averages(config, (n,), 91, replicates, workers)
        expected = [
            time_average(SamplePath(reference_path(config, n, RngSeed(91, r))))
            for r in range(replicates)
        ]
        assert np.array_equal(averages, expected)

    @pytest.mark.parametrize("family", list(ENGINE_CONFIGS))
    def test_prefix_rows_equal_time_average_of_shorter_paths(self, family):
        # one ensemble drawn at the longest length, in multi-row blocks;
        # row k averages each path's first lengths[k] values, bit for bit
        # the time average of the path sampled at that length alone
        config, lengths, replicates = ENGINE_CONFIGS[family], (1, 7, 95, 1003), 70
        averages = _ensemble_averages(config, lengths, 91, replicates, 2)
        assert averages.shape == (len(lengths), replicates)
        for row, m in zip(averages, lengths):
            expected = [
                time_average(sample_path(config, m, RngSeed(91, r)))
                for r in range(replicates)
            ]
            assert row.tobytes() == np.array(expected).tobytes(), m

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
        (averages,) = _ensemble_averages(ENGINE_CONFIGS["AR1"], (n,), 1, len(rows), None)
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
        serial = _ensemble_averages(config, (n,), 23, replicates, 1)
        threaded = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: threaded.append(
                    _ensemble_averages(config, (n,), 23, replicates, 8)
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
        # MSE and tails, bit for bit, from the averages of every grid
        # point's replicates, all drawn from the base of the longest length:
        # replicate r at n is the path of RngSeed(derive_stream(47,
        # n_grid[-1]), r) sampled at length n.  The standard error is the
        # exact sd((A_n - m_n)^2) / sqrt(R) of the Gaussian family.
        config = ExperimentConfig(
            process=drift_config, base_seed=47, n_grid=(10, 100), replicates=500,
            epsilons=(0.5, 0.1, 0.02), checks=NO_CHECKS,
        )
        spec = build_spec(drift_config)
        base = derive_stream(47, config.n_grid[-1])
        for stats in run_experiment(config).per_n:
            a = np.array([
                time_average(sample_path(drift_config, stats.n, RngSeed(base, r)))
                for r in range(500)
            ])
            m_n = mean_average(spec, stats.n)
            dev_sq = (a - m_n) ** 2
            assert stats.empirical_mse == float(np.mean(dev_sq))
            var_an = time_average_variance(spec, stats.n)
            assert stats.mc_standard_error == math.sqrt(2.0) * var_an / math.sqrt(500)
            for eps, tail in stats.empirical_tails.items():
                assert tail == int(np.count_nonzero(np.abs(a - m_n) >= eps)) / 500

    @pytest.mark.parametrize("family", list(ENGINE_CONFIGS))
    def test_last_grid_point_is_the_one_point_grid(self, family):
        # the longest length keeps its ensemble and every statistic when
        # shorter lengths join the grid
        def per_n(n_grid):
            config = ExperimentConfig(
                process=ENGINE_CONFIGS[family], base_seed=53, n_grid=n_grid,
                replicates=300, epsilons=(0.5, 0.1), checks=NO_CHECKS,
            )
            return run_experiment(config).per_n

        assert per_n((100, 1000, 2048))[-1] == per_n((2048,))[0]


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

    @pytest.mark.parametrize("family", list(ENGINE_CONFIGS))
    def test_verdicts_follow_from_the_report_json(self, family):
        # every check reads only what report.json holds: rebuilt from the
        # parsed JSON, the report gets the same verdict from every check
        config = ExperimentConfig(
            process=ENGINE_CONFIGS[family], base_seed=61, n_grid=(10, 100, 1000),
            replicates=200, epsilons=(0.25, 0.05), checks=frozenset(Check),
        )
        report = run_experiment(config)
        doc = json.loads(json.dumps(report.to_dict()))

        def by_eps(values: dict) -> dict:
            return {float(eps): v for eps, v in values.items()}

        growth = doc["growth"]
        rebuilt = ConvergenceReport(
            process=ProcessConfig(**doc["process"]),
            n_grid=tuple(doc["n_grid"]),
            replicates=doc["replicates"],
            base_seed=doc["base_seed"],
            epsilons=tuple(doc["epsilons"]),
            checks=tuple(Check(c) for c in doc["checks"]),
            per_n=tuple(
                PerNStats(
                    n=p["n"],
                    exact_var_an=p["exact_var_an"],
                    empirical_mse=p["empirical_mse"],
                    mc_standard_error=p["mc_standard_error"],
                    empirical_tails=by_eps(p["empirical_tails"]),
                    chebyshev_bounds=by_eps(p["chebyshev_bounds"]),
                    pz_lower=by_eps(p["pz_lower"]),
                )
                for p in doc["per_n"]
            ),
            growth=GrowthReport(
                n_grid=tuple(growth["n_grid"]),
                vn_values=tuple(growth["vn_values"]),
                vn_over_n2=tuple(growth["vn_over_n2"]),
                fitted_slope=growth["fitted_slope"],
                liminf_estimate=growth["liminf_estimate"],
                classification=GrowthClass(growth["classification"]),
            ),
            verdicts={},
        )
        verdicts = {c: harness._CHECKS[c](rebuilt) for c in rebuilt.checks}
        assert verdicts == report.verdicts
        assert dataclasses.replace(rebuilt, verdicts=verdicts).to_dict() == doc

    # Rows are (n, exact Var(A_n), MSE, MC SE, tail, Chebyshev, Paley-Zygmund)
    # at eps = 0.1 and 10 000 replicates, so a tail of 0.5 has a binomial SE
    # of 0.005.  The growth is QUADRATIC at a nonzero liminf, else
    # SUBQUADRATIC.  Each case reaches a verdict text no seeded run prints.
    @pytest.mark.parametrize("check, family, rows, liminf, expected", [
        (Check.VARIANCE_IDENTITY, "AR1", [(10, 0.5, 0.25, 0.0, 0.5, 1.0, None)], 0.0,
         Verdict("FAIL", "n=10: gap 0.25 with zero MC error")),
        (Check.VARIANCE_IDENTITY, "AR1",
         [(10, 0.5, 0.5, 0.0, 0.5, 1.0, None), (100, 0.05, 0.1, 0.01, 0.5, 1.0, None)],
         0.0, Verdict("FAIL", "n=100: |MSE - exact Var(A_n)| = 5.00 MC standard "
                              "errors exceeds 4")),
        # the zero-SE point matches exactly and leaves the worst deviation alone
        (Check.VARIANCE_IDENTITY, "AR1",
         [(10, 0.5, 0.5, 0.0, 0.5, 1.0, None), (100, 0.05, 0.07, 0.01, 0.5, 1.0, None)],
         0.0, Verdict("PASS", "max deviation 2.00 MC standard errors (<= 4)")),
        (Check.L2_CONVERGENCE, "AR1",
         [(10, 0.1, 0.1, 0.01, 0.5, 1.0, None), (100, 0.1, 0.01, 0.01, 0.5, 1.0, None)],
         0.0, Verdict("FAIL", "exact Var(A_n) is not strictly decreasing over n_grid")),
        (Check.L2_CONVERGENCE, "AR1",
         [(10, 0.1, 0.1, 0.01, 0.5, 1.0, None), (100, 0.01, 0.2, 0.01, 0.5, 1.0, None)],
         0.0, Verdict("FAIL", "empirical MSE did not decrease over n_grid")),
        (Check.WLLN, "AR1",
         [(10, 0.1, 0.1, 0.01, 0.1, 1.0, None), (100, 0.01, 0.01, 0.01, 0.5, 1.0, None)],
         0.0, Verdict("FAIL", "eps=0.1: tail rose 0.1 -> 0.5")),
        (Check.NONCONVERGENCE, "COMMON_SHOCK",
         [(10, 1.0, 1.0, 0.01, 0.9, 1.0, 0.5), (100, 1.0, 0.5, 0.01, 0.9, 1.0, 0.5)],
         1.0, Verdict("FAIL", "n=100: empirical MSE 0.5 fell below 0.9 * liminf "
                              "estimate 1")),
        # eps^2 = 0.01 is above the liminf, but the floor is judged first
        (Check.NONCONVERGENCE, "COMMON_SHOCK",
         [(10, 1.0, 1.0, 0.01, 0.9, 1.0, 0.5), (100, 1.0, 0.001, 0.01, 0.9, 1.0, 0.5)],
         0.005, Verdict("FAIL", "n=100: empirical MSE 0.001 fell below 0.9 * liminf "
                                "estimate 0.005")),
        (Check.NONCONVERGENCE, "COMMON_SHOCK",
         [(10, 1.0, 1.0, 0.01, 0.9, 1.0, 0.5), (100, 1.0, 1.0, 0.01, 0.1, 1.0, 0.5)],
         1.0, Verdict("FAIL", "n=100, eps=0.1: tail 0.1 fell below the exact-moment "
                              "lower bound 0.5")),
        (Check.BOUNDS, "AR1", [(10, 0.5, 0.5, 0.01, 0.5, 0.1, None)], 0.0,
         Verdict("FAIL", "n=10, eps=0.1: tail 0.5 exceeds Chebyshev bound 0.1")),
        (Check.BOUNDS, "AR1", [(10, 0.5, 0.5, 0.01, 0.1, 1.0, 0.5)], 0.0,
         Verdict("FAIL", "n=10, eps=0.1: tail 0.1 below Paley-Zygmund bound 0.5")),
    ])
    def test_hand_built_report_verdicts(self, check, family, rows, liminf, expected):
        grid = tuple(row[0] for row in rows)
        report = ConvergenceReport(
            process=ENGINE_CONFIGS[family], n_grid=grid, replicates=10_000,
            base_seed=1, epsilons=(0.1,), checks=(check,),
            per_n=tuple(
                PerNStats(
                    n=n, exact_var_an=exact, empirical_mse=mse, mc_standard_error=se,
                    empirical_tails={0.1: tail}, chebyshev_bounds={0.1: cheb},
                    pz_lower={0.1: pz},
                )
                for n, exact, mse, se, tail, cheb, pz in rows
            ),
            growth=GrowthReport(
                n_grid=grid, vn_values=(), vn_over_n2=(), fitted_slope=1.0,
                liminf_estimate=liminf,
                classification=GrowthClass.QUADRATIC if liminf else GrowthClass.SUBQUADRATIC,
            ),
            verdicts={},
        )
        assert harness._CHECKS[check](report) == expected

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("fixture, counts", [
        ("ar1_config", {"VARIANCE_IDENTITY": 3, "L2_CONVERGENCE": 1, "WLLN": 9,
                        "BOUNDS": 15}),
        ("spike_config", {"VARIANCE_IDENTITY": 3, "WLLN": 9, "BOUNDS": 18}),
        # NONCONVERGENCE: 3 MSE-floor legs and 3 Paley-Zygmund legs
        ("shock_config", {"VARIANCE_IDENTITY": 3, "NONCONVERGENCE": 6, "BOUNDS": 18}),
        ("drift_config", {"VARIANCE_IDENTITY": 3, "L2_CONVERGENCE": 1, "WLLN": 9,
                          "BOUNDS": 13}),
    ])
    def test_default_reports_list_legs_fixed_by_the_config(
        self, fixture, counts, seed, request, monkeypatch
    ):
        # each family's default grid and epsilons: the legs each check hands
        # to the judge depend on the config and the exact moments, not on
        # the seed
        config = ExperimentConfig(
            process=request.getfixturevalue(fixture), base_seed=seed, replicates=200
        )
        report = run_experiment(config)
        judge, judged = harness._judge, []

        def counting_judge(legs, held):
            judged.extend(legs)
            return judge(legs, held)

        monkeypatch.setattr(harness, "_judge", counting_judge)
        listed = {}
        for check in report.checks:
            judged.clear()
            assert harness._CHECKS[check](report) == report.verdicts[check]
            listed[check.value] = len(judged)
        assert listed == counts
