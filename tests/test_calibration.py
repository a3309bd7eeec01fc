"""The false-FAIL rate of a verdict, checked across many seeds.

A verdict is a statistical test, so one seed that happens to pass shows
little.  Each test here runs one check on a family where its null holds, at
a band of seeds, and bounds how many of them FAIL.
"""

from ergodiag import Check, ExperimentConfig, ProcessConfig, run_experiment
from ergodiag.harness import DEFAULT_N_GRID

SEEDS = range(1000, 1030)
REPLICATES = 2000
Z = 4.0
# By Chebyshev a leg FAILs at z = 4 with probability at most 1/16 under the
# null, whatever the law of the squared deviations; by the union bound a run
# of 3 legs FAILs with probability at most 3/16, 30 runs 5.6 times on average.
MAX_FAILS = int(len(SEEDS) * len(DEFAULT_N_GRID) / Z**2)


def test_sparse_spikes_variance_identity_rarely_fails():
    # The spike family's squared deviations have a heavy right tail: an SE
    # estimated from the sample comes out too small in most runs.
    process = ProcessConfig("SPARSE_SPIKES")
    fails, worst = 0, 0.0
    for seed in SEEDS:
        config = ExperimentConfig(
            process=process, base_seed=seed, n_grid=DEFAULT_N_GRID,
            replicates=REPLICATES, checks=[Check.VARIANCE_IDENTITY],
        )
        report = run_experiment(config)
        fails += report.verdicts[Check.VARIANCE_IDENTITY].status == "FAIL"
        for stats in report.per_n:
            if stats.mc_standard_error > 0:
                gap = abs(stats.empirical_mse - stats.exact_var_an)
                worst = max(worst, gap / stats.mc_standard_error)
    print(f"\nSPARSE_SPIKES VARIANCE_IDENTITY: {fails} of {len(SEEDS)} seeds FAIL "
          f"at R = {REPLICATES}, worst z {worst:.2f}")
    assert fails <= MAX_FAILS
