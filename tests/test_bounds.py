import math
import sys

import numpy as np
import pytest

from ergodiag import (
    SamplePath,
    StationaryCov,
    chebyshev_bound,
    classify_growth,
    correlation_time,
    empirical_tail,
    estimate_tau,
    markov_bound,
    paley_zygmund_lower,
    sample_autocovariance,
)


class TestMarkov:
    def test_direct_substitution(self):
        assert markov_bound(1.0, 2.0) == 0.5

    def test_clamped_to_one(self):
        assert markov_bound(1.0, 0.5) == 1.0

    def test_tight_for_bernoulli_at_one(self):
        # Z ~ Bernoulli(0.3): exact tail P(Z >= 1) = 0.3 equals the bound
        mean = 0.3 * 1 + 0.7 * 0
        exact_tail = 0.3
        assert markov_bound(mean, 1.0) == exact_tail

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            markov_bound(-0.1, 1.0)
        with pytest.raises(ValueError):
            markov_bound(1.0, 0.0)

    def test_non_increasing_in_eps(self):
        eps = np.linspace(0.01, 5.0, 100)
        values = [markov_bound(1.0, e) for e in eps]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestChebyshev:
    def test_direct_substitution(self):
        assert chebyshev_bound(1.0, 2.0) == 0.25

    def test_deterministic_variable(self):
        assert chebyshev_bound(0.0, 0.3) == 0.0

    def test_tight_for_rademacher(self):
        # Z = +-1 equiprobable: Var = 1, P(|Z| >= 1) = 1 equals the bound
        var = 0.5 * 1 + 0.5 * 1
        assert chebyshev_bound(var, 1.0) == 1.0

    def test_reduces_to_markov_on_squared_deviation(self):
        # 100-point grid; identical arithmetic, so equality is exact
        rng = np.random.default_rng(7)
        for v, eps in zip(rng.uniform(0, 5, 100), rng.uniform(0.01, 3, 100)):
            assert chebyshev_bound(v, eps) == markov_bound(v, eps**2)

    def test_square_underflow_gives_the_clamped_bound(self):
        # 1e-170**2 and 5e-324**2 round to 0.0
        for eps in (1e-170, 5e-324):
            assert chebyshev_bound(1.0, eps) == 1.0
            assert chebyshev_bound(5e-324, eps) == 1.0
            assert chebyshev_bound(0.0, eps) == 0.0

    def test_square_overflow_divides_by_infinity(self):
        # 1e200**2 raises OverflowError in Python float arithmetic
        for eps in (1e200, sys.float_info.max):
            assert chebyshev_bound(1.0, eps) == 0.0
            assert chebyshev_bound(sys.float_info.max, eps) == 0.0
            assert chebyshev_bound(0.0, eps) == 0.0

    def test_bound_for_every_decade_of_eps(self):
        # positive finite eps from the smallest subnormal to the largest float
        eps = [5e-324] + [10.0**k for k in range(-323, 309)] + [sys.float_info.max]
        for variance in (0.0, 1e-300, 1.0, 1e300):
            values = [chebyshev_bound(variance, e) for e in eps]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chebyshev_bound(-1.0, 1.0)
        with pytest.raises(ValueError):
            chebyshev_bound(1.0, -2.0)


class TestPaleyZygmund:
    def test_vanishes_at_eps_equal_mean(self):
        assert paley_zygmund_lower(2.0, 1.0, 2.0) == 0.0

    def test_bernoulli_half(self):
        # mean 0.5, var 0.25, eps 0.25 -> 0.125; exact tail 0.5 >= bound
        bound = paley_zygmund_lower(0.5, 0.25, 0.25)
        assert bound == 0.125
        assert 0.5 >= bound

    def test_direct_substitution(self):
        assert paley_zygmund_lower(1.0, 1.0, 0.5) == 0.125

    def test_degenerate_all_zero(self):
        assert paley_zygmund_lower(0.0, 0.0, 0.0) == 0.0

    def test_eps_above_mean_rejected(self):
        with pytest.raises(ValueError):
            paley_zygmund_lower(1.0, 1.0, 1.5)

    def test_negative_moments_rejected(self):
        with pytest.raises(ValueError):
            paley_zygmund_lower(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            paley_zygmund_lower(1.0, -1.0, 0.5)

    def test_non_increasing_in_eps_up_to_mean(self):
        eps = np.linspace(0.0, 2.0, 100)
        values = [paley_zygmund_lower(2.0, 3.0, e) for e in eps]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


class TestEpsAsAFractionOfTheMean:
    """At ``eps = theta * E[Z]`` the bound is ``(1 - theta)^2 E[Z]^2 / E[Z^2]``,
    the form in which Paley-Zygmund is usually stated."""

    @pytest.mark.parametrize("theta", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_closed_form_on_grid(self, theta):
        rng = np.random.default_rng(int(theta * 100))
        for m, v in zip(rng.uniform(0.1, 5, 100), rng.uniform(0, 5, 100)):
            expected = (1 - theta) ** 2 * m**2 / (v + m**2)
            assert paley_zygmund_lower(m, v, theta * m) == pytest.approx(
                expected, abs=1e-12, rel=1e-12
            )

    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
    def test_zero_variance_gives_certain_mass(self, theta):
        assert paley_zygmund_lower(2.0, 0.0, theta * 2.0) == pytest.approx((1 - theta) ** 2)

    def test_eps_zero_gives_the_second_moment_ratio(self):
        # E[Z]^2 / E[Z^2] = 4 / (4 + 4)
        assert paley_zygmund_lower(2.0, 4.0, 0.0) == 0.5

    def test_depends_on_scale_only_through_variance_over_mean_squared(self):
        rng = np.random.default_rng(13)
        for m, v, theta, c in zip(
            rng.uniform(0.1, 5, 100),
            rng.uniform(0, 5, 100),
            rng.uniform(0.01, 0.99, 100),
            rng.uniform(0.01, 100, 100),
        ):
            assert paley_zygmund_lower(c * m, c * c * v, theta * c * m) == pytest.approx(
                paley_zygmund_lower(m, v, theta * m), abs=1e-12, rel=1e-12
            )


class TestSandwichOnSamples:
    """Lower and upper bounds from empirical moments hold for the sample.

    Applied to the empirical distribution itself (population-normalized
    variance), Markov and Paley-Zygmund are identities about the sample, so
    they must hold up to rounding with no Monte Carlo allowance at all.
    """

    @pytest.mark.parametrize(
        "draw, eps_grid",
        [
            (lambda rng, size: (rng.random(size) < 0.3).astype(float), (0.2, 0.25, 1.0)),
            (lambda rng, size: rng.exponential(1.0, size), (0.1, 0.5, 0.9)),
        ],
        ids=["bernoulli", "exponential"],
    )
    def test_sandwich(self, draw, eps_grid):
        rng = np.random.default_rng(2024)
        z = draw(rng, 100_000)
        mean = float(np.mean(z))
        var = float(np.var(z))
        for eps in eps_grid:
            if eps > mean:
                continue
            tail = float(np.mean(z >= eps))
            assert paley_zygmund_lower(mean, var, eps) <= tail + 1e-12
            assert tail <= markov_bound(mean, eps) + 1e-12


class TestUnitInterval:
    def test_values_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        for m, v, eps in zip(
            rng.uniform(0, 4, 50), rng.uniform(0, 4, 50), rng.uniform(0.01, 4, 50)
        ):
            assert 0.0 <= chebyshev_bound(v, eps) <= 1.0
            assert 0.0 <= markov_bound(m, eps) <= 1.0
            if eps <= m:
                assert 0.0 <= paley_zygmund_lower(m, v, eps) <= 1.0


NAN = float("nan")
ACOV = sample_autocovariance(SamplePath(np.sin(np.arange(50.0))), 10)
WHITE = StationaryCov(gamma=lambda h: np.where(np.equal(h, 0), 1.0, 0.0))


@pytest.mark.parametrize(
    ("name", "call"),
    [("mean", lambda: markov_bound(NAN, 0.1)),
     ("eps", lambda: chebyshev_bound(1.0, NAN)),
     ("mean", lambda: paley_zygmund_lower(NAN, 1.0, 0.0)),
     ("eps", lambda: empirical_tail(np.zeros(4), 0.0, NAN)),
     ("window_c", lambda: estimate_tau(ACOV, window_c=NAN)),
     ("window_c", lambda: estimate_tau(ACOV, window_c=math.inf)),
     ("abs_tol", lambda: correlation_time(WHITE, abs_tol=NAN)),
     ("vn_values", lambda: classify_growth([10, 100, 1000, 10_000], [NAN] * 4))],
    ids=["markov-mean", "chebyshev-eps", "paley-zygmund-mean", "empirical-tail-eps",
         "estimate-tau-nan", "estimate-tau-inf", "correlation-time-abs-tol",
         "classify-growth-vn-values"],
)
def test_nan_fails_every_numeric_guard(name, call):
    # Each guard is written so that a NaN fails its comparison.
    with pytest.raises(ValueError, match=name):
        call()
