import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ergodiag import (
    NON_SUMMABLE,
    DegenerateSeriesError,
    ExperimentConfig,
    GrowthClass,
    Model,
    ProcessConfig,
    ProcessSpec,
    RngSeed,
    SamplePath,
    StationaryCov,
    build_spec,
    classify_growth,
    correlation_time,
    covariance_sum,
    derive_stream,
    effective_sample_size,
    mean_average,
    sample_autocovariance,
    sample_path,
    time_average_variance,
)
from ergodiag import harness, model, processes
from ergodiag.processes import sample_blocks

from conftest import white_noise_spec


VARIANCE_CONFIGS = {
    "spikes": ProcessConfig("SPARSE_SPIKES"),
    "drift_linear": ProcessConfig(
        "DRIFTING_MEAN",
        {"trend": {"kind": "LINEAR", "a": 1.0, "b": 0.5}, "noise_sd": 0.3},
    ),
    "drift_sinusoid": ProcessConfig(
        "DRIFTING_MEAN",
        {"trend": {"kind": "SINUSOID", "amplitude": 2.0, "period": 7.0}, "noise_sd": 1.7},
    ),
}


def counting_cov(spec: ProcessSpec) -> tuple[ProcessSpec, list[int]]:
    """``spec`` with each covariance evaluation's element count recorded."""
    sizes: list[int] = []

    def cov_fn(t, s):
        out = spec.cov_fn(t, s)
        sizes.append(int(np.size(out)))
        return out

    return dataclasses.replace(spec, cov_fn=cov_fn), sizes


def lag_route_error_bound(gamma, n: int) -> float:
    """``(ceil(log2 n) + 2) * u * S``, ``S = n|g(0)| + 2 sum (n-h)|g(h)|``:
    the worst-case rounding of the lag route's products and pairwise sum
    (Higham 2002, ch. 4), which ``covariance_sum``'s docstring states."""
    g = np.abs(gamma(np.arange(n)))
    scale = n * g[0] + 2.0 * float(np.sum((n - np.arange(1, n)) * g[1:]))
    return (math.ceil(math.log2(n)) + 2) * 2.0**-53 * scale


def constant_mean_spec(c: float) -> ProcessSpec:
    return ProcessSpec(
        mean_fn=lambda t: np.full_like(np.asarray(t, dtype=float), c),
        cov_fn=lambda t, s: np.where(np.equal(t, s), 1.0, 0.0),
    )


class TestMeanAverage:
    def test_constant_mean(self):
        assert mean_average(constant_mean_spec(3.0), 7) == 3.0

    def test_linear_mean_is_midpoint(self):
        spec = ProcessSpec(
            mean_fn=lambda t: np.asarray(t, dtype=float),
            cov_fn=lambda t, s: np.zeros(np.broadcast_shapes(np.shape(t), np.shape(s))),
        )
        assert mean_average(spec, 5) == 3.0

    def test_sin_mean_matches_direct_summation(self):
        spec = ProcessSpec(
            mean_fn=lambda t: np.sin(np.asarray(t, dtype=float)),
            cov_fn=lambda t, s: np.where(np.equal(t, s), 1.0, 0.0),
        )
        oracle = math.fsum(math.sin(t) for t in range(1, 11)) / 10
        assert mean_average(spec, 10) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("bad_n", [0, -3])
    def test_rejects_nonpositive_n(self, bad_n):
        with pytest.raises(ValueError):
            mean_average(constant_mean_spec(1.0), bad_n)


class TestCovarianceSum:
    def test_spike_family_triangular_sum(self, spike_config):
        spec = build_spec(spike_config)
        assert covariance_sum(spec, 10) == 55.0

    def test_uncorrelated_only_diagonal_survives(self):
        assert covariance_sum(white_noise_spec(), 5, method="double") == 5.0

    def test_ar1_matches_brute_force_3x3(self, ar1_config):
        spec = build_spec(ar1_config)
        brute = math.fsum(
            0.5 ** abs(t - s) for t in range(1, 4) for s in range(1, 4)
        )
        assert brute == 5.5
        assert covariance_sum(spec, 3, method="double") == pytest.approx(5.5, rel=1e-12)
        assert covariance_sum(spec, 3) == pytest.approx(5.5, rel=1e-12)

    def test_vectorized_scalar_callable(self):
        # A function written for scalars is called through np.vectorize.
        spec = ProcessSpec(
            mean_fn=np.vectorize(lambda t: 0.0, otypes=[float]),
            cov_fn=np.vectorize(lambda t, s: 1.0 if t == s else 0.0, otypes=[float]),
        )
        assert covariance_sum(spec, 5) == 5.0
        assert covariance_sum(spec, 5, method="double") == 5.0
        assert mean_average(spec, 5) == 0.0

    def test_var_fn_is_keyword_only(self):
        # A fourth positional argument once meant a label; it must not
        # silently become the spec's variances.
        with pytest.raises(TypeError):
            ProcessSpec(zeros, zeros, None, "label")

    def test_diagonal_flag_is_gone(self):
        with pytest.raises(TypeError):
            ProcessSpec(zeros, zeros, diagonal=True)
        assert "diagonal" not in {f.name for f in dataclasses.fields(ProcessSpec)}

    def test_wrong_shape_raises_after_one_call(self):
        calls = []

        def cov_fn(t, s):
            calls.append(1)
            return np.ones(np.shape(s))  # shape bug: drops the t axis

        spec = ProcessSpec(mean_fn=lambda t: np.zeros(np.shape(t)), cov_fn=cov_fn)
        with pytest.raises(ValueError, match=r"^cov_fn returned shape \(1, 1000\).*\(1000, 1000\)"):
            covariance_sum(spec, 1000)
        assert len(calls) == 1

    def test_user_model_with_scalar_variance_names_var_fn(self):
        # Model.cov's mask broadcasts the scalar, so only the var_fn route
        # sees the wrong shape.
        class ScalarVariance(Model):
            name = "SCALAR_VARIANCE"

            def variance(self, p, t):
                return 1.0

            def draw(self, p, n):
                return lambda rngs, block, scratch: block.fill(0.0)

        spec = build_spec(ProcessConfig(ScalarVariance()))
        with pytest.raises(ValueError,
                           match=r"^var_fn returned shape \(\) for index arrays of shape \(10,\)$"):
            covariance_sum(spec, 10)
        assert covariance_sum(spec, 10, method="double") == 10.0

    @pytest.mark.parametrize("hook", ["mean_fn", "cov_fn", "gamma", "var_fn"])
    def test_shape_error_names_the_callable(self, hook):
        def scalar(*indices):
            return 0.0

        spec = ProcessSpec(
            scalar if hook == "mean_fn" else zeros,
            scalar if hook == "cov_fn" else zeros,
            StationaryCov(scalar) if hook == "gamma" else None,
            var_fn=scalar if hook == "var_fn" else None,
        )
        call = mean_average if hook == "mean_fn" else covariance_sum
        with pytest.raises(ValueError, match=rf"^{hook} returned shape \(\) for index arrays"):
            call(spec, 5)
        if hook == "gamma":
            with pytest.raises(ValueError, match=r"^gamma returned shape \(\)"):
                correlation_time(spec.stationary)

    def test_other_exceptions_propagate(self):
        def cov_fn(t, s):
            raise ZeroDivisionError("inside cov_fn")

        spec = ProcessSpec(mean_fn=lambda t: np.zeros(np.shape(t)), cov_fn=cov_fn)
        with pytest.raises(ZeroDivisionError, match="inside cov_fn"):
            covariance_sum(spec, 4)

    @pytest.mark.parametrize(
        "params",
        [{"phi": 0.9, "gamma0": 2.0}, {"phi": -0.5, "gamma0": 1.0}],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 128, 512])
    def test_double_sum_agrees_with_lag_decomposition_ar1(self, params, n):
        spec = build_spec(ProcessConfig("AR1", params))
        double = covariance_sum(spec, n, method="double")
        lags = covariance_sum(spec, n)
        assert lags == pytest.approx(double, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 128, 512])
    def test_double_sum_agrees_with_lag_decomposition_shock(self, n):
        spec = build_spec(
            ProcessConfig("COMMON_SHOCK", {"sigma_z": 2.0, "sigma_eps": 0.5})
        )
        double = covariance_sum(spec, n, method="double")
        lags = covariance_sum(spec, n)
        assert lags == pytest.approx(double, rel=1e-9)

    @pytest.mark.parametrize("n", [100, 1000, 10**4, 10**5, 10**6])
    def test_lag_route_is_within_the_absolute_error_scale_harmonic(self, n):
        # gamma(h) = cos(2 pi h / 50) has V_n = 0 exactly at multiples of 50,
        # so no relative error bound can hold there.  Reducing h mod 50
        # first keeps gamma's own rounding the same at every lag.
        def gamma(h):
            return np.cos(2.0 * np.pi * (np.asarray(h) % 50) / 50.0)

        spec = ProcessSpec(lambda t: np.zeros(np.shape(t)),
                           lambda t, s: gamma(np.abs(t - s)), StationaryCov(gamma))
        assert abs(covariance_sum(spec, n)) <= lag_route_error_bound(gamma, n)

    @pytest.mark.parametrize("phi", [-0.999, -0.99, -0.9, -0.5, 0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 10, 100, 1000, 10**4])
    def test_lag_route_is_within_the_absolute_error_scale_ar1(self, phi, n):
        # the closed form gamma0 (n (1+phi)/(1-phi) - 2 phi (1 - phi^n)/(1-phi)^2),
        # in exact rational arithmetic and rounded once
        spec = build_spec(ProcessConfig("AR1", {"phi": phi, "gamma0": 1.3}))
        p, g0 = Fraction(phi), Fraction(1.3)
        exact = float(g0 * (n * (1 + p) / (1 - p) - 2 * p * (1 - p**n) / (1 - p) ** 2))
        bound = lag_route_error_bound(spec.stationary.gamma, n)
        assert abs(covariance_sum(spec, n) - exact) <= bound

    def test_lags_method_is_unknown(self, ar1_config):
        # "auto" takes the lag route for every stationary spec.
        spec = build_spec(ar1_config)
        with pytest.raises(ValueError, match="unknown method 'lags'"):
            covariance_sum(spec, 4, method="lags")

    @pytest.mark.parametrize("name", sorted(VARIANCE_CONFIGS))
    @pytest.mark.parametrize("n", [1, 2, 17, 2048, 2049, 5000])
    def test_var_fn_route_equals_double_sum(self, name, n):
        # above 2048 the double sum spans several _BLOCK_ELEMENTS blocks
        spec = build_spec(VARIANCE_CONFIGS[name])
        assert spec.var_fn is not None and spec.stationary is None
        assert covariance_sum(spec, n) == covariance_sum(spec, n, method="double")

    @pytest.mark.parametrize("name", sorted(VARIANCE_CONFIGS))
    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_auto_sums_var_fn_and_never_calls_cov_fn(self, name, n):
        spec, sizes = counting_cov(build_spec(VARIANCE_CONFIGS[name]))
        var_fn, indices = spec.var_fn, []

        def counted(t):
            indices.append(np.asarray(t).tolist())
            return var_fn(t)

        value = covariance_sum(dataclasses.replace(spec, var_fn=counted), n)
        assert sizes == []
        assert indices == [list(range(1, n + 1))]
        assert value == covariance_sum(spec, n, method="double")
        assert sizes == [n * n]

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_lag_route_calls_gamma_once(self, ar1_config, n):
        spec = build_spec(ar1_config)
        gamma = spec.stationary.gamma
        lags = []

        def counted(h):
            lags.append(np.asarray(h).tolist())
            return gamma(h)

        stationary = dataclasses.replace(spec.stationary, gamma=counted)
        value = covariance_sum(dataclasses.replace(spec, stationary=stationary), n)
        assert lags == [list(range(n))]
        # the float of g(0) and the lags 1..n-1 evaluated apart
        h = np.arange(1, n)
        g0 = float(gamma(np.asarray([0]))[0])
        expected = g0 if n == 1 else n * g0 + 2.0 * float(np.sum((n - h) * gamma(h)))
        assert value == expected

    def test_diagonal_routes_at_one_million(self):
        n = 10**6
        spikes = build_spec(ProcessConfig("SPARSE_SPIKES"))
        # every partial sum is an integer below 2**53, so exact
        assert covariance_sum(spikes, n) == n * (n + 1) / 2
        config = VARIANCE_CONFIGS["drift_sinusoid"]
        drift = build_spec(config)
        expected = n * config.params["noise_sd"] ** 2
        assert covariance_sum(drift, n) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_for_every_family(
        self, ar1_config, spike_config, shock_config, drift_config
    ):
        for config in (ar1_config, spike_config, shock_config, drift_config):
            spec = build_spec(config)
            for n in (1, 2, 13, 100):
                assert covariance_sum(spec, n) >= 0.0

    def test_rejects_bad_method_and_bad_n(self):
        spec = white_noise_spec()
        with pytest.raises(ValueError):
            covariance_sum(spec, 5, method="fft")
        with pytest.raises(ValueError):
            covariance_sum(spec, 0)


def raises_on_arrays(exc_type: type, calls: list):
    """A callable that returns 0.0 for scalar indices and raises ``exc_type``
    on index arrays, counting its calls."""

    def fn(*indices):
        calls.append(1)
        if any(np.ndim(i) for i in indices):
            raise exc_type("genuine bug")
        return 0.0

    return fn


def zeros(*indices):
    return np.zeros(np.broadcast_shapes(*(np.shape(i) for i in indices)))


@pytest.mark.parametrize("exc_type", [ValueError, TypeError])
class TestOneCallPerBlock:
    """A callable is called once per block of indices; its errors propagate."""

    @pytest.mark.parametrize("route", ["lags", "var_fn", "double-auto", "double"])
    def test_covariance_sum_propagates_after_one_call(self, exc_type, route):
        calls = []
        fn = raises_on_arrays(exc_type, calls)
        if route == "lags":
            spec = ProcessSpec(zeros, zeros, stationary=StationaryCov(gamma=fn))
        elif route == "var_fn":
            spec = ProcessSpec(zeros, zeros, var_fn=fn)
        else:
            spec = ProcessSpec(zeros, fn)
        method = "double" if route == "double" else "auto"
        with pytest.raises(exc_type, match="genuine bug"):
            covariance_sum(spec, 300, method=method)
        assert len(calls) == 1

    def test_mean_average_propagates_after_one_call(self, exc_type):
        calls = []
        spec = ProcessSpec(raises_on_arrays(exc_type, calls), zeros)
        with pytest.raises(exc_type, match="genuine bug"):
            mean_average(spec, 300)
        assert len(calls) == 1

    def test_correlation_time_propagates_after_one_call(self, exc_type):
        calls = []
        cov = StationaryCov(gamma=raises_on_arrays(exc_type, calls))
        with pytest.raises(exc_type, match="genuine bug"):
            correlation_time(cov)
        assert len(calls) == 1


class TestTimeAverageVariance:
    def test_spike_value(self, spike_config):
        spec = build_spec(spike_config)
        assert time_average_variance(spec, 10) == 0.55

    def test_uncorrelated_is_gamma0_over_n(self):
        assert time_average_variance(white_noise_spec(), 5) == pytest.approx(0.2)

    def test_ar1_value(self, ar1_config):
        spec = build_spec(ar1_config)
        assert time_average_variance(spec, 3) == pytest.approx(5.5 / 9, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 64, 300])
    def test_is_exactly_covariance_sum_divided(self, ar1_config, spike_config, n):
        for config in (ar1_config, spike_config):
            spec = build_spec(config)
            assert time_average_variance(spec, n) == covariance_sum(spec, n) / n**2


@pytest.mark.parametrize("n", [1, 2, 10, 11, 1023, 1024, 1025, 30_000])
@pytest.mark.parametrize("params", [
    {"phi": 0.653, "gamma0": 1.3},
    {"phi": -0.653, "gamma0": 1.3},
    {"sigma_z": 1.1, "sigma_eps": 0.7},
    {"sigma_z": 0.9, "sigma_eps": 0.0},
], ids=["ar1", "ar1-negative", "common-shock", "common-shock-noiseless"])
def test_lag_sum_equals_integer_weight_expression(params, n):
    # The lag route's descending float weights n - h are the integer ones,
    # and the sum keeps every bit: the reference calls the same gamma, so
    # this holds whatever the CPU's pow returns.  SPARSE_SPIKES and
    # DRIFTING_MEAN are summed over their variances, not by lag.
    family = "COMMON_SHOCK" if "sigma_z" in params else "AR1"
    spec = build_spec(ProcessConfig(family, params))
    g = spec.stationary.gamma(np.arange(n, dtype=np.int64))
    h = np.arange(1, n, dtype=np.int64)
    expected = float(g[0]) if n == 1 else n * float(g[0]) + 2.0 * float(np.sum((n - h) * g[1:]))
    assert covariance_sum(spec, n) == expected


def pow_ar1_spec(phi: float, gamma0: float) -> ProcessSpec:
    """AR1 written as the plain formula ``gamma0 * phi**|h|``, pow at every lag."""
    return ProcessSpec(
        lambda t: np.zeros(np.shape(t)),
        lambda t, s: gamma0 * phi ** np.abs(t - s),
        stationary=StationaryCov(lambda h: gamma0 * phi ** np.abs(h)),
    )


class TestAr1ZeroLagSums:
    # AR1's gamma skips pow from its zero lag H on (1757 at phi = 0.653,
    # 250 at 0.05); V_n must keep every bit of the plain formula.
    @pytest.mark.parametrize("phi", [0.653, -0.653, 0.05, -0.05])
    def test_time_average_variance_is_bit_identical(self, phi):
        spec = build_spec(ProcessConfig("AR1", {"phi": phi, "gamma0": 1.3}))
        plain = pow_ar1_spec(phi, 1.3)
        H = processes._ar1_zero_lag(phi)
        for n in (1, 2, H - 1, H, H + 1, 30_000, 100_000):
            assert time_average_variance(spec, n) == time_average_variance(plain, n), n

    @pytest.mark.parametrize("phi", [0.653, -0.653, 0.05, -0.05])
    def test_double_sum_is_bit_identical(self, phi):
        spec = build_spec(ProcessConfig("AR1", {"phi": phi, "gamma0": 1.3}))
        plain = pow_ar1_spec(phi, 1.3)
        assert covariance_sum(spec, 300, method="double") == covariance_sum(
            plain, 300, method="double"
        )


def reference_correlation_time(gamma, abs_tol=1e-10, max_terms=100_000):
    """``correlation_time`` computed one lag at a time, the plain way."""
    g0 = float(np.ravel(gamma(np.asarray([0])))[0])
    acc = g0
    run = 0
    for h in range(1, max_terms + 1):
        gh = float(np.ravel(gamma(np.asarray([h])))[0])
        acc += 2.0 * gh
        if abs(2.0 * gh) < abs_tol:
            run += 1
            if run >= 10:
                return acc / g0
        else:
            run = 0
    return NON_SUMMABLE


def step_gamma(small_from: int, breaks: tuple[int, ...] = ()):
    """``gamma`` of 1 at lag 0, ~1e-3 before ``small_from`` and at each lag
    in ``breaks``, and a tiny 1e-13 everywhere else."""

    def gamma(h):
        h = np.asarray(h)
        large = (h < small_from) | np.isin(h, breaks)
        return np.where(h == 0, 1.0, np.where(large, 1e-3 / (1 + h % 7), 1e-13))

    return gamma


class TestCorrelationTime:
    def test_uncorrelated_is_one(self):
        cov = StationaryCov(gamma=lambda h: np.where(np.equal(h, 0), 1.0, 0.0))
        assert correlation_time(cov, abs_tol=1e-12, max_terms=1000) == 1.0

    def test_ar1_geometric_series(self):
        cov = StationaryCov(gamma=lambda h: 0.5 ** np.abs(h))
        tau = correlation_time(cov, abs_tol=1e-9, max_terms=10_000)
        # partial-sum oracle: 1 + 2 * sum_{h>=1} 0.5**h = 3
        oracle = 1.0 + 2.0 * math.fsum(0.5**h for h in range(1, 200))
        assert tau == pytest.approx(oracle, abs=1e-6)
        assert tau == pytest.approx(3.0, abs=1e-6)

    def test_common_shock_is_non_summable(self):
        cov = StationaryCov(gamma=lambda h: np.ones_like(np.asarray(h, dtype=float)))
        assert correlation_time(cov, abs_tol=1e-9, max_terms=500) is NON_SUMMABLE

    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9])
    def test_geometric_closed_form_within_tolerance(self, phi):
        abs_tol = 1e-8
        cov = StationaryCov(gamma=lambda h: phi ** np.abs(h))
        tau = correlation_time(cov, abs_tol=abs_tol, max_terms=100_000)
        assert abs(tau - (1 + phi) / (1 - phi)) < abs_tol * 10

    @pytest.mark.parametrize("phi", [-0.7, 0.1, 0.5, 0.9, 0.99])
    def test_ar1_equals_lag_by_lag_loop(self, phi):
        spec = build_spec(ProcessConfig("AR1", {"phi": phi, "gamma0": 1.5}))
        expected = reference_correlation_time(spec.stationary.gamma)
        assert correlation_time(spec.stationary) == expected

    @pytest.mark.parametrize(
        "gamma",
        [
            # the run of 10 small lags straddles lag 1024, the first chunk end
            step_gamma(small_from=1020),
            # a run broken at length 9
            step_gamma(small_from=101, breaks=(110,)),
            # a run of 9 ending at lag 1024, broken by the next chunk's first lag
            step_gamma(small_from=1016, breaks=(1025,)),
            # two runs broken at length 9, the second straddling lag 1024
            step_gamma(small_from=1011, breaks=(1020, 1030)),
            # small terms from either side of the chunk ends at lags 1024
            # and 3072
            step_gamma(small_from=1023),
            step_gamma(small_from=1024),
            step_gamma(small_from=1025),
            step_gamma(small_from=3071),
            step_gamma(small_from=3072),
            step_gamma(small_from=3073),
            # the stop lag H = small_from + 9 on either side of those ends
            *(step_gamma(small_from=stop - 9) for stop in (1023, 1024, 1025, 3071, 3072, 3073)),
            # a run of 6 ending chunk 1, no small term in chunk 2 (lags
            # 1025-3072), a full run in chunk 3: the run restarts from 0
            step_gamma(small_from=1019, breaks=tuple(range(1025, 3073))),
            # a scalar function, called through np.vectorize
            np.vectorize(lambda h: 1.0 if h == 0 else (1e-3 if h < 1020 else 0.0),
                         otypes=[float]),
        ],
    )
    def test_tail_run_across_chunks_equals_lag_by_lag_loop(self, gamma):
        expected = reference_correlation_time(gamma)
        assert expected is not NON_SUMMABLE
        assert correlation_time(StationaryCov(gamma=gamma)) == expected

    @pytest.mark.parametrize(
        ("gamma", "max_terms"),
        [(lambda h: 0.5 ** np.abs(h), 1)]
        # converged exactly at lag 500 / 1500
        + [
            (step_gamma(small_from=small_from), max_terms)
            for small_from in (491, 1491)
            for max_terms in (1, 500, 1500)
        ]
        # converged 5 lags before, at and 1 lag past max_terms (NON_SUMMABLE),
        # with max_terms below the first chunk end, at it and at the second
        + [
            (step_gamma(small_from=max_terms + overshoot - 9), max_terms)
            for max_terms in (20, 500, 1023, 1024, 1025, 3072, 3073)
            for overshoot in (-5, 0, 1)
        ],
    )
    def test_max_terms_equals_lag_by_lag_loop(self, gamma, max_terms):
        cov = StationaryCov(gamma=gamma)
        expected = reference_correlation_time(gamma, max_terms=max_terms)
        assert correlation_time(cov, max_terms=max_terms) == expected

    @pytest.mark.parametrize("small_from", [3000, 7000, 20_000])
    def test_terms_summed_while_waiting_equal_lag_by_lag_loop(self, monkeypatch, small_from):
        # With 2048-lag blocks the terms of the chunks before H are summed
        # into the carried total before H is found.
        monkeypatch.setattr(model, "_BLOCK_ELEMENTS", 2048)
        gamma = step_gamma(small_from=small_from, breaks=(small_from + 5,))
        cov = StationaryCov(gamma=gamma)
        assert correlation_time(cov) == reference_correlation_time(gamma)
        assert correlation_time(cov, max_terms=small_from) is NON_SUMMABLE

    def test_common_shock_default_max_terms(self, shock_config):
        stationary = build_spec(shock_config).stationary
        calls = []

        def gamma(h):
            calls.append(np.size(h))
            return stationary.gamma(h)

        assert correlation_time(StationaryCov(gamma=gamma)) is NON_SUMMABLE
        assert sum(calls) == 1 + 100_000
        assert len(calls) < 20

    # tau as float.hex (None for NON_SUMMABLE) and the lags of each gamma
    # call: lag 0 rides in the first chunk's call, lags 0-1024, and every
    # later chunk keeps its lags.  The floats are those of a separate
    # gamma(0) call before the chunks.
    @pytest.mark.parametrize(("params", "max_terms", "tau", "sizes"), [
        ({"phi": 0.5, "gamma0": 1.0}, 100_000, "0x1.7ffffffffff00p+1", [1025]),
        ({"phi": -0.653, "gamma0": 1.0}, 100_000, "0x1.adeb3f5779e95p-3", [1025]),
        ({"phi": 0.999, "gamma0": 1.0}, 100_000, "0x1.f3bfffff95c49p+10",
         [1025, 2048, 4096, 8192, 16384]),
        ({"sigma_z": 1.0, "sigma_eps": 1.0}, 100_000, None,
         [1025, 2048, 4096, 8192, 16384, 32768, 35488]),
        # converged at lag 1186, in a second chunk cut short at lag 1500
        ({"phi": 0.98, "gamma0": 1.0}, 1500, "0x1.8bffffffbb252p+6", [1025, 476]),
        ({"phi": 0.5, "gamma0": 1.0}, 1500, "0x1.7ffffffffff00p+1", [1025]),
        ({"phi": 0.5, "gamma0": 1.0}, 1, None, [2]),
    ], ids=["ar1-0.5", "ar1--0.653", "ar1-0.999", "common-shock", "ar1-0.98-1500",
            "ar1-0.5-1500", "ar1-0.5-1"])
    def test_one_gamma_call_per_chunk(self, params, max_terms, tau, sizes):
        family = "COMMON_SHOCK" if "sigma_z" in params else "AR1"
        stationary = build_spec(ProcessConfig(family, params)).stationary
        calls = []

        def gamma(h):
            calls.append(np.size(h))
            return stationary.gamma(h)

        got = correlation_time(StationaryCov(gamma=gamma), max_terms=max_terms)
        if tau is None:
            assert got is NON_SUMMABLE
        else:
            assert got.hex() == tau
        assert calls == sizes

    def test_degenerate_variance_rejected(self):
        cov = StationaryCov(gamma=lambda h: np.zeros_like(np.asarray(h, dtype=float)))
        with pytest.raises(DegenerateSeriesError):
            correlation_time(cov)


class TestEffectiveSampleSize:
    def test_division(self):
        assert effective_sample_size(1000, 3.0).value == pytest.approx(1000 / 3)

    def test_uncorrelated(self):
        result = effective_sample_size(1000, 1.0)
        assert result.value == 1000.0
        assert not result.non_summable

    def test_non_summable_convention(self):
        result = effective_sample_size(1000, NON_SUMMABLE)
        assert result.value == 0.0
        assert result.non_summable

    def test_anticorrelated_tau_below_one_accepted(self):
        assert effective_sample_size(1000, 0.5).value == 2000.0

    @pytest.mark.parametrize("bad_tau", [0.0, -1.0, math.inf, math.nan])
    def test_bad_tau_rejected(self, bad_tau):
        with pytest.raises(ValueError):
            effective_sample_size(1000, bad_tau)


GRID = [10, 100, 1000, 10_000]


class TestClassifyGrowth:
    def test_triangular_vn_is_quadratic(self):
        report = classify_growth(GRID, [n * (n + 1) / 2 for n in GRID])
        assert report.classification is GrowthClass.QUADRATIC
        assert report.liminf_estimate == pytest.approx(0.5, abs=1e-3)

    def test_linear_vn_is_subquadratic(self):
        report = classify_growth(GRID, [float(n) for n in GRID])
        assert report.classification is GrowthClass.SUBQUADRATIC
        assert report.fitted_slope == pytest.approx(1.0, abs=1e-9)

    def test_power_law_slope_recovered(self):
        # log-log fit on an exact power law recovers the exponent exactly
        report = classify_growth(GRID, [n**1.5 for n in GRID])
        assert report.classification is GrowthClass.SUBQUADRATIC
        assert report.fitted_slope == pytest.approx(1.5, abs=1e-9)

    def test_ratio_column_is_exact_division(self):
        vals = [n * (n + 1) / 2 for n in GRID]
        report = classify_growth(GRID, vals)
        for n, v, r in zip(report.n_grid, report.vn_values, report.vn_over_n2):
            assert r == v / n**2

    @pytest.mark.parametrize("scale", [1e-6, 0.5, 3.0, 1e9])
    def test_scale_invariance(self, scale):
        base = classify_growth(GRID, [n**1.7 for n in GRID])
        scaled = classify_growth(GRID, [scale * n**1.7 for n in GRID])
        assert scaled.classification is base.classification
        assert scaled.fitted_slope == pytest.approx(base.fitted_slope, rel=1e-9)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            classify_growth(GRID, [1.0, 2.0])

    def test_rejects_non_monotone_grid(self):
        with pytest.raises(ValueError):
            classify_growth([10, 100, 50, 1000], [1.0] * 4)

    def test_rejects_negative_vn(self):
        with pytest.raises(ValueError):
            classify_growth(GRID, [1.0, -2.0, 3.0, 4.0])

    def test_rejects_short_grid_and_narrow_span(self):
        with pytest.raises(ValueError):
            classify_growth([10, 20, 30], [1.0] * 3)
        with pytest.raises(ValueError):
            classify_growth([10, 20, 40, 80], [1.0] * 4)

    def test_all_zero_vn_is_indeterminate(self):
        report = classify_growth(GRID, [0.0] * 4)
        assert report.classification is GrowthClass.INDETERMINATE
        assert math.isnan(report.fitted_slope)
        assert report.to_dict()["fitted_slope"] is None

    @pytest.mark.parametrize("vals", [
        [1.0, 10.0, math.inf, 1e4], [math.inf] * 4, [1.0, 10.0, 100.0, -math.inf],
    ], ids=["one-inf", "all-inf", "minus-inf"])
    def test_rejects_infinite_vn(self, vals):
        # An inf used to reach the fit (a NaN slope, with numpy's "invalid
        # value" warning) or the report (an inf liminf, not strict JSON).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^vn_values must be finite and non-negative"):
                classify_growth(GRID, vals)

    def test_rejects_vn_past_the_float_range(self):
        with pytest.raises(ValueError, match="^vn_values must be finite and non-negative"):
            classify_growth(GRID, [10**400] * 4)
        with pytest.raises(ValueError, match="^vn_values must be finite and non-negative"):
            classify_growth(GRID, [1, 10, 100, 10**400])

    @pytest.mark.parametrize("grid", [
        [1, 10, 100, 10**160], [10**200, 10**201, 10**202, 10**203],
    ], ids=["last", "all"])
    def test_rejects_grid_whose_square_is_past_the_float_range(self, grid):
        # vn_over_n2 divides by float(n * n), which overflowed with a bare
        # OverflowError.
        with pytest.raises(ValueError, match=r"^n_grid entries must be below about 1\.34e154"):
            classify_growth(grid, [1.0] * 4)

    def test_largest_grid_entry_whose_square_is_a_float(self):
        top = math.isqrt(2**1024 - 2**970 - 1)
        grid = [top // 1000, top // 100, top // 10, top]
        report = classify_growth(grid, [1.0] * 4)
        assert report.vn_over_n2 == tuple(1.0 / float(n * n) for n in grid)
        with pytest.raises(ValueError, match="^n_grid entries"):
            classify_growth(grid[:3] + [top + 1], [1.0] * 4)


def numpy_formula_slope(n_grid: list[int], vn_values: list[float]) -> float:
    """The top-decade least-squares slope by the plain NumPy formula:
    ``np.log`` of each column on its own, ``.mean()`` and ``np.sum``."""
    sel = [i for i, n in enumerate(n_grid) if 10 * n >= n_grid[-1]]
    if len(sel) < 2:
        sel = [len(n_grid) - 2, len(n_grid) - 1]
    sel_n = np.asarray([n_grid[i] for i in sel], dtype=float)
    sel_v = np.asarray([vn_values[i] for i in sel], dtype=float)
    if not np.all(sel_v > 0):
        return math.nan
    x, y = np.log(sel_n), np.log(sel_v)
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def seeded_growth_cases(seed: int, count: int) -> list[tuple[list[int], list[float]]]:
    """``count`` (grid, V_n) pairs of 4 to 12 points spanning at least a
    decade, in turn: a top decade of 8 or more points (NumPy sums 8 or more
    values with 8 accumulators), a log-uniform grid with random ``V_n`` and
    one with a power law ``c * n**a``; every seventh case has a zero
    ``V_n``."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        size, kind = int(rng.integers(4, 13)), len(cases) % 3
        if kind == 0:
            top = int(rng.integers(10**3, 10**7))
            points = rng.integers(top // 10, top, max(size, 9) - 1)
            grid = sorted({1, top, *map(int, points)})
        else:
            grid = sorted({int(n) for n in np.exp(rng.uniform(0, 16, size))})
        if len(grid) < 4 or grid[-1] < 10 * grid[0]:
            continue
        if kind == 2:
            a, c = rng.uniform(0.0, 2.2), rng.uniform(0.1, 10.0)
            vals = [c * n**a for n in grid]
        else:
            vals = [float(v) for v in np.exp(rng.uniform(-30, 30, len(grid)))]
        if len(cases) % 7 == 0:
            vals[int(rng.integers(len(vals)))] = 0.0
        cases.append((grid, vals))
    return cases


# The exact outputs of one model per family on the exact benchmark's grid,
# as float.hex: mean_average and time_average_variance at each n,
# classify_growth of covariance_sum at the four n, and correlation_time.
# AR1's phi = -0.5 has exact powers, so no value depends on the CPU's pow.
EXACT_GRID = (1000, 3000, 10_000, 30_000)
EXACT_BITS = {
    "AR1": (
        ProcessConfig("AR1", {"phi": -0.5, "gamma0": 1.7}),
        ["0x0.0p+0"] * 4,
        ["0x1.297e1f1988de9p-11", "0x1.8c4e054bde4a0p-13",
         "0x1.db6af72a0c19cp-15", "0x1.3ceac40412143p-16"],
        ("0x1.ffe90f2598e75p-1", "0x1.3ceac40412143p-16", "SUBQUADRATIC"),
        "0x1.5555555555800p-2",
    ),
    "SPARSE_SPIKES": (
        ProcessConfig("SPARSE_SPIKES"),
        ["0x0.0p+0"] * 4,
        ["0x1.004189374bc6ap-1", "0x1.0015d867c3ecep-1",
         "0x1.00068db8bac71p-1", "0x1.00022f3d9397bp-1"],
        ("0x1.fff7658b81d58p+0", "0x1.00022f3d9397bp-1", "QUADRATIC"),
        None,
    ),
    "COMMON_SHOCK": (
        ProcessConfig("COMMON_SHOCK", {"sigma_z": 1.3, "sigma_eps": 0.7}),
        ["0x0.0p+0"] * 4,
        ["0x1.b0c3f3e0370cfp+0", "0x1.b0ae8b5190a4bp+0",
         "0x1.b0a70d1fa3337p+0", "0x1.b0a4e9115f5c4p+0"],
        ("0x1.fffd8155badb9p+0", "0x1.b0a4e9115f5c4p+0", "QUADRATIC"),
        NON_SUMMABLE,
    ),
    "DRIFTING_MEAN": (
        ProcessConfig(
            "DRIFTING_MEAN",
            {"trend": {"kind": "LINEAR", "a": -0.3, "b": 0.004}, "noise_sd": 1.3},
        ),
        ["0x1.b3b645a1cac08p+0", "0x1.6ced916872b02p+2",
         "0x1.3b3b645a1cac1p+4", "0x1.dd9db22d0e560p+5"],
        ["0x1.bb05faebc4090p-10", "0x1.275951f282b09p-11",
         "0x1.626b2f23033a4p-13", "0x1.d88ee984044dcp-15"],
        ("0x1.0000000000000p+0", "0x1.d88ee984044dcp-15", "SUBQUADRATIC"),
        None,
    ),
}


class TestExactBits:
    """The exact side's floats, bit for bit: CI runs this class again under
    AVX2 and baseline SIMD dispatch."""

    def test_slope_bits_equal_the_numpy_formula(self):
        cases = seeded_growth_cases(20_260_101, 600)
        dense = 0
        for grid, vals in cases:
            got = classify_growth(grid, vals).fitted_slope
            want = numpy_formula_slope(grid, vals)
            assert got.hex() == want.hex() or math.isnan(got) and math.isnan(want), (grid, vals)
            dense += sum(10 * n >= grid[-1] for n in grid) >= 8
        assert dense >= 100

    @pytest.mark.parametrize("name", list(EXACT_BITS))
    def test_family_outputs_keep_their_bits(self, name):
        config, means, variances, growth, tau = EXACT_BITS[name]
        spec = build_spec(config)
        assert [mean_average(spec, n).hex() for n in EXACT_GRID] == means
        assert [time_average_variance(spec, n).hex() for n in EXACT_GRID] == variances
        report = classify_growth(list(EXACT_GRID), [covariance_sum(spec, n) for n in EXACT_GRID])
        assert (report.fitted_slope.hex(), report.liminf_estimate.hex(),
                report.classification.value) == growth
        if tau is None:
            assert spec.stationary is None
        elif tau is NON_SUMMABLE:
            assert correlation_time(spec.stationary) is NON_SUMMABLE
        else:
            assert correlation_time(spec.stationary).hex() == tau


class _Stop(Exception):
    pass


def _first_block(n=3, base_seed=1, replicates=2, max_workers=1):
    """The first block ``sample_blocks`` hands out, as lists."""
    got = []

    def consume(first, block):
        got.append((first, block.tolist()))
        raise _Stop

    with pytest.raises(_Stop):
        sample_blocks(AR1, n, base_seed, replicates, consume, max_workers=max_workers)
    return got


AR1 = ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1.0})
AR1_SPEC = build_spec(AR1)
U64 = 2**64 - 1
TEN = SamplePath(np.arange(10.0) ** 1.5)

# Every count, length, seed and index argument: (id, name in the error,
# call with the value, lowest, highest accepted value or None).
INTEGER_ARGUMENTS = [
    ("mean_average.n", "n", lambda v: mean_average(AR1_SPEC, v), 1, None),
    ("covariance_sum.n", "n", lambda v: covariance_sum(AR1_SPEC, v), 1, None),
    ("time_average_variance.n", "n", lambda v: time_average_variance(AR1_SPEC, v), 1, None),
    ("effective_sample_size.n", "n", lambda v: effective_sample_size(v, 2.0), 1, None),
    ("classify_growth.n_grid", "n_grid entry",
     lambda v: classify_growth([v, 20, 200, 2000], [1.0, 20.0, 200.0, 2000.0]), 1, None),
    ("correlation_time.max_terms", "max_terms",
     lambda v: correlation_time(AR1_SPEC.stationary, max_terms=v), 1, None),
    ("sample_autocovariance.max_lag", "max_lag",
     lambda v: sample_autocovariance(TEN, v).gamma_hat.tolist(), 0, 9),
    ("derive_stream.base_seed", "base_seed", lambda v: derive_stream(v, 7), 0, U64),
    ("derive_stream.index", "index", lambda v: derive_stream(7, v), 0, U64),
    ("RngSeed.base_seed", "base_seed", lambda v: RngSeed(v, 2).stream_seed(), 0, U64),
    ("RngSeed.replicate", "index", lambda v: RngSeed(3, v).stream_seed(), 0, U64),
    ("_stream_states.base_seed", "base_seed",
     lambda v: processes._stream_states(v, 5, 2), 0, U64),
    ("_stream_states.start", "start", lambda v: processes._stream_states(5, v, 1), 0, U64),
    ("_stream_states.count", "count",
     lambda v: processes._stream_states(5, 2**64 - 3, v), 0, 3),
    ("sample_path.n", "n", lambda v: sample_path(AR1, v, RngSeed(1)).values.tolist(), 1, None),
    ("sample_blocks.n", "n", lambda v: _first_block(n=v), 1, None),
    ("sample_blocks.base_seed", "base_seed", lambda v: _first_block(base_seed=v), 0, U64),
    ("sample_blocks.replicates", "replicates",
     lambda v: _first_block(replicates=v), 1, 2**64),
    ("sample_blocks.max_workers", "max_workers",
     lambda v: _first_block(replicates=2048, max_workers=v), 1, None),
    ("sparse_spike_squared_average_variance.n", "n",
     processes.sparse_spike_squared_average_variance, 1, 10**6),
    ("enumerate_squared_average_variance.n", "n",
     processes.enumerate_squared_average_variance, 1, 8),
    ("ExperimentConfig.base_seed", "base_seed",
     lambda v: ExperimentConfig(AR1, base_seed=v, n_grid=(10,)), 0, U64),
    ("ExperimentConfig.n_grid", "n_grid entry",
     lambda v: ExperimentConfig(AR1, base_seed=1, n_grid=(v,)), 1, U64),
    ("ExperimentConfig.replicates", "replicates",
     lambda v: ExperimentConfig(AR1, base_seed=1, n_grid=(10,), replicates=v), 100, None),
    ("ExperimentConfig.replicates-no-checks", "replicates",
     lambda v: ExperimentConfig(AR1, base_seed=1, n_grid=(10,), replicates=v, checks=()),
     2, None),
]


def _numpy_integers(value):
    """``value`` as each NumPy integer type that holds it."""
    types = [np.int8, np.int64, np.uint8, np.uint64]
    return [t(value) for t in types if np.iinfo(t).min <= value <= np.iinfo(t).max]


class TestOneIntegerRule:
    """Any integer but a bool, NumPy integers included, never truncated."""

    @pytest.fixture(autouse=True)
    def _all_memory(self, monkeypatch):
        # The longest grid entry is bounded by the memory too; only the
        # integer rule is tried here.
        monkeypatch.setattr(harness, "_require_in_memory", lambda count, what: None)

    @pytest.mark.parametrize(
        ("name", "call", "low", "high"),
        [case[1:] for case in INTEGER_ARGUMENTS], ids=[case[0] for case in INTEGER_ARGUMENTS],
    )
    def test_integers_are_accepted_and_others_rejected_naming_the_argument(
        self, name, call, low, high
    ):
        for value in [low] if high is None else [low, high]:
            expected = call(value)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for typed in _numpy_integers(value):
                    assert call(typed) == expected, typed
        rejected = [True, False, 1.0, 1.5, float(low), "1", np.float64(low)]
        if name != "max_workers":  # whose None is the engine's choice
            rejected.append(None)
        for value in rejected:
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
                call(value)
        outside = [low - 1] if high is None else [low - 1, high + 1]
        for value in outside:
            bound = f">= {low}" if high is None else rf"in \[{low}, {high}\]"
            with pytest.raises(ValueError, match=rf"^{name} must be {bound}, got {value}$"):
                call(value)

    def test_a_long_value_is_cut_in_the_message(self):
        with pytest.raises(ValueError) as info:
            mean_average(AR1_SPEC, "1" * 100_000)
        assert str(info.value) == f"n must be an integer, got '{'1' * 79}... (100002 characters)"
        with pytest.raises(ValueError) as info:
            mean_average(AR1_SPEC, -(10**5000))
        assert str(info.value) == "n must be >= 1, got <int past the int digit limit>"
