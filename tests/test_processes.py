import itertools
import math
import random
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.signal import lfilter as scipy_lfilter

from conftest import ENGINE_CONFIGS, reference_path, sample_rows
from ergodiag import (
    ExperimentConfig,
    FAMILIES,
    ProcessConfig,
    RngSeed,
    build_spec,
    derive_stream,
    enumerate_squared_average_variance,
    mean_average,
    sample_path,
    sparse_spike_squared_average_variance,
    time_average_variance,
)
from ergodiag import processes
from ergodiag.harness import _ensemble_averages, default_checks
from ergodiag.processes import _stream_states, sample_blocks


class TestProcessConfigValidation:
    def test_phi_out_of_range_names_field(self):
        with pytest.raises(ValueError, match="phi"):
            ProcessConfig("AR1", {"phi": 1.5, "gamma0": 1.0})

    def test_missing_gamma0_names_field(self):
        with pytest.raises(ValueError, match="gamma0"):
            ProcessConfig("AR1", {"phi": 0.5})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1.0, "rho": 2.0})

    def test_spike_family_takes_no_parameters(self):
        ProcessConfig("SPARSE_SPIKES", {})
        with pytest.raises(ValueError, match="phi"):
            ProcessConfig("SPARSE_SPIKES", {"phi": 0.5})

    def test_shock_sigmas_validated(self):
        with pytest.raises(ValueError, match="sigma_z"):
            ProcessConfig("COMMON_SHOCK", {"sigma_z": 0.0, "sigma_eps": 1.0})
        with pytest.raises(ValueError, match="sigma_eps"):
            ProcessConfig("COMMON_SHOCK", {"sigma_z": 1.0, "sigma_eps": -0.5})

    def test_trend_validated(self):
        with pytest.raises(ValueError, match="trend.kind"):
            ProcessConfig(
                "DRIFTING_MEAN", {"trend": {"kind": "CUBIC"}, "noise_sd": 1.0}
            )
        with pytest.raises(ValueError, match="trend.period"):
            ProcessConfig(
                "DRIFTING_MEAN",
                {
                    "trend": {"kind": "SINUSOID", "amplitude": 1.0, "period": 0.0},
                    "noise_sd": 1.0,
                },
            )

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            ProcessConfig("OU", {})

    def test_a_user_model_is_named_in_to_dict_and_the_finite_error(self, ar1_config):
        class Overflowing(type(ar1_config.model)):
            """AR1's parameters and draw, scaled past the float range."""

            name = "OVERFLOWING_AR1"

            def draw(self, p, n):
                draw = super().draw(p, n)

                def overflowing(rngs, block, scratch):
                    draw(rngs, block, scratch)
                    block *= 1e308
                    block *= 1e308

                return overflowing

        config = ProcessConfig(Overflowing(), {"phi": 0.5, "gamma0": 1})
        assert config.family is config.model
        assert config.to_dict() == {
            "family": "OVERFLOWING_AR1", "params": {"phi": 0.5, "gamma0": 1.0}
        }
        with pytest.raises(ValueError, match=(
            r"^OVERFLOWING_AR1 paths of length n=10: values must be finite"
        )):
            sample_path(config, 10, RngSeed(1))


class UserModel(processes.Model):
    """A complete user model: independent standard normal terms."""

    name = "USER_WHITE_NOISE"

    def variance(self, p, t):
        return np.ones(np.shape(t))

    def draw(self, p, n):
        def draw(rngs, block, scratch):
            for row, rng in zip(block, rngs):
                rng.standard_normal(out=row)

        return draw


class TestUserModelHooks:
    """A caller's model is checked when ``ProcessConfig`` takes it: each bad
    hook is one ``ValueError`` that names the model's class and the hook."""

    def test_a_complete_model_is_taken(self):
        config = ProcessConfig(UserModel())
        assert config.to_dict() == {"family": "USER_WHITE_NOISE", "params": {}}
        assert time_average_variance(build_spec(config), 4) == 0.25

    @pytest.mark.parametrize("name", [None, "", 5])
    def test_name_must_be_a_non_empty_str(self, name):
        class Nameless(processes.Model):
            variance = UserModel.variance
            draw = UserModel.draw

        if name is not None:  # else the class sets no name at all
            Nameless.name = name
        self._rejects(Nameless(), rf"^model Nameless: name must be a non-empty str, got {name!r}$")

    def test_neither_gamma_nor_variance(self):
        class DrawOnly(processes.Model):
            name = "DRAW_ONLY"
            draw = UserModel.draw

        self._rejects(DrawOnly(), r"^model DrawOnly: exactly one of gamma and variance must "
                                  r"be set, got neither$")

    def test_both_gamma_and_variance(self):
        class Both(UserModel):
            def gamma(self, p, h):
                return np.where(np.equal(h, 0), 1.0, 0.0)

        self._rejects(
            Both(), r"^model Both: exactly one of gamma and variance must be set, got both$"
        )

    MISSING = object()

    @pytest.mark.parametrize("draw", [MISSING, None, "draw"], ids=["missing", "None", "str"])
    def test_draw_must_be_callable(self, draw):
        class NoDraw(processes.Model):
            name = "NO_DRAW"
            variance = UserModel.variance

        if draw is not self.MISSING:
            NoDraw.draw = draw
        self._rejects(NoDraw(), r"^model NoDraw: draw must be callable$")

    def test_every_check_name_must_be_a_check(self):
        class BadCheck(UserModel):
            checks = ("VARIANCE_IDENTITY", "NOPE")

        self._rejects(BadCheck(), r"^model BadCheck: unknown check 'NOPE'; valid checks: \[")
        with pytest.raises(ValueError, match=r"^model BadCheck: unknown check 'NOPE'"):
            default_checks(BadCheck())

    def test_a_registered_name_is_the_registered_model_only(self):
        # to_dict writes the name, so a report of this spec would name AR1,
        # and a re-run from it would judge AR1's spec instead.
        class DoubledAR1(type(FAMILIES["AR1"])):
            def gamma(self, p, h):
                return 2.0 * super().gamma(p, h)

        p = {"phi": 0.5, "gamma0": 1.0}
        message = r"^model {}: name 'AR1' is taken by a registered family$"
        with pytest.raises(ValueError, match=message.format("DoubledAR1")):
            ProcessConfig(DoubledAR1(), p)
        with pytest.raises(ValueError, match=message.format("_AR1")):
            ProcessConfig(type(FAMILIES["AR1"])(), p)
        with pytest.raises(ValueError, match=message.format("DoubledAR1")):
            default_checks(DoubledAR1())
        assert ProcessConfig(FAMILIES["AR1"], p).model is FAMILIES["AR1"]

    @staticmethod
    def _rejects(model, message):
        with pytest.raises(ValueError, match=message):
            ProcessConfig(model)


def parameter_field(field: str, value) -> float:
    """Build a config with ``value`` in ``field`` and return what it stored."""
    if field == "gamma0":
        return ProcessConfig("AR1", {"phi": 0.5, "gamma0": value}).params["gamma0"]
    if field == "trend.b":
        trend = {"kind": "LINEAR", "a": 0.0, "b": value}
        config = ProcessConfig("DRIFTING_MEAN", {"trend": trend, "noise_sd": 1.0})
        return config.params["trend"]["b"]
    spikes = ProcessConfig("SPARSE_SPIKES", {})
    return ExperimentConfig(spikes, base_seed=1, epsilons=[value]).epsilons[0]


FIELDS = {"gamma0": "gamma0", "trend.b": "trend.b", "epsilons": "epsilons entry"}


class TestOneParameterRule:
    """A family parameter, a trend field and an eps follow one rule: any real
    number except a bool, stored as its float; ``params`` is a mapping."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize(
        "value", [np.int64(2), np.float32(0.375), np.float64(0.25), Fraction(1, 3)],
        ids=["int64", "float32", "float64", "Fraction"],
    )
    def test_numpy_and_fraction_reals_are_stored_as_floats(self, field, value):
        stored = parameter_field(field, value)
        assert type(stored) is float
        assert stored == float(value)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize(
        "value", [True, np.bool_(True), "1", None, 1j],
        ids=["bool", "numpy-bool", "str", "None", "complex"],
    )
    def test_other_values_are_not_numbers(self, field, value):
        with pytest.raises(ValueError) as info:
            parameter_field(field, value)
        assert str(info.value) == f"{FIELDS[field]} must be a number, got {value!r}"

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize(
        "params", [["phi", "gamma0"], ("phi",), "phi", []], ids=["list", "tuple", "str", "empty"]
    )
    def test_params_must_be_a_mapping(self, family, params):
        with pytest.raises(ValueError) as info:
            ProcessConfig(family, params)
        assert str(info.value) == f"params must be a mapping, got {params!r}"

    @pytest.mark.parametrize(
        ("family", "params", "unknown"),
        [("AR1", {1: 2}, "1"),
         ("AR1", {"phi": 0.5, "gamma0": 1, 1: 2, "z": 0}, "1, z"),
         ("DRIFTING_MEAN", {"trend": {"kind": "SINUSOID", "amplitude": 1, "period": 2,
                                           (1, 2): 0, "z": 0}, "noise_sd": 1},
          "trend.(1, 2), trend.z")],
        ids=["only", "mixed", "trend"],
    )
    def test_keys_that_are_not_strings_are_named(self, family, params, unknown):
        with pytest.raises(ValueError) as info:
            ProcessConfig(family, params)
        assert str(info.value) == f"unknown parameter(s): {unknown}"


class TestBuildSpec:
    def test_spike_variance_grows_linearly(self, spike_config):
        spec = build_spec(spike_config)
        assert float(spec.cov_fn(3, 3)) == 3.0

    def test_spike_off_diagonal_vanishes(self, spike_config):
        spec = build_spec(spike_config)
        assert float(spec.cov_fn(2, 5)) == 0.0

    def test_shock_shared_component(self, shock_config):
        spec = build_spec(shock_config)
        assert float(spec.cov_fn(1, 2)) == 1.0
        assert float(spec.cov_fn(4, 4)) == 2.0

    def test_ar1_covariance_symmetric_and_stationary(self, ar1_config):
        spec = build_spec(ar1_config)
        t = np.arange(1, 30)
        for lag in (0, 1, 2, 7):
            expected = float(spec.stationary.gamma(lag))
            assert np.allclose(spec.cov_fn(t, t + lag), expected)
            assert np.allclose(spec.cov_fn(t + lag, t), expected)

    def test_shock_is_covariance_stationary(self, shock_config):
        spec = build_spec(shock_config)
        assert spec.stationary is not None
        assert float(spec.stationary.gamma(0)) == 2.0
        assert float(spec.stationary.gamma(9)) == 1.0

    def test_drift_mean_follows_trend(self, drift_config):
        spec = build_spec(drift_config)
        assert float(spec.mean_fn(4)) == 1.0 + 0.5 * 4
        assert mean_average(spec, 5) == pytest.approx(2.5)
        assert spec.stationary is None

    def test_sinusoid_trend(self):
        config = ProcessConfig(
            "DRIFTING_MEAN",
            {
                "trend": {"kind": "SINUSOID", "amplitude": 2.0, "period": 8.0},
                "noise_sd": 0.5,
            },
        )
        spec = build_spec(config)
        assert float(spec.mean_fn(2)) == pytest.approx(2.0 * math.sin(math.pi / 2))

    def test_spec_invariants_hold_for_every_family(
        self, ar1_config, spike_config, shock_config, drift_config
    ):
        t = np.arange(1, 25)
        grid_t, grid_s = t[:, None], t[None, :]
        for config in (ar1_config, spike_config, shock_config, drift_config):
            spec = build_spec(config)
            cov = np.asarray(spec.cov_fn(grid_t, grid_s), dtype=float)
            assert np.array_equal(cov, cov.T), config.family
            assert (np.diag(cov) >= 0).all(), config.family
            if spec.stationary is not None:
                by_lag = np.asarray(
                    spec.stationary.gamma(np.abs(grid_t - grid_s)), dtype=float
                )
                assert np.allclose(cov, by_lag, rtol=1e-12), config.family


class TestStreamDerivation:
    def test_deterministic(self):
        assert derive_stream(123, 45) == derive_stream(123, 45)

    def test_distinct_replicates_distinct_streams(self):
        seeds = {derive_stream(99, r) for r in range(2000)}
        assert len(seeds) == 2000

    def test_distinct_bases_differ(self):
        assert derive_stream(1, 0) != derive_stream(2, 0)

    def test_output_in_u64_range(self):
        for base, idx in [(0, 0), (2**64 - 1, 2**64 - 1), (42, 7)]:
            assert 0 <= derive_stream(base, idx) < 2**64

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            derive_stream(-1, 0)
        with pytest.raises(ValueError):
            derive_stream(0, 2**64)


class TestSamplePath:
    def test_identical_seed_identical_path(self, spike_config):
        a = sample_path(spike_config, 64, RngSeed(42, 0))
        b = sample_path(spike_config, 64, RngSeed(42, 0))
        assert np.array_equal(a.values, b.values)

    def test_distinct_replicates_differ(self, ar1_config):
        a = sample_path(ar1_config, 64, RngSeed(42, 0))
        b = sample_path(ar1_config, 64, RngSeed(42, 1))
        assert not np.array_equal(a.values, b.values)

    def test_spike_support_set_exact(self, spike_config):
        n = 500
        t = np.arange(1, n + 1, dtype=float)
        magnitude = t * np.sqrt(t)
        for rep in range(5):
            values = sample_path(spike_config, n, RngSeed(7, rep)).values
            ok = (values == 0.0) | (values == magnitude) | (values == -magnitude)
            assert ok.all()

    def test_spike_first_term_never_zero(self, spike_config):
        # P(X_1 != 0) = 1, so every path starts at +-1
        for rep in range(20):
            first = sample_path(spike_config, 3, RngSeed(11, rep)).values[0]
            assert first in (1.0, -1.0)

    def test_ar1_matches_naive_recursion(self):
        config = ProcessConfig("AR1", {"phi": 0.6, "gamma0": 2.0})
        seed = RngSeed(77, 3)
        sampled = sample_path(config, 200, seed).values

        rng = seed.generator()
        expected = np.empty(200)
        expected[0] = math.sqrt(2.0) * rng.standard_normal()
        innov = math.sqrt(2.0 * (1 - 0.6**2)) * rng.standard_normal(199)
        for k in range(1, 200):
            expected[k] = 0.6 * expected[k - 1] + innov[k - 1]
        np.testing.assert_allclose(sampled, expected, rtol=0, atol=1e-12)

    def test_common_shock_with_zero_noise_is_flat(self):
        config = ProcessConfig("COMMON_SHOCK", {"sigma_z": 1.0, "sigma_eps": 0.0})
        values = sample_path(config, 50, RngSeed(3, 0)).values
        assert np.all(values == values[0])

    def test_rejects_nonpositive_n(self, spike_config):
        with pytest.raises(ValueError):
            sample_path(spike_config, 0, RngSeed(1, 0))


PREFIX_CONFIGS = {
    **ENGINE_CONFIGS,
    "AR1-phi+0.999": ProcessConfig("AR1", {"phi": 0.999, "gamma0": 1.0}),
    "AR1-phi-0.999": ProcessConfig("AR1", {"phi": -0.999, "gamma0": 1.0}),
}


class TestPrefixConsistency:
    """The experiment reads every grid length off the longest length's paths."""

    @pytest.mark.parametrize("family", list(PREFIX_CONFIGS))
    def test_prefix_is_the_shorter_path_bit_for_bit(self, family):
        # the first m values of a path of length N are the path of length m
        # from the same seed: every m below the AR1 scan's 10-step segment
        # and across its ends, lengths that are no multiple of 10, and a
        # path longer than one 65 536-value block
        config = PREFIX_CONFIGS[family]
        seed = RngSeed(77, 3)
        lengths = (*range(1, 13), 19, 21, 95, 99, 101, 999, 1003, 9_999, 65_536)
        for big in (12, 1003, 65_537):
            path = sample_path(config, big, seed).values
            for m in (m for m in lengths if m <= big):
                short = sample_path(config, m, seed).values
                assert path[:m].tobytes() == short.tobytes(), (big, m)


class TestReplicateStreams:
    def test_rows_match_individual_paths(self, shock_config):
        # row r of the engine's ensemble is the path sample_path draws alone
        rows = sample_rows(shock_config, 16, 10, base_seed=21)
        for r in range(10):
            expected = sample_path(shock_config, 16, RngSeed(21, r)).values
            assert np.array_equal(rows[r], expected)

    def test_replicate_streams_uncorrelated(self, shock_config):
        # lag-1 correlation across the replicate index; |r| stays ~1/sqrt(R)
        (a,) = _ensemble_averages(shock_config, (8,), 1234, 100_000, None)
        r = np.corrcoef(a[:-1], a[1:])[0, 1]
        assert abs(r) < 0.01


def numpy_state(base_seed: int, replicate: int) -> tuple[int, int]:
    state = np.random.PCG64(derive_stream(base_seed, replicate)).state["state"]
    return state["state"], state["inc"]


class TestStreamStates:
    """The vectorized seeding must reproduce NumPy's own PCG64 seeding."""

    def test_random_pairs_match_numpy(self):
        # 100 random base seeds x 100 consecutive replicates from a random
        # start: 10 000 (base, r) pairs
        rng = random.Random(20260101)
        for _ in range(100):
            base, start = rng.getrandbits(64), rng.getrandbits(rng.choice((10, 33, 63)))
            got = _stream_states(base, start, 100)
            assert got == [numpy_state(base, start + i) for i in range(100)], (base, start)

    @pytest.mark.parametrize("base_seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("replicate", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_edges_match_numpy(self, base_seed, replicate):
        assert _stream_states(base_seed, replicate, 1) == [numpy_state(base_seed, replicate)]

    def test_range_across_word_boundary_matches_numpy(self):
        got = _stream_states(2**64 - 1, 2**32 - 2, 4)
        assert got == [numpy_state(2**64 - 1, r) for r in range(2**32 - 2, 2**32 + 2)]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            _stream_states(2**64, 0, 1)
        with pytest.raises(ValueError):
            _stream_states(0, 2**64 - 1, 2)


SEGMENT = processes._SCAN_SEGMENT
FILTER_LENGTHS = [1, 2, SEGMENT, SEGMENT + 1, 2 * SEGMENT + 1, 100, 1000, 10_000, 200_000]


def loop_filter(x: np.ndarray, phi: float) -> np.ndarray:
    """The AR(1) recursion one step at a time, in Python floats."""
    y = x.tolist()
    for t in range(1, len(y)):
        y[t] = phi * y[t - 1] + y[t]
    return np.array(y)


def plain_scan(x: np.ndarray, phi: float) -> np.ndarray:
    """The blocked scan of ``processes.lfilter`` written plainly, on a copy:
    a zero-padded, transposed copy of ``x`` and a fresh array for every
    intermediate, with the same multiplications and additions."""
    rows, n = x.shape
    if n == 1:
        return x.copy()
    powers, doubling = processes._scan_powers(phi, n)
    length = len(powers)
    segments = -(-n // length)
    cells = rows * segments
    padded = np.zeros((rows, segments * length))
    padded[:, :n] = x
    scan = padded.reshape(cells, length).T.copy()
    for j in range(1, length):
        scan[j] = scan[j] + scan[j - 1] * phi
    if segments > 1:
        carry = np.zeros((segments, rows))
        carry[1:] = scan[-1].reshape(rows, segments)[:, :-1].T
        ends, shift = carry[1:].reshape(-1), rows
        for coefficient in doubling:
            ends[shift:] = ends[shift:] + ends[:-shift] * coefficient
            shift *= 2
        carry = carry.T.reshape(cells)
        for j in range(length):
            scan[j] = scan[j] + carry * powers[j]
    padded.reshape(cells, length)[...] = scan.T
    return padded[:, :n].copy()


class TestAr1Filter:
    @pytest.mark.parametrize("n", FILTER_LENGTHS)
    @pytest.mark.parametrize("phi", [-0.999, -0.7, 0.0, 0.5, 0.999])
    def test_matches_scipy_and_a_python_loop(self, phi, n):
        x = np.random.default_rng(n).standard_normal((3, n))
        y = x.copy()
        processes.lfilter(y, phi)
        for expected in (scipy_lfilter([1.0], [1.0, -phi], x, axis=1),
                         loop_filter(x[-1], phi)[None, :]):
            rows = len(expected)
            gap = np.abs(y[-rows:] - expected).max(axis=1)
            assert (gap <= 1e-14 * np.abs(expected).max(axis=1)).all()
        # Each row gets the bits it gets alone, also from a strided view.
        for i in range(3):
            alone = x[i : i + 1].copy()
            processes.lfilter(alone, phi)
            assert np.array_equal(alone[0], y[i])
        wide = np.zeros((3, n + 1))
        wide[:, :n] = x
        processes.lfilter(wide[:, :n], phi)
        assert np.array_equal(wide[:, :n], y)

    @pytest.mark.parametrize("phi", [-0.9999, -0.7, 0.0, 0.123456789, 0.5, 0.999])
    def test_powers_are_correctly_rounded_and_read_only(self, phi):
        powers, doubling = processes._scan_powers(phi, 10**6)
        exact = Fraction(phi)
        assert powers.tolist() == [float(exact**k) for k in range(1, SEGMENT + 1)]
        assert [float(p) for p in doubling[:8]] == [
            float(exact ** (SEGMENT * 2**k)) for k in range(8)
        ]
        with pytest.raises(ValueError, match="read-only"):
            powers[0] = 1.0


SCRATCH_LENGTHS = [1, 2, 9, 10, 11, 1003]


class TestScanScratch:
    @pytest.mark.parametrize("phi", [-0.999, 0.0, 0.5])
    def test_reused_scratch_gives_the_bits_of_fresh_arrays(self, phi):
        # One scratch, as one engine worker holds it, runs through blocks of
        # changing shape: at each length a full block, then a partial last
        # block, then the next length, up the lengths and back down, so its
        # arrays are reused at larger, smaller and differently padded
        # shapes.  Each block is a strided view with some -0.0 values, also
        # at step 0.  Every result must be, bit for bit, the plain scan of a
        # fresh copy, scaled as the AR1 draw scales it or by 1.0.
        x1_scale, innov_scale = 1.3, 0.7
        scratch = processes._Scratch()
        rng = np.random.default_rng(11)
        for n in SCRATCH_LENGTHS + SCRATCH_LENGTHS[::-1]:
            full = max(1, processes._BLOCK_ELEMENTS // n)
            for rows in (full, full // 3 + 1):
                for scale in ((x1_scale, innov_scale), (1.0, 1.0)):
                    wide = rng.standard_normal((rows, n + 2))
                    wide[::3, 1::4] = -0.0
                    edges = wide[:, [0, -1]].copy()
                    block = wide[:, 1 : n + 1]
                    scaled = block * scale[1]
                    scaled[:, 0] = scale[0] * block[:, 0]
                    expected = plain_scan(scaled, phi).tobytes()
                    fresh = block.copy()
                    processes.lfilter(fresh, phi, scale)
                    assert fresh.tobytes() == expected, (n, rows, scale)
                    processes.lfilter(block, phi, scale, scratch)
                    assert block.tobytes() == expected, (n, rows, scale)
                    assert np.array_equal(wide[:, [0, -1]], edges)


ZERO_LAG_PHIS = [0.0, -0.0, 0.5, -0.5, 0.93, -0.93, 0.999, -0.999,
                 1e-320, 5e-324, 1 - 2**-53]


def lags_around_zero_lag(H: int) -> np.ndarray:
    """Lags 0 ... H + 1e5, or, where H is out of reach (phi = 1 - 2**-53),
    lags 0 ... 1e6 and H - 10 ... H + 1e5."""
    head = np.arange(min(H, 10**6), dtype=np.int64)
    return np.concatenate([head, np.arange(max(H - 10, head.size), H + 10**5 + 1)])


class TestAr1ZeroLag:
    @pytest.mark.parametrize("phi", ZERO_LAG_PHIS)
    def test_gamma_equals_the_pow_formula(self, phi):
        p = {"phi": phi, "gamma0": 1.7}
        H = processes._ar1_zero_lag(phi)
        h = lags_around_zero_lag(H)
        ar1 = ProcessConfig("AR1", p).model
        assert np.array_equal(ar1.gamma(p, h), 1.7 * phi ** h)
        # a 2-d block of signed t - s whose lags straddle H
        t = np.arange(1, 301)[:, None] + max(H - 150, 0)
        s = np.arange(1, 301)[None, :]
        assert np.array_equal(ar1.gamma(p, t - s), 1.7 * phi ** np.abs(t - s))

    @pytest.mark.parametrize("phi", ZERO_LAG_PHIS + [-(1 - 2**-53), 0.653, 0.8])
    def test_pow_is_zero_from_the_zero_lag_on(self, phi):
        # What the cut rests on: this platform's pow returns 0.0 at and
        # past H, so skipping it there changes no value.
        H = processes._ar1_zero_lag(phi)
        h = np.arange(H, H + 10**5 + 1)
        assert not np.any(phi ** h)

    def test_zero_lag_values(self):
        assert [processes._ar1_zero_lag(phi) for phi in (0.653, 0.8, 0.999)] == [
            1757, 3355, 748_225,
        ]


BLOCK = processes._BLOCK_ELEMENTS
THREADED = processes._THREADED_LENGTH
ENGINE_LENGTHS = [1, 2, 3, 100, 1000, BLOCK // 2, BLOCK - 1, BLOCK, BLOCK + 1]


class TestSampleBlocks:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", ENGINE_LENGTHS)
    @pytest.mark.parametrize("family", list(ENGINE_CONFIGS))
    def test_blocks_equal_reference_sampler(self, family, n, workers):
        # 1030 replicates cross from work unit 0 (replicates 0..1023) into
        # unit 1, whose seeds and rows are indexed by the absolute replicate;
        # the short paths fill several blocks per unit and a partial last one.
        # The long paths take 3 replicates: blocks of 2 rows and a partial
        # 1-row block at half the block size, 1-row blocks from BLOCK - 1 up.
        config = ENGINE_CONFIGS[family]
        replicates = 1030 if n <= 1000 else 3
        rows = max(1, BLOCK // n)
        covered = []

        def check(first, block):
            assert block.shape[1] == n and 1 <= len(block) <= rows
            covered.extend(range(first, first + len(block)))
            for i, values in enumerate(block):
                assert np.array_equal(values, reference_path(config, n, RngSeed(77, first + i)))

        sample_blocks(config, n, 77, replicates, check, max_workers=workers)
        assert sorted(covered) == list(range(replicates))

    def test_one_worker_hands_out_blocks_in_replicate_order(self, ar1_config):
        firsts = []
        sample_blocks(
            ar1_config, 100, 5, 2500, lambda first, block: firsts.append(first),
            max_workers=1,
        )
        assert firsts == sorted(firsts) and firsts[0] == 0

    @pytest.mark.parametrize(
        "n, replicates, max_workers, pool",
        [(THREADED, 1024, None, None), (THREADED, 1025, None, 2),
         (THREADED, 2049, None, 3), (THREADED, 5000, None, 4),
         (THREADED - 1, 2049, None, None), (THREADED - 1, 2049, 2, 2),
         (3, 1, None, None), (3, 2500, 2, 2),
         (3, 2500, 8, 3), (3, 2500, 1, None), (3, 1024, 4, None)],
    )
    def test_threads_are_capped_by_work_units(
        self, ar1_config, monkeypatch, n, replicates, max_workers, pool
    ):
        # With four usable CPUs, a call of one work unit runs inline and a
        # larger one gets one thread per unit, up to max_workers; by default
        # up to the CPUs from n = THREADED up, else one.
        built = []

        class Spy(processes.ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(processes, "worker_count", lambda: 4)
        monkeypatch.setattr(processes, "ThreadPoolExecutor", Spy)
        covered = []
        sample_blocks(
            ar1_config, n, 5, replicates,
            lambda first, block: covered.extend(range(first, first + len(block))),
            max_workers=max_workers,
        )
        assert sorted(covered) == list(range(replicates))
        assert built == ([] if pool is None else [pool])

    def test_each_work_unit_is_taken_once_by_many_threads(self, ar1_config):
        # Eight threads, more than the cores, take 65 work units from one
        # iterator with the interpreter switching threads as often as it
        # can: a unit handed out twice, or lost, shows in the replicates.
        covered = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = threading.Thread(target=sample_blocks, args=(
                ar1_config, 2, 5, 65 * 1024 - 7,
                lambda first, block: covered.extend(range(first, first + len(block))),
            ), kwargs={"max_workers": 8})
            run.start()
            run.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive()
        assert sorted(covered) == list(range(65 * 1024 - 7))

    def test_spike_tables_are_read_only(self):
        # the cache hands the same arrays to every caller and thread
        for table in processes._spike_tables(10):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                table += 1.0

    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_max_workers_below_one_raises(self, ar1_config, max_workers):
        blocks = []
        with pytest.raises(ValueError, match="max_workers"):
            sample_blocks(
                ar1_config, 3, 5, 10, lambda first, block: blocks.append(first),
                max_workers=max_workers,
            )
        assert blocks == []

    def test_non_finite_values_raise(self):
        # one error naming the family and n, and no numpy overflow warning
        config = ProcessConfig(
            "DRIFTING_MEAN",
            {"trend": {"kind": "LINEAR", "a": 0.0, "b": 1e308}, "noise_sd": 1.0},
        )
        message = "DRIFTING_MEAN paths of length n=3: values must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                sample_blocks(config, 3, 1, 10, lambda first, block: None)
            with pytest.raises(ValueError, match=message):
                sample_path(config, 3, RngSeed(1, 0))

    def test_rejects_bad_length_and_count(self, ar1_config):
        with pytest.raises(ValueError, match="n must be"):
            sample_blocks(ar1_config, 0, 1, 10, lambda first, block: None)
        with pytest.raises(ValueError, match="replicates"):
            sample_blocks(ar1_config, 5, 1, 0, lambda first, block: None)

    def test_work_units_are_handed_out_in_constant_memory(self, ar1_config):
        # 2**30 replicates are 2**20 work units: listing them all before the
        # first block would take about 41 MB, and 2**64 replicates all the
        # memory there is.  The first block of 1024 ten-value rows takes
        # about 0.5 MB.  Only once that holds are the u64 edges tried:
        # 2**64 replicates are accepted, one more is rejected before any
        # block.
        class Stop(Exception):
            pass

        def first_block(replicates):
            firsts = []

            def stop(first, block):
                firsts.append(first)
                raise Stop

            with pytest.raises(Stop):
                sample_blocks(ar1_config, 10, 1, replicates, stop, max_workers=1)
            return firsts

        first_block(2**30)  # builds the caches once
        tracemalloc.start()
        try:
            assert first_block(2**30) == [0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert first_block(2**64) == [0]
        blocks = []
        with pytest.raises(ValueError, match="replicates"):
            sample_blocks(ar1_config, 10, 1, 2**64 + 1, lambda first, block: blocks.append(first))
        assert blocks == []

    @pytest.mark.parametrize("family", list(ENGINE_CONFIGS))
    def test_sample_path_equals_reference(self, family):
        config = ENGINE_CONFIGS[family]
        for n in (1, 2, 50):
            seed = RngSeed(2**64 - 1, 2**32)
            assert np.array_equal(sample_path(config, n, seed).values,
                                  reference_path(config, n, seed))


class TestEngineMemory:
    # Peak traced memory of a threaded ensemble at n = 10 000, in blocks of
    # 8 * BLOCK bytes per worker.  An AR1 worker holds its block (1), the
    # scan's transposed copy of it (1), the scan's step, carry and
    # transposed carry (0.1 each) and the finite check's booleans (0.125):
    # about 2.5, as measured.  A SPARSE_SPIKES worker holds its block and
    # two arrays of booleans: about 1.4 measured.  One more block-sized
    # array per worker, kept or made per block, measured 3.4-3.5 and
    # 2.1-2.2, above these bounds.  Once the call returns, nothing of a
    # block's size may be left.
    PER_WORKER = {"AR1": 3.0, "SPARSE_SPIKES": 1.75}

    @pytest.mark.parametrize("family", list(PER_WORKER))
    def test_peak_per_worker_and_nothing_kept(self, family):
        workers = 2
        args = (ENGINE_CONFIGS[family], (10_000,), 3, 2048, workers)
        _ensemble_averages(*args)  # builds the caches and thread state once
        tracemalloc.start()
        try:
            _ensemble_averages(*args)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.PER_WORKER[family] * workers * 8 * BLOCK
        assert kept < 8 * BLOCK


def spike_moment(f, *times: int) -> float:
    """``E[f(X_t, X_s, ...)]`` for independent spike terms, over the law the
    sampler draws from: ``+-t**1.5`` with ``t**-2 / 2`` each, else 0.
    """
    half_prob, prob, magnitude = processes._spike_tables(max(times))
    laws = [
        [(magnitude[t - 1], half_prob[t - 1]), (-magnitude[t - 1], half_prob[t - 1]),
         (0.0, 1.0 - prob[t - 1])]
        for t in times
    ]
    return sum(
        math.prod(q for _, q in outcome) * f(*(v for v, _ in outcome))
        for outcome in itertools.product(*laws)
    )


class TestSparseSpikeMoments:
    # The per-index and pairwise moments that
    # sparse_spike_squared_average_variance sums, read off the sampler's law.
    def test_first_index_squared_is_constant(self):
        assert spike_moment(lambda x: x**4, 1) - spike_moment(lambda x: x**2, 1) ** 2 == 0.0

    def test_var_of_square_at_two(self):
        # Var(X_t^2) = t^4 - t^2
        var_sq = spike_moment(lambda x: x**4, 2) - spike_moment(lambda x: x**2, 2) ** 2
        assert var_sq == pytest.approx(12.0, rel=1e-12)

    def test_product_variance(self):
        # Var(X_t X_s) = t s, a quarter of the cross term Var(2 X_t X_s)
        mean = spike_moment(lambda x, y: x * y, 2, 3)
        assert mean == 0.0
        assert spike_moment(lambda x, y: (x * y) ** 2, 2, 3) == pytest.approx(6.0, rel=1e-12)

    def test_squares_uncorrelated(self):
        cov = spike_moment(lambda x, y: x * x * y * y, 4, 9) - (
            spike_moment(lambda x: x * x, 4) * spike_moment(lambda y: y * y, 9)
        )
        assert cov == pytest.approx(0.0, abs=1e-12)

    def test_variance_grows_linearly(self):
        assert spike_moment(lambda x: x, 7) == 0.0
        assert spike_moment(lambda x: x * x, 7) == pytest.approx(7.0, rel=1e-12)


def two_term_enumeration() -> float:
    """Var(A_2^2) over the six-point joint outcome space of (X_1, X_2).

    Written with explicit nested loops, independent of the library's
    itertools-based enumerator.
    """
    x1_outcomes = [(1.0, Fraction(1, 2)), (-1.0, Fraction(1, 2))]
    mag2 = 2.0**1.5
    x2_outcomes = [(mag2, Fraction(1, 8)), (-mag2, Fraction(1, 8)), (0.0, Fraction(3, 4))]
    e2 = 0.0
    e4 = 0.0
    for x1, p1 in x1_outcomes:
        for x2, p2 in x2_outcomes:
            a2 = ((x1 + x2) / 2.0) ** 2
            w = float(p1 * p2)
            e2 += w * a2
            e4 += w * a2 * a2
    return e4 - e2 * e2


class TestSquaredAverageVariance:
    def test_n1_is_constant(self):
        assert sparse_spike_squared_average_variance(1) == 0.0

    def test_n2_against_independent_enumeration(self):
        assert two_term_enumeration() == pytest.approx(1.25, rel=1e-12)
        assert sparse_spike_squared_average_variance(2) == 1.25

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_exhaustive_enumeration(self, n):
        formula = sparse_spike_squared_average_variance(n)
        brute = enumerate_squared_average_variance(n)
        assert formula == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_linear_asymptotics(self):
        # dominant term: sum t^4 ~ n^5 / 5, so Var(A_n^2) / n -> 0.2
        n = 10_000
        assert sparse_spike_squared_average_variance(n) / n == pytest.approx(0.2, rel=0.01)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sparse_spike_squared_average_variance(0)
        with pytest.raises(ValueError):
            sparse_spike_squared_average_variance(10**6 + 1)
        with pytest.raises(ValueError):
            enumerate_squared_average_variance(9)


class TestVarianceIdentityEndToEnd:
    """Empirical Var(A_n) against the exact covariance sum, per family."""

    N = 64
    REPLICATES = 200_000

    @pytest.mark.parametrize(
        "family, params",
        [
            ("AR1", {"phi": 0.5, "gamma0": 1.0}),
            ("SPARSE_SPIKES", {}),
            ("COMMON_SHOCK", {"sigma_z": 1.0, "sigma_eps": 1.0}),
            (
                "DRIFTING_MEAN",
                {"trend": {"kind": "LINEAR", "a": 0.0, "b": 0.01}, "noise_sd": 1.0},
            ),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_empirical_variance_matches_exact(self, family, params):
        config = ProcessConfig(family, params)
        spec = build_spec(config)
        (averages,) = _ensemble_averages(config, (self.N,), 2718, self.REPLICATES, None)
        m_n = mean_average(spec, self.N)
        dev_sq = (averages - m_n) ** 2
        mse = float(np.mean(dev_sq))
        se = float(np.std(dev_sq, ddof=1)) / math.sqrt(self.REPLICATES)
        exact = time_average_variance(spec, self.N)
        assert abs(mse - exact) <= 4 * se


class TestAr1SecondMoments:
    def test_stationary_start_and_lag_structure(self, ar1_config):
        # three-term paths: empirical covariance matrix must match
        # gamma0 * phi**|t-s| from t = 1 (no burn-in)
        replicates = 200_000
        values = sample_rows(ar1_config, 3, replicates, base_seed=1618)
        expected = 0.5 ** np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
        for i in range(3):
            for j in range(3):
                product = values[:, i] * values[:, j]
                se = float(np.std(product, ddof=1)) / math.sqrt(replicates)
                assert abs(float(np.mean(product)) - expected[i, j]) <= 4 * se


class TestSpikeSamplerMarginals:
    def test_moments_at_t5_over_a_million_replicates(self, spike_config):
        replicates = 1_000_000
        x5 = sample_rows(spike_config, 5, replicates, base_seed=424242)[:, 4]

        # P(X_5 != 0) = 1/25 = 0.04
        freq = float(np.mean(x5 != 0.0))
        assert abs(freq - 0.04) <= 0.001

        # E[X_5^2] = 5 with Var(X_5^2) = 5^4 - 5^2
        m2 = float(np.mean(x5**2))
        se2 = math.sqrt((5**4 - 5**2) / replicates)
        assert abs(m2 - 5.0) <= 4 * se2

        # E[X_5^4] = 5^4 with Var(X_5^4) = 5^10 - 5^8
        m4 = float(np.mean(x5**4))
        se4 = math.sqrt((5**10 - 5**8) / replicates)
        assert abs(m4 - 625.0) <= 4 * se4
