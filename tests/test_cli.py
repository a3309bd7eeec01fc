import dataclasses
import json
import math
import os
import stat
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from conftest import ENGINE_CONFIGS

from ergodiag import Family, ProcessConfig, RngSeed, processes, sample_path
from ergodiag import cli, harness
from ergodiag.cli import main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)

SPIKE_DOC = {"process": {"family": "SPARSE_SPIKES", "params": {}}}
AR1_DOC = {"process": {"family": "AR1", "params": {"phi": 0.5, "gamma0": 1.0}}}


def load_report_schema() -> dict:
    ref = resources.files("ergodiag") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


class TestSimulate:
    def run_simulate(self, tmp_path, doc, out_name="paths.csv", **kw):
        args = {"seed": "42", "n": "5", "replicates": "2", **kw}
        out = tmp_path / out_name
        code = main(
            [
                "simulate",
                "--config", write_config(tmp_path, doc),
                "--out", str(out),
                "--seed", args["seed"],
                "--n", args["n"],
                "--replicates", args["replicates"],
            ]
        )
        return code, out

    def test_row_count_and_support(self, tmp_path):
        code, out = self.run_simulate(tmp_path, SPIKE_DOC)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,replicate,x"
        assert len(lines) == 1 + 5 * 2
        for line in lines[1:]:
            t, rep, x = line.split(",")
            magnitude = float(t) ** 1.5
            assert float(x) in (0.0, magnitude, -magnitude)
            assert rep in ("0", "1")

    def test_replicate_major_t_ascending_order(self, tmp_path):
        code, out = self.run_simulate(tmp_path, SPIKE_DOC)
        assert code == 0
        keys = [tuple(map(int, line.split(",")[:2][::-1])) for line in out.read_text().splitlines()[1:]]
        assert keys == sorted(keys)

    def test_byte_identical_reruns(self, tmp_path):
        _, first = self.run_simulate(tmp_path, SPIKE_DOC, out_name="a.csv")
        _, second = self.run_simulate(tmp_path, SPIKE_DOC, out_name="b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_values_round_trip_exactly(self, tmp_path):
        config = ProcessConfig(Family.AR1, {"phi": 0.5, "gamma0": 1.0})
        code, out = self.run_simulate(
            tmp_path, AR1_DOC, n="50", replicates="1", seed="7"
        )
        assert code == 0
        expected = sample_path(config, 50, RngSeed(7, 0)).values
        parsed = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        assert np.array_equal(np.asarray(parsed), expected)

    @pytest.mark.parametrize("family", list(ENGINE_CONFIGS))
    def test_bytes_equal_reference_writer(self, tmp_path, family):
        config = ENGINE_CONFIGS[family]
        doc = {"process": config.to_dict()}
        # Chunk edges at 8192 values, and n = 1000 with a partial block of
        # 17 rows, then a full 65-row block and a partial one.
        for n, replicates in [(1, 2), (2, 2), (8191, 1), (8192, 1), (8193, 2),
                              (20000, 1), (1000, 17), (1000, 70)]:
            code, out = self.run_simulate(
                tmp_path, doc, n=str(n), replicates=str(replicates), seed="11"
            )
            assert code == 0
            lines = ["t,replicate,x\n"]
            for r in range(replicates):
                values = sample_path(config, n, RngSeed(11, r)).values
                lines.extend(f"{t},{r},{x:.17g}\n" for t, x in enumerate(values, start=1))
            assert out.read_bytes() == "".join(lines).encode(), (n, replicates)

    def test_invalid_phi_exits_2_naming_field(self, tmp_path, capsys):
        doc = {"process": {"family": "AR1", "params": {"phi": 1.5, "gamma0": 1.0}}}
        code, _ = self.run_simulate(tmp_path, doc)
        assert code == 2
        assert "phi" in capsys.readouterr().err

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        doc = {**SPIKE_DOC, "simulate": {}}
        code, _ = self.run_simulate(tmp_path, doc)
        assert code == 2
        assert "simulate" in capsys.readouterr().err

    def test_analyze_section_exits_2_naming_it(self, tmp_path, capsys):
        # analyze takes no --config, so a config file has no analyze section
        doc = {**SPIKE_DOC, "analyze": {"max_lag": 10}}
        code, _ = self.run_simulate(tmp_path, doc)
        assert code == 2
        assert "analyze" in capsys.readouterr().err

    def test_overflowing_trend_ends_in_one_error_line(self, tmp_path, capsys):
        trend = {"kind": "LINEAR", "a": 1e308, "b": 1e308}
        doc = {"process": {"family": "DRIFTING_MEAN",
                           "params": {"trend": trend, "noise_sd": 1.0}}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = self.run_simulate(tmp_path, doc, n="100", replicates="100")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(
            "error: DRIFTING_MEAN paths of length n=100: values must be finite"
        )
        assert err.count("\n") == 1
        assert not out.exists()

    def test_duplicate_process_section_exits_2_naming_it(self, tmp_path, capsys):
        # last-wins parsing would sample SPARSE_SPIKES
        config = tmp_path / "config.json"
        config.write_text(
            '{"process": {"family": "AR1", "params": {"phi": 0.5, "gamma0": 1.0}}, '
            '"process": {"family": "SPARSE_SPIKES"}}',
            encoding="utf-8",
        )
        out = tmp_path / "paths.csv"
        code = main(["simulate", "--config", str(config), "--out", str(out),
                     "--seed", "1", "--n", "5", "--replicates", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "duplicate key 'process'" in err and "Traceback" not in err
        assert not out.exists()

    def test_path_beyond_physical_memory_exits_2_before_sampling(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before --n was checked")

        monkeypatch.setattr(cli, "sample_blocks", no_sampling)
        code, out = self.run_simulate(tmp_path, AR1_DOC, n="1000000000000")
        err = capsys.readouterr().err
        assert code == 2
        assert "--n 1000000000000" in err and "physical memory" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_config_file_exits_3(self, tmp_path):
        code = main(
            [
                "simulate",
                "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o.csv"),
                "--seed", "1",
                "--n", "5",
                "--replicates", "1",
            ]
        )
        assert code == 3


def write_path_csv(tmp_path, values, name="path.csv", header="x", with_t=False):
    path = tmp_path / name
    lines = [header]
    for i, v in enumerate(values, start=1):
        lines.append(f"{i},{float(v)!r}" if with_t else repr(float(v)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run_analyze(capsys, input_path, *extra):
    code = main(["analyze", "--input", input_path, *extra])
    captured = capsys.readouterr()
    return code, captured


class TestAnalyze:
    def test_iid_normal_diagnostics(self, tmp_path, capsys):
        rng = np.random.default_rng(1001)
        n = 100_000
        input_path = write_path_csv(tmp_path, rng.standard_normal(n))
        code, captured = run_analyze(capsys, input_path)
        assert code == 0
        result = json.loads(captured.out)
        assert result["n"] == n
        assert 0.9 <= result["tau_hat"] <= 1.1
        assert 0.9 * n <= result["ess"] <= 1.1 * n
        assert not result["window_saturated"]
        assert set(result["chebyshev"]) == {"0.1", "0.05", "0.01"}
        assert "gap" not in result
        assert "tau_floored" not in result

    def test_floored_tau_is_reported(self, tmp_path, capsys):
        # Alternating signs: the raw windowed tau is below the 1e-3 floor.
        rng = np.random.default_rng(0)
        values = (-1.0) ** np.arange(1, 1001) + 0.01 * rng.standard_normal(1000)
        input_path = write_path_csv(tmp_path, values)
        code, captured = run_analyze(capsys, input_path, "--max-lag", "50")
        assert code == 0
        result = json.loads(captured.out)
        assert result["tau_hat"] == 0.001
        assert result["ess"] == 1000 / 0.001
        assert result["tau_floored"] is True

    def test_ar1_effective_sample_size_near_n_over_three(self, tmp_path, capsys):
        config = ProcessConfig(Family.AR1, {"phi": 0.5, "gamma0": 1.0})
        n = 100_000
        values = sample_path(config, n, RngSeed(2002, 0)).values
        input_path = write_path_csv(tmp_path, values, header="t,x", with_t=True)
        code, captured = run_analyze(capsys, input_path)
        assert code == 0
        result = json.loads(captured.out)
        assert result["ess"] == pytest.approx(n / 3, rel=0.10)
        assert result["tau_hat"] == pytest.approx(3.0, rel=0.10)

    def test_target_mean_reports_gap(self, tmp_path, capsys):
        values = np.linspace(0.0, 1.0, 20)
        input_path = write_path_csv(tmp_path, values)
        code, captured = run_analyze(capsys, input_path, "--target-mean", "0.75")
        assert code == 0
        result = json.loads(captured.out)
        assert result["gap"] == pytest.approx(abs(values.mean() - 0.75), rel=1e-12)

    def test_constant_series_exits_2_degenerate(self, tmp_path, capsys):
        input_path = write_path_csv(tmp_path, [2.5] * 40)
        code, captured = run_analyze(capsys, input_path)
        assert code == 2
        assert "degenerate series" in captured.err

    def test_short_series_exits_2_insufficient(self, tmp_path, capsys):
        input_path = write_path_csv(tmp_path, [1.0, 2.0, 3.0])
        code, captured = run_analyze(capsys, input_path)
        assert code == 2
        assert "insufficient data" in captured.err

    def test_unsupported_header_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        code, captured = run_analyze(capsys, str(bad))
        assert code == 2
        assert "header" in captured.err

    def test_accepts_simulate_output_with_one_replicate(self, tmp_path, capsys):
        config_path = write_config(tmp_path, AR1_DOC)
        out = tmp_path / "sim.csv"
        assert (
            main(
                [
                    "simulate", "--config", config_path, "--out", str(out),
                    "--seed", "5", "--n", "200", "--replicates", "1",
                ]
            )
            == 0
        )
        code, captured = run_analyze(capsys, str(out))
        assert code == 0
        result = json.loads(captured.out)
        expected = sample_path(
            ProcessConfig(Family.AR1, {"phi": 0.5, "gamma0": 1.0}), 200, RngSeed(5, 0)
        ).values
        assert result["mean"] == pytest.approx(expected.mean(), rel=1e-15)

    @pytest.mark.parametrize(
        ("flag", "value"),
        [
            ("--target-mean", "nan"),
            ("--target-mean", "inf"),
            ("--window-c", "nan"),
            ("--window-c", "inf"),
        ],
    )
    def test_non_finite_flag_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        input_path = write_path_csv(tmp_path, np.linspace(0.0, 1.0, 20))
        code, captured = run_analyze(capsys, input_path, flag, value)
        assert code == 2
        assert flag in captured.err
        assert captured.out == ""

    def test_rejects_simulate_output_with_many_replicates(self, tmp_path, capsys):
        config_path = write_config(tmp_path, AR1_DOC)
        out = tmp_path / "sim.csv"
        main(
            [
                "simulate", "--config", config_path, "--out", str(out),
                "--seed", "5", "--n", "50", "--replicates", "3",
            ]
        )
        code, captured = run_analyze(capsys, str(out))
        assert code == 2
        assert "replicate" in captured.err


class TestAnalyzeOverflow:
    @pytest.mark.parametrize(
        "values",
        [[1e200, -1e200] * 25, [0.0, 1e300, 2e300] * 17],
        ids=["pm1e200", "0-1e300-2e300"],
    )
    def test_exits_2_naming_the_overflow_and_range(self, tmp_path, capsys, values):
        input_path = write_path_csv(tmp_path, values)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, captured = run_analyze(capsys, input_path)
        assert code == 2
        assert captured.err.startswith("error: numeric overflow: ")
        assert f"[{min(values)!r}, {max(values)!r}]" in captured.err
        assert "Traceback" not in captured.err
        assert "RuntimeWarning" not in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert captured.out == ""


def analyze_text(tmp_path, capsys, text, name="path.csv", newline="\n"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, captured = run_analyze(capsys, str(path))
    assert "Traceback" not in captured.err
    return code, captured, caught


class TestReadPath:
    """The analyze reader: header check, then numpy's C parser for the body."""

    def test_every_simulate_field_reads_back_as_float(self, tmp_path):
        for family, config in ENGINE_CONFIGS.items():
            out = tmp_path / f"{family}.csv"
            doc_path = write_config(tmp_path, {"process": config.to_dict()})
            assert main(["simulate", "--config", doc_path, "--out", str(out),
                         "--seed", "3", "--n", "3000", "--replicates", "1"]) == 0
            fields = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
            want = np.asarray([float(f) for f in fields])
            got = cli._read_single_path(str(out))
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), family

    def test_edge_strings_parse_like_float(self, tmp_path):
        fields = ["-0", "1e-320", " 1.5 ", "1E5", "2.5", "-3", ".5", "7.", "1e308", "-1e-5"]
        path = tmp_path / "edge.csv"
        path.write_text("x\n" + "\n".join(fields) + "\n", encoding="utf-8")
        got = cli._read_single_path(str(path))
        want = np.asarray([float(f) for f in fields])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        ("body", "needle"),
        [
            ("1,0,0.5\n2,0,abc\n", "abc"),
            ("1,0,0.5\n2,0\n", "columns"),
            ("1,0,0.5\n2,0,0.5,9\n", "columns"),
            ("one,0,0.5\n", "one"),
            ("1,zero,0.5\n", "zero"),
        ],
        ids=["non-numeric", "short-row", "long-row", "t-text", "replicate-text"],
    )
    def test_malformed_row_exits_2_naming_the_file(self, tmp_path, capsys, body, needle):
        code, captured, _ = analyze_text(tmp_path, capsys, "t,replicate,x\n" + body)
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "path.csv" in captured.err and needle in captured.err
        assert captured.out == ""

    def test_hash_line_is_data_not_a_comment(self, tmp_path, capsys):
        code, captured, _ = analyze_text(tmp_path, capsys, "x\n# note\n" + "0.5\n" * 12)
        assert code == 2
        assert "path.csv" in captured.err and "'# note'" in captured.err

    def test_rows_wider_than_header_exit_2(self, tmp_path, capsys):
        code, captured, _ = analyze_text(tmp_path, capsys, "t,x\n" + "1,0,0.5\n" * 12)
        assert code == 2
        assert "expected 2 columns, got 3" in captured.err

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        body = "".join(f"{t},{t % 3}\n\n" for t in range(1, 13))
        code, captured, _ = analyze_text(tmp_path, capsys, "t,x\n\n" + body)
        assert code == 0
        assert json.loads(captured.out)["n"] == 12

    def test_crlf_file_parses_like_lf(self, tmp_path, capsys):
        text = "t,replicate,x\n" + "".join(f"{t},0,{t % 5 / 3!r}\n" for t in range(1, 40))
        code, lf, _ = analyze_text(tmp_path, capsys, text, name="lf.csv")
        assert code == 0
        code, crlf, _ = analyze_text(tmp_path, capsys, text, name="crlf.csv", newline="\r\n")
        assert code == 0
        assert crlf.out == lf.out

    def test_header_only_is_insufficient_data_without_warnings(self, tmp_path, capsys):
        code, captured, caught = analyze_text(tmp_path, capsys, "t,replicate,x\n")
        assert code == 2
        assert "insufficient data" in captured.err
        assert "Warning" not in captured.err
        assert caught == []


EXPERIMENT_DOC = {
    "process": {"family": "SPARSE_SPIKES", "params": {}},
    "experiment": {
        "base_seed": 99,
        "n_grid": [100, 1000],
        "replicates": 2000,
        "epsilons": [0.1, 0.05],
        "checks": ["VARIANCE_IDENTITY", "WLLN", "FOURTH_MOMENT"],
    },
}


class TestExperiment:
    def run_experiment_cmd(self, tmp_path, doc, out_name="out"):
        out_dir = tmp_path / out_name
        code = main(
            [
                "experiment",
                "--config", write_config(tmp_path, doc, name=f"{out_name}.json"),
                "--out-dir", str(out_dir),
            ]
        )
        return code, out_dir

    def test_spike_experiment_passes_and_writes_outputs(self, tmp_path, capsys):
        code, out_dir = self.run_experiment_cmd(tmp_path, EXPERIMENT_DOC)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "VARIANCE_IDENTITY: PASS" in stdout
        assert "FOURTH_MOMENT: PASS" in stdout

        report = json.loads((out_dir / "report.json").read_text())
        jsonschema.validate(report, load_report_schema())
        assert report["verdicts"]["WLLN"]["status"] == "PASS"

        curves = (out_dir / "curves.csv").read_text().splitlines()
        assert curves[0] == "n,exact_var_an,empirical_mse,mc_se,eps,empirical_tail,chebyshev_bound"
        assert len(curves) == 1 + 2 * 2  # |n_grid| x |epsilons|

    def test_failing_check_exits_1(self, tmp_path):
        doc = {
            "process": {"family": "COMMON_SHOCK", "params": {"sigma_z": 1.0, "sigma_eps": 1.0}},
            "experiment": {
                "base_seed": 4,
                "n_grid": [10, 100, 1000],
                "replicates": 1000,
                "epsilons": [0.2],
                "checks": ["L2_CONVERGENCE"],
            },
        }
        code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        assert code == 1
        report = json.loads((out_dir / "report.json").read_text())
        assert report["verdicts"]["L2_CONVERGENCE"]["status"] == "FAIL"

    def test_same_process_with_suitable_checks_exits_0(self, tmp_path):
        doc = {
            "process": {"family": "COMMON_SHOCK", "params": {"sigma_z": 1.0, "sigma_eps": 1.0}},
            "experiment": {
                "base_seed": 4,
                "n_grid": [10, 100, 1000],
                "replicates": 1000,
                "epsilons": [0.2],
                "checks": ["NONCONVERGENCE"],
            },
        }
        code, _ = self.run_experiment_cmd(tmp_path, doc)
        assert code == 0

    def test_missing_base_seed_exits_2(self, tmp_path, capsys):
        doc = {**SPIKE_DOC, "experiment": {"n_grid": [10, 100], "replicates": 200}}
        code, _ = self.run_experiment_cmd(tmp_path, doc)
        assert code == 2
        assert "base_seed" in capsys.readouterr().err

    def test_unknown_experiment_key_exits_2(self, tmp_path, capsys):
        doc = {
            **SPIKE_DOC,
            "experiment": {"base_seed": 1, "grid": [10, 100]},
        }
        code, _ = self.run_experiment_cmd(tmp_path, doc)
        assert code == 2
        assert "grid" in capsys.readouterr().err

    def test_analyze_section_exits_2_naming_it(self, tmp_path, capsys):
        doc = {**SPIKE_DOC, "experiment": {"base_seed": 1}, "analyze": {}}
        code, _ = self.run_experiment_cmd(tmp_path, doc)
        assert code == 2
        assert "analyze" in capsys.readouterr().err

    def test_unknown_check_name_exits_2(self, tmp_path, capsys):
        doc = {
            **SPIKE_DOC,
            "experiment": {"base_seed": 1, "checks": ["STATIONARITY"]},
        }
        code, _ = self.run_experiment_cmd(tmp_path, doc)
        assert code == 2
        assert "STATIONARITY" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("experiment", "field"),
        [
            ('{"base_seed": 1.7}', "base_seed"),
            ('{"base_seed": true}', "base_seed"),
            ('{"base_seed": 1, "replicates": 100.9}', "replicates"),
            ('{"base_seed": 1, "n_grid": [10.5, 100.2]}', "n_grid"),
            ('{"base_seed": 1, "epsilons": [1e400]}', "epsilons"),
        ],
    )
    def test_non_integer_or_infinite_value_exits_2_naming_it(
        self, tmp_path, capsys, experiment, field
    ):
        config = tmp_path / "config.json"
        config.write_text(
            '{"process": {"family": "SPARSE_SPIKES"}, "experiment": ' + experiment + "}",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code = main(["experiment", "--config", str(config), "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("checks", "WLLN"),
            ("n_grid", "100"),
            ("epsilons", "0.1"),
            ("checks", {"WLLN": 0}),
            ("n_grid", {"10": 1}),
        ],
    )
    def test_list_field_given_a_string_or_object_exits_2(
        self, tmp_path, capsys, field, value
    ):
        # A string or object iterates over characters or keys; neither is a list.
        doc = {**SPIKE_DOC, "experiment": {"base_seed": 1, "replicates": 200, field: value}}
        code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{field} must be a list, got {value!r}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "process",
        [
            {"family": "AR1", "params": {"phi": 0.5, "gamma0": 1e300}},
            {"family": "COMMON_SHOCK", "params": {"sigma_z": 1e200, "sigma_eps": 1.0}},
            {"family": "AR1", "params": {"phi": 0.99, "gamma0": 1.7e308}},
        ],
    )
    def test_overflowing_moments_exit_2_naming_the_overflow(
        self, tmp_path, capsys, process
    ):
        doc = {
            "process": process,
            "experiment": {"base_seed": 1, "n_grid": [10, 100], "replicates": 200},
        }
        with np.errstate(over="ignore", invalid="ignore"):
            code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 2
        assert "error: numeric overflow" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        ("process", "error"),
        [
            ({"family": "COMMON_SHOCK", "params": {"sigma_z": 1e300, "sigma_eps": 1e300}},
             "error: numeric overflow: n=10: outside the float range: Var(A_n) = inf, "),
            # finite values whose row sums overflow
            ({"family": "COMMON_SHOCK", "params": {"sigma_z": 1e307, "sigma_eps": 0.0}},
             "error: numeric overflow: n=10: outside the float range: Var(A_n) = inf, "),
            ({"family": "DRIFTING_MEAN", "params": {
                "trend": {"kind": "LINEAR", "a": 1e308, "b": 1e308}, "noise_sd": 1.0}},
             "error: DRIFTING_MEAN paths of length n=10: values must be finite"),
            ({"family": "DRIFTING_MEAN", "params": {
                "trend": {"kind": "LINEAR", "a": 0.0, "b": 0.0}, "noise_sd": 1e200}},
             "error: numeric overflow: n=10: outside the float range: Var(A_n) = inf, "),
            ({"family": "AR1", "params": {"phi": 0.9999999999, "gamma0": 1e300}},
             "error: numeric overflow: n=10: outside the float range: "
             "Var((A_n - m_n)^2) = inf, "),
        ],
        ids=["shock", "shock-row-sum", "drift", "drift-noise", "ar1"],
    )
    def test_overflowing_parameters_end_in_one_error_line(
        self, tmp_path, capsys, process, error
    ):
        doc = {
            "process": process,
            "experiment": {"base_seed": 1, "n_grid": [10, 100], "replicates": 100},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(error)
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out_dir.exists()

    def test_non_finite_report_is_never_written(self, tmp_path, capsys, monkeypatch):
        real = cli.run_experiment

        def with_nan(config):
            report = real(config)
            first = dataclasses.replace(report.per_n[0], empirical_mse=math.nan)
            return dataclasses.replace(report, per_n=(first, *report.per_n[1:]))

        monkeypatch.setattr(cli, "run_experiment", with_nan)
        code, out_dir = self.run_experiment_cmd(tmp_path, EXPERIMENT_DOC)
        assert code == 2
        assert "JSON" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_duplicate_nested_key_exits_2_naming_it(self, tmp_path, capsys):
        # last-wins parsing would run with base_seed 2
        config = tmp_path / "config.json"
        config.write_text(
            '{"process": {"family": "SPARSE_SPIKES"}, '
            '"experiment": {"base_seed": 1, "n_grid": [10, 100], "base_seed": 2}}',
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code = main(["experiment", "--config", str(config), "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert "duplicate key 'base_seed'" in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        ("eps", "tail", "bound"), [(1e-170, 1.0, 1.0), (1e200, 0.0, 0.0)]
    )
    def test_extreme_epsilons_give_clamped_bounds(
        self, tmp_path, capsys, eps, tail, bound
    ):
        # eps**2 underflows to 0 at 1e-170 and overflows at 1e200
        doc = {
            **AR1_DOC,
            "experiment": {"base_seed": 1, "n_grid": [10, 100], "replicates": 200,
                           "epsilons": [eps], "checks": []},
        }
        code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out_dir / "report.json").read_text())
        for stats in report["per_n"]:
            assert stats["empirical_tails"] == {repr(eps): tail}
            assert stats["chebyshev_bounds"] == {repr(eps): bound}

    def test_grid_entry_of_two_to_the_64_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the grid was checked")

        monkeypatch.setattr(harness, "sample_blocks", no_sampling)
        doc = {**AR1_DOC, "experiment": {"base_seed": 1, "n_grid": [10, 2**64]}}
        code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 2
        assert "n_grid" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_spike_grid_above_bound_exits_2_before_sampling(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the grid was checked")

        monkeypatch.setattr(harness, "sample_blocks", no_sampling)
        doc = {
            **SPIKE_DOC,
            "experiment": {"base_seed": 1, "n_grid": [10, 1_000_001], "checks": []},
        }
        code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 2
        assert "n_grid" in err and "SPARSE_SPIKES" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        ("experiment", "field"),
        [
            ({"n_grid": [10, 10**12]}, "n_grid entry 1000000000000"),
            ({"n_grid": [10, 2**62]}, "n_grid entry 4611686018427387904"),
            ({"replicates": 10**12}, "replicates = 1000000000000"),
        ],
        ids=["n_grid-1e12", "n_grid-2^62", "replicates-1e12"],
    )
    def test_input_beyond_physical_memory_exits_2_before_sampling(
        self, tmp_path, capsys, monkeypatch, experiment, field
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(harness, "sample_blocks", no_sampling)
        doc = {**AR1_DOC, "experiment": {"base_seed": 1, **experiment}}
        code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 2
        assert field in err and "physical memory" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8 TiB")

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        code, out_dir = self.run_experiment_cmd(tmp_path, EXPERIMENT_DOC)
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 8 TiB\n"
        assert not out_dir.exists()

    def test_outputs_get_normal_permissions(self, tmp_path):
        old = os.umask(0o022)
        try:
            code, out_dir = self.run_experiment_cmd(tmp_path, EXPERIMENT_DOC)
            sim = tmp_path / "paths.csv"
            sim_code = main(
                [
                    "simulate", "--config", write_config(tmp_path, SPIKE_DOC),
                    "--out", str(sim), "--seed", "1", "--n", "3", "--replicates", "1",
                ]
            )
        finally:
            os.umask(old)
        assert (code, sim_code) == (0, 0)
        for path in (out_dir / "report.json", out_dir / "curves.csv", sim):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name

    def test_byte_identical_across_runs_and_threads(self, tmp_path, monkeypatch):
        # two work units at n = 8192 >= 1000: two threads with 4 usable CPUs
        doc = {
            **AR1_DOC,
            "experiment": {
                "base_seed": 55,
                "n_grid": [10, 8192],
                "replicates": 1100,
                "epsilons": [0.2],
                "checks": ["VARIANCE_IDENTITY"],
            },
        }
        outputs = []
        for name, cpus in [("r1", 1), ("r2", 1), ("r4", 4)]:
            monkeypatch.setattr(processes, "worker_count", lambda: cpus)
            code, out_dir = self.run_experiment_cmd(tmp_path, doc, out_name=name)
            assert code == 0
            outputs.append(
                (
                    (out_dir / "report.json").read_bytes(),
                    (out_dir / "curves.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]
