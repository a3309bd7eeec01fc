import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import jsonschema
import numpy as np
import pytest
from conftest import ENGINE_CONFIGS

from ergodiag import FAMILIES, ProcessConfig, RngSeed, processes, sample_path
from ergodiag import _format, cli, harness
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
            magnitude = float(t) * math.sqrt(float(t))
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
        config = ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1.0})
        code, out = self.run_simulate(
            tmp_path, AR1_DOC, n="50", replicates="1", seed="7"
        )
        assert code == 0
        expected = sample_path(config, 50, RngSeed(7, 0)).values
        parsed = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        assert np.array_equal(np.asarray(parsed), expected)

    # Every value of these paths lies outside the window 1e-4 <= |x| < 1e16
    # that the row writer prints with NumPy: below it, and above it.
    WINDOW_MISSES = {
        "AR1_BELOW_WINDOW": ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1e-12}),
        "DRIFTING_MEAN_ABOVE_WINDOW": ProcessConfig(
            "DRIFTING_MEAN",
            {"trend": {"kind": "LINEAR", "a": 1e17, "b": 1.0}, "noise_sd": 1.0},
        ),
    }

    @pytest.mark.parametrize("family", [*ENGINE_CONFIGS, *WINDOW_MISSES])
    def test_bytes_equal_reference_writer(self, tmp_path, family):
        config = {**ENGINE_CONFIGS, **self.WINDOW_MISSES}[family]
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
                if family in self.WINDOW_MISSES:
                    assert not np.any((np.abs(values) >= 1e-4) & (np.abs(values) < 1e16))
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

    def test_more_replicates_than_u64_indices_exits_2(self, tmp_path, capsys):
        # Replicate indices are u64: one replicate more than 2**64 is rejected
        # before any block is sampled, and the temporary file is removed.
        code, _ = self.run_simulate(tmp_path, AR1_DOC, replicates=str(2**64 + 1))
        err = capsys.readouterr().err
        assert code == 2
        assert "replicates" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        ("flag", "low", "high"),
        [("seed", 0, 2**64 - 1), ("n", 1, None), ("replicates", 1, 2**64)],
    )
    def test_integer_flags_follow_the_one_rule(self, tmp_path, capsys, monkeypatch,
                                               flag, low, high):
        # Each flag is parsed as a decimal int, then checked by the library's
        # integer rule, which names the flag and states its bound.
        sampled = []
        monkeypatch.setattr(cli, "sample_blocks", lambda config, n, seed, replicates,
                            consume, max_workers: sampled.append((seed, n, replicates)))
        for value in [low] if high is None else [low, high]:
            code, _ = self.run_simulate(tmp_path, AR1_DOC, **{flag: str(value)})
            assert code == 0
            got = dict(zip(("seed", "n", "replicates"), sampled.pop()))[flag]
            assert got == value and type(got) is int
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        for value in [low - 1] if high is None else [low - 1, high + 1]:
            code, _ = self.run_simulate(tmp_path, AR1_DOC, **{flag: str(value)})
            assert code == 2
            assert capsys.readouterr().err == f"error: --{flag} must be {bound}, got {value}\n"
        for text in ["1.5", "1.0", "true", ""]:
            with pytest.raises(SystemExit) as exit_info:
                self.run_simulate(tmp_path, AR1_DOC, **{flag: text})
            assert exit_info.value.code == 2
            assert f"argument --{flag}: invalid int value: {text!r}" in capsys.readouterr().err
        assert sampled == []

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


class TestSimulateWriterThreads:
    """``simulate`` formats chunks on the calling thread and, with more than
    one usable CPU, on one helper thread; the file must not change."""

    HELPER = "ergodiag-simulate"

    @pytest.fixture
    def threads(self, monkeypatch):
        """The names of the threads that formatted each chunk, keyed by the
        chunk's first row.  The helper starts each chunk late, so the
        calling thread finishes its own chunk first: a helper that read its
        chunk after the block was reused would write other values."""
        seen = {}
        original = _format.format_rows

        def spy(x, start, n, first, **kwargs):
            thread = threading.current_thread().name
            seen[first * n + start] = thread
            if thread.startswith(self.HELPER):
                time.sleep(0.005)
            return original(x, start, n, first, **kwargs)

        monkeypatch.setattr(_format, "format_rows", spy)
        return seen

    def simulate(self, tmp_path, doc, n, replicates, name="paths.csv"):
        out = tmp_path / name
        code = main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--seed", "3", "--n", str(n), "--replicates", str(replicates)])
        return code, out

    @pytest.mark.parametrize(
        "doc, n, replicates",
        [
            (AR1_DOC, 1000, 200),
            (AR1_DOC, 200_000, 1),
            # Every value below the window, or above it in exponent form:
            # each value is printed by %.17g into the chunk's bytes.
            ({"process": {"family": "AR1", "params": {"phi": 0.5, "gamma0": 1e-12}}}, 1000, 50),
            ({"process": {"family": "AR1", "params": {"phi": 0.5, "gamma0": 1e40}}}, 1000, 50),
            # Mostly zeros, and chunks that end inside a replicate.
            (SPIKE_DOC, 997, 131),
            # Blocks of 1024 one-value rows: one chunk each.
            (AR1_DOC, 1, 20_000),
            # Three blocks of two rows in one buffer, seven chunks each:
            # three pairs, then a lone last chunk on the calling thread.
            (AR1_DOC, 50_000, 6),
            # Rows one value shorter than a chunk, as long and one longer:
            # each replicate ends one value before, on or after a chunk edge,
            # and the next ends further from it.
            (AR1_DOC, cli._WRITE_CHUNK - 1, 3),
            (AR1_DOC, cli._WRITE_CHUNK, 3),
            (AR1_DOC, cli._WRITE_CHUNK + 1, 3),
        ],
        ids=["AR1", "long_path", "below_window", "above_window", "spikes", "n1", "odd_chunks",
             "chunk-1", "chunk", "chunk+1"],
    )
    def test_same_bytes_at_every_worker_count(
        self, tmp_path, monkeypatch, threads, doc, n, replicates
    ):
        config = ProcessConfig(doc["process"]["family"], doc["process"]["params"])
        paths = []
        processes.sample_blocks(
            config, n, 3, replicates, lambda first, block: paths.append(block.copy()),
            max_workers=1,
        )
        chunks = [-(-block.size // cli._WRITE_CHUNK) for block in paths]
        values = np.concatenate(paths).reshape(-1).tolist()
        want = "t,replicate,x\n" + "".join(
            "%d,%d,%.17g\n" % (i % n + 1, i // n, x) for i, x in enumerate(values)
        )
        for cpus in (1, 2, 4):
            monkeypatch.setattr(processes, "worker_count", lambda: cpus)
            threads.clear()
            code, out = self.simulate(tmp_path, doc, n, replicates, name=f"w{cpus}.csv")
            assert code == 0
            assert out.read_bytes() == want.encode("ascii"), cpus
            helped = sum(name.startswith(self.HELPER) for name in threads.values())
            assert len(threads) == sum(chunks)
            # The helper takes the first chunk of each pair in a block, and
            # only when there is one.
            assert helped == (sum(count // 2 for count in chunks) if cpus > 1 else 0)

    @pytest.mark.parametrize(
        "chunk, thread, error, code",
        [(2, "helper", MemoryError, 2), (2, "helper", OSError, 3), (3, "caller", OSError, 3)],
    )
    def test_a_failing_chunk_leaves_no_file_and_no_thread(
        self, tmp_path, monkeypatch, capsys, chunk, thread, error, code
    ):
        monkeypatch.setattr(processes, "worker_count", lambda: 2)
        original = _format.format_rows
        raised = []

        def failing(x, start, n, first, **kwargs):
            if first * n + start == chunk * cli._WRITE_CHUNK:
                raised.append(threading.current_thread().name)
                raise error("chunk failed")
            return original(x, start, n, first, **kwargs)

        monkeypatch.setattr(_format, "format_rows", failing)
        before = set(threading.enumerate())
        assert self.simulate(tmp_path, AR1_DOC, 1000, 200)[0] == code
        assert raised and raised[0].startswith(self.HELPER) == (thread == "helper")
        assert "chunk failed" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        assert set(threading.enumerate()) == before


class TestWriterMemory:
    # Peak traced memory of a 200 x 1000 AR1 simulate beyond that of
    # sampling its paths alone, in chunk working sets per formatting thread.
    # A thread's working set is at most about 250 bytes for each value of a
    # chunk: the byte matrix and its mask (60 each, for lines of 15 words),
    # the digits' work arrays (73), the chunk's text (about 27) and step
    # numbers (8); the helper reads its chunk in place in the block.
    # Measured: 0.89 on one thread, 0.93 on each of two.  One more working
    # set kept per thread, or one made per chunk and kept, passes 1.25.
    # Once simulate returns, nothing of a chunk's size may be left.
    SET = 250 * cli._WRITE_CHUNK

    @staticmethod
    def traced(run):
        run()  # builds the tables and caches once
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_peak_per_thread_and_nothing_kept(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(processes, "worker_count", lambda: cpus)
        config = ProcessConfig(AR1_DOC["process"]["family"], AR1_DOC["process"]["params"])
        _, engine = self.traced(lambda: processes.sample_blocks(
            config, 1000, 3, 200, lambda first, block: None, max_workers=1))
        argv = ["simulate", "--config", write_config(tmp_path, AR1_DOC),
                "--out", str(tmp_path / "paths.csv"), "--seed", "3", "--n", "1000",
                "--replicates", "200"]
        kept, peak = self.traced(lambda: main(argv))
        assert peak - engine <= 1.25 * cpus * self.SET, (peak - engine) / (cpus * self.SET)
        assert kept < 8 * cli._WRITE_CHUNK


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
        config = ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1.0})
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
            ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1.0}), 200, RngSeed(5, 0)
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


def analyze_in_a_new_process(data: bytes, path=None) -> subprocess.CompletedProcess:
    """``ergodiag analyze`` in a new interpreter, on the file ``path`` or,
    without one, on ``data`` piped in through /dev/stdin."""
    src = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ergodiag.cli", "analyze", "--input",
         "/dev/stdin" if path is None else str(path)],
        input=None if path is not None else data, capture_output=True,
        env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120,
    )


PIPE_BODY = b"1.5\n2.5\r3.5\r\n4.5\n5.5\n6.5\n7.5\n8.5\n9.5\n1.25\n2.25\n3.75\n"


class TestAnalyzeFromAPipe:
    """A pipe cannot seek: its header must be read as a file's is, to the byte."""

    @pytest.mark.parametrize(
        ("data", "status"),
        [(b"x\r" + PIPE_BODY, 0),
         (b"x\r\n" + PIPE_BODY, 0),
         # the header ends at its first CR; the CR LF after it is a blank line
         (b"x\r\r\n" + PIPE_BODY, 0),
         # the CR ends the first 8192-byte read, its LF starts the next
         (b"x".ljust(8191) + b"\r\n" + PIPE_BODY, 0),
         # a header longer than the read buffer, padded with blanks
         (b"x".ljust(100_000) + b"\r" + PIPE_BODY, 0),
         (b"y\r" + PIPE_BODY, 2),
         (b"y" * 100_000 + b"\r" + PIPE_BODY, 2),
         (b"t,\xff\r1,2\n", 2),
         (b"", 2)],
        ids=["lone-cr", "crlf", "cr-then-crlf", "crlf-across-reads", "long-header",
             "bad-header", "long-bad-header", "not-utf8", "empty"],
    )
    def test_stdin_pipe_prints_the_bytes_of_the_file(self, tmp_path, data, status):
        path = tmp_path / "path.csv"
        path.write_bytes(data)
        from_file = analyze_in_a_new_process(data, path)
        piped = analyze_in_a_new_process(data)
        assert from_file.returncode == piped.returncode == status, piped.stderr
        assert piped.stdout == from_file.stdout
        assert piped.stderr == from_file.stderr.replace(bytes(path), b"/dev/stdin")
        assert (piped.stdout == b"") == (status != 0)
        if data.startswith(b"y" * 100_000):
            # the header is echoed only in part, then its length
            assert piped.stderr.count(b"\n") == 1 and len(piped.stderr) < 200
            assert piped.stderr.startswith(b"error: unsupported CSV header ['" + b"y" * 78 + b"...")
            assert b"(a header of 100000 characters)" in piped.stderr


PIPE_BODY_LINES = b"".join(b"%d.5\n" % i for i in range(12))
LONG_CONFIG_VALUES = {
    "base_seed": ({"base_seed": "s" * 100_000}, "base_seed must be an integer, got 'sss"),
    "epsilons-entry": ({"base_seed": 1, "epsilons": ["e" * 100_000]},
                       "epsilons entry must be a number, got 'eee"),
    "n_grid-string": ({"base_seed": 1, "n_grid": "g" * 100_000},
                      "n_grid must be a list, got 'ggg"),
    "n_grid-order": ({"base_seed": 1, "n_grid": [*range(1, 100_000), 5]},
                     "n_grid must be strictly increasing, got (1, 2, 3"),
    "epsilons-sign": ({"base_seed": 1, "epsilons": [-1.0] * 100_000},
                      "epsilons must be positive and finite, got [-1.0, -1.0"),
    "epsilons-repeat": ({"base_seed": 1, "epsilons": [0.1] * 100_000},
                        "epsilons must be distinct, got (0.1, 0.1"),
}
LONG_PROCESS_VALUES = {
    "params": ({"family": "AR1", "params": "p" * 100_000}, "params must be a mapping, got 'ppp"),
    "trend": ({"family": "DRIFTING_MEAN", "params": {"trend": "t" * 100_000, "noise_sd": 1}},
              "trend must be a mapping with a 'kind' key, got 'ttt"),
    "family": ({"family": "f" * 100_000}, "family must be one of"),
    "unknown-params": ({"family": "AR1", "params": {
        "phi": 0.5, "gamma0": 1, **{f"k{i}": 0 for i in range(100_000)}}},
        "unknown parameter(s): k0, k1, k10, k100, k1000, k10000, k10001"),
}
LONG_PATH_FIELDS = {
    "line-1-not-utf8": (b"\xff" * 50_000 + b"\n" + PIPE_BODY_LINES,
                        "path.csv, line 1: b'\\xff\\xff"),
    "field-not-utf8": (b"x\n" + b"\xff" * 50_000 + b"\n" + PIPE_BODY_LINES,
                       "path.csv, line 2, column 'x': b'\\xff\\xff"),
    "field-not-a-number": (b"x\n" + b"a" * 100_000 + b"\n" + PIPE_BODY_LINES,
                           "path.csv, line 2, column 'x': cannot read 'aaa"),
    "field-not-finite": (b"x\n" + b" " * 100_000 + b"1e999\n" + PIPE_BODY_LINES,
                         "path.csv, line 2, column 'x': '   "),
}


class TestLongInputIsEchoedInPart:
    """An error echoes at most 80 characters of a value, then its length."""

    @staticmethod
    def assert_one_short_line(err, start):
        assert err.startswith(f"error: {start}") and err.count("\n") == 1, err[:300]
        assert len(err.encode()) < 300, err
        assert err.endswith(("characters)\n", "bytes)\n", "names)\n", "is not UTF-8 text\n",
                             "as a number\n", "is not a finite number\n")), err

    @pytest.mark.parametrize(("section", "start"), LONG_CONFIG_VALUES.values(),
                             ids=LONG_CONFIG_VALUES)
    def test_experiment_value(self, tmp_path, capsys, section, start):
        doc = {**AR1_DOC, "experiment": section}
        code = main(["experiment", "--config", write_config(tmp_path, doc),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        self.assert_one_short_line(capsys.readouterr().err,
                                   f"experiment section invalid: {start}")

    @pytest.mark.parametrize(("section", "start"), LONG_PROCESS_VALUES.values(),
                             ids=LONG_PROCESS_VALUES)
    def test_process_value(self, tmp_path, capsys, section, start):
        doc = {"process": section, "experiment": {"base_seed": 1}}
        code = main(["experiment", "--config", write_config(tmp_path, doc),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        self.assert_one_short_line(capsys.readouterr().err, start)

    def test_duplicate_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        key = json.dumps("k" * 100_000)
        config.write_text(f'{{"process": {{{key}: 1, {key}: 2}}}}', encoding="utf-8")
        code = main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        self.assert_one_short_line(capsys.readouterr().err,
                                   f"{config}: duplicate key 'kkk")

    @pytest.mark.parametrize(("data", "start"), LONG_PATH_FIELDS.values(),
                             ids=LONG_PATH_FIELDS)
    def test_path_field(self, tmp_path, capsys, data, start):
        path = tmp_path / "path.csv"
        path.write_bytes(data)
        code, captured = run_analyze(capsys, str(path))
        assert code == 2
        self.assert_one_short_line(captured.err, f"{tmp_path}/{start}")


EXPERIMENT_DOC = {
    "process": {"family": "SPARSE_SPIKES", "params": {}},
    "experiment": {
        "base_seed": 99,
        "n_grid": [100, 1000],
        "replicates": 2000,
        "epsilons": [0.1, 0.05],
        "checks": ["VARIANCE_IDENTITY", "WLLN"],
    },
}


def config_with(gamma0: str = "1", epsilons: str = "[0.1]") -> bytes:
    return (
        '{"process": {"family": "AR1", "params": {"phi": 0.5, "gamma0": %s}}, '
        '"experiment": {"base_seed": 1, "epsilons": %s}}' % (gamma0, epsilons)
    ).encode()


# Config bytes that json or float() cannot take, and what the error names:
# the field, or None for the config file.
CONFIG_FAULTS = {
    "nested_100000_deep": (b'{"process": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", None),
    "not_utf8": (b'{"process": {"family": "AR1"}}\xff', None),
    "5001_digit_integer": (config_with(gamma0="1" * 5001), None),
    "401_digit_gamma0": (config_with(gamma0="1" + "0" * 400), "gamma0"),
    "401_digit_eps": (config_with(epsilons="[1%s]" % ("0" * 400)), "epsilons entry"),
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
        assert "WLLN: PASS" in stdout

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

    @pytest.mark.parametrize(
        ("doc", "line"),
        [({**SPIKE_DOC, "seed": 1, "extra": {}}, "unknown key(s) in config file: extra, seed"),
         ({"process": {**SPIKE_DOC["process"], "seed": 1}},
          "unknown key(s) in config section 'process': seed"),
         ({**SPIKE_DOC, "experiment": {"base_seed": 1, "seeds": [1], "grid": [10]}},
          "unknown key(s) in config section 'experiment': grid, seeds"),
         ({"process": {"family": "AR1", "params": {"phi": 0.5, "gamma0": 1, "z": 0, "rho": 1}}},
          "unknown parameter(s): rho, z"),
         ({"process": {"family": "DRIFTING_MEAN", "params": {
             "trend": {"kind": "LINEAR", "a": 0, "b": 0, "c": 0}, "noise_sd": 1}}},
          "unknown parameter(s): trend.c")],
        ids=["config-file", "process", "experiment", "params", "trend"],
    )
    def test_unknown_keys_are_named_in_one_line(self, tmp_path, capsys, doc, line):
        code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        assert code == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "params", [[], ["phi", "gamma0"], "phi", None, 1],
        ids=["empty-array", "array", "string", "null", "number"],
    )
    def test_params_not_an_object_exits_2_naming_it(self, tmp_path, capsys, params):
        doc = {"process": {"family": "AR1", "params": params}, "experiment": {"base_seed": 1}}
        code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        assert code == 2
        assert capsys.readouterr().err == f"error: params must be a mapping, got {params!r}\n"
        assert not out_dir.exists()

    def test_analyze_section_exits_2_naming_it(self, tmp_path, capsys):
        doc = {**SPIKE_DOC, "experiment": {"base_seed": 1}, "analyze": {}}
        code, _ = self.run_experiment_cmd(tmp_path, doc)
        assert code == 2
        assert "analyze" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["STATIONARITY", "VECTOR", "FOURTH_MOMENT"])
    def test_unknown_check_name_exits_2(self, tmp_path, capsys, name):
        doc = {**SPIKE_DOC, "experiment": {"base_seed": 1, "checks": [name]}}
        code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        assert code == 2
        assert name in capsys.readouterr().err
        assert not out_dir.exists()

    def test_schema_enums_match_the_package(self):
        schema = load_report_schema()
        checks = schema["$defs"]["checkName"]["enum"]
        family = schema["properties"]["process"]["properties"]["family"]
        assert checks == [c.value for c in harness.Check]
        for name in FAMILIES:
            jsonschema.validate(name, family)

    def test_a_model_registered_in_families_runs_from_the_command_line(
        self, tmp_path, monkeypatch
    ):
        # Adding a family takes one Model in FAMILIES, nothing else.
        class Fifth(type(FAMILIES["AR1"])):
            name = "FIFTH_AR1"

        monkeypatch.setattr(processes, "FAMILIES",
                            MappingProxyType({**FAMILIES, Fifth.name: Fifth()}))
        doc = {"process": {"family": "FIFTH_AR1", "params": {"phi": 0.5, "gamma0": 1.0}},
               "experiment": {"base_seed": 1, "n_grid": [10, 100], "replicates": 200}}
        code, out_dir = self.run_experiment_cmd(tmp_path, doc)
        assert code in (0, 1)
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        jsonschema.validate(report, load_report_schema())
        assert report["process"]["family"] == "FIFTH_AR1"

    def test_user_model_report_validates_and_an_empty_family_does_not(self):
        class MyAR1(type(ProcessConfig("AR1", {"phi": 0.5, "gamma0": 1}).model)):
            name = "MY_AR1"

        config = harness.ExperimentConfig(
            ProcessConfig(MyAR1(), {"phi": 0.5, "gamma0": 1}), base_seed=1,
            n_grid=(10, 100), replicates=2, checks=[],
        )
        report = json.loads(json.dumps(harness.run_experiment(config).to_dict()))
        assert report["process"]["family"] == "MY_AR1"
        jsonschema.validate(report, load_report_schema())
        report["process"]["family"] = ""
        with pytest.raises(jsonschema.ValidationError) as error:
            jsonschema.validate(report, load_report_schema())
        assert list(error.value.absolute_path) == ["process", "family"]

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
             "error: DRIFTING_MEAN paths of length n=100: values must be finite"),
            ({"family": "DRIFTING_MEAN", "params": {
                "trend": {"kind": "LINEAR", "a": 0.0, "b": 0.0}, "noise_sd": 1e200}},
             "error: numeric overflow: n=10: outside the float range: Var(A_n) = inf, "),
            ({"family": "AR1", "params": {"phi": 0.9999999999, "gamma0": 1e300}},
             "error: numeric overflow: n=10: outside the float range: "
             "Var((A_n - m_n)^2) = inf; scale the process down"),
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
        ("command", "fault"),
        [("experiment", fault) for fault in CONFIG_FAULTS]
        + [("simulate", "nested_100000_deep")],
    )
    def test_unreadable_config_exits_2_naming_the_file_or_field(
        self, tmp_path, capsys, command, fault
    ):
        text, field = CONFIG_FAULTS[fault]
        config = tmp_path / "config.json"
        config.write_bytes(text)
        out = tmp_path / "out"
        if command == "experiment":
            extra = ["--out-dir", str(out)]
        else:
            extra = ["--out", str(out), "--seed", "1", "--n", "5", "--replicates", "1"]
        code = main([command, "--config", str(config), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (field or str(config)) in err
        assert not out.exists()

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
