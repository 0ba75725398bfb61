import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermalverify
from thermalverify import (HypergraphSpec, ProtocolConfig, build_family, certify, fidelity,
                           optimal_setting, pauli, ring_graph, run_protocol, stabilizer_product,
                           supremacy)
from thermalverify import sampler
from thermalverify.cli import _dumps, build_parser, main
from thermalverify.supremacy import EPSILON_FULL_SCALE, L1_TARGET
from util_dense import dumps_reference

PATH4 = {"n": 4, "e2": [[1, 2], [2, 3], [3, 4]]}
RING12 = Path(__file__).resolve().parent / "golden" / "cli" / "ring12.json"


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g4.json"
    path.write_text(json.dumps(PATH4))
    return str(path)


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def masked_run(argv, capsys):
    """Exit code, stdout and stderr of one `main(argv)` call, timestamps masked."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, mask_timestamp(captured.out), mask_timestamp(captured.err)


def mask_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def strict_json(text):
    """Parse `text`, failing on the non-standard NaN/Infinity/-Infinity tokens."""
    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["sweep-wt", "--n", "4", "--betas", "1,2"])
        assert args.subcommand == "sweep-wt" and args.betas == [1.0, 2.0]
        args = parser.parse_args(["curves"])
        assert args.sizes == [50, 100] and args.points == 200

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["frobnicate"])
        assert err.value.code == 2

    def test_thermal_flags_mutually_exclusive(self, graph_file):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(
                ["expectation", "--graph", graph_file, "--beta", "1", "--temperature", "2"])
        assert err.value.code == 2

    def test_setting_and_wt_mutually_exclusive(self, graph_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["expectation", "--graph", graph_file, "--setting", "1100", "--wt", "3",
                  "--beta", "1"])
        assert err.value.code == 2
        assert "not allowed with argument --setting" in capsys.readouterr().err


class TestCachedParser:
    """`main` parses with one parser per process; no parse may change it."""

    CERTIFY = ["certify-iqp", "--n", "200", "--beta", "3", "--samples", "500", "--seed", "2",
               "--allow-small-n"]
    SEQUENCE = [
        CERTIFY,
        ["certify-iqp", "--n", "200", "--beta", "3", "--f-est", "1"],  # argparse conflict
        ["certify-iqp", "--n", "12", "--f-est", "1"],  # ValueError: n below full scale
        ["curves", "--points", "3"],
        CERTIFY,
    ]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_main_calls_match_fresh_parses(self, capsys):
        fresh = []
        for argv in self.SEQUENCE:
            build_parser.cache_clear()
            fresh.append(masked_run(argv, capsys))
        parser = build_parser()
        shared = [masked_run(argv, capsys) for argv in self.SEQUENCE]
        assert build_parser() is parser
        assert [code for code, _, _ in shared] == [0, 2, 2, 0, 0]
        assert shared == fresh

    @pytest.mark.parametrize("argv, dest, default", [
        (["curves"], "sizes", [50, 100]),
    ])
    def test_list_defaults_are_fresh_on_every_parse(self, argv, dest, default):
        first = build_parser().parse_args(argv)
        getattr(first, dest).append(7)
        second = build_parser().parse_args(argv)
        assert getattr(second, dest) == default
        assert getattr(second, dest) is not getattr(first, dest)


class TestExpectation:
    def test_known_record(self, graph_file, capsys):
        code = main(["expectation", "--graph", graph_file, "--wt", "2",
                     "--beta", repr(math.log(2) / 2)])
        assert code == 0
        doc = read_json(capsys)
        assert doc["result"]["expectation"] == pytest.approx(1 / 9, abs=1e-12)
        assert doc["result"]["fidelity"] == pytest.approx(16 / 81, abs=1e-12)
        assert doc["result"]["fine_bound"] == pytest.approx(8 / 81, abs=1e-12)
        assert doc["manifest"]["subcommand"] == "expectation"

    def test_weight_zero(self, graph_file, capsys):
        assert main(["expectation", "--graph", graph_file, "--wt", "0", "--beta", "1"]) == 0
        assert read_json(capsys)["result"]["expectation"] == 1.0

    def test_zero_temperature(self, graph_file, capsys):
        assert main(["expectation", "--graph", graph_file, "--temperature", "0"]) == 0
        result = read_json(capsys)["result"]
        assert result["expectation"] == 1.0 and result["fidelity"] == 1.0
        assert result["beta"] == "infinity" and result["p_flip"] == 0.0

    def test_setting_selector(self, graph_file, capsys):
        assert main(["expectation", "--graph", graph_file, "--setting", "1100",
                     "--beta", "0.5"]) == 0
        assert read_json(capsys)["result"]["wt"] == 2

    def test_missing_graph_is_validation_error(self, tmp_path):
        assert main(["expectation", "--graph", str(tmp_path / "nope.json"),
                     "--beta", "1"]) == 2

    def test_malformed_graph_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "e2": [[1, 7]]}')
        assert main(["expectation", "--graph", str(bad), "--beta", "1"]) == 2

    @pytest.mark.parametrize("doc", ['{"n": 1.5}', '{"n": true}', '{"n": 3, "e2": [1, 2]}'])
    def test_wrong_json_type_in_graph_is_validation_error(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        assert main(["expectation", "--graph", str(bad), "--beta", "1", "--wt", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: graph document: ")

    @pytest.mark.parametrize("epsilon", ["5", "nan", "-0.1"])
    def test_epsilon_checked_for_every_n(self, tmp_path, capsys, epsilon):
        odd = tmp_path / "g3.json"
        odd.write_text('{"n": 3, "e2": [[1, 2], [2, 3]]}')
        assert main(["expectation", "--graph", str(odd), "--beta", "1", "--wt", "2",
                     "--epsilon", epsilon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"need 0 <= epsilon <= 1, got {float(epsilon)}" in captured.err

    def test_graph_path_starting_with_a_brace_is_read_as_a_file(self, tmp_path, monkeypatch,
                                                                capsys):
        # a --graph value is always a file name, even one that looks like JSON text
        shutil.copy(RING12, tmp_path / "ring12.json")
        shutil.copy(RING12, tmp_path / "{ring}.json")
        monkeypatch.chdir(tmp_path)
        runs = {name: masked_run(["expectation", "--graph", name, "--wt", "6", "--beta", "1"],
                                 capsys)
                for name in ("{ring}.json", "ring12.json")}
        code, out, err = runs["ring12.json"]
        assert code == 0 and err == ""
        assert runs["{ring}.json"] == (0, out.replace('"ring12.json"', '"{ring}.json"'), "")

    def test_default_mode_needs_even_n(self, tmp_path):
        odd = tmp_path / "g3.json"
        odd.write_text('{"n": 3, "e2": [[1, 2], [2, 3]]}')
        assert main(["expectation", "--graph", str(odd), "--beta", "1"]) == 2
        assert main(["expectation", "--graph", str(odd), "--beta", "1", "--wt", "1"]) == 0


HUGE_N = str(10**400)  # beyond the largest float


class TestSiteCountBeyondFloat:
    """An n that no float holds is a validation error on every route that
    reads n, not an OverflowError traceback."""

    @pytest.mark.parametrize("argv", [
        ["estimate-temperature", "--n", HUGE_N, "--f-est", "0.5"],
        ["estimate-temperature", "--n", HUGE_N, "--f-est", "0.5", "--from-fidelity"],
        ["certify-iqp", "--n", HUGE_N, "--f-est", "1"],
        ["sweep-wt", "--n", HUGE_N, "--betas", "1"],
        ["curves", "--sizes", HUGE_N, "--points", "2"],
        ["expectation", "--beta", "1", "--graph"],
        ["verify", "--beta", "1", "--epsilon", "0.1", "--delta", "0.1", "--samples", "10",
         "--graph"],
    ])
    def test_exits_two_naming_the_float_limit(self, tmp_path, capsys, argv):
        if argv[-1] == "--graph":
            huge = tmp_path / "huge.json"
            huge.write_text(f'{{"n": {HUGE_N}}}')
            argv = [*argv, str(huge)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need n <= 1.79769e+308, the largest float")


class TestUtf8Input:
    """JSON input files are UTF-8 (RFC 8259), whatever the locale."""

    def test_inputs_are_read_without_the_locale_encoding(self, graph_file, tmp_path):
        report = tmp_path / "report.json"
        report.write_text('{"f_est": 0.9}')
        env = {**os.environ, "PYTHONPATH": str(Path(thermalverify.__file__).resolve().parents[1])}
        for argv in (["expectation", "--graph", graph_file, "--wt", "2", "--beta", "1"],
                     ["certify-iqp", "--report", str(report), "--n", "10", "--allow-small-n"]):
            done = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                                   "-W", "error::EncodingWarning", "-m", "thermalverify", *argv],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, "")
            assert json.loads(done.stdout)["manifest"]["subcommand"] == argv[0]

    @pytest.mark.parametrize("argv", [["expectation", "--wt", "1", "--beta", "1", "--graph"],
                                      ["certify-iqp", "--n", "10", "--allow-small-n", "--report"]])
    def test_bytes_that_are_not_utf8_are_a_validation_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"n": 2, "f_est": 1, "caf\u00e9": 1}'.encode("latin-1"))
        assert main([*argv, str(bad)]) == 2
        assert "codec can't decode" in capsys.readouterr().err


class TestVerify:
    def test_csv_schema_and_summary(self, graph_file, tmp_path):
        out = tmp_path / "trials.csv"
        code = main(["verify", "--graph", graph_file, "--beta", "0.5",
                     "--epsilon", "0.05", "--delta", "0.1", "--samples", "4000",
                     "--seed", "3", "--trials", "4", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 5
        trials = [r for r in rows if r["row"] == "trial"]
        summary = [r for r in rows if r["row"] == "summary"]
        assert len(trials) == 4 and len(summary) == 1
        assert [r["seed"] for r in trials] == ["3", "4", "5", "6"]
        assert summary[0]["target_rate"] == "0.9"
        assert (tmp_path / "trials.csv.manifest.json").exists()

    def test_reproducible_bytes(self, graph_file, tmp_path):
        args = ["verify", "--graph", graph_file, "--beta", "0.5", "--epsilon", "0.05",
                "--delta", "0.1", "--samples", "2000", "--seed", "11", "--trials", "2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_each_trial_evaluates_the_bounds_once(self, tmp_path, monkeypatch):
        calls, bounds = [], sampler.error_bounds
        monkeypatch.setattr(sampler, "error_bounds",
                            lambda *args, **kwargs: calls.append(1) or bounds(*args, **kwargs))
        out = tmp_path / "trials.csv"
        assert main(["verify", "--graph", str(RING12), "--beta", "1", "--epsilon", "0.1",
                     "--delta", "0.1", "--samples", "100", "--trials", "3",
                     "--output", str(out)]) == 0
        assert len(calls) == 3
        assert [row["fine_bound"] != "" for row in read_csv(out)] == [True] * 3 + [False]

    def test_epsilon_one_runs_with_error_bounds(self, tmp_path):
        # an even n computes the error bounds, which take epsilon = 1 as
        # ProtocolConfig does
        out = tmp_path / "trials.csv"
        assert main(["verify", "--graph", str(RING12), "--beta", "1", "--epsilon", "1",
                     "--delta", "0.5", "--output", str(out)]) == 0
        trial = read_csv(out)[0]
        assert trial["row"] == "trial" and trial["n_samples"] == "3"

    def test_selector_must_cancel_the_cz_tails(self, tmp_path, capsys):
        path = tmp_path / "family10.json"
        path.write_text(json.dumps(build_family(10).to_dict()))
        args = ["verify", "--graph", str(path), "--beta", "3", "--epsilon", "0.1",
                "--delta", "0.1", "--samples", "1000"]
        assert main(args + ["--setting", "1000000000"]) == 2
        assert capsys.readouterr().err == (
            "error: selector does not reduce to a Pauli word on this hypergraph; "
            "choose a selector whose CZ tails cancel (e.g. 0101...01 on the "
            "restricted family)\n")
        assert main(args + ["--setting", "0101010101"]) == 0

    @staticmethod
    def _csv(tmp_path, doc, setting=None):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        args = ["verify", "--graph", str(path), "--beta", "1", "--epsilon", "0.1",
                "--delta", "0.1", "--samples", "2000", "--seed", "2", "--trials", "3",
                "--output", str(out)]
        assert main(args + (["--setting", setting] if setting else [])) == 0
        return out.read_text()

    def test_default_selector_reduces_on_the_family(self, tmp_path):
        doc = build_family(10).to_dict()
        assert self._csv(tmp_path, doc) == self._csv(tmp_path, doc, "0101010101")

    def test_default_selector_on_a_ring_matches_leading_half(self, tmp_path):
        # on a graph the CSV depends on the selector only through its weight
        doc = ring_graph(10).to_dict()
        assert self._csv(tmp_path, doc) == self._csv(tmp_path, doc, "1111100000")

    def test_odd_ring_summary_has_no_fine_bound_rate(self, tmp_path):
        text = self._csv(tmp_path, ring_graph(5).to_dict(), "11000")
        rows = list(csv.DictReader(text.splitlines()))
        assert [r["row"] for r in rows] == ["trial"] * 3 + ["summary"]
        assert all(r["fine_bound"] == r["within_fine_bound"] == "" for r in rows)
        assert rows[-1]["pass_rate_fine_bound"] == ""
        assert rows[-1]["pass_rate_epsilon"] != ""


class TestCurves:
    def test_schema_and_monotonicity(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["curves", "--sizes", "50", "--tmin", "0.05", "--tmax", "1.0",
                     "--points", "20", "--output", str(out)]) == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == ["n", "T", "p_beta", "F", "F_est_infinite", "F_ub"]
        assert len(rows) == 20
        fvals = [float(r["F"]) for r in rows]
        pvals = [float(r["p_beta"]) for r in rows]
        assert all(a >= b for a, b in zip(fvals, fvals[1:]))
        assert all(a <= b for a, b in zip(pvals, pvals[1:]))

    def test_cold_end_of_grid_saturates(self, tmp_path):
        out = tmp_path / "cold.csv"
        assert main(["curves", "--sizes", "50", "--tmin", "0.005", "--tmax", "0.5",
                     "--points", "3", "--output", str(out)]) == 0
        first = read_csv(out)[0]
        assert (float(first["F"]), float(first["F_est_infinite"]), float(first["F_ub"])) \
            == (1.0, 1.0, 1.0)

    def test_odd_size_rejected(self):
        assert main(["curves", "--sizes", "9"]) == 2

    def test_infinite_tmax_rejected_by_name(self, capsys):
        assert main(["curves", "--tmin", "0.5", "--tmax=inf", "--points", "3"]) == 2
        assert capsys.readouterr().err == "error: need 0 < tmin < tmax < inf, got 0.5, inf\n"


class TestSweepWt:
    def test_argmin_at_half_weight(self, tmp_path):
        out = tmp_path / "sweep.csv"
        beta = -math.log(1e-3) / 2
        assert main(["sweep-wt", "--n", "12", "--betas", repr(beta),
                     "--output", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 13
        marked = [r for r in rows if r["is_argmin"] == "true"]
        assert len(marked) == 1 and marked[0]["wt"] == "6"

    def test_sizes_past_forty(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-wt", "--n", "42", "--betas", "1.0,2.0",
                     "--output", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2 * 43 and rows[-1]["wt"] == "42"
        assert main(["sweep-wt", "--n", "43", "--betas", "1.0"]) == 2
        assert "even n >= 2, got 43" in capsys.readouterr().err

    def test_leading_term_symmetry(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-wt", "--n", "8", "--betas", "2.0", "--output", str(out)]) == 0
        rows = {r["wt"]: r for r in read_csv(out)}
        assert rows["0"]["leading_term"] == rows["8"]["leading_term"]


class TestCertifyCommand:
    def test_direct_arithmetic_accept(self, capsys):
        assert main(["certify-iqp", "--n", "400000", "--f-est", "1"]) == 0
        decision = read_json(capsys)["result"]["decision"]
        assert decision["verdict"] == "accept"
        assert decision["tvd_bound"] == pytest.approx(2 * math.sqrt(6e-6), abs=1e-12)

    def test_direct_arithmetic_reject(self, capsys):
        assert main(["certify-iqp", "--n", "400000", "--f-est", "0.99999"]) == 0
        assert read_json(capsys)["result"]["decision"]["verdict"] == "reject"

    def test_requires_estimate_or_temperature(self):
        for extra in ([], ["--f-est", "1", "--beta", "3"]):
            with pytest.raises(SystemExit) as err:
                main(["certify-iqp", "--n", "400000"] + extra)
            assert err.value.code == 2

    def test_end_to_end_small_scale(self, capsys):
        assert main(["certify-iqp", "--n", "12", "--temperature", "0",
                     "--samples", "5000", "--seed", "1", "--allow-small-n"]) == 0
        doc = read_json(capsys)["result"]
        assert doc["report"]["f_est"] == 1.0
        assert doc["decision"]["verdict"] == "reject"

    def test_paper_sample_budget(self, capsys):
        # no --samples: the default epsilon 1e-6, delta 1e-2 budget is simulated
        assert main(["certify-iqp", "--n", "2000", "--beta", "3", "--seed", "1",
                     "--allow-small-n"]) == 0
        result = read_json(capsys)["result"]
        assert result["report"]["n_samples"] == 10_596_634_733_097
        assert result["decision"]["verdict"] == "reject"

    def test_epsilon_one_simulates_end_to_end(self, capsys):
        assert main(["certify-iqp", "--n", "2000", "--beta", "3", "--epsilon", "1",
                     "--allow-small-n"]) == 0
        report = read_json(capsys)["result"]["report"]
        assert report["epsilon"] == 1.0 and report["n_samples"] == 11
        assert report["bound_report"]["coarse_bound"] == pytest.approx(1.001)

    @pytest.mark.parametrize("bad, message", [(["--epsilon=-5"], "need 0 < epsilon <= 1"),
                                              (["--delta", "nan"], "need 0 < delta < 1")])
    @pytest.mark.parametrize("mode", ["--f-est", "--report"])
    def test_estimate_modes_validate_epsilon_and_delta(self, tmp_path, capsys, mode, bad,
                                                        message):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"f_est": 1.0}))
        value = "1" if mode == "--f-est" else str(report)
        assert main(["certify-iqp", "--n", "400000", mode, value] + bad) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize("f_est", ["null", "[1]", "true", '"1"', "9" * 400])
    def test_report_f_est_must_be_a_json_number(self, tmp_path, capsys, f_est):
        report = tmp_path / "report.json"
        report.write_text('{"f_est": %s}' % f_est)
        assert main(["certify-iqp", "--n", "400000", "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: f_est in report {report} ")

    def test_small_n_without_flag_is_validation_error(self):
        assert main(["certify-iqp", "--n", "12", "--f-est", "1"]) == 2


class TestCertifyBudget:
    """Outside --allow-small-n the bound certify reports holds only for
    epsilon 1e-6 and at least sample_size(1e-6, delta) shots, so any other
    budget, stated on the command line or in a --report file, exits 2."""

    FULL = 10_596_634_733_097  # sample_size(1e-6, 1e-2)

    @staticmethod
    def refused(argv, capsys) -> str:
        assert main(["certify-iqp", "--n", "400000"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        return captured.err

    @pytest.mark.parametrize("source", [["--temperature", "0"], ["--f-est", "1"]])
    @pytest.mark.parametrize("budget, message", [
        (["--samples", "10"], f"the full-scale bound needs epsilon 1e-06 and at least {FULL} "
                              f"shots at delta 0.01, got epsilon 1e-06 and 10 shots; "),
        (["--samples", str(FULL - 1)], f"got epsilon 1e-06 and {FULL - 1} shots"),
        (["--epsilon", "0.5"], "got epsilon 0.5 and 43 shots"),
        (["--delta", "0.001", "--samples", str(FULL)],
         f"shots at delta 0.001, got epsilon 1e-06 and {FULL} shots"),
    ])
    def test_a_short_budget_is_refused(self, capsys, source, budget, message):
        assert message in self.refused(source + budget, capsys)

    @pytest.mark.parametrize("budget", [[], ["--samples", str(FULL)], ["--delta", "0.5"]])
    def test_the_full_budget_runs(self, capsys, budget):
        assert main(["certify-iqp", "--n", "400000", "--temperature", "0"] + budget) == 0
        assert read_json(capsys)["result"]["decision"]["verdict"] == "accept"

    def test_allow_small_n_evaluates_any_budget(self, capsys):
        assert main(["certify-iqp", "--n", "400000", "--temperature", "0", "--samples", "10",
                     "--allow-small-n"]) == 0
        assert read_json(capsys)["result"]["report"]["n_samples"] == 10

    def test_a_report_for_another_n_is_refused(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["certify-iqp", "--n", "2000", "--temperature", "0", "--samples", "2000",
                     "--allow-small-n", "--output", str(report)]) == 0
        err = self.refused(["--report", str(report)], capsys)
        assert err == f"error: report {report} is for n = 2000, not --n 400000\n"
        err = self.refused(["--report", str(report), "--allow-small-n"], capsys)
        assert "is for n = 2000" in err

    @pytest.mark.parametrize("stated, message", [
        ({"n_samples": 2000, "epsilon": 1e-6, "delta": 0.01}, "got epsilon 1e-06 and 2000 shots"),
        ({"epsilon": 0.5}, f"got epsilon 0.5 and {FULL} shots"),
        ({"n_samples": FULL, "delta": 0.001},
         f"shots at delta 0.001, got epsilon 1e-06 and {FULL} shots"),
    ])
    def test_a_report_with_a_short_budget_is_refused(self, tmp_path, capsys, stated, message):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"result": {"decision": {"n": 400000},
                                                 "report": {"f_est": 1.0, **stated}}}))
        err = self.refused(["--report", str(report)], capsys)
        assert err.startswith(f"error: report {report}: ") and message in err
        assert main(["certify-iqp", "--n", "400000", "--report", str(report),
                     "--allow-small-n"]) == 0
        assert read_json(capsys)["result"]["decision"]["verdict"] == "accept"

    @pytest.mark.parametrize("field, value, kind", [("n_samples", "2000.0", "integer"),
                                                    ("n_samples", "true", "integer"),
                                                    ("epsilon", '"1e-6"', "number"),
                                                    ("delta", "null", "number")])
    def test_report_budget_fields_must_be_json_numbers(self, tmp_path, capsys, field, value,
                                                       kind):
        report = tmp_path / "r.json"
        report.write_text('{"f_est": 1.0, "%s": %s}' % (field, value))
        err = self.refused(["--report", str(report), "--allow-small-n"], capsys)
        assert err == f"error: {field} in report {report} is not a JSON {kind}: {value}\n"

    def test_a_report_without_f_est_is_refused(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text('{"result": {"report": {"n_samples": 5}}}')
        assert main(["certify-iqp", "--n", "10", "--allow-small-n", "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no f_est field found in report {report}\n"

    def test_a_full_scale_report_is_evaluated(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["certify-iqp", "--n", "400000", "--temperature", "0",
                     "--output", str(report)]) == 0
        assert main(["certify-iqp", "--n", "400000", "--report", str(report)]) == 0
        assert read_json(capsys)["result"]["decision"]["verdict"] == "accept"

    @pytest.mark.parametrize("mode", ["--f-est", "--report", "--beta"])
    def test_odd_n_is_rejected_in_every_mode(self, tmp_path, capsys, mode):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"f_est": 1.0}))
        value = {"--f-est": "1", "--report": str(report), "--beta": "30"}[mode]
        assert main(["certify-iqp", "--n", "400001", mode, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: family requires even n >= 4, got 400001\n"

    @pytest.mark.parametrize("n", ["400001", "3", "0"])
    @pytest.mark.parametrize("thermal", [["--beta", "3"], ["--temperature", "0"]])
    def test_n_outside_the_family_is_rejected_before_simulating(self, capsys, n, thermal):
        assert main(["certify-iqp", "--n", n, "--allow-small-n"] + thermal) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: family requires even n >= 4, got {n}\n"

    @given(n=st.one_of(st.integers(2, 1001).map(lambda k: 2 * k), st.just(400_000)),
           beta=st.one_of(st.floats(0.0, 40.0), st.just(math.inf)),
           seed=st.integers(0, 2**31), samples=st.integers(1, 10**15))
    @settings(max_examples=40, deadline=None)
    def test_simulation_equals_the_library_route(self, n, beta, seed, samples):
        # the CLI writes the member's word in closed form; the library's route
        # builds the family member and reduces it in optimal_setting
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["certify-iqp", "--n", str(n), "--beta", repr(beta), "--seed", str(seed),
                         "--samples", str(samples), "--allow-small-n"]) == 0
        out = stdout.getvalue()
        member = build_family(n)
        setting = optimal_setting(member)
        config = ProtocolConfig(epsilon=EPSILON_FULL_SCALE, delta=1e-2, n_samples=samples,
                                seed=seed)
        report = run_protocol(member, setting, beta, config)
        result = {"report": report.to_dict(),
                  "decision": certify(report.f_est, n, allow_small_n=True).to_dict(),
                  "l1_target": L1_TARGET}
        doc = json.loads(out)  # the manifest, timestamp included, is the CLI's own
        assert out == _dumps({"manifest": doc["manifest"], "result": result})
        assert doc["result"]["report"]["setting"] == str(setting)

    def test_simulation_builds_no_family_triples(self, capsys, monkeypatch):
        # nor reduces a selector: the word is written in closed form
        def refuse(name):
            def refused(*args):
                raise AssertionError(f"{name} called")
            return refused
        monkeypatch.setattr(supremacy, "_family_rows", refuse("_family_rows"))
        monkeypatch.setattr(pauli, "_normal_form", refuse("_normal_form"))
        with pytest.raises(AssertionError, match="_family_rows"):
            build_family(2000)
        with pytest.raises(AssertionError, match="_normal_form"):
            stabilizer_product(HypergraphSpec(4), "0101")
        for argv in (["--n", "2000", "--beta", "3", "--samples", "2000", "--allow-small-n"],
                     ["--n", "400000", "--temperature", "0"]):
            assert main(["certify-iqp"] + argv) == 0
            assert read_json(capsys)["result"]["report"]["setting"].startswith("+IX")

    @pytest.mark.parametrize("budget", [["--epsilon", "1e-12"],
                                        ["--samples", "100000000000000000000"]])
    def test_budget_beyond_int64_is_validation_error(self, capsys, budget):
        assert main(["certify-iqp", "--n", "2000", "--beta", "3",
                     "--allow-small-n"] + budget) == 2
        assert "exceeds the limit 2^63 - 1 = 9223372036854775807" in capsys.readouterr().err

    def test_int64_budget_runs(self, capsys):
        assert main(["certify-iqp", "--n", "2000", "--beta", "3", "--allow-small-n",
                     "--samples", "9223372036854775807"]) == 0
        assert read_json(capsys)["result"]["report"]["n_samples"] == 2**63 - 1

    @pytest.mark.parametrize("thermal, verdict", [(["--temperature", "0"], "accept"),
                                                  (["--beta", "3"], "reject")])
    def test_paper_scale_end_to_end(self, capsys, thermal, verdict):
        # n = 4e5 at the default epsilon 1e-6: the full reduction, the
        # ~1.06e13-shot draw and the decision, well inside a time limit
        start = time.perf_counter()
        assert main(["certify-iqp", "--n", "400000"] + thermal) == 0
        elapsed = time.perf_counter() - start
        result = read_json(capsys)["result"]
        assert result["decision"]["verdict"] == verdict
        assert result["report"]["n_samples"] == 10_596_634_733_097
        if verdict == "accept":
            assert result["report"]["minus_count"] == 0
        assert elapsed < 30.0


class TestOSErrors:
    """A path that cannot be read or written is invalid input (exit 2), not a
    traceback."""

    @pytest.mark.parametrize("argv", [
        ["certify-iqp", "--n", "400000", "--report", "{dir}"],
        ["verify", "--graph", "{dir}", "--beta", "1", "--epsilon", "0.1", "--delta", "0.1"],
        ["curves", "--sizes", "8", "--points", "2", "--output", "{dir}"],
        ["verify", "--graph", str(RING12), "--beta", "1", "--epsilon", "0.1", "--delta", "0.1",
         "--samples", "10", "--output", "{dir}"],
        ["estimate-temperature", "--n", "10", "--f-est", "0.5", "--output", "{dir}"],
    ])
    def test_directory_path_is_validation_error(self, tmp_path, capsys, argv):
        assert main([arg.replace("{dir}", str(tmp_path)) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 21] Is a directory")


class TestOverwrite:
    """An existing --output file is rewritten in place: afterwards it holds
    exactly the bytes a run to a fresh path writes, whatever it held."""

    VERIFY = ["verify", "--graph", str(RING12), "--beta", "0.8", "--epsilon", "0.1",
              "--delta", "0.1", "--samples", "500", "--seed", "4"]
    EXPECTATION = ["expectation", "--graph", str(RING12), "--wt", "6", "--beta", "1"]

    def test_longer_csv_and_manifest_are_cut_to_the_new_bytes(self, tmp_path):
        out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
        assert main(self.VERIFY + ["--trials", "5", "--output", str(out)]) == 0
        old_csv = out.read_bytes()
        sidecar = tmp_path / "out.csv.manifest.json"
        sidecar.write_text(sidecar.read_text() + " " * 4096)
        assert main(self.VERIFY + ["--trials", "1", "--output", str(out)]) == 0
        assert main(self.VERIFY + ["--trials", "1", "--output", str(fresh)]) == 0
        assert len(old_csv) > out.stat().st_size
        assert out.read_bytes() == fresh.read_bytes()
        assert (mask_timestamp(sidecar.read_text())
                == mask_timestamp((tmp_path / "fresh.csv.manifest.json").read_text()))

    def test_longer_json_is_cut_to_the_new_bytes(self, tmp_path):
        out, fresh = tmp_path / "out.json", tmp_path / "fresh.json"
        out.write_text("x" * 10_000)
        assert main(self.EXPECTATION + ["--output", str(out)]) == 0
        assert main(self.EXPECTATION + ["--output", str(fresh)]) == 0
        assert mask_timestamp(out.read_text()) == mask_timestamp(fresh.read_text())
        assert strict_json(out.read_text())["result"]["n"] == 12

    def test_symlink_writes_through_and_the_target_keeps_its_mode(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("x" * 10_000)
        target.chmod(0o640)
        link.symlink_to(target)
        assert main(self.EXPECTATION + ["--output", str(link)]) == 0
        assert main(self.EXPECTATION + ["--output", str(tmp_path / "fresh.json")]) == 0
        assert link.is_symlink()
        assert (mask_timestamp(target.read_text())
                == mask_timestamp((tmp_path / "fresh.json").read_text()))
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_outputs_are_opened_without_truncation(self, tmp_path, monkeypatch):
        opened = []
        real_open = os.open
        def recording_open(path, flags, *rest):
            opened.append((Path(path).name, flags))
            return real_open(path, flags, *rest)
        monkeypatch.setattr(os, "open", recording_open)
        out = tmp_path / "out.csv"
        for _ in range(2):
            assert main(self.VERIFY + ["--output", str(out)]) == 0
        assert [name for name, _ in opened] == ["out.csv", "out.csv.manifest.json"] * 2
        assert not any(flags & os.O_TRUNC for _, flags in opened)

    @pytest.mark.skipif(not Path(os.devnull).is_char_device(),
                        reason="needs a character-device null file")
    def test_null_device_is_written_without_truncation(self, capsys):
        assert main(self.EXPECTATION + ["--output", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")


class TestEstimateTemperature:
    def test_known_inversion(self, capsys):
        assert main(["estimate-temperature", "--n", "4",
                     "--f-est", repr(1 / 9)]) == 0
        result = read_json(capsys)["result"]
        assert result["beta"] == pytest.approx(math.log(2) / 2, abs=1e-8)
        assert result["temperature"] == pytest.approx(2 / math.log(2), abs=1e-7)
        assert result["p_flip"] == pytest.approx(1 / 3, abs=1e-8)

    def test_perfect_estimate_gives_zero_temperature(self, capsys):
        assert main(["estimate-temperature", "--n", "4", "--f-est", "1"]) == 0
        result = read_json(capsys)["result"]
        assert result["beta"] == "infinity" and result["temperature"] == 0.0

    def test_fidelity_mode(self, capsys):
        fid = (1 + math.exp(-2.0)) ** -4
        assert main(["estimate-temperature", "--n", "4", "--f-est", repr(fid),
                     "--from-fidelity"]) == 0
        assert read_json(capsys)["result"]["beta"] == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_estimate(self):
        assert main(["estimate-temperature", "--n", "4", "--f-est", "0"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--n", "-5", "--f-est", "1"], "requires even n >= 2, got -5"),
        (["--n", "3", "--f-est", "1"], "requires even n >= 2, got 3"),
        (["--n", "0", "--f-est", "1", "--from-fidelity"], "need n >= 1, got 0"),
    ])
    def test_site_count_checked_for_a_perfect_estimate(self, capsys, argv, message):
        assert main(["estimate-temperature"] + argv) == 2
        assert message in capsys.readouterr().err

    def test_fidelity_floor_gives_infinite_temperature(self, capsys):
        # f = 2^-n is the T = infinity fidelity; beta comes back as 0.0
        assert main(["estimate-temperature", "--n", "1", "--f-est", "0.5",
                     "--from-fidelity"]) == 0
        result = read_json(capsys)["result"]
        assert result["temperature"] == "infinity"
        assert result["beta"] == 0.0 and math.copysign(1.0, result["beta"]) == 1.0
        assert result["p_flip"] == 0.5

    def test_fidelity_floor_at_n51_gives_infinite_temperature(self, capsys):
        # n = 51 is one of the sizes where the floor used to invert to 1.1e-16
        floor = fidelity(51, 0.0)
        assert main(["estimate-temperature", "--n", "51", "--f-est", repr(floor),
                     "--from-fidelity"]) == 0
        result = read_json(capsys)["result"]
        assert result["beta"] == 0.0 and result["temperature"] == "infinity"


class TestBetaRule:
    MESSAGE = "inverse temperature must be >= 0 (inf means T=0), got "

    @pytest.mark.parametrize("argv", [["expectation", "--beta", "-1"],
                                      ["expectation", "--beta", "nan"],
                                      ["sweep-wt", "--n", "4", "--betas", "nan"],
                                      ["sweep-wt", "--n", "4", "--betas", "1,-1"],
                                      ["certify-iqp", "--n", "12", "--allow-small-n",
                                       "--beta", "-1"]])
    def test_one_message_for_every_bad_beta(self, graph_file, capsys, argv):
        if argv[0] == "expectation":
            argv = argv + ["--graph", graph_file]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and self.MESSAGE in captured.err


class TestSeedRule:
    @pytest.mark.parametrize("argv", [
        ["certify-iqp", "--n", "2000", "--samples", "10", "--beta", "3", "--allow-small-n"],
        ["verify", "--beta", "1", "--epsilon", "0.1", "--delta", "0.1", "--samples", "10"],
    ])
    def test_negative_seed_is_named(self, graph_file, capsys, argv):
        if argv[0] == "verify":
            argv = argv + ["--graph", graph_file]
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: need seed >= 0, got -1" in captured.err


class TestStrictJson:
    @pytest.mark.parametrize("argv", [["expectation", "--temperature", "0"],
                                      ["estimate-temperature", "--n", "4", "--f-est", "1"]])
    def test_stdout_has_no_nonstandard_tokens(self, graph_file, capsys, argv):
        if argv[0] == "expectation":
            argv = argv + ["--graph", graph_file]
        assert main(argv) == 0
        doc = strict_json(capsys.readouterr().out)
        assert "infinity" in json.dumps(doc)

    def test_negative_infinity_keeps_its_sign(self):
        # no CLI input reaches the output as -inf, so the encoder is
        # checked directly
        doc = strict_json(_dumps({"low": -math.inf, "nested": [{"high": math.inf}]}))
        assert doc == {"low": "-infinity", "nested": [{"high": "infinity"}]}

    @staticmethod
    def outcome(encode, doc):
        try:
            return encode(doc)
        except (TypeError, ValueError) as exc:
            return type(exc)

    LEAVES = (st.text() | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)
              | st.sampled_from((math.inf, -math.inf, -0.0, 1e-320, 5e-324)))

    @given(st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                        | st.lists(inner, max_size=4).map(tuple)
                        | st.dictionaries(st.text(), inner, max_size=4), max_leaves=30))
    @settings(max_examples=400, deadline=None)
    def test_encoder_writes_the_stdlib_bytes(self, doc):
        assert _dumps(doc) == dumps_reference(doc) + "\n"

    def test_a_long_string_deep_in_the_document_is_copied_once(self):
        leaf = "+IXZY" * 200_000  # 10**6 characters, like a report's setting, three levels deep
        doc = {"manifest": {"seed": 0}, "result": {"l1_target": 0.1, "report": {"setting": leaf}}}
        tracemalloc.start()
        text = _dumps(doc)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert text == dumps_reference(doc) + "\n"
        assert peak < 2.5 * len(leaf)  # the quoted leaf and the joined document

    @pytest.mark.parametrize("bad, error", [(math.nan, ValueError), ({1}, TypeError),
                                            (np.int64(1), TypeError)])
    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1, {"a": v}],
                                      lambda v: {"b": (v,), "a": -math.inf}])
    def test_encoder_rejects_what_the_stdlib_rejects(self, bad, error, wrap):
        assert self.outcome(_dumps, wrap(bad)) is error
        assert self.outcome(dumps_reference, wrap(bad)) is error

    @pytest.mark.parametrize("doc", [{10: 1, 2: [3]}, {True: 1, False: 0}, {None: 1},
                                     {1.5: 0, -0.0: 1}, {math.inf: 1}, {1: 0, "a": 1},
                                     {(1,): 0}])
    def test_non_string_keys_are_rejected(self, doc):
        assert self.outcome(_dumps, doc) is TypeError

    def test_csv_sidecar_is_strict(self, tmp_path):
        # an infinite beta inside the betas list is spelled out too
        out = tmp_path / "sw.csv"
        assert main(["sweep-wt", "--n", "4", "--betas", "inf,1", "--output", str(out)]) == 0
        manifest = strict_json((tmp_path / "sw.csv.manifest.json").read_text())
        assert manifest["parameters"]["betas"] == ["infinity", 1.0]
        assert manifest["csv_schema"] == "sweep-wt-v1"


class TestManifest:
    def test_json_outputs_embed_manifest(self, graph_file, capsys):
        assert main(["expectation", "--graph", graph_file, "--beta", "1"]) == 0
        doc = read_json(capsys)
        manifest = doc["manifest"]
        assert manifest["version"]
        assert manifest["parameters"]["graph"] == graph_file
        assert "timestamp" in manifest

    def test_rerun_identical_modulo_timestamp(self, graph_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["expectation", "--graph", graph_file, "--beta", "0.7"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        doc1, doc2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        doc1["manifest"].pop("timestamp")
        doc2["manifest"].pop("timestamp")
        assert doc1 == doc2

    def test_csv_manifest_sidecar_content(self, graph_file, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--graph", graph_file, "--beta", "1", "--epsilon", "0.1",
                     "--delta", "0.1", "--samples", "100", "--seed", "5", "--trials", "1",
                     "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "v.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "verify" and manifest["seed"] == 5
