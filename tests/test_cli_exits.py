"""The exit paths of `cli.main` that write one error line:

* a RuntimeError raised by an internal check exits 3, writes no record
  and puts one "internal check failed:" line on stderr;
* an n that fits a float but not an index is invalid input (exit 2) on the
  routes that build a selector of n entries, with one "error:" line that
  names the limit, or n itself when a given selector has the wrong length;
* an input that needs more memory than is available (exit 2), and a vertex
  past the int64 rows (exit 2), give one "error:" line each.
"""
import json
import sys

import pytest

from thermalverify import cli

BEYOND_INDEX = str(10**30)  # fits a float, not an index
VERIFY = ["verify", "--beta", "1", "--epsilon", "0.1", "--delta", "0.1", "--samples", "10"]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_failed_internal_check_exits_three(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("fine bound exceeded coarse bound")
    monkeypatch.setattr(cli, "error_bounds", broken)
    path = tmp_path / "g.json"
    path.write_text('{"n": 4, "e2": [[1, 2]]}')
    code, out, err = run(["expectation", "--graph", str(path), "--beta", "1",
                          "--output", str(tmp_path / "out.json")], capsys)
    assert (code, out) == (3, "")
    assert err == "internal check failed: fine bound exceeded coarse bound\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["identities", "oracle-check"])
def test_the_self_checks_are_no_subcommands(capsys, command):
    # they run under pytest: python -m pytest tests/test_acceptance.py
    with pytest.raises(SystemExit) as exc:
        cli.main([command])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


class TestSiteCountBeyondIndex:
    """The per-site routes reject an n past sys.maxsize by name; expectation,
    which uses closed forms only, still answers."""

    @pytest.mark.parametrize("argv, message", [
        (["certify-iqp", "--n", BEYOND_INDEX, "--beta", "3"],
         f"need n < {sys.maxsize} (sys.maxsize)"),
        (VERIFY + ["--graph", "{huge}"], f"need n < {sys.maxsize} (sys.maxsize)"),
        (VERIFY + ["--setting", "01", "--graph", "{huge}"],
         f"setting has 2 bits, expected {BEYOND_INDEX}"),
    ], ids=["certify-iqp", "verify", "verify --setting"])
    def test_exits_two_naming_the_limit(self, tmp_path, capsys, argv, message):
        huge = tmp_path / "huge.json"
        huge.write_text(f'{{"n": {BEYOND_INDEX}}}')
        code, out, err = run([arg.replace("{huge}", str(huge)) for arg in argv], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    def test_expectation_still_answers(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text(f'{{"n": {BEYOND_INDEX}}}')
        code, out, err = run(["expectation", "--graph", str(huge), "--beta", "1"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["n"] == 10**30


def test_a_vertex_past_int64_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "vertex.json"
    path.write_text(f'{{"n": {BEYOND_INDEX}, "e2": [[1, {10**20}]]}}')
    code, out, err = run(["expectation", "--graph", str(path), "--beta", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: edge (1, {10**20}) has vertex {10**20} past the int64 limit 2**63 - 1\n"


def test_running_out_of_memory_is_invalid_input(tmp_path, monkeypatch, capsys):
    def out_of_memory(path):
        raise MemoryError
    monkeypatch.setattr(cli, "load_hypergraph", out_of_memory)
    code, out, err = run(["expectation", "--graph", str(tmp_path / "g.json"), "--beta", "1"],
                         capsys)
    assert (code, out) == (2, "")
    assert err == "error: the input needs more memory than is available\n"


def test_a_site_count_just_below_the_index_limit_is_invalid_input(capsys):
    # 2**63 - 2 passes every site check and fails on the word's first
    # integer, before anything is allocated
    code, out, err = run(["certify-iqp", "--n", "9223372036854775806", "--beta", "1"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
