"""The exit paths of `cli.main` that write a record or one error line:

* a failed internal check (exit 3) still writes the command's record, to
  stdout or to --output, and puts one "check failed:" line on stderr; an
  --output that cannot be written is invalid input (exit 2) instead;
* an n that fits a float but not an index is invalid input (exit 2) on the
  routes that build a selector of n entries, with one "error:" line that
  names the limit.
"""
import json
import sys

import pytest

from thermalverify import cli
from thermalverify.identities import IdentityReport

ORACLE_FAILS = ["oracle-check", "--nmax", "4", "--betas", "0.5", "--tolerance", "0"]
IDENTITIES = ["identities", "--kmax", "6"]
BEYOND_INDEX = str(10**30)  # fits a float, not an index


@pytest.fixture()
def odd_check_fails(monkeypatch):
    """identities with its odd check reporting one failed case."""
    monkeypatch.setattr(cli, "check_odd", lambda k_max: IdentityReport(k_max, (("odd", 3, 1),)))


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFailedCheck:
    def test_oracle_check_writes_its_record_to_stdout(self, capsys):
        code, out, err = run(ORACLE_FAILS, capsys)
        assert code == 3
        result = json.loads(out)["result"]
        assert result["ok"] is False and result["max_abs_error"] > result["tolerance"] == 0.0
        assert err.count("\n") == 1
        assert err.startswith("check failed: closed form deviates")

    def test_oracle_check_writes_its_record_to_the_output_file(self, tmp_path, capsys):
        path = tmp_path / "oracle.json"
        code, out, err = run(ORACLE_FAILS + ["--output", str(path)], capsys)
        assert (code, out) == (3, "")
        assert json.loads(path.read_text())["result"]["ok"] is False
        assert err.count("\n") == 1
        assert err.startswith("check failed: closed form deviates")

    def test_identities_writes_its_record_to_stdout(self, odd_check_fails, capsys):
        code, out, err = run(IDENTITIES, capsys)
        assert code == 3
        result = json.loads(out)["result"]
        assert result["ok"] is False and result["failures"] == [["odd", 3, 1]]
        assert result["checks"] == {"odd": False, "even": True, "alternating": True}
        assert err == "check failed: 1 identity checks failed\n"

    def test_identities_writes_its_record_to_the_output_file(self, odd_check_fails, tmp_path,
                                                             capsys):
        path = tmp_path / "identities.json"
        code, out, err = run(IDENTITIES + ["--output", str(path)], capsys)
        assert (code, out) == (3, "")
        assert json.loads(path.read_text())["result"]["ok"] is False
        assert err == "check failed: 1 identity checks failed\n"

    @pytest.mark.parametrize("argv", [ORACLE_FAILS, IDENTITIES])
    def test_an_unwritable_output_is_invalid_input(self, odd_check_fails, tmp_path, capsys,
                                                   argv):
        code, out, err = run(argv + ["--output", str(tmp_path)], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: [Errno 21] Is a directory")


class TestSiteCountBeyondIndex:
    """The per-site routes reject an n past sys.maxsize by name; expectation,
    which uses closed forms only, still answers."""

    @pytest.mark.parametrize("argv", [
        ["certify-iqp", "--n", BEYOND_INDEX, "--beta", "3"],
        ["verify", "--beta", "1", "--epsilon", "0.1", "--delta", "0.1", "--samples", "10",
         "--graph", "{huge}"],
    ])
    def test_exits_two_naming_the_limit(self, tmp_path, capsys, argv):
        huge = tmp_path / "huge.json"
        huge.write_text(f'{{"n": {BEYOND_INDEX}}}')
        code, out, err = run([arg.replace("{huge}", str(huge)) for arg in argv], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"need n < {sys.maxsize} (sys.maxsize)" in err

    def test_expectation_still_answers(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text(f'{{"n": {BEYOND_INDEX}}}')
        code, out, err = run(["expectation", "--graph", str(huge), "--beta", "1"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["n"] == 10**30
