"""Byte identity of the CLI: every case of the golden corpus (see
golden_cli.py) gives the committed exit code, stdout, stderr and files."""
import pytest

from golden_cli import cases, expected, run_case


@pytest.mark.parametrize("name", list(cases()))
def test_cli_output_matches_the_golden_corpus(name, tmp_path):
    actual = run_case(cases()[name], tmp_path)
    golden = expected(name)
    assert sorted(actual) == sorted(golden)
    for artifact, data in golden.items():
        assert actual[artifact] == data, artifact


def test_corpus_covers_every_subcommand():
    from thermalverify.cli import build_parser

    (subparsers,) = [action for action in build_parser()._actions
                     if action.dest == "subcommand"]
    assert {argv[0] for argv in cases().values()} == set(subparsers.choices)
