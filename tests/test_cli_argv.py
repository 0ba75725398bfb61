"""Property: every argv that `cli.main` is given ends in a documented exit.

Each example draws a subcommand and fills its options from edge values
(nan, +-inf, -1, 0, 1e-300, 0.5, 1, 1e20, 1e308) and small integers, with
n, --nmax, --samples and the like kept small so that a run stays cheap.
Options are passed as --name=value, so that argparse reads "-inf" as a
value rather than as an option. Whatever is drawn:

* the exit code is 0, 2 or 3, and no exception escapes `main`;
* exit 0 prints strict JSON, or CSV with its manifest as strict JSON on
  stderr, and an echoed --epsilon or --delta lies in the library's domain;
* exit 2 prints exactly one "error:" line, never the JSON encoder's
  "Out of range float values" (an input that reached the output unchecked);
* exit 3, a failed internal check, comes only from identities or
  oracle-check.

A second property checks that `main`'s one parse per argv (the named
subcommand's parser alone) reads every such argv, and help, typos and
leftover arguments besides, as the top-level parser does.
"""
import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from thermalverify import build_family, ring_graph
from thermalverify.cli import _parse, build_parser, main
from util_dense import path_graph

VALUES = ("nan", "inf", "-inf", "-1", "0", "1e-300", "0.5", "1", "1e20", "1e308")
CSV_COMMANDS = {"verify", "curves", "sweep-wt"}
CHECK_COMMANDS = {"identities", "oracle-check"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, list[str]]:
    """Paths of the graph files and of a report file the argv can name."""
    root = tmp_path_factory.mktemp("argv")
    specs = {"ring4": ring_graph(4), "path3": path_graph(3), "family8": build_family(8)}
    for name, spec in specs.items():
        (root / f"{name}.json").write_text(json.dumps(spec.to_dict()))
    (root / "report.json").write_text(json.dumps({"result": {"report": {"f_est": 0.5}}}))
    return {"graph": [str(root / f"{name}.json") for name in specs],
            "report": [str(root / "report.json")]}


@st.composite
def argvs(draw, inputs):
    value = st.sampled_from(VALUES)
    integer = st.integers(-1, 5).map(str) | value
    values = st.lists(value, max_size=3).map(",".join)

    def option(name, strategy):
        return [f"{name}={draw(strategy)}"]

    def maybe(name, strategy):
        return option(name, strategy) if draw(st.booleans()) else []

    def thermal():
        return option(draw(st.sampled_from(("--beta", "--temperature"))), value)

    graph = option("--graph", st.sampled_from(inputs["graph"]))
    setting = st.text("01", max_size=9)
    command = draw(st.sampled_from(("expectation", "verify", "curves", "sweep-wt",
                                    "identities", "oracle-check", "certify-iqp",
                                    "estimate-temperature")))
    if command == "expectation":
        selector = draw(st.sampled_from((None, "--wt", "--setting")))
        selector = option(selector, integer if selector == "--wt" else setting) if selector else []
        return [command, *graph, *selector, *maybe("--epsilon", value), *thermal()]
    if command == "verify":
        return [command, *graph, *maybe("--setting", setting), *thermal(),
                *option("--epsilon", value), *option("--delta", value),
                *maybe("--samples", integer), *maybe("--seed", integer),
                *maybe("--trials", integer)]
    if command == "curves":
        return [command, *maybe("--sizes", st.lists(integer, max_size=3).map(",".join)),
                *maybe("--tmin", value), *maybe("--tmax", value), *maybe("--points", integer)]
    if command == "sweep-wt":
        return [command, *option("--n", integer), *option("--betas", values)]
    if command == "identities":
        return [command, *option("--kmax", integer)]
    if command == "oracle-check":
        return [command, *option("--nmax", integer), *maybe("--betas", values),
                *maybe("--tolerance", value)]
    if command == "certify-iqp":
        mode = draw(st.sampled_from(("--beta", "--temperature", "--f-est", "--report")))
        source = st.sampled_from(inputs["report"]) if mode == "--report" else value
        return [command, *option("--n", integer), *option(mode, source),
                *maybe("--epsilon", value), *maybe("--delta", value),
                *maybe("--samples", integer), *maybe("--seed", integer),
                *(["--allow-small-n"] if draw(st.booleans()) else [])]
    return [command, *option("--n", integer), *option("--f-est", value),
            *(["--from-fidelity"] if draw(st.booleans()) else [])]


def strict_json(text):
    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def run(argv) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting the argv
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_every_argv_ends_in_a_documented_exit(inputs, data):
    argv = data.draw(argvs(inputs), label="argv")
    code, out, err = run(argv)
    assert code in (0, 2, 3), err
    if code == 0:
        if argv[0] in CSV_COMMANDS:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows and all(len(row) == len(rows[0]) for row in rows)
            manifest = strict_json(err)
        else:
            manifest = strict_json(out)["manifest"]
        parameters = manifest["parameters"]
        assert 0.0 <= parameters.get("epsilon", 0.0) <= 1.0
        assert 0.0 < parameters.get("delta", 0.5) < 1.0
    elif code == 2:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
        assert "Out of range float values" not in err
    else:
        assert argv[0] in CHECK_COMMANDS, err


# argvs the subcommand strategy never draws: help, no subcommand, a typo, "--"
# first, and leftovers after a subcommand
SPECIAL = ([], ["-h"], ["--help"], ["frobnicate"], ["--", "curves"], ["-h", "verify"],
           ["curves", "--bogus"], ["identities", "7"], ["verify", "-h"], ["curves", "--", "x"])
EXTRAS = ("--bogus", "x", "--", "-h", "--n=1", "--help")


def parsed(parse, argv) -> tuple:
    """The namespace of one parse, or its exit code, with its stdout and
    stderr. Values are compared by repr, so that nan equals nan."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            result = {key: repr(value) for key, value in vars(parse(argv)).items()}
        except SystemExit as exc:
            result = exc.code
    return result, stdout.getvalue(), stderr.getvalue()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_parse_reads_every_argv_as_the_top_level_parser(inputs, data):
    leftovers = st.lists(st.sampled_from(EXTRAS), max_size=2)
    argv = data.draw(st.sampled_from(SPECIAL)
                     | st.tuples(argvs(inputs), leftovers).map(lambda pair: pair[0] + pair[1]),
                     label="argv")
    assert parsed(_parse, argv) == parsed(build_parser().parse_args, argv)
