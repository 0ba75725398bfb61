"""The parser surface of the CLI, pinned as a literal table: for every
subcommand its help line, and for each of its options the option strings,
dest, default, required flag, help string and mutually exclusive group, in
the order `--help` lists them. The table is read from argparse's `_actions`
rather than from `format_help()`, whose usage lines and section headings
differ between Python 3.10 and 3.11."""
from thermalverify.cli import build_parser

HELP = (("-h", "--help"), "help", "==SUPPRESS==", False, "show this help message and exit", None)
BETA_HELP = "inverse temperature (k_B = 1); 'inf' means T = 0"
TEMPERATURE_HELP = "temperature (k_B = 1); 0 means the ideal state"
# a group is (required, the dests of its options)
THERMAL = (True, ("beta", "temperature"))
SELECTOR = (False, ("setting", "wt"))
ESTIMATE_SOURCE = (True, ("beta", "temperature", "f_est", "report"))

# subcommand -> (help line, its options as
# (option strings, dest, default, required, help, group))
SURFACE = {
    "expectation": ("closed-form expectation, fidelity, and bounds", [
        HELP,
        (("--graph",), "graph", None, True, "JSON graph/hypergraph file", None),
        (("--setting",), "setting", None, False, "selector bits, e.g. 1100", SELECTOR),
        (("--wt",), "wt", None, False, "selector Hamming weight", SELECTOR),
        (("--epsilon",), "epsilon", 0.0, False, "statistical accuracy for bounds", None),
        (("--beta",), "beta", None, False, BETA_HELP, THERMAL),
        (("--temperature",), "temperature", None, False, TEMPERATURE_HELP, THERMAL),
        (("--output",), "output", None, False, "write JSON here instead of stdout", None),
    ]),
    "verify": ("Monte-Carlo protocol trials, CSV per trial", [
        HELP,
        (("--graph",), "graph", None, True, "JSON graph/hypergraph file", None),
        (("--setting",), "setting", None, False, "selector bits (default 0101...01)", None),
        (("--beta",), "beta", None, False, BETA_HELP, THERMAL),
        (("--temperature",), "temperature", None, False, TEMPERATURE_HELP, THERMAL),
        (("--epsilon",), "epsilon", None, True, "accuracy target", None),
        (("--delta",), "delta", None, True, "failure probability", None),
        (("--samples",), "samples", None, False,
         "samples per trial (default: derived from epsilon and delta)", None),
        (("--seed",), "seed", 0, False, "base seed; trial t uses seed + t", None),
        (("--trials",), "trials", 1, False, None, None),
        (("--output",), "output", None, False, "write CSV here instead of stdout", None),
    ]),
    "curves": ("fidelity / estimator limit / union bound over a T grid", [
        HELP,
        (("--sizes",), "sizes", "50,100", False,
         "comma-separated even qubit counts (default 50,100)", None),
        (("--tmin",), "tmin", 0.01, False, None, None),
        (("--tmax",), "tmax", 2.0, False, None, None),
        (("--points",), "points", 200, False, None, None),
        (("--output",), "output", None, False, None, None),
    ]),
    "sweep-wt": ("deviation from fidelity per setting weight", [
        HELP,
        (("--n",), "n", None, True, None, None),
        (("--betas",), "betas", None, True, "comma-separated inverse temperatures", None),
        (("--output",), "output", None, False, None, None),
    ]),
    "identities": ("exact combinatorial identity checks", [
        HELP,
        (("--kmax",), "kmax", 40, False, None, None),
        (("--output",), "output", None, False, None, None),
    ]),
    "oracle-check": ("closed forms vs dense thermal oracle", [
        HELP,
        (("--nmax",), "nmax", 8, False, None, None),
        (("--betas",), "betas", "0.2,0.5,1.0,2.0", False, None, None),
        (("--tolerance",), "tolerance", 1e-9, False, None, None),
        (("--output",), "output", None, False, None, None),
    ]),
    "certify-iqp": ("accept/reject rule for certified sampling", [
        HELP,
        (("--n",), "n", None, True, None, None),
        (("--beta",), "beta", None, False, BETA_HELP, ESTIMATE_SOURCE),
        (("--temperature",), "temperature", None, False, TEMPERATURE_HELP, ESTIMATE_SOURCE),
        (("--f-est",), "f_est", None, False,
         "evaluate the rule on a given estimate (no simulation)", ESTIMATE_SOURCE),
        (("--report",), "report", None, False,
         "evaluate the rule on the f_est of a JSON report file", ESTIMATE_SOURCE),
        (("--epsilon",), "epsilon", 1e-6, False, None, None),
        (("--delta",), "delta", 1e-2, False, None, None),
        (("--samples",), "samples", None, False, None, None),
        (("--seed",), "seed", 0, False, None, None),
        (("--allow-small-n",), "allow_small_n", False, False,
         "evaluate below the full-scale regime n >= 4e5", None),
        (("--output",), "output", None, False, None, None),
    ]),
    "estimate-temperature": ("invert an estimate back to beta and T", [
        HELP,
        (("--n",), "n", None, True, None, None),
        (("--f-est",), "f_est", None, True, None, None),
        (("--from-fidelity",), "from_fidelity", False, False,
         "interpret the value as a fidelity instead of a setting expectation", None),
        (("--output",), "output", None, False, None, None),
    ]),
}


def surface() -> dict:
    """The parser's surface in the layout of SURFACE."""
    (subcommands,) = [action for action in build_parser()._actions
                      if action.dest == "subcommand"]
    helps = {action.dest: action.help for action in subcommands._choices_actions}
    table = {}
    for name, parser in subcommands.choices.items():
        groups = {id(action): (group.required, tuple(a.dest for a in group._group_actions))
                  for group in parser._mutually_exclusive_groups
                  for action in group._group_actions}
        table[name] = (helps[name], [
            (tuple(action.option_strings), action.dest, action.default, action.required,
             action.help, groups.get(id(action)))
            for action in parser._actions])
    return table


def test_subcommands_are_listed_in_order():
    assert list(surface()) == list(SURFACE)


def test_every_subcommand_keeps_its_help_line_and_options():
    actual = surface()
    for name, (help_line, options) in SURFACE.items():
        assert actual[name][0] == help_line, name
        assert actual[name][1] == options, name


def test_top_level_parser_takes_only_a_subcommand():
    parser = build_parser()
    assert parser.prog == "thermalverify"
    assert [(action.option_strings, action.dest, action.required)
            for action in parser._actions] == [(["-h", "--help"], "help", False),
                                               ([], "subcommand", True)]
