"""Command-line surface: reproducible runs emitting JSON records and CSV sweeps.

Each command is a function from the parsed arguments to its record, and
writes nothing; `main` hands the record to the one writer (_emit), also
when a check fails (CheckFailure carries the record, exit 3). A result
dict is printed as the JSON document {"manifest": ..., "result": ...}; a
(schema, header, rows) table is written as plain CSV (schema documented in
the README, column order stable) with the manifest in a sidecar file next
to the output, or on stderr when writing CSV to stdout. All JSON goes
through one encoder (_dumps): strict JSON with sorted keys, every infinite
float at any depth written as the string "infinity", in the bytes
json.dumps(indent=2, sort_keys=True, allow_nan=False) would write, from
one recursive pass that converts, sorts and checks as it writes. Given the
same parameters and seed, outputs are reproducible byte for byte,
timestamps excluded. Every --output file is written by _write_text, which
rewrites an existing file in place and never truncates it to zero first:
on ext4 that pattern flushes the file on close (auto_da_alloc): about
130 us per small file against about 7-12 us in place on a 2-core VM.
Options that exclude each other are argparse groups, so a conflict exits 2.

The parser is built once per process, at the first `main` call (2-5 ms);
list defaults are strings converted per parse, so no parse changes it and
`main(argv)` is safe to call repeatedly in process. Each argv is parsed
once, by the named subcommand's own parser (_parse); the top-level parser
runs only for help, an empty argv or an unknown subcommand. certify-iqp
reduces the family member without two-vertex edges as the edgeless spec,
so it builds no triples; an in-process `certify-iqp --n 2000 --samples
2000` then costs 0.17-0.18 ms (median of 250 calls, three runs, 2-core VM;
0.23-0.24 ms through build_family and optimal_setting).

Exit codes: 0 success, 2 invalid input, 3 internal check failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .graphs import HypergraphSpec, load_hypergraph, ring_graph
from .identities import check_alternating, check_even, check_odd
from .oracle import MAX_DENSITY_N, dense_expectation, thermal_density
from .pauli import _check_selector_sites, alternating_setting, parse_setting, stabilizer_product
from .sampler import ProtocolConfig, check_error_bound, run_protocol
from .supremacy import EPSILON_FULL_SCALE, L1_TARGET, certify
from .thermal import (_check_beta, _check_epsilon, _check_sites, beta_from_temperature,
                      deviation_leading_order, error_bounds, fidelity, flip_probability,
                      half_weight_expectation, invert_temperature, setting_expectation,
                      union_bound)


class CheckFailure(RuntimeError):
    """An internal consistency check did not hold (exit code 3); `record`
    is the command's result, which is written all the same."""

    def __init__(self, message: str, record: dict):
        super().__init__(message)
        self.record = record


def _manifest(args: argparse.Namespace) -> dict:
    """Provenance block serialized alongside every output."""
    return {
        "subcommand": args.subcommand,
        "parameters": {key: value for key, value in vars(args).items()
                       if key not in ("func", "output", "subcommand")},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


_quote = json.encoder.encode_basestring_ascii


def _dumps(doc) -> str:
    """The one JSON encoder: the bytes of json.dumps(doc, indent=2,
    sort_keys=True, allow_nan=False), except that every infinite float, at
    any depth, is written as the string "infinity" or "-infinity", and a
    key that is not a str is a TypeError. One recursive pass writes, sorts
    and checks; with an indent the stdlib would run its pure-Python encoder
    on a converted copy."""
    return _encode(doc, "\n")


def _encode(value, newline: str) -> str:
    """`value` as indented JSON whose lines start with `newline`."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isinf(value):
            return '"infinity"' if value > 0 else '"-infinity"'
        if value != value:
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(value, dict):
        items = [_quote(key) + ": " + _encode(item, inner)
                 for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cell(value):
    """A CSV cell: a bool as true/false; csv.writer writes None as an empty
    cell, a float by its repr and any other value by its str."""
    return ("true" if value else "false") if isinstance(value, bool) else value


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path` in place: open without O_TRUNC, write every
    byte, then cut a regular file to the new length. Truncating to zero
    first (open(..., "w"), or a rename over the old file) makes ext4's
    auto_da_alloc flush the new blocks on close; a device such as /dev/null
    cannot be cut and is left as it is."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _emit(args, record) -> None:
    """Write a command's record: a result dict as the JSON document, to
    --output or stdout; a (schema, header, rows) table as CSV, to --output
    with the manifest in a sidecar file, or to stdout with the manifest on
    stderr."""
    manifest = _manifest(args)
    if isinstance(record, dict):
        text, sidecar = _dumps({"manifest": manifest, "result": record}) + "\n", ""
    else:
        schema, header, rows = record
        fh = io.StringIO()
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([_cell(v) for v in row] for row in [header, *rows])
        text, sidecar = fh.getvalue(), _dumps({**manifest, "csv_schema": schema}) + "\n"
    if args.output:
        _write_text(args.output, text)
        if sidecar:
            _write_text(args.output + ".manifest.json", sidecar)
    else:
        sys.stdout.write(text)
        sys.stderr.write(sidecar)


def _resolve_beta(args) -> float:
    if args.beta is not None:
        return _check_beta(args.beta)
    return beta_from_temperature(args.temperature)


def _add_thermal_arguments(parser: argparse.ArgumentParser):
    """--beta/--temperature, one of which is required; returns their group."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float, default=None,
                       help="inverse temperature (k_B = 1); 'inf' means T = 0")
    group.add_argument("--temperature", type=float, default=None,
                       help="temperature (k_B = 1); 0 means the ideal state")
    return group


def _list_of(kind, name: str, text: str) -> list:
    """The comma-separated `kind` values in `text`, empty parts skipped; a
    bad part is an argparse error that names the `name` expected. Bound to
    a kind below, it is an argparse type."""
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated {name}, got {text!r}") from exc


_float_list = functools.partial(_list_of, float, "floats")
_int_list = functools.partial(_list_of, int, "integers")


def cmd_expectation(args) -> dict:
    spec = load_hypergraph(args.graph)
    beta = _resolve_beta(args)
    _check_epsilon(args.epsilon)
    n = spec.n
    if args.setting is not None:
        wt = sum(parse_setting(args.setting, n))
    elif args.wt is not None:
        wt = args.wt
    elif n % 2:
        raise ValueError("default half-weight mode requires even n; pass --wt or --setting")
    else:
        wt = n // 2
    expectation = setting_expectation(n, wt, beta)
    fid = fidelity(n, beta)
    result = {
        "n": n,
        "wt": wt,
        "beta": beta,
        "p_flip": flip_probability(beta),
        "expectation": expectation,
        "fidelity": fid,
        "deviation": abs(fid - expectation),
        "deviation_leading_order": deviation_leading_order(n, wt, beta),
    }
    if n >= 4 and n % 2 == 0:
        bounds = error_bounds(n, beta, args.epsilon, wt=wt)
        result["fine_bound"] = bounds.fine_bound
        result["coarse_bound"] = bounds.coarse_bound
        result["union_bound"] = bounds.union_bound
    return result


def cmd_verify(args) -> tuple:
    if args.trials < 1:
        raise ValueError(f"need at least one trial, got {args.trials}")
    spec = load_hypergraph(args.graph)
    beta = _resolve_beta(args)
    n = spec.n
    bits = alternating_setting(n) if args.setting is None else args.setting
    setting = stabilizer_product(spec, bits)
    expectation = setting_expectation(n, setting.xy_support, beta)
    fid = fidelity(n, beta)

    header = ["row", "trial", "seed", "f_est", "n_samples", "plus_count", "minus_count",
              "expectation", "fidelity", "fine_bound", "within_epsilon",
              "within_fine_bound", "pass_rate_epsilon", "pass_rate_fine_bound",
              "target_rate"]
    rows = []
    hits_epsilon = 0
    hits_bound = 0
    for trial in range(args.trials):
        config = ProtocolConfig(epsilon=args.epsilon, delta=args.delta,
                                n_samples=args.samples, seed=args.seed + trial)
        report = run_protocol(spec, setting, beta, config)
        fine = report.bound_report.fine_bound if report.bound_report else None
        within_eps = abs(report.f_est - expectation) <= args.epsilon
        within_bound = check_error_bound(report, fid) if report.bound_report else None
        hits_epsilon += within_eps
        hits_bound += bool(within_bound)
        rows.append(["trial", trial, args.seed + trial, report.f_est, report.n_samples,
                     report.plus_count, report.minus_count, expectation, fid, fine,
                     within_eps, within_bound, None, None, None])
    rate_bound = hits_bound / args.trials if fine is not None else None
    rows.append(["summary", None, None, None, None, None, None, expectation, fid, None,
                 None, None, hits_epsilon / args.trials, rate_bound, 1.0 - args.delta])
    return "verify-v1", header, rows


def cmd_curves(args) -> tuple:
    if not args.sizes:
        raise ValueError("need at least one size")
    for n in args.sizes:
        if n < 4 or n % 2:
            raise ValueError(f"curve sizes must be even and >= 4, got {n}")
    if args.points < 2:
        raise ValueError(f"need at least 2 grid points, got {args.points}")
    if not 0 < args.tmin < args.tmax < math.inf:
        raise ValueError(f"need 0 < tmin < tmax < inf, got {args.tmin}, {args.tmax}")
    header = ["n", "T", "p_beta", "F", "F_est_infinite", "F_ub"]
    rows = []
    step = (args.tmax - args.tmin) / (args.points - 1)
    for n in args.sizes:
        for k in range(args.points):
            temperature = args.tmin + k * step
            beta = 1.0 / temperature
            rows.append([n, temperature, flip_probability(beta), fidelity(n, beta),
                         half_weight_expectation(n, beta), union_bound(n, beta)])
    return "curves-v1", header, rows


def cmd_sweep_wt(args) -> tuple:
    n = _check_sites(args.n, even_from=2, need="sweep requires")
    if not args.betas:
        raise ValueError("need at least one beta")
    header = ["n", "beta", "wt", "expectation", "fidelity", "deviation",
              "leading_term", "is_argmin"]
    rows = []
    for beta in args.betas:
        fid = fidelity(n, beta)
        deviations = []
        for wt in range(n + 1):
            expectation = setting_expectation(n, wt, beta)
            deviations.append((abs(expectation - fid), wt, expectation))
        argmin_wt = min(deviations)[1]
        for dev, wt, expectation in deviations:
            rows.append([n, beta, wt, expectation, fid, dev,
                         deviation_leading_order(n, wt, beta), wt == argmin_wt])
    return "sweep-wt-v1", header, rows


def cmd_identities(args) -> dict:
    reports = {
        "odd": check_odd(args.kmax),
        "even": check_even(args.kmax),
        "alternating": check_alternating(args.kmax),
    }
    failures = [list(f) for rep in reports.values() for f in rep.failures]
    result = {
        "k_max": args.kmax,
        "ok": not failures,
        "failures": failures,
        "checks": {name: rep.ok for name, rep in reports.items()},
    }
    if failures:
        raise CheckFailure(f"{len(failures)} identity checks failed", result)
    return result


def cmd_oracle_check(args) -> dict:
    if not args.tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {args.tolerance}")
    if not 2 <= args.nmax <= MAX_DENSITY_N:
        raise ValueError(
            f"oracle check supports nmax in [2, {MAX_DENSITY_N}], got {args.nmax}: each n "
            f"checks all 2^n selectors against the dense thermal state, which is "
            f"limited to n <= {MAX_DENSITY_N} (oracle.MAX_DENSITY_N)"
        )
    if not args.betas:
        raise ValueError("need at least one beta")
    worst = 0.0
    checked = 0
    for n in range(2, args.nmax + 1):
        graph = ring_graph(n) if n >= 3 else HypergraphSpec(2, e2={(1, 2)})
        words = [(stabilizer_product(graph, [(selector >> b) & 1 for b in range(n)]),
                  selector.bit_count()) for selector in range(1 << n)]
        for beta in args.betas:
            rho = thermal_density(graph, beta)
            for word, weight in words:
                exact = dense_expectation(rho, word)
                closed = setting_expectation(n, weight, beta)
                worst = max(worst, abs(exact - closed))
                checked += 1
    result = {
        "n_max": args.nmax,
        "betas": args.betas,
        "settings_checked": checked,
        "max_abs_error": worst,
        "tolerance": args.tolerance,
        "ok": worst <= args.tolerance,
    }
    if worst > args.tolerance:
        raise CheckFailure(f"closed form deviates from the dense oracle by {worst:.3e} "
                           f"(tolerance {args.tolerance:.1e})", result)
    return result


def _estimate_from_report(path: str) -> float:
    """Pull f_est out of a previously emitted JSON document (a serialized
    VerificationReport, or any record nesting one under "result"/"report")."""
    doc = json.loads(Path(path).read_bytes().decode("utf-8"))  # JSON is UTF-8
    node = doc
    for key in ("result", "report"):
        if isinstance(node, dict) and "f_est" not in node and key in node:
            node = node[key]
    if not isinstance(node, dict) or "f_est" not in node:
        raise ValueError(f"no f_est field found in report {path}")
    f_est = node["f_est"]
    if type(f_est) not in (int, float):  # bool is not a JSON number
        raise ValueError(f"f_est in report {path} is not a JSON number: {json.dumps(f_est)}")
    try:
        return float(f_est)
    except OverflowError:
        raise ValueError(f"f_est in report {path} does not fit a float") from None


def cmd_certify_iqp(args) -> dict:
    config = ProtocolConfig(epsilon=args.epsilon, delta=args.delta,
                            n_samples=args.samples, seed=args.seed)
    result: dict = {}
    f_est = args.f_est
    if args.report is not None:
        f_est = _estimate_from_report(args.report)
    elif f_est is None:
        beta = _resolve_beta(args)
        n = _check_selector_sites(_check_sites(args.n, even_from=4, need="family requires"))
        member = HypergraphSpec(n)  # the triples cancel in closed form (optimal_setting)
        report = run_protocol(member, stabilizer_product(member, "01" * (n // 2)), beta, config)
        f_est = report.f_est
        result["report"] = report.to_dict()
    result["decision"] = certify(f_est, args.n, allow_small_n=args.allow_small_n).to_dict()
    result["l1_target"] = L1_TARGET
    return result


def cmd_estimate_temperature(args) -> dict:
    beta = invert_temperature(args.n, args.f_est, from_fidelity=args.from_fidelity)
    return {
        "n": args.n,
        "observed": args.f_est,
        "mode": "fidelity" if args.from_fidelity else "expectation",
        "beta": beta,
        "temperature": math.inf if beta == 0.0 else 1.0 / beta,
        "p_flip": flip_probability(beta),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalverify",
        description="Single-setting fidelity estimation for thermal graph and "
                    "hypergraph states: closed forms, Monte-Carlo protocol runs, "
                    "brute-force oracles, and certified-sampling decisions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("expectation", help="closed-form expectation, fidelity, and bounds")
    p.add_argument("--graph", required=True, help="JSON graph/hypergraph file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--setting", default=None, help="selector bits, e.g. 1100")
    group.add_argument("--wt", type=int, default=None, help="selector Hamming weight")
    p.add_argument("--epsilon", type=float, default=0.0, help="statistical accuracy for bounds")
    _add_thermal_arguments(p)
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_expectation)

    p = sub.add_parser("verify", help="Monte-Carlo protocol trials, CSV per trial")
    p.add_argument("--graph", required=True, help="JSON graph/hypergraph file")
    p.add_argument("--setting", default=None, help="selector bits (default 0101...01)")
    _add_thermal_arguments(p)
    p.add_argument("--epsilon", type=float, required=True, help="accuracy target")
    p.add_argument("--delta", type=float, required=True, help="failure probability")
    p.add_argument("--samples", type=int, default=None,
                   help="samples per trial (default: derived from epsilon and delta)")
    p.add_argument("--seed", type=int, default=0, help="base seed; trial t uses seed + t")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curves", help="fidelity / estimator limit / union bound over a T grid")
    p.add_argument("--sizes", type=_int_list, default="50,100",
                   help="comma-separated even qubit counts (default 50,100)")
    p.add_argument("--tmin", type=float, default=0.01)
    p.add_argument("--tmax", type=float, default=2.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("sweep-wt", help="deviation from fidelity per setting weight")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--betas", type=_float_list, required=True,
                   help="comma-separated inverse temperatures")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep_wt)

    p = sub.add_parser("identities", help="exact combinatorial identity checks")
    p.add_argument("--kmax", type=int, default=40)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("oracle-check", help="closed forms vs dense thermal oracle")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--betas", type=_float_list, default="0.2,0.5,1.0,2.0")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("certify-iqp", help="accept/reject rule for certified sampling")
    p.add_argument("--n", type=int, required=True)
    group = _add_thermal_arguments(p)
    group.add_argument("--f-est", dest="f_est", type=float, default=None,
                       help="evaluate the rule on a given estimate (no simulation)")
    group.add_argument("--report", default=None,
                       help="evaluate the rule on the f_est of a JSON report file")
    p.add_argument("--epsilon", type=float, default=EPSILON_FULL_SCALE)
    p.add_argument("--delta", type=float, default=1e-2)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-small-n", action="store_true",
                   help="evaluate below the full-scale regime n >= 4e5")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_certify_iqp)

    p = sub.add_parser("estimate-temperature", help="invert an estimate back to beta and T")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f-est", dest="f_est", type=float, required=True)
    p.add_argument("--from-fidelity", action="store_true",
                   help="interpret the value as a fidelity instead of a setting expectation")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_estimate_temperature)

    return parser


def _parse(argv) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, parsed once: when argv[0] names a
    subcommand, its own parser reads the rest, and leftovers get the
    top-level "unrecognized arguments" error. The top-level parser, which
    would classify and convert every string before handing it on, runs only
    when argv[0] is no subcommand (help, no argument, a typo)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    (commands,) = [action.choices for action in parser._actions if action.dest == "subcommand"]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.subcommand = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        try:
            record, failure = args.func(args), None
        except CheckFailure as exc:
            record, failure = exc.record, exc
        _emit(args, record)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # an n that fits an index but not memory
        print("error: the input needs more memory than is available", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    if failure is None:
        return 0
    print(f"check failed: {failure}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
