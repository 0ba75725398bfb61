"""thermalverify benchmark: one workload per call, measured in child interpreters.

    python3 perfbench/run.py --workload verify-graph --seed 1 --seconds 40 --trace 0

Workloads: verify-graph, certify-family, xbasis-family (see workloads.py and
README.md). One client runs one job at a time (closed loop, no threads).

--trace 0 measures the end-to-end metrics: set-up is timed in SETUP_PAIRS
set-up-only children and reported as a median; then the measuring child runs
jobs for --seconds. --trace 1 runs an untraced child and then a traced child
for half of --seconds each, and reports the per-layer metrics, including the
tracing overhead between the two.

Human-readable lines come first; the last stdout line is the JSON result.
Exits 1 without a result if a child fails (for instance when the checkout
has no src/thermalverify).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("verify-graph", "certify-family", "xbasis-family")
SETUP_PAIRS = 6
CHILD_GRACE_S = 120
# Reported job times are scaled to a machine on which child.yardstick() takes
# YARDSTICK_REFERENCE_S, using the yardstick timed after each job (median over
# the job and YARD_HALF_WINDOW neighbours each side). Set-up is scaled by a
# bare interpreter importing NumPy, started right after each set-up probe, to
# a machine on which that takes REFERENCE_CHILD_S. Machine-wide speed drift
# slows both sides of each ratio alike; unscaled job times are printed too.
YARDSTICK_REFERENCE_S = 0.01
YARD_HALF_WINDOW = 2
REFERENCE_CHILD = ("-c", "import numpy; print('ready', flush=True)")
REFERENCE_CHILD_S = 0.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END_UNITS = {"job_s_p50": "s", "job_s_p90": "s", "shots_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
CALLS = ("graphs.incident_triples", "graphs.neighbors", "thermal.setting_expectation",
         "identities.signed_pattern_count", "oracle.hadamard_transform")


def trace_names() -> tuple[tuple, tuple]:
    """The tracer's layers and span names. Only --trace 1 imports the tracer."""
    from tracer import LAYERS, TARGETS
    return LAYERS, tuple(dict.fromkeys(name for name, _, _ in TARGETS))


def per_layer_units() -> dict:
    layers, spans = trace_names()
    units = {f"{name}.self_s": "s" for name in spans}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({"sampler.shots": "count", "sampler.ns_per_shot": "ns",
                  "sampler.peak_alloc_mb": "MB", "cli.output_bytes": "B"})
    units.update({f"{layer}.errors": "count" for layer in layers})
    units["trace.overhead_frac"] = "frac"
    return units


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "THERMALVERIFY_WORKERS"}
    env.update({var: "1" for var in THREAD_VARS})
    return env


def launch(args: list[str], timeout: float) -> tuple[float, str]:
    """Run `python3 -E -s <args>` in the checkout; return (seconds until its
    first stdout line, which must read "ready", and the rest of stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-E", "-s", *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"child {args} timed out")
    if first.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"child {args} exited with code {proc.returncode}")
    return ready, rest


def child_args(workload: str, seed: int, seconds: float, trace: int = 0) -> list[str]:
    return [str(CHILD), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]


def spawn(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """Run one measuring child and return its JSON record."""
    args = child_args(workload, seed, seconds, trace)
    if trace:
        OUT.mkdir(exist_ok=True)
        args += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    _, rest = launch(args, seconds + CHILD_GRACE_S)
    lines = rest.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload} child printed no record")
    return json.loads(lines[-1])


def setup_time(workload: str, seed: int) -> float:
    """Median over SETUP_PAIRS of set-up-only child / reference child, in
    reference seconds."""
    ratios = []
    for _ in range(SETUP_PAIRS):
        probe, _ = launch(child_args(workload, seed, 0.0) + ["--setup-only"], CHILD_GRACE_S)
        reference, _ = launch(list(REFERENCE_CHILD), CHILD_GRACE_S)
        ratios.append(probe / reference)
    return statistics.median(ratios) * REFERENCE_CHILD_S


def job_times(record: dict) -> list[float]:
    """Job wall times scaled to the reference speed."""
    jobs = record["jobs"]
    yards = [job["yard_s"] for job in jobs]
    return [job["s"] * YARDSTICK_REFERENCE_S
            / statistics.median(yards[max(0, k - YARD_HALF_WINDOW):k + YARD_HALF_WINDOW + 1])
            for k, job in enumerate(jobs)]


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(record: dict, setup_s: float) -> dict:
    times = job_times(record)
    return {
        "job_s_p50": statistics.median(times),
        "job_s_p90": percentile_90(times),
        "shots_per_s": sum(job["shots"] for job in record["jobs"]) / sum(times),
        "peak_rss_mb": record["maxrss_kb"] / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics; times are scaled by the traced run's median yardstick."""
    layers, spans = trace_names()
    profile = traced["trace"]
    scale = YARDSTICK_REFERENCE_S / statistics.median(job["yard_s"] for job in traced["jobs"])
    out = {f"{name}.self_s": profile["self_s_per_job"].get(name, 0.0) * scale
           for name in spans}
    out.update({f"{name}.calls": profile["calls_per_job"].get(name, 0.0) for name in CALLS})
    out["sampler.shots"] = profile["shots_per_job"]
    out["sampler.ns_per_shot"] = profile["ns_per_shot"] * scale
    out["sampler.peak_alloc_mb"] = profile["peak_alloc_mb"]
    out["cli.output_bytes"] = profile["output_bytes_per_job"]
    out.update({f"{layer}.errors": profile["errors"][layer] for layer in layers})
    out["trace.overhead_frac"] = (statistics.median(job_times(traced))
                                  / statistics.median(job_times(untraced)) - 1.0)
    return out


def layer_shares(traced: dict) -> dict:
    """Each layer's self time as a share of traced job time."""
    total = statistics.mean(job["s"] for job in traced["jobs"])
    shares = {layer: 0.0 for layer in trace_names()[0]}
    for name, seconds in traced["trace"]["self_s_per_job"].items():
        layer = name.split(".", 1)[0]
        if layer in shares:
            shares[layer] += seconds / total
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if args.trace:
            untraced = spawn(args.workload, args.seed, args.seconds / 2)
            traced = spawn(args.workload, args.seed, args.seconds / 2, trace=1)
            records = [untraced, traced]
            metrics, units = per_layer(traced, untraced), per_layer_units()
        else:
            setup_s = setup_time(args.workload, args.seed)
            record = spawn(args.workload, args.seed, args.seconds)
            records = [record]
            metrics = end_to_end(record, setup_s)
            units = END_TO_END_UNITS
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["jobs"]) for r in records)
    failed = sum(not job["ok"] for r in records for job in r["jobs"])
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} ({failed}/{attempted} jobs)")
    raw = [job["s"] for job in records[0]["jobs"]]
    print(f"  {'unscaled job_s_p50':42s} {statistics.median(raw):14.6g} s")
    if args.trace:
        for layer, share in layer_shares(traced).items():
            print(f"  share of job time in {layer:22s} {share:14.1%}")
        if traced["trace"]["absent"]:
            print(f"  absent trace targets: {', '.join(traced['trace']['absent'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
