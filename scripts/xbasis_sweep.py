"""In-process sweep of the X-basis path: wall time and tracemalloc peak of
the Hadamard Kronecker kernel (oracle._kron_power with _hadamard_factor, on a
copy of the pure state), build_pure_state, exact_outcome_distribution,
iqp_sample (1e4 shots) and "distribution, then iqp_sample" as one call (the
caller holds the distribution while it samples, as the xbasis-family
benchmark job does) on build_family(n, e2={(1, 4), (2, 6)}) at beta = 1,
for two checkouts of the repository measured side by side.

    python scripts/xbasis_sweep.py PARENT_CHECKOUT CHANGE_CHECKOUT [--n 10 16 20 24]
        [--blas-threads 1]

Each child is a fresh process with one checkout's src first on PYTHONPATH
and OPENBLAS_NUM_THREADS set, measuring one n. For each n the sides run
CHILDREN rounds of one child each, and which side goes first alternates
from one round to the next and from one n to the next ("first" names it
for the first round). A child makes one warm-up call per function, times
REPS further calls with tracemalloc off and reports their median, then
takes the tracemalloc peak of one more call. Each side reports the median
and the quartiles of its children's medians, so that the ratio of the two
medians can be read against the spread between processes, which dominates
below n = 16. It also reports the largest peak of its children, in bytes
and in float64 statevectors (8 * 2^n bytes); for the Hadamard kernel the
peak excludes the pure state, which exists before the call, and counts the
copy and the spare buffer. Prints one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

REPS = {10: 101, 16: 21, 20: 5, 24: 3}
CHILDREN = 3  # per side and n: the fewest that give quartiles
SHOTS = 10**4
BETA = 1.0


def distribution_then_sample(spec, seed: int):
    """The exact distribution, then iqp_sample while it is still held."""
    from thermalverify import exact_outcome_distribution, iqp_sample

    dist = exact_outcome_distribution(spec, BETA)
    return dist, iqp_sample(spec, BETA, SHOTS, seed)


def measure(n: int) -> dict:
    import numpy as np

    from thermalverify import build_family, build_pure_state, exact_outcome_distribution, iqp_sample
    from thermalverify.oracle import _hadamard_factor, _kron_power

    spec = build_family(n, e2={(1, 4), (2, 6)})
    amplitudes = build_pure_state(spec)
    # checkouts older than the amplitude-vector return wrap it in DenseState
    amplitudes = getattr(amplitudes, "amplitudes", amplitudes)
    calls = {
        "kron_power_hadamard": lambda seed: _kron_power(
            amplitudes.copy(), np.empty_like(amplitudes), _hadamard_factor),
        "build_pure_state": lambda seed: build_pure_state(spec),
        "exact_outcome_distribution": lambda seed: exact_outcome_distribution(spec, BETA),
        "iqp_sample": lambda seed: iqp_sample(spec, BETA, SHOTS, seed),
        "distribution_then_iqp_sample": lambda seed: distribution_then_sample(spec, seed),
    }
    reps = REPS.get(n, 3)
    results = {}
    for name, call in calls.items():
        call(0)  # warm-up
        times = []
        for seed in range(1, reps + 1):
            start = time.perf_counter()
            call(seed)
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            call(reps + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        results[name] = {"time_s": statistics.median(times), "reps": reps,
                         "tracemalloc_peak_bytes": peak,
                         "tracemalloc_peak_statevectors": round(peak / (8 << n), 3)}
    return results


def run_child(checkout: Path, n: int, blas_threads: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "OPENBLAS_NUM_THREADS": str(blas_threads)}
    done = subprocess.run([sys.executable, __file__, "--child", str(n)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summarize(children: list[dict], fn: str) -> dict:
    """One side's children for one function: the median and the quartiles
    of their median times, and their largest tracemalloc peak."""
    times = [child[fn]["time_s"] for child in children]
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    peak = max(children, key=lambda child: child[fn]["tracemalloc_peak_bytes"])[fn]
    return {"time_s_median": median, "time_s_quartiles": [q1, q3], "child_time_s": times,
            "reps_per_child": children[0][fn]["reps"],
            "tracemalloc_peak_bytes": peak["tracemalloc_peak_bytes"],
            "tracemalloc_peak_statevectors": peak["tracemalloc_peak_statevectors"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path)
    parser.add_argument("--n", type=int, nargs="+", default=[10, 16, 20, 24])
    parser.add_argument("--blas-threads", type=int, default=1)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        print(json.dumps(measure(args.child)))
        return
    if len(args.checkouts) != 2:
        parser.error("give the parent and the change checkout")
    parent, change = args.checkouts
    sweep = {}
    sides = [("parent", parent), ("change", change)]
    for i, n in enumerate(args.n):
        children = {"parent": [], "change": []}
        for k in range(CHILDREN):
            for name, path in sides if (i + k) % 2 == 0 else sides[::-1]:
                children[name].append(run_child(path, n, args.blas_threads))
        sweep[f"n={n}"] = {"first": sides[i % 2][0]}
        for fn in children["parent"][0]:
            summary = {side: summarize(children[side], fn) for side in children}
            summary["time_ratio_change_over_parent"] = round(
                summary["change"]["time_s_median"] / summary["parent"]["time_s_median"], 4)
            sweep[f"n={n}"][fn] = summary
    print(json.dumps({"blas_threads": args.blas_threads, "children_per_side": CHILDREN,
                      "shots": SHOTS, "beta": BETA,
                      "instance": "build_family(n, e2={(1, 4), (2, 6)})", "sweep": sweep},
                     indent=1))


if __name__ == "__main__":
    main()
