"""In-process sweep of the X-basis path: wall time and tracemalloc peak of
the Hadamard Kronecker kernel (oracle._kron_power with _hadamard_factor, on a
copy of the pure state), build_pure_state, exact_outcome_distribution and
iqp_sample (1e4 shots) on build_family(n, e2={(1, 4), (2, 6)}) at beta = 1,
for two checkouts of the repository measured side by side.

    python scripts/xbasis_sweep.py PARENT_CHECKOUT CHANGE_CHECKOUT [--n 10 16 20 24]
        [--blas-threads 1]

Each (checkout, n) runs in its own fresh child with that checkout's src
first on PYTHONPATH and OPENBLAS_NUM_THREADS set; the two sides alternate
which goes first from one n to the next. A child makes one warm-up call
per function, times REPS further calls with tracemalloc off (the median is
reported), then takes the tracemalloc peak of one more call. The peak is
also given in float64 statevectors (8 * 2^n bytes); for the Hadamard kernel
it excludes the pure state, which exists before the call, and counts the
copy and the spare buffer. Prints one JSON
object.
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
SHOTS = 10**4
BETA = 1.0


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
    for i, n in enumerate(args.n):
        sides = [("parent", parent), ("change", change)]
        order = sides if i % 2 == 0 else sides[::-1]
        measured = {name: run_child(path, n, args.blas_threads) for name, path in order}
        sweep[f"n={n}"] = {
            "first": order[0][0],
            **{fn: {"parent": measured["parent"][fn], "change": measured["change"][fn],
                    "time_ratio_change_over_parent": round(
                        measured["change"][fn]["time_s"] / measured["parent"][fn]["time_s"], 4)}
               for fn in measured["parent"]},
        }
    print(json.dumps({"blas_threads": args.blas_threads, "shots": SHOTS, "beta": BETA,
                      "instance": "build_family(n, e2={(1, 4), (2, 6)})", "sweep": sweep},
                     indent=1))


if __name__ == "__main__":
    main()
