"""One workload in a fresh interpreter: set up, say "ready", run jobs.

    python3 -E -s perfbench/child.py --workload W --seed S --seconds T
        [--trace 0|1] [--spans FILE] [--setup-only]

The checkout's src directory goes first on sys.path and thermalverify must
resolve there. After set-up (import plus input generation) the child prints
"ready"; run.py times set-up up to that line. Unless --setup-only, jobs then
run one at a time in a closed loop until T seconds have passed, and the last
stdout line is a JSON record of the jobs (and, with --trace 1, the per-layer
profile).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MAX_PROBLEM_LINES = 5


# Reference work for yardstick(), one part per kind of hot loop in the
# program: big-integer binomial sums (bracket coefficients), a pure-Python scan
# of a set of triples (hyperedge lookups), NumPy uniforms in a small block
# (per-shot sampling) and in a block larger than the per-core cache.
_TRIPLES = frozenset((i, i + 1, i + 2) for i in range(1, 3000, 2))
_SMALL_BLOCK = (1000, 512)
_LARGE_BLOCK = 500_000


def yardstick() -> float:
    """Seconds taken by a fixed piece of reference work.

    run.py scales job times by this to factor out machine-wide speed drift;
    the work never changes, so program changes do not move it.
    """
    import numpy as np

    start = time.perf_counter()
    for m in range(80):
        sum(math.comb(256, j) * math.comb(256, m - j) for j in range(0, m + 1, 2))
    for i in range(1, 25):
        tuple(sorted(t for t in _TRIPLES if i in t))
    rng = np.random.default_rng(0)
    np.count_nonzero(rng.random(_SMALL_BLOCK) < 0.3)
    rng.random(_LARGE_BLOCK).sum()
    return time.perf_counter() - start


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    import thermalverify
    where = Path(thermalverify.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"thermalverify resolved to {where}, outside {SRC}")


def measure(workload, seconds: float, tracer=None, clock=time.perf_counter) -> list[dict]:
    """Closed loop: run jobs one after another until `seconds` have passed
    (at least one job). A job fails if it raises or its check finds a problem.
    The yardstick runs after each job, outside its timing."""
    jobs = []
    deadline = clock() + seconds
    while not jobs or clock() < deadline:
        k = len(jobs)
        params = workload.params(k)
        start = clock()
        try:
            output = tracer.job_span(k, workload.run, params) if tracer else workload.run(params)
        except Exception as exc:
            elapsed = clock() - start
            problems, shots, nbytes = [f"raised {exc!r}"], 0, 0
        else:
            elapsed = clock() - start
            try:
                problems, shots, nbytes = workload.check(params, output)
            except Exception as exc:
                problems, shots, nbytes = [f"check raised {exc!r}"], 0, 0
        if problems and sum(not j["ok"] for j in jobs) < MAX_PROBLEM_LINES:
            print(f"job {k} {params}: {'; '.join(problems)}", file=sys.stderr)
        jobs.append({"s": elapsed, "yard_s": yardstick(), "shots": shots, "bytes": nbytes,
                     "ok": not problems})
    return jobs


def trace_profile(tracer, jobs: list[dict]) -> dict:
    """Per-layer figures of a traced run, per job where the name says so."""
    from tracer import LAYERS, layer_profile

    self_s, calls = layer_profile(tracer.spans)
    protocol_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "sampler.run_protocol")
    count = len(jobs)
    return {
        "self_s_per_job": {name: t / count for name, t in self_s.items()},
        "calls_per_job": {name: c / count for name, c in calls.items()},
        "shots_per_job": tracer.shots / count,
        "ns_per_shot": protocol_s / tracer.shots * 1e9 if tracer.shots else 0.0,
        "peak_alloc_mb": tracer.peak_alloc / 2**20,
        "output_bytes_per_job": sum(j["bytes"] for j in jobs) / count,
        "errors": {layer: tracer.errors.get(layer, 0) for layer in LAYERS},
        "absent": tracer.absent,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        jobs = measure(workload, args.seconds, tracer)
        record = {"jobs": jobs,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            record["trace"] = trace_profile(tracer, jobs)
            if args.spans:
                tracer.dump(args.spans)
        elif "tracer" in sys.modules:
            raise SystemExit("untraced run imported the tracer")
        print(json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
