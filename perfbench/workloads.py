"""The benchmark's workloads: seeded input generation, one job, its check.

A workload object is built once per child process (that is the set-up the
benchmark times); then run(params) is one timed job and check(params,
output) returns (problems, shots, output bytes) outside the timed region.
Job parameters come from random.Random("<workload>:<seed>:<job>"), so the
same seed gives the same inputs whatever the job count. Betas are stratified:
each is uniform on the workload's range, and consecutive jobs cover the range
evenly, so a run's job mix, and with it its median, depends little on the seed.

Functions are looked up on their modules at call time, so that a traced run
sees the wrappers the tracer installed.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import checks


GOLDEN = (5 ** 0.5 - 1) / 2


def job_rng(workload: str, seed: int, job: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{job}")


def stratified_beta(workload: str, seed: int, job: int, lo: float, hi: float) -> float:
    """Term `job` of a golden-ratio sequence on [lo, hi] with a seeded offset."""
    offset = random.Random(f"{workload}:{seed}:beta").random()
    return lo + (hi - lo) * ((offset + job * GOLDEN) % 1.0)


class VerifyGraph:
    """`thermalverify verify` on a ring plus n/8 random chords, half-weight
    selector, one trial per job with its own beta and seed."""

    name = "verify-graph"
    n = 512
    epsilon, delta = 0.02, 0.05
    betas = (0.5, 3.0)

    def __init__(self, seed: int, workdir: Path):
        import thermalverify.cli
        self.cli = thermalverify.cli
        self.seed = seed
        self.graph = workdir / "graph.json"
        self.csv = workdir / "verify.csv"
        self.graph.write_text(json.dumps(self.graph_document(seed)))

    @classmethod
    def graph_document(cls, seed: int) -> dict:
        n = cls.n
        rng = random.Random(f"{cls.name}:{seed}:graph")
        edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
        ring = len(edges)
        while len(edges) < ring + n // 8:
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        return {"n": n, "e2": [list(e) for e in sorted(edges)]}

    def params(self, job: int) -> dict:
        return {"beta": stratified_beta(self.name, self.seed, job, *self.betas),
                "seed": job_rng(self.name, self.seed, job).randrange(1 << 31)}

    def run(self, p: dict):
        return self.cli.main([
            "verify", "--graph", str(self.graph), "--beta", repr(p["beta"]),
            "--epsilon", str(self.epsilon), "--delta", str(self.delta),
            "--seed", str(p["seed"]), "--trials", "1", "--output", str(self.csv)])

    def check(self, p: dict, code):
        if code != 0:
            return [f"exit code {code}"], 0, 0
        text = self.csv.read_text()
        manifest = Path(str(self.csv) + ".manifest.json")
        nbytes = len(text.encode()) + manifest.stat().st_size
        problems = checks.check_verify(text, self.n, p["beta"], self.epsilon, self.delta)
        shots = checks.sample_budget(self.epsilon, self.delta) if not problems else 0
        return problems, shots, nbytes


class CertifyFamily:
    """`thermalverify certify-iqp --beta` on the restricted family: setting
    reduction, a site-heavy protocol run, and the decision rule."""

    name = "certify-family"
    n = 2000
    samples = 2000
    betas = (2.0, 6.0)

    def __init__(self, seed: int, workdir: Path):
        import thermalverify.cli
        self.cli = thermalverify.cli
        self.seed = seed

    def params(self, job: int) -> dict:
        return {"beta": stratified_beta(self.name, self.seed, job, *self.betas),
                "seed": job_rng(self.name, self.seed, job).randrange(1 << 31)}

    def run(self, p: dict):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main([
                "certify-iqp", "--n", str(self.n), "--samples", str(self.samples),
                "--beta", repr(p["beta"]), "--seed", str(p["seed"]), "--allow-small-n"])
        return code, out.getvalue()

    def check(self, p: dict, output):
        code, text = output
        if code != 0:
            return [f"exit code {code}"], 0, 0
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"], 0, 0
        problems = checks.check_certify(doc, self.n, p["beta"], self.samples)
        return problems, (self.samples if not problems else 0), len(text.encode())


class XBasisFamily:
    """Library-level X-basis path on a 10-vertex family member with 5 random
    two-vertex edges: exact distribution, then iqp_sample."""

    name = "xbasis-family"
    n = 10
    extra_edges = 5
    shots = 20000
    betas = (0.3, 3.0)

    def __init__(self, seed: int, workdir: Path):
        import thermalverify.supremacy
        self.supremacy = thermalverify.supremacy
        self.seed = seed

    def params(self, job: int) -> dict:
        rng = job_rng(self.name, self.seed, job)
        edges = set()
        while len(edges) < self.extra_edges:
            edges.add(tuple(sorted(rng.sample(range(1, self.n + 1), 2))))
        return {"e2": sorted(edges), "seed": rng.randrange(1 << 31),
                "beta": stratified_beta(self.name, self.seed, job, *self.betas)}

    def run(self, p: dict):
        inst = self.supremacy.build_family(self.n, e2=p["e2"])
        dist = self.supremacy.exact_outcome_distribution(inst, p["beta"])
        counts = self.supremacy.iqp_sample(inst, p["beta"], self.shots, p["seed"])
        return dist, counts

    def check(self, p: dict, output):
        dist, counts = output
        problems = checks.check_xbasis(dist, counts, self.n, self.shots)
        return problems, (self.shots if not problems else 0), 0


WORKLOADS = {w.name: w for w in (VerifyGraph, CertifyFamily, XBasisFamily)}
