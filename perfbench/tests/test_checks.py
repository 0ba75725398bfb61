"""Corrupted outputs must fail their checks and count as failed jobs.

Run with: python3 -m pytest perfbench/tests
"""
import csv
import io
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from child import measure  # noqa: E402
from workloads import CertifyFamily, VerifyGraph, XBasisFamily  # noqa: E402

VERIFY_HEADER = ["row", "trial", "seed", "f_est", "n_samples", "plus_count", "minus_count",
                 "expectation", "fidelity", "fine_bound", "within_epsilon",
                 "within_fine_bound", "pass_rate_epsilon", "pass_rate_fine_bound",
                 "target_rate"]


def counts_near(mean: float, shots: int) -> tuple[int, int, float]:
    plus = round(shots * (1 + mean) / 2)
    minus = shots - plus
    return plus, minus, (plus - minus) / shots


def verify_csv(beta=3.0, corrupt=None) -> str:
    n, shots = VerifyGraph.n, checks.sample_budget(VerifyGraph.epsilon, VerifyGraph.delta)
    mean = checks.half_weight_mean(n, beta)
    plus, minus, f_est = counts_near(mean, shots)
    expectation = mean
    if corrupt == "expectation":
        expectation = mean + 1e-6
    if corrupt == "short":
        minus -= 1
    if corrupt == "far":
        plus, minus, f_est = shots, 0, 1.0
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(VERIFY_HEADER)
    writer.writerow(["trial", 0, 7, repr(f_est), shots, plus, minus, repr(expectation),
                     "0.5", "0.03", "true", "true", "", "", ""])
    writer.writerow(["summary", "", "", "", "", "", "", repr(expectation), "0.5",
                     "", "", "", "1.0", "1.0", "0.95"])
    return out.getvalue()


def certify_doc(beta=5.0, corrupt=None) -> dict:
    n, shots = CertifyFamily.n, CertifyFamily.samples
    plus, minus, f_est = counts_near(checks.half_weight_mean(n, beta), shots)
    margin = f_est - 2.0 / n
    decision = {"f_est": f_est, "n": n, "threshold_met": False,
                "tvd_bound": 2.0 * math.sqrt(1.0 + 1e-6 - margin), "verdict": "reject"}
    if corrupt == "verdict":
        decision["verdict"], decision["threshold_met"] = "accept", True
    report = {"f_est": f_est, "n_samples": shots, "plus_count": plus,
              "minus_count": minus - (corrupt == "short")}
    return {"manifest": {}, "result": {"report": report, "decision": decision}}


def xbasis_output(corrupt=None):
    n = XBasisFamily.n
    per_outcome = XBasisFamily.shots // (1 << n)
    dist = [1.0 / (1 << n)] * (1 << n)
    counts = {format(i, f"0{n}b")[::-1]: per_outcome for i in range(1 << n)}
    if corrupt == "short":
        counts["0" * n] -= 1
    if corrupt == "negative":
        dist[0], dist[1] = -dist[0], 3 * dist[1]
    return dist, counts, per_outcome << n


def test_valid_outputs_pass():
    assert checks.check_verify(verify_csv(), 512, 3.0, 0.02, 0.05) == []
    assert checks.check_certify(certify_doc(), 2000, 5.0, 2000) == []
    dist, counts, shots = xbasis_output()
    assert checks.check_xbasis(dist, counts, XBasisFamily.n, shots) == []


@pytest.mark.parametrize("corrupt", ["expectation", "short"])
def test_corrupted_verify_csv_fails(corrupt):
    assert checks.check_verify(verify_csv(corrupt=corrupt), 512, 3.0, 0.02, 0.05)


@pytest.mark.parametrize("corrupt", ["verdict", "short"])
def test_corrupted_certify_document_fails(corrupt):
    assert checks.check_certify(certify_doc(corrupt=corrupt), 2000, 5.0, 2000)


@pytest.mark.parametrize("corrupt", ["short", "negative"])
def test_corrupted_xbasis_output_fails(corrupt):
    dist, counts, shots = xbasis_output(corrupt)
    assert checks.check_xbasis(dist, counts, XBasisFamily.n, shots)


def test_f_est_outside_its_band_fails():
    problems = checks.check_verify(verify_csv(corrupt="far"), 512, 3.0, 0.02, 0.05)
    assert any("band" in p for p in problems)


def stubbed(workload_cls, run, beta, **attrs):
    """A real workload's check() fed by a canned run(), with a fixed beta."""
    workload = object.__new__(workload_cls)
    vars(workload).update(attrs)
    workload.params = lambda k: {"beta": beta, "seed": k}
    workload.run = run
    return workload


def _fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def failed_count(stub, seconds=100):
    jobs = measure(stub, seconds, clock=_fake_clock())
    return sum(not job["ok"] for job in jobs), len(jobs)


def test_corrupted_jobs_count_as_failed_verify(tmp_path):
    csv_path = tmp_path / "verify.csv"
    (tmp_path / "verify.csv.manifest.json").write_text("{}")
    variants = [None, "expectation", None, "short"]

    def run(params):
        csv_path.write_text(verify_csv(corrupt=variants[params["seed"] % 4]))
        return 0
    stub = stubbed(VerifyGraph, run, 3.0, csv=csv_path)
    failed, attempted = failed_count(stub)
    assert attempted > 4
    assert failed == sum(variants[k % 4] is not None for k in range(attempted))


def test_corrupted_jobs_count_as_failed_certify():
    variants = [None, "verdict", "short", None]
    stub = stubbed(CertifyFamily, lambda p: (0, json.dumps(certify_doc(corrupt=variants[p["seed"] % 4]))), 5.0)
    failed, attempted = failed_count(stub)
    assert attempted > 4
    assert failed == sum(variants[k % 4] is not None for k in range(attempted))


def test_raising_and_nonzero_exit_jobs_count_as_failed():
    def run(params):
        if params["seed"] % 2:
            raise ValueError("boom")
        return 2, ""
    failed, attempted = failed_count(stubbed(CertifyFamily, run, 5.0))
    assert failed == attempted > 1


def test_same_seed_gives_same_inputs():
    assert VerifyGraph.graph_document(3) == VerifyGraph.graph_document(3)
    assert VerifyGraph.graph_document(3) != VerifyGraph.graph_document(4)
    doc = VerifyGraph.graph_document(3)
    assert len(doc["e2"]) == 512 + 512 // 8
    for cls in (VerifyGraph, CertifyFamily, XBasisFamily):
        a, b = object.__new__(cls), object.__new__(cls)
        a.seed = b.seed = 5
        assert [a.params(k) for k in range(3)] == [b.params(k) for k in range(3)]
