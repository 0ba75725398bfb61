"""Output checks for the benchmark's jobs.

Every reference here is computed from the physics, not from thermalverify:
the half-weight setting has mean tanh(beta)^(n/2), the sample budget is
ceil(2/eps^2 * ln(2/delta)), and the certification rule is
f_est - 2/n >= 0.999995 with l1 bound 2*sqrt(max(0, 1 + 1e-6 - margin)).

Statistical bands are two-sided Hoeffding bands sized so that a correct
program fails a job's checks with probability at most FALSE_ALARM.

Each check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import csv
import io
import math

FALSE_ALARM = 1e-9
EXPECTATION_TOL = 1e-9  # the tolerance tests/test_acceptance.py uses
ACCEPT_MARGIN = 0.999995
EPSILON_FULL_SCALE = 1e-6


def half_weight_mean(n: int, beta: float) -> float:
    """Mean of the +-1 outcome of a setting with X/Y on n/2 sites."""
    return math.tanh(beta) ** (n // 2)


def sample_budget(epsilon: float, delta: float) -> int:
    return math.ceil(2.0 / (epsilon * epsilon) * math.log(2.0 / delta))


def mean_band(shots: int, alarm: float = FALSE_ALARM) -> float:
    """Half-width t with P(|mean of shots +-1 outcomes - E| >= t) <= alarm."""
    return math.sqrt(2.0 * math.log(2.0 / alarm) / shots)


def frequency_band(shots: int, events: int, alarm: float = FALSE_ALARM) -> float:
    """Half-width t so that `events` empirical frequencies all lie within t
    of their probabilities, except with probability at most alarm."""
    return math.sqrt(math.log(2.0 * events / alarm) / (2.0 * shots))


def _check_counts(f_est, n_samples, plus, minus, expected_samples) -> list[str]:
    problems = []
    if n_samples != expected_samples:
        problems.append(f"n_samples {n_samples} != budget {expected_samples}")
    if plus + minus != n_samples:
        problems.append(f"plus {plus} + minus {minus} != n_samples {n_samples}")
    elif abs(f_est - (plus - minus) / n_samples) > 1e-15:
        problems.append(f"f_est {f_est} does not match the counts")
    return problems


def check_verify(csv_text: str, n: int, beta: float, epsilon: float, delta: float) -> list[str]:
    """One-trial `thermalverify verify` CSV on an n-vertex graph with the
    default half-weight selector."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    trials = [r for r in rows if r.get("row") == "trial"]
    if len(trials) != 1 or sum(r.get("row") == "summary" for r in rows) != 1:
        return [f"expected one trial row and one summary row, got {len(rows)} rows"]
    row = trials[0]
    try:
        f_est = float(row["f_est"])
        n_samples, plus, minus = (int(row[k]) for k in ("n_samples", "plus_count", "minus_count"))
        expectation = float(row["expectation"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable trial row: {exc!r}"]
    mean = half_weight_mean(n, beta)
    problems = _check_counts(f_est, n_samples, plus, minus, sample_budget(epsilon, delta))
    if not abs(expectation - mean) <= EXPECTATION_TOL:
        problems.append(f"expectation {expectation!r} vs tanh(beta)^(n/2) = {mean!r}")
    if n_samples > 0 and not abs(f_est - mean) <= mean_band(n_samples):
        problems.append(f"f_est {f_est} outside the band around {mean}")
    return problems


def check_certify(doc: dict, n: int, beta: float, samples: int) -> list[str]:
    """`thermalverify certify-iqp --beta ... --samples ...` JSON document."""
    try:
        report = doc["result"]["report"]
        decision = doc["result"]["decision"]
        f_est = float(report["f_est"])
        n_samples, plus, minus = (int(report[k]) for k in ("n_samples", "plus_count", "minus_count"))
        verdict, threshold_met = decision["verdict"], decision["threshold_met"]
        tvd_bound, decided_f = float(decision["tvd_bound"]), float(decision["f_est"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable certify-iqp document: {exc!r}"]
    problems = _check_counts(f_est, n_samples, plus, minus, samples)
    if decided_f != f_est or decision.get("n") != n:
        problems.append("decision does not restate the report's f_est and n")
    margin = f_est - 2.0 / n
    rule = margin >= ACCEPT_MARGIN
    if threshold_met is not rule or verdict != ("accept" if rule else "reject"):
        problems.append(f"verdict {verdict!r} (threshold_met={threshold_met}) breaks the rule at margin {margin!r}")
    bound = 2.0 * math.sqrt(max(0.0, 1.0 + EPSILON_FULL_SCALE - margin))
    if not math.isclose(tvd_bound, bound, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"tvd_bound {tvd_bound!r} != {bound!r}")
    mean = half_weight_mean(n, beta)
    if n_samples > 0 and not abs(f_est - mean) <= mean_band(n_samples):
        problems.append(f"f_est {f_est} outside the band around {mean}")
    return problems


def xbasis_events(n: int) -> dict:
    """Fixed X-basis events, as predicates on the outcome index (site 1 = bit 0)."""
    return {
        "site1_reads_0": lambda idx: (idx & 1) == 0,
        "last_site_reads_0": lambda idx: (idx >> (n - 1)) & 1 == 0,
        "sites12_read_00": lambda idx: (idx & 3) == 0,
        "even_parity": lambda idx: bin(idx).count("1") % 2 == 0,
    }


def check_xbasis(dist, counts: dict, n: int, shots: int) -> list[str]:
    """Exact X-basis distribution (length 2^n) and sampled outcome counts
    keyed by n-character bit strings with site 1 first."""
    problems = []
    probs = [float(p) for p in dist]
    if len(probs) != 1 << n:
        return [f"distribution has {len(probs)} entries, expected {1 << n}"]
    if min(probs) < 0.0:
        problems.append(f"distribution has a negative entry {min(probs)!r}")
    if not abs(math.fsum(probs) - 1.0) <= 1e-12:
        problems.append(f"distribution sums to {math.fsum(probs)!r}")
    total = sum(counts.values())
    if total != shots:
        problems.append(f"counts sum to {total}, expected {shots}")
    by_index = {}
    for key, c in counts.items():
        if len(key) != n or set(key) - {"0", "1"}:
            return problems + [f"malformed outcome key {key!r}"]
        by_index[int(key[::-1], 2)] = c
    if problems or total == 0:
        return problems
    events = xbasis_events(n)
    band = frequency_band(total, len(events))
    for name, event in events.items():
        exact = math.fsum(p for i, p in enumerate(probs) if event(i))
        seen = sum(c for i, c in by_index.items() if event(i)) / total
        if not abs(seen - exact) <= band:
            problems.append(f"event {name}: empirical {seen} vs exact {exact} (band {band:.3g})")
    return problems
