"""Acceptance gate: every release-blocking check with its tolerance pinned.

Each test prints one PASS line (visible with pytest -v -s) and enforces the
runtime budget where one applies. Run with:

    pytest tests/test_acceptance.py -v
"""
import csv
import math
import time
from math import ceil, comb, log
from pathlib import Path

import numpy as np
import pytest

from thermalverify import (HypergraphSpec, ProtocolConfig, build_family, build_pure_state,
                           certify, check_error_bound, error_bounds, fidelity,
                           half_weight_expectation, invert_temperature, optimal_setting,
                           ring_graph, run_protocol, sample_size, setting_expectation,
                           stabilizer_product, leading_half_setting)
from thermalverify.cli import main
from util_dense import boltzmann_density, stabilizer_check
from util_identities import check_alternating, check_even, check_odd, signed_pattern_count
from util_oracle import dense_expectation, thermal_density

GOLDEN_CURVES = Path(__file__).parent / "golden" / "curves_n50_100.csv"


def _graph(n: int) -> HypergraphSpec:
    return ring_graph(n) if n >= 3 else HypergraphSpec(2, e2={(1, 2)})


def test_closed_form_expectation_matches_dense_oracle():
    """n in {2,4,6,8}, all 2^n selectors, beta in {0.2,0.5,1,2}: closed form
    vs brute-force thermal mixture within 1e-9, under 60 s."""
    start = time.monotonic()
    worst = 0.0
    for n in (2, 4, 6, 8):
        g = _graph(n)
        for beta in (0.2, 0.5, 1.0, 2.0):
            rho = thermal_density(g, beta)
            for selector in range(1 << n):
                bits = [(selector >> b) & 1 for b in range(n)]
                word = stabilizer_product(g, bits)
                exact = dense_expectation(rho, word)
                closed = setting_expectation(n, sum(bits), beta)
                worst = max(worst, abs(exact - closed))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 60
    print(f"PASS closed form vs dense oracle: max error {worst:.2e} in {elapsed:.1f}s")


def test_thermal_representations_agree():
    """Phase-flip mixture vs Gibbs exponential: entrywise within 1e-8 for
    n <= 8, beta in {0.3, 1, 2}, under 60 s."""
    start = time.monotonic()
    worst = 0.0
    targets = [_graph(n) for n in range(2, 9)]
    targets += [build_family(n, e2={(1, 2)}) for n in (4, 6, 8)]
    for spec in targets:
        for beta in (0.3, 1.0, 2.0):
            mixture = thermal_density(spec, beta)
            gibbs = boltzmann_density(spec, beta)
            worst = max(worst, float(np.max(np.abs(mixture - gibbs))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-8
    assert elapsed < 60
    print(f"PASS thermal representations: max entry gap {worst:.2e} in {elapsed:.1f}s")


def test_half_weight_specialization():
    """General formula at wt = n/2 equals the closed form within 1e-12 on a
    50-point beta grid (even n <= 40); the coefficient polynomial equals
    (1 - x^2)^(n/2) exactly for even n <= 24."""
    worst = 0.0
    for n in range(2, 42, 2):
        for beta in np.linspace(0.05, 5.0, 50):
            gap = abs(setting_expectation(n, n // 2, beta) - half_weight_expectation(n, beta))
            worst = max(worst, gap)
    assert worst <= 1e-12
    for n in range(2, 26, 2):
        k = n // 2
        lhs = [signed_pattern_count(n, k, m) for m in range(n + 1)]
        rhs = [0] * (n + 1)
        for j in range(k + 1):
            rhs[2 * j] = (-1) ** j * comb(k, j)
        assert lhs == rhs
    print(f"PASS half-weight specialization: max gap {worst:.2e}, polynomial exact")


def test_combinatorial_identities_exact():
    """Odd/even/alternating identities hold exactly for all k <= 40, under 30 s."""
    start = time.monotonic()
    for checker in (check_odd, check_even, check_alternating):
        report = checker(40)
        assert report.failures == ()
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"PASS combinatorial identities: k <= 40 exact in {elapsed:.1f}s")


def test_monte_carlo_estimator_concentrates():
    """10-ring at beta 0.5 with epsilon 0.02, delta 0.05: the derived budget
    is 18445 samples; over 200 seeds both guarantees hold in >= 92% of
    trials, under 2 min."""
    start = time.monotonic()
    assert sample_size(0.02, 0.05) == 18445
    g = ring_graph(10)
    setting = stabilizer_product(g, leading_half_setting(10))
    target = setting_expectation(10, 5, 0.5)
    truth = fidelity(10, 0.5)
    hits_epsilon = 0
    hits_bound = 0
    for trial in range(200):
        config = ProtocolConfig(epsilon=0.02, delta=0.05, seed=1000 + trial)
        report = run_protocol(g, setting, 0.5, config)
        assert report.n_samples == 18445
        hits_epsilon += abs(report.f_est - target) <= 0.02
        hits_bound += check_error_bound(report, truth)
    elapsed = time.monotonic() - start
    assert hits_epsilon >= 184  # 92% of 200
    assert hits_bound >= 184
    assert elapsed < 120
    print(f"PASS estimator concentration: {hits_epsilon}/200 within epsilon, "
          f"{hits_bound}/200 within bound in {elapsed:.1f}s")


def test_estimator_inequalities_on_grid():
    """Even n in [4,100], beta grid [0.05, 5]: 0 < estimate <= fidelity and
    fidelity - estimate <= n x^2 / (2 (1+x)^n) <= 2/n, tolerance 1e-12."""
    for n in range(4, 102, 2):
        for beta in np.linspace(0.05, 5.0, 60):
            estimate = half_weight_expectation(n, beta)
            truth = fidelity(n, beta)
            fine = error_bounds(n, beta, 0.0).fine_bound
            assert estimate > 0.0
            assert estimate <= truth + 1e-12
            assert truth - estimate <= fine + 1e-12
            assert fine <= 2.0 / n + 1e-12
    print("PASS estimator inequality chain on the full grid")


def test_balanced_weight_minimizes_deviation():
    """n = 12 at x = 1e-3: deviation from fidelity is minimized at wt = 6 and
    each deviation matches the leading term within 144 x^2."""
    t = 1e-3
    beta = -math.log(t) / 2
    truth = fidelity(12, beta)
    deviations = {}
    for wt in range(13):
        deviations[wt] = abs(setting_expectation(12, wt, beta) - truth)
        leading = abs(12 - 2 * wt) * t / (1 + t) ** 12
        assert abs(deviations[wt] - leading) <= 144 * t * t
    assert min(deviations, key=deviations.get) == 6
    print("PASS balanced setting weight minimizes the deviation at n = 12")


def test_curves_match_golden_file_and_separate_bounds(tmp_path):
    """Fixed default grid reproduces the golden CSV bit for bit; near
    p = 0.02 the union bound falls at least 0.5 below the fidelity at
    n = 100 while the estimator limit stays within 0.02 of it."""
    out = tmp_path / "curves.csv"
    code = main(["curves", "--sizes", "50,100", "--tmin", "0.01", "--tmax", "2.0",
                 "--points", "200", "--output", str(out)])
    assert code == 0
    golden = GOLDEN_CURVES.read_bytes()
    assert out.read_bytes() == golden
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert all(float(r["F_ub"]) <= float(r["F"]) + 1e-12 for r in rows)
    n100 = [r for r in rows if r["n"] == "100"]
    near = min(n100, key=lambda r: abs(float(r["p_beta"]) - 0.02))
    assert float(near["F"]) - float(near["F_ub"]) >= 0.5
    assert float(near["F"]) - float(near["F_est_infinite"]) <= 0.02
    print("PASS curve regeneration: golden file byte-identical, bounds separated")


def test_restricted_family_reduction():
    """The 10-vertex instance carries exactly the eight known triangles; the
    alternating selector reduces to +X on all even sites and stabilizes the
    statevector at n = 10 and n = 20, under 30 s."""
    start = time.monotonic()
    inst10 = build_family(10)
    assert set(inst10.e3) == {
        (1, 2, 3), (5, 6, 7), (1, 3, 4), (5, 7, 8),
        (3, 4, 5), (7, 8, 9), (3, 5, 6), (7, 9, 10),
    }
    word10 = optimal_setting(inst10)
    assert str(word10) == "+IXIXIXIXIX"
    assert stabilizer_check(build_pure_state(inst10), word10)
    inst20 = build_family(20)
    word20 = optimal_setting(inst20)
    assert word20.sign == 1 and word20.z_mask == 0
    assert word20.x_mask == sum(1 << (i - 1) for i in range(2, 21, 2))
    assert stabilizer_check(build_pure_state(inst20), word20)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"PASS restricted-family reduction at n = 10 and 20 in {elapsed:.1f}s")


def test_certification_arithmetic_and_small_scale_run():
    """Decision rule: accept at f_est = 1 with l1 bound 2 sqrt(6e-6) < 1/192,
    reject at 0.99999; the full-scale sample budget stays below 1.06e13; the
    desk-scale pipeline runs end to end behind the explicit flag."""
    accept = certify(1.0, 400_000)
    assert accept.verdict == "accept"
    assert abs(accept.tvd_bound - 2 * math.sqrt(6e-6)) <= 1e-12
    assert accept.tvd_bound < 1 / 192
    assert certify(0.99999, 400_000).verdict == "reject"

    budget = sample_size(1e-6, 1e-2)
    assert budget == ceil(2 / 1e-6**2 * log(2 / 1e-2)) == 10_596_634_733_097
    assert budget <= 1.06e13

    inst = build_family(20)
    setting = optimal_setting(inst)
    config = ProtocolConfig(epsilon=0.01, delta=0.05, n_samples=20_000, seed=8)
    report = run_protocol(inst, setting, math.inf, config)
    assert report.f_est == 1.0
    decision = certify(report.f_est, 20, allow_small_n=True)
    assert decision.verdict == "reject"  # 2/n = 0.1 keeps the margin unreachable
    assert abs(decision.tvd_bound - 2 * math.sqrt(1 + 1e-6 - 0.9)) <= 1e-12
    print("PASS certification arithmetic and desk-scale pipeline")


def test_temperature_round_trip():
    """invert(expectation(n, beta)) returns beta within 1e-6 for
    beta in {0.1, 0.5, 1, 2, 3} and n in {10, 50}."""
    for n in (10, 50):
        for beta in (0.1, 0.5, 1.0, 2.0, 3.0):
            recovered = invert_temperature(n, half_weight_expectation(n, beta))
            assert abs(recovered - beta) <= 1e-6
    print("PASS thermometry round trip")
