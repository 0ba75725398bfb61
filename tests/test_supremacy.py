import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from dataclasses import fields
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermalverify
from thermalverify import (CertificationDecision, HypergraphSpec, ProtocolConfig,
                           alternating_setting, build_family, build_pure_state, certify,
                           exact_outcome_distribution, fidelity, iqp_sample, optimal_setting,
                           ring_graph, run_protocol, sample_size, setting_expectation,
                           stabilizer_product)
from thermalverify.oracle import MAX_STATEVECTOR_N
from thermalverify.pauli import _normal_form
from thermalverify.sampler import MAX_SAMPLES
from thermalverify.supremacy import (_CHECK_ROWS, _DISTRIBUTIONS, ACCEPT_MARGIN,
                                     EPSILON_FULL_SCALE, MIN_FULL_SCALE_N, _family_rows,
                                     _holds_family_rows, _outcome_counts)
from thermalverify.thermal import flip_probability
from util_dense import (H2, ascending_generalized_product, family_members,
                        family_triples_reference, kron_power_reference,
                        mixture_outcome_distribution, normal_form, outcome_counts_reference,
                        stabilizer_check, total_variation)
from util_oracle import dense_expectation, thermal_density

FIG3_TRIANGLES = {
    (1, 2, 3), (5, 6, 7),
    (1, 3, 4), (5, 7, 8),
    (3, 4, 5), (7, 8, 9),
    (3, 5, 6), (7, 9, 10),
}


def family_rows(n: int) -> set:
    """The rows of supremacy._family_rows(n) as a set of triples."""
    return set(map(tuple, _family_rows(n).tolist()))


def reference_triples(n: int) -> set:
    """Direct reenumeration of the four progressions with clipping."""
    out = set()
    j = 1
    while 4 * j - 1 <= n:
        out.add((4 * j - 3, 4 * j - 2, 4 * j - 1))
        j += 1
    j = 1
    while 4 * j <= n:
        out.add((4 * j - 3, 4 * j - 1, 4 * j))
        j += 1
    j = 1
    while 4 * j + 1 <= n:
        out.add((4 * j - 1, 4 * j, 4 * j + 1))
        j += 1
    j = 1
    while 4 * j + 2 <= n:
        out.add((4 * j - 1, 4 * j + 1, 4 * j + 2))
        j += 1
    return out


class TestBuildFamily:
    def test_ten_vertex_instance_matches_known_triangles(self):
        inst = build_family(10)
        assert set(inst.e3) == FIG3_TRIANGLES
        assert inst.e2 == frozenset()

    def test_four_vertex_instance_is_fully_clipped(self):
        inst = build_family(4)
        assert set(inst.e3) == {(1, 2, 3), (1, 3, 4)}

    def test_matches_reference_enumeration(self):
        for n in range(4, 42, 2):
            assert set(build_family(n).e3) == reference_triples(n)

    def test_twenty_vertex_members(self):
        triples = set(build_family(20).e3)
        for expected in ((17, 18, 19), (17, 19, 20), (3, 4, 5), (7, 8, 9)):
            assert expected in triples
        assert len(triples) == len(reference_triples(20))

    def test_progressions_are_disjoint_sorted_and_inside(self):
        for n in range(4, 65):
            lengths = [sum(1 for j in range(1, n) if 4 * j + last <= n)
                       for last in (-1, 0, 1, 2)]  # largest vertex of triple j
            triples = family_rows(n)
            assert len(triples) == sum(lengths)
            assert all(a < b < c <= n for (a, b, c) in triples)

    def test_arange_block_matches_generator_reference(self):
        for n in range(1, 201):
            assert family_rows(n) == family_triples_reference(n)
            if n >= 4 and n % 2 == 0:
                assert build_family(n).e3 == family_triples_reference(n)

    def test_e2_is_passed_through(self):
        inst = build_family(10, e2={(1, 2), (9, 10)})
        assert inst.e2 == frozenset({(1, 2), (9, 10)})

    def test_numpy_integer_site_count_builds_the_same_instance(self):
        inst = build_family(np.int64(10))
        assert inst == build_family(10) and type(inst.n) is int

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            build_family(9)

    @staticmethod
    def assert_rebuilds(inst):
        # build_family stores its triples unchecked; the public constructor
        # must take both edge tables back unchanged
        assert inst.e3_rows.dtype == np.int64 and not inst.e3_rows.flags.writeable
        assert HypergraphSpec(inst.n, e2=inst.e2_rows, e3=inst.e3_rows) == inst

    @pytest.mark.parametrize("n", [4, 6, 10, 2000])
    def test_unchecked_triples_pass_the_public_constructor(self, n):
        self.assert_rebuilds(build_family(n))

    @given(family_members(sizes=tuple(range(4, 41, 2))))
    @settings(max_examples=60, deadline=None)
    def test_members_with_random_e2_pass_the_public_constructor(self, inst):
        self.assert_rebuilds(inst)

    def test_peak_is_about_the_triples_themselves(self):
        build_family(4)
        tracemalloc.start()
        try:
            inst = build_family(400_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * inst.e3_rows.nbytes, (peak, inst.e3_rows.nbytes)


class TestOptimalSetting:
    def test_ten_vertex_setting(self):
        word = optimal_setting(build_family(10))
        assert str(word) == "+IXIXIXIXIX"

    def test_setting_stabilizes_statevector_n10(self):
        inst = build_family(10)
        assert stabilizer_check(build_pure_state(inst), optimal_setting(inst))

    def test_setting_stabilizes_statevector_n20(self):
        inst = build_family(20)
        word = optimal_setting(inst)
        assert word.x_mask == sum(1 << (i - 1) for i in range(2, 21, 2))
        assert word.z_mask == 0 and word.sign == 1
        assert stabilizer_check(build_pure_state(inst), word)

    def test_e2_dresses_with_z(self):
        word = optimal_setting(build_family(10, e2={(1, 2)}))
        assert str(word) == "+ZXIXIXIXIX"
        assert word.xy_support == 5

    def test_half_support_for_random_e2(self):
        rng = np.random.default_rng(19)
        for n in range(4, 42, 2):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            for _ in range(3):
                take = rng.random(len(pairs)) < 0.15
                e2 = frozenset(p for p, t in zip(pairs, take) if t)
                word = optimal_setting(build_family(n, e2=e2))
                assert word.xy_support == n // 2

    def test_reduction_builds_no_vertex_index(self):
        inst = build_family(40, e2={(1, 2), (5, 9)})
        optimal_setting(inst)
        assert "_incidence" not in inst.__dict__
        assert "_adjacency" not in inst.__dict__
        assert set(inst.__dict__) == {"n", "e2_rows", "e3_rows"}

    def test_reduction_builds_no_edge_views(self):
        inst = build_family(2000, e2=np.array([[1, 2], [7, 3]]))
        optimal_setting(inst)
        assert not {"e2", "e3", "_incidence", "_adjacency"} & set(inst.__dict__)
        assert set(inst.__dict__) == {"n", "e2_rows", "e3_rows"}

    def test_two_thousand_sites_match_ascending_product(self):
        spec = build_family(2000)
        bits = alternating_setting(2000)
        assert normal_form(spec, bits) == ascending_generalized_product(spec, bits)

    @pytest.mark.parametrize("n, e2", [(4, ()), (10, {(1, 2)}), (40, {(3, 8), (5, 9)}),
                                       (2000, {(1, 2000)})])
    def test_word_is_the_product_for_the_alternating_selector(self, n, e2):
        # optimal_setting spells the selector as a string; verify's default
        # is the alternating_setting tuple, and both must give one word
        spec = build_family(n, e2=e2)
        assert optimal_setting(spec) == stabilizer_product(spec, alternating_setting(n))

    def test_family_triples_cancel_under_the_alternating_selector(self):
        # the closed form rests on this: the triples alone reduce to +X on
        # the even sites, with no linear term and no CZ pair left
        for n in [*range(4, 2004, 2), 400_000]:
            sign, _, linear, quadratic = _normal_form(build_family(n), "01" * (n // 2))
            assert (sign, linear, quadratic) == (1, 0, frozenset()), n

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_closed_form_equals_the_full_reduction(self, data):
        n = data.draw(st.integers(2, 32).map(lambda k: 2 * k), label="n")
        site = st.integers(1, n)
        e2 = data.draw(st.sets(st.tuples(site, site).filter(lambda e: e[0] != e[1]),
                               max_size=3 * n), label="e2")
        spec = build_family(n, e2=e2)
        assert optimal_setting(spec) == stabilizer_product(spec, alternating_setting(n))

    def test_outside_family_is_detected(self):
        # a stray triple, odd n (where 0101...01 is one bit short), an even
        # ring and the extra all-odd triple (1, 3, 5), whose alternating
        # products do reduce, and the family with one triple dropped
        family = _family_rows(10).tolist()
        reducible = (ring_graph(6), HypergraphSpec(10, e3=family + [[1, 3, 5]]))
        for bad in (HypergraphSpec(6, e3={(2, 4, 6)}), ring_graph(5), HypergraphSpec(1),
                    HypergraphSpec(10, e3=family[:3] + family[4:]), *reducible):
            with pytest.raises(RuntimeError, match="outside the restricted family"):
                optimal_setting(bad)
        for spec in reducible:
            assert stabilizer_product(spec, alternating_setting(spec.n)).xy_support == spec.n // 2

    def test_membership_is_checked_in_every_block(self):
        """The block-by-block check sees one changed triple in any block, at
        either end of a block, and a missing last triple."""
        n = 3 * _CHECK_ROWS + 6
        rows = _family_rows(n)
        assert _holds_family_rows(rows, n) and _holds_family_rows(_family_rows(8), 8)
        for at in (0, _CHECK_ROWS - 1, _CHECK_ROWS, 2 * _CHECK_ROWS + 5, n - 3):
            changed = rows.copy()
            changed[at, 2] += 1
            assert not _holds_family_rows(changed, n), at
        assert not _holds_family_rows(rows[:-1], n) and not _holds_family_rows(rows, n + 2)


class TestCertify:
    def test_accepts_at_perfect_estimate_full_scale(self):
        decision = certify(1.0, 400_000)
        assert decision.threshold_met and decision.verdict == "accept"
        assert decision.tvd_bound == pytest.approx(2 * math.sqrt(6e-6), abs=1e-12)
        assert decision.tvd_bound < 1 / 192

    def test_rejects_slightly_low_estimate(self):
        decision = certify(0.99999, 400_000)
        assert not decision.threshold_met and decision.verdict == "reject"

    def test_monotone_in_estimate(self):
        accepted = certify(0.9999975, 400_000 * 2)
        assert certify(1.0, 400_000 * 2).threshold_met >= accepted.threshold_met
        f_grid = np.linspace(0.9999, 1.0, 50)
        flags = [certify(float(f), 10**6).threshold_met for f in f_grid]
        assert flags == sorted(flags)

    def test_small_n_requires_flag(self):
        with pytest.raises(ValueError, match="allow_small_n"):
            certify(1.0, 20)
        decision = certify(1.0, 20, allow_small_n=True)
        assert decision.verdict == "reject"  # 2/n = 0.1 makes the margin unreachable

    def test_estimate_range_validated(self):
        with pytest.raises(ValueError):
            certify(1.5, 400_000)

    @pytest.mark.parametrize("f_est, n, message", [
        (2.0, 3, r"f_est must lie in \[-1, 1\], got 2.0"),
        (1.0, 3, "family requires even n >= 4, got 3"),
        (math.nan, 400_000, r"f_est must lie in \[-1, 1\], got nan"),
    ])
    def test_the_decision_checks_its_own_inputs(self, f_est, n, message):
        # the record, not only certify, refuses what the rule cannot decide
        with pytest.raises(ValueError, match=message):
            CertificationDecision(f_est, n)
        with pytest.raises(ValueError, match=message):
            certify(f_est, n, allow_small_n=True)

    def test_decision_serializes(self):
        doc = certify(1.0, 400_000).to_dict()
        assert doc["verdict"] == "accept" and doc["n"] == 400_000
        assert isinstance(certify(1.0, 400_000), CertificationDecision)

    @pytest.mark.parametrize("n", [2, 3, 5, 400_001])
    def test_n_follows_the_family_rule(self, n):
        # no family member, half-weight setting or 2/n bound exists at odd n
        message = f"family requires even n >= 4, got {n}"
        for allow_small_n in (False, True):
            with pytest.raises(ValueError, match=message):
                certify(1.0, n, allow_small_n=allow_small_n)
        with pytest.raises(ValueError, match=message):
            build_family(n)

    def test_non_integer_n_is_named(self):
        with pytest.raises(TypeError, match="n must be an integer, got 400000.5"):
            certify(0.5, 400000.5, allow_small_n=True)

    def test_numpy_integer_n_serializes_as_plain_int(self):
        decision = certify(1.0, np.int64(400_000))
        assert type(decision.n) is int
        assert type(CertificationDecision(1.0, np.int64(400_000)).n) is int
        assert json.dumps(decision.to_dict()) == json.dumps(certify(1.0, 400_000).to_dict())

    def test_decision_stores_its_inputs(self):
        decision = certify(0.9999999, 400_000)
        assert [field.name for field in fields(CertificationDecision)] == ["f_est", "n"]
        assert list(vars(decision)) == ["f_est", "n"]
        assert list(decision.to_dict()) == ["f_est", "n", "threshold_met", "tvd_bound",
                                            "verdict", "margin", "threshold"]
        assert decision == CertificationDecision(0.9999999, 400_000)

    def test_decision_dict_keys_and_copy(self):
        decision = certify(1.0, 400_000)
        doc = decision.to_dict()
        assert set(doc) == {"f_est", "n", "margin", "threshold", "threshold_met",
                            "tvd_bound", "verdict"}
        doc["verdict"] = "reject"
        assert decision.verdict == "accept" and decision.to_dict()["verdict"] == "accept"

    @pytest.mark.parametrize("f_est, n", [(1.0, 400_000), (0.99999, 400_000),
                                          (0.9, 20), (-1.0, 4)])
    def test_decision_reports_margin_and_threshold(self, f_est, n):
        decision = certify(f_est, n, allow_small_n=True)
        doc = decision.to_dict()
        assert doc["margin"] == decision.margin == f_est - 2.0 / n
        assert doc["threshold"] == decision.threshold == ACCEPT_MARGIN
        assert doc["threshold_met"] is (doc["margin"] >= doc["threshold"])

    def test_full_scale_boundary(self):
        """At n = 4e5 only f_est == 1.0 accepts; one -1 shot in the default
        budget rejects. The float rule agrees with exact rationals at both."""
        n = MIN_FULL_SCALE_N
        budget = sample_size(EPSILON_FULL_SCALE, 1e-2)
        one_minus_shot = (budget - 2) / budget
        assert one_minus_shot == 1 - 2 / budget
        for f_est, verdict in ((1.0, "accept"), (one_minus_shot, "reject")):
            decision = certify(f_est, n)
            exact = Fraction(f_est) - Fraction(2, n) >= Fraction("0.999995")
            assert decision.verdict == verdict
            assert decision.threshold_met is exact


class TestExactDistribution:
    def test_zero_temperature_matches_direct_transform(self):
        inst = build_family(4)
        psi = build_pure_state(inst)
        direct = np.abs(kron_power_reference(H2.real, 4, psi)) ** 2
        assert np.allclose(exact_outcome_distribution(inst, math.inf), direct, atol=1e-12)

    def test_normalized_and_thermal_mixing(self):
        inst = build_family(6)
        for beta in (0.3, 1.0):
            dist = exact_outcome_distribution(inst, beta)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(dist >= 0)

    @given(family_members(), st.one_of(st.sampled_from([0.0, math.inf]),
                                       st.floats(0.0, 12.0)))
    @settings(max_examples=50, deadline=None)
    def test_matches_per_mask_mixture(self, inst, beta):
        reference = mixture_outcome_distribution(inst, beta)
        assert np.max(np.abs(exact_outcome_distribution(inst, beta) - reference)) <= 1e-12

    def test_matches_diagonal_of_rotated_thermal_density(self):
        inst = build_family(6, e2={(1, 4), (2, 6)})
        hadamard = reduce(np.kron, [H2] * 6)
        for beta in (0.0, 0.4, 2.0):
            rho = thermal_density(inst, beta)
            diagonal = np.diag(hadamard @ rho @ hadamard).real
            assert np.max(np.abs(exact_outcome_distribution(inst, beta) - diagonal)) <= 1e-12

    @given(family_members(sizes=range(4, 17, 2)),
           st.one_of(st.just(math.inf), st.floats(0.05, 40.0)))
    @settings(max_examples=60, deadline=None)
    def test_bound_chain_holds_on_exact_distributions(self, inst, beta):
        # exact l1(thermal, ideal) <= 2 sqrt(1 - F) <= the tvd_bound that
        # certify derives from the exact half-weight expectation
        n = inst.n
        thermal = exact_outcome_distribution(inst, beta)
        l1 = float(np.abs(thermal - exact_outcome_distribution(inst, math.inf)).sum())
        fidelity_bound = 2 * math.sqrt(1 - fidelity(n, beta))
        decision = certify(setting_expectation(n, n // 2, beta), n, allow_small_n=True)
        assert l1 <= fidelity_bound + 1e-12 <= decision.tvd_bound + 1e-12


class TestIqpSample:
    def test_reproducible(self):
        inst = build_family(4)
        a = iqp_sample(inst, 1.0, shots=5000, seed=42)
        b = iqp_sample(inst, 1.0, shots=5000, seed=42)
        assert a == b
        assert sum(a.values()) == 5000

    def test_zero_temperature_close_to_exact(self):
        inst = build_family(4)
        shots = 10**6
        counts = iqp_sample(inst, math.inf, shots=shots, seed=7)
        exact = exact_outcome_distribution(inst, math.inf)
        empirical = np.zeros(16)
        for string, c in counts.items():
            empirical[int(string[::-1], 2)] = c / shots
        assert total_variation(empirical, exact) <= 0.01
        assert total_variation(empirical, exact) <= 3 / math.sqrt(shots)

    def test_statistical_accuracy_medium_sizes(self):
        # 3/sqrt(shots) is comfortable for n = 4 and 6; the n = 8 instance is
        # uniform over 64 strings, which already forces an expected deviation
        # of about 3.2/sqrt(shots), so it gets a mean-plus-margin budget.
        for n, shots, budget_over_sqrt in ((6, 250_000, 3.0), (8, 250_000, 4.5)):
            inst = build_family(n)
            counts = iqp_sample(inst, math.inf, shots=shots, seed=3)
            exact = exact_outcome_distribution(inst, math.inf)
            empirical = np.zeros(1 << n)
            for string, c in counts.items():
                empirical[int(string[::-1], 2)] = c / shots
            assert total_variation(empirical, exact) <= budget_over_sqrt / math.sqrt(shots)

    def test_thermal_samples_stay_near_ideal_distribution(self):
        # l1(thermal, ideal) <= 2*sqrt(1 - F); the sampled version adds
        # statistical noise on top
        inst = build_family(4)
        beta = 5.0
        shots = 200_000
        counts = iqp_sample(inst, beta, shots=shots, seed=9)
        ideal = exact_outcome_distribution(inst, math.inf)
        empirical = np.zeros(16)
        for string, c in counts.items():
            empirical[int(string[::-1], 2)] = c / shots
        l1 = np.abs(empirical - ideal).sum()
        bound = 2 * math.sqrt(1 - fidelity(4, beta)) + 10 / math.sqrt(shots)
        assert l1 <= bound

    def test_finite_temperature_close_to_exact(self):
        # E[TV] <= 0.5 * sum_i sqrt(q_i (1 - q_i) / N) by Jensen, and one
        # shot moves TV by at most 1/N, so McDiarmid puts TV above that mean
        # bound plus 3/sqrt(N) with probability below exp(-18)
        inst = build_family(6, e2={(2, 5)})
        beta, shots = 0.5, 200_000
        counts = iqp_sample(inst, beta, shots=shots, seed=11)
        exact = exact_outcome_distribution(inst, beta)
        empirical = np.zeros(1 << 6)
        for string, c in counts.items():
            empirical[int(string[::-1], 2)] = c / shots
        budget = 0.5 * np.sqrt(exact * (1 - exact) / shots).sum() + 3 / math.sqrt(shots)
        assert total_variation(empirical, exact) <= budget
        # the errors visibly move the samples off the ideal distribution
        ideal = exact_outcome_distribution(inst, math.inf)
        assert total_variation(empirical, ideal) > 10 * budget

    def test_memory_does_not_grow_with_shots(self):
        # the counts are one multinomial draw: memory is O(2^n), whatever
        # the shot count
        inst = build_family(12)
        iqp_sample(inst, 1.0, shots=10, seed=5)  # warm-up
        peaks = []
        for shots in (10**6, 10**12):
            tracemalloc.start()
            try:
                counts = iqp_sample(inst, 1.0, shots=shots, seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sum(counts.values()) == shots
        assert peaks[1] <= 1.5 * peaks[0]

    def test_memory_grows_at_most_with_outcome_space(self):
        # O(2^n): going from n = 8 to n = 12 may scale the peak by the
        # 16-fold outcome space, never by a dense 2^n x 2^n operator
        iqp_sample(build_family(4), 1.0, shots=10, seed=5)  # warm-up
        peaks = []
        for n in (8, 12):
            inst = build_family(n)
            tracemalloc.start()
            try:
                iqp_sample(inst, 1.0, shots=10**6, seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * 16 * peaks[0]

    def test_validation(self):
        inst = build_family(4)
        with pytest.raises(ValueError):
            iqp_sample(inst, 1.0, shots=0, seed=0)
        with pytest.raises(ValueError):
            iqp_sample(build_family(26), 1.0, shots=10, seed=0)

    @pytest.mark.parametrize("shots, error, match", [
        (1.5, TypeError, "shots must be an integer, got 1.5"),
        (True, TypeError, "shots must be an integer, got True"),
        (0, ValueError, "need shots >= 1, got 0"),
        (2**63, ValueError, r"shots 9223372036854775808 exceeds the limit 2\^63 - 1 = 9223372036854775807"),
    ])
    def test_shots_must_be_an_int64_count(self, shots, error, match):
        with pytest.raises(error, match=match):
            iqp_sample(build_family(4), 1.0, shots=shots, seed=0)

    @pytest.mark.parametrize("seed, error, match", [
        (-1, ValueError, "need seed >= 0, got -1"),
        (1.5, TypeError, "seed must be an integer, got 1.5"),
        (True, TypeError, "seed must be an integer, got True"),
    ])
    def test_seed_must_be_a_non_negative_integer(self, seed, error, match):
        with pytest.raises(error, match=match):
            iqp_sample(build_family(4), 1.0, shots=10, seed=seed)

    def test_numpy_integer_shots_and_seed_run(self):
        counts = iqp_sample(build_family(4), 1.0, shots=np.int64(10), seed=np.uint32(3))
        assert counts == iqp_sample(build_family(4), 1.0, shots=10, seed=3)

    def test_largest_shot_count_runs(self):
        counts = iqp_sample(build_family(4), 1.0, shots=MAX_SAMPLES, seed=0)
        assert sum(counts.values()) == MAX_SAMPLES

    def test_keys_match_reference_in_index_order(self):
        for n, beta, seed in ((4, 1.0, 0), (6, 0.4, 1), (8, math.inf, 2)):
            inst = build_family(n, e2={(1, n)})
            counts = iqp_sample(inst, beta, shots=3000, seed=seed)
            totals = np.random.default_rng(np.random.SeedSequence(seed)).multinomial(
                3000, exact_outcome_distribution(inst, beta))
            reference = outcome_counts_reference(totals, n)
            assert list(counts.items()) == list(reference.items())


class TestSharedDistribution:
    """A distribution array a caller still holds is the one both X-basis
    functions read for an equal spec and the same flip probability."""

    @given(family_members(), st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.0, 12.0)),
           st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_counts_do_not_depend_on_a_held_distribution(self, inst, beta, seed):
        assert not any(spec == inst for spec, _ in _DISTRIBUTIONS.keys())
        fresh = iqp_sample(inst, beta, shots=5000, seed=seed)
        dist = exact_outcome_distribution(inst, beta)
        held = iqp_sample(inst, beta, shots=5000, seed=seed)
        assert list(held.items()) == list(fresh.items())
        assert exact_outcome_distribution(inst, beta) is dist

    @pytest.mark.parametrize("n", [4, 8])
    def test_different_instances_never_share_an_array(self, n):
        base = build_family(n, e2={(1, 4)})
        held = exact_outcome_distribution(base, 1.0)
        before = held.copy()
        others = [exact_outcome_distribution(build_family(n, e2=e2), beta)
                  for e2, beta in (({(1, 4), (2, n)}, 1.0), (set(), 1.0), ({(1, 3)}, 1.0),
                                   ({(1, 4)}, 1.5), ({(1, 4)}, math.inf))]
        assert all(other is not held for other in others)
        assert len({id(other) for other in others}) == len(others)
        assert np.array_equal(held, before)
        # an equal spec built again, or a beta of the same p, shares the array
        assert exact_outcome_distribution(build_family(n, e2=[(1, 4)]), 1.0) is held
        assert flip_probability(400.0) == flip_probability(math.inf) == 0.0
        ideal = exact_outcome_distribution(base, math.inf)
        assert exact_outcome_distribution(base, 400.0) is ideal

    def test_array_is_read_only(self):
        dist = exact_outcome_distribution(build_family(6, e2={(2, 5)}), 0.7)
        assert not dist.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dist[0] = 1.0

    def test_registry_holds_nothing_the_caller_dropped(self):
        inst = build_family(6, e2={(2, 5)})
        iqp_sample(inst, 0.7, shots=100, seed=0)
        assert len(_DISTRIBUTIONS) == 0
        dist = exact_outcome_distribution(inst, 0.7)
        assert _DISTRIBUTIONS[inst, flip_probability(0.7)] is dist
        dropped = weakref.ref(dist)
        del dist
        assert dropped() is None
        assert len(_DISTRIBUTIONS) == 0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24), data=st.data())
def test_outcome_keys_match_per_index_formatter(n, data):
    """The array-built keys equal the per-index format(i, "0nb")[::-1]
    reference, entry for entry and in the same order."""
    size = 1 << n
    indices = data.draw(st.lists(st.integers(0, size - 1), max_size=40, unique=True))
    totals = np.zeros(size, np.int64)
    totals[indices] = data.draw(st.lists(st.integers(1, MAX_SAMPLES), min_size=len(indices),
                                         max_size=len(indices)))
    counts = _outcome_counts(totals, n)
    assert list(counts.items()) == list(outcome_counts_reference(totals, n).items())


@pytest.mark.parametrize("n", [1, 10, 16])
@pytest.mark.parametrize("density", ["every outcome", "every third outcome"])
@pytest.mark.parametrize("block", ["default", 7])
def test_outcome_counts_equal_the_reference_in_order(n, density, block, monkeypatch):
    """The keys numpy builds as n-character strings, in one block or many,
    give the Counter of the per-index formatter: the same keys and counts,
    in the same order."""
    if block != "default":
        monkeypatch.setattr(thermalverify.supremacy, "_KEY_BLOCK", block)
    totals = np.arange(1, (1 << n) + 1, dtype=np.int64)
    if density == "every third outcome":
        totals[np.arange(1 << n) % 3 != 0] = 0
    counts = _outcome_counts(totals, n)
    reference = outcome_counts_reference(totals, n)
    assert counts == reference
    assert list(counts.items()) == list(reference.items())
    assert {type(key) for key in counts} == {str}


class TestStatevectorCap:
    """Both X-basis functions work on one statevector, so they share its cap."""

    def test_peak_memory_at_twenty_sites(self):
        # one real statevector, transformed, squared and mixed in place: the
        # tracemalloc peak stays within 3.5 float64 statevectors (28 MiB)
        inst = build_family(20, e2={(1, 4), (2, 6)})
        limit = 3.5 * 8 * 2**20
        for run in (lambda: exact_outcome_distribution(inst, 1.0),
                    lambda: iqp_sample(inst, 1.0, shots=1000, seed=0)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit

    def test_sampling_from_a_held_distribution_at_twenty_sites(self):
        # the draw reads the caller's array: the peak is the multinomial
        # totals and the keys, within 1.5 float64 statevectors (12 MiB)
        inst = build_family(20, e2={(1, 4), (2, 6)})
        dist = exact_outcome_distribution(inst, 1.0)
        tracemalloc.start()
        try:
            counts = iqp_sample(inst, 1.0, shots=1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(counts.values()) == 1000 and exact_outcome_distribution(inst, 1.0) is dist
        assert peak <= 1.5 * 8 * 2**20

    def test_fourteen_sites_run(self):
        inst = build_family(14)
        dist = exact_outcome_distribution(inst, 0.7)
        assert dist.shape == (1 << 14,) and dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert sum(iqp_sample(inst, 0.7, shots=1000, seed=0).values()) == 1000

    def test_results_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the Kronecker passes are GEMMs, so the sampling path runs through
        # BLAS: one and two OpenBLAS threads must give the same bytes and counts
        child = (
            "import json, sys\n"
            "from thermalverify import build_family, exact_outcome_distribution, iqp_sample\n"
            "inst = build_family(14, e2={(1, 4), (2, 6)})\n"
            "exact_outcome_distribution(inst, 0.7).tofile(sys.argv[1])\n"
            "print(json.dumps(sorted(iqp_sample(inst, 0.7, shots=10**6, seed=3).items())))\n"
        )
        package_root = str(Path(thermalverify.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"dist{threads}.bin"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": package_root}
            done = subprocess.run([sys.executable, "-c", child, str(out)], env=env,
                                  capture_output=True, text=True, timeout=300, check=True)
            runs.append((out.read_bytes(), json.loads(done.stdout)))
        assert len(runs[0][0]) == 8 << 14 and sum(c for _, c in runs[0][1]) == 10**6
        assert runs[0] == runs[1]

    def test_above_cap_raises(self):
        inst = build_family(26)
        with pytest.raises(ValueError, match=f"n <= {MAX_STATEVECTOR_N}"):
            exact_outcome_distribution(inst, 0.7)
        with pytest.raises(ValueError, match=f"n <= {MAX_STATEVECTOR_N}"):
            iqp_sample(inst, 0.7, shots=10, seed=0)


def test_reduced_setting_expectation_matches_half_weight_closed_form():
    """On the restricted family the single setting behaves exactly like a
    half-weight graph setting: its dense thermal expectation equals the
    closed form, e2 dressing included."""
    from thermalverify import half_weight_expectation

    for n, e2 in ((4, frozenset()), (6, frozenset({(1, 2)})),
                  (8, frozenset({(2, 5), (1, 8)}))):
        inst = build_family(n, e2=e2)
        word = optimal_setting(inst)
        for beta in (0.3, 0.8, 2.0):
            rho = thermal_density(inst, beta)
            assert dense_expectation(rho, word) == pytest.approx(
                half_weight_expectation(n, beta), abs=1e-10)


def test_end_to_end_small_scale_pipeline():
    """Family construction -> setting reduction -> protocol -> decision."""
    inst = build_family(12)
    setting = optimal_setting(inst)
    config = ProtocolConfig(epsilon=0.01, delta=0.05, n_samples=50_000, seed=31)
    report = run_protocol(inst, setting, math.inf, config)
    assert report.f_est == 1.0
    decision = certify(report.f_est, 12, allow_small_n=True)
    assert decision.verdict == "reject"  # correct: 2/n dominates at small n
    assert decision.tvd_bound == pytest.approx(
        2 * math.sqrt(1 + 1e-6 - (1.0 - 2 / 12)), abs=1e-12)
