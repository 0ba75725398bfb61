import json
import math
import time
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermalverify import (HypergraphSpec, PauliString, ProtocolConfig, VerificationReport,
                           build_pure_state, check_error_bound, flip_probability,
                           minus_probability, ring_graph, run_protocol, sample_size,
                           setting_expectation, stabilizer_product)
from thermalverify import sampler
from thermalverify.sampler import MAX_SAMPLES
from util_dense import (StabilizerProduct, from_letters, measure_outcome, path_graph,
                        sample_error_pattern)
from util_oracle import dense_expectation, thermal_density

BETA_HALF = math.log(2) / 2


class TestSampleErrorPattern:
    def test_zero_probability_gives_empty_pattern(self):
        rng = np.random.default_rng(0)
        assert all(sample_error_pattern(8, 0.0, rng) == 0 for _ in range(100))

    def test_deterministic_given_seed(self):
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        seq1 = [sample_error_pattern(12, 0.3, rng1) for _ in range(50)]
        seq2 = [sample_error_pattern(12, 0.3, rng2) for _ in range(50)]
        assert seq1 == seq2

    def test_marginal_rate(self):
        rng = np.random.default_rng(1)
        n, p = 10, 1 / 3
        draws = 10_000
        ones = sum(bin(sample_error_pattern(n, p, rng)).count("1") for _ in range(draws))
        total = n * draws
        sigma = math.sqrt(total * p * (1 - p))
        assert abs(ones - total * p) <= 5 * sigma

    def test_probability_validated(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_error_pattern(4, 0.51, rng)
        sample_error_pattern(4, 0.5, rng)  # infinite temperature is legal


class TestMeasureOutcome:
    def test_no_errors_always_plus(self):
        g = path_graph(4)
        for selector in range(16):
            bits = [(selector >> b) & 1 for b in range(4)]
            assert measure_outcome(0, stabilizer_product(g, bits)) == 1

    def test_overlap_parities(self):
        g = path_graph(4)
        setting = stabilizer_product(g, "1100")  # X/Y on sites 1, 2
        assert measure_outcome(0b0101, setting) == -1  # errors on {1, 3}: overlap 1
        assert measure_outcome(0b0011, setting) == 1   # errors on {1, 2}: overlap 2

    def test_pattern_validated(self):
        setting = from_letters("XX")
        with pytest.raises(ValueError):
            measure_outcome(0b100, setting)

    def test_matches_dense_eigenvalue_sign(self):
        """The parity rule reproduces <psi_e|S|psi_e> for every pattern and
        every setting (the error-conjugated state stays an eigenstate)."""
        for n in (2, 3, 4, 5):
            g = ring_graph(n) if n >= 3 else HypergraphSpec(2, e2={(1, 2)})
            psi = build_pure_state(g)
            idx = np.arange(1 << n)
            for selector in range(1 << n):
                bits = [(selector >> b) & 1 for b in range(n)]
                setting = stabilizer_product(g, bits)
                from util_dense import apply_operator

                for pattern in range(1 << n):
                    signs = np.where((np.bitwise_count(idx & pattern) & 1) == 1, -1.0, 1.0)
                    flipped = signs * psi
                    eig = np.real(np.vdot(flipped, apply_operator(setting, flipped)))
                    assert round(eig) == measure_outcome(pattern, setting)


class TestRunProtocol:
    def test_zero_temperature_estimate_is_exact(self):
        g = ring_graph(6)
        setting = stabilizer_product(g, "111000")
        config = ProtocolConfig(epsilon=0.1, delta=0.1, n_samples=500, seed=2)
        report = run_protocol(g, setting, math.inf, config)
        assert report.f_est == 1.0
        assert report.plus_count == 500 and report.minus_count == 0

    def test_converges_to_closed_form(self):
        g = path_graph(4)
        setting = stabilizer_product(g, "1100")
        config = ProtocolConfig(epsilon=0.01, delta=0.05, n_samples=10**6, seed=11)
        report = run_protocol(g, setting, BETA_HALF, config)
        assert abs(report.f_est - 1 / 9) <= 3e-3

    def test_deterministic_serialized_report(self):
        g = path_graph(4)
        setting = stabilizer_product(g, "1100")
        config = ProtocolConfig(epsilon=0.05, delta=0.05, n_samples=20_000, seed=77)
        first = run_protocol(g, setting, 0.8, config).to_dict()
        second = run_protocol(g, setting, 0.8, config).to_dict()
        assert first == second

    def test_same_seed_reproducible(self):
        g = path_graph(6)
        setting = stabilizer_product(g, "111000")
        config = ProtocolConfig(epsilon=0.05, delta=0.05, n_samples=30_000, seed=13)
        a = run_protocol(g, setting, 0.5, config)
        b = run_protocol(g, setting, 0.5, config)
        assert a.to_dict() == b.to_dict()
        assert a.plus_count + a.minus_count == 30_000

    def test_paper_sample_budget(self):
        # ~1.06e13 shots on a 4000-site word with X on sites 1..2000
        n, wt, beta = 4000, 2000, 16.0
        setting = from_letters("X" * wt + "I" * (n - wt))
        config = ProtocolConfig(epsilon=1e-6, delta=1e-2)
        start = time.perf_counter()
        report = run_protocol(HypergraphSpec(n), setting, beta, config)
        elapsed = time.perf_counter() - start
        assert report.n_samples == 10_596_634_733_097
        # each shot reads -1 with probability (1 - (1 - 2p)^wt) / 2
        q = -0.5 * math.expm1(wt * math.log1p(-2.0 * flip_probability(beta)))
        expected = report.n_samples * q
        assert 200 < expected < 350
        assert abs(report.minus_count - expected) <= 6 * math.sqrt(expected)
        assert elapsed < 1.0

    def test_identity_setting_always_plus_one(self):
        g = path_graph(4)
        config = ProtocolConfig(epsilon=0.1, delta=0.1, n_samples=300, seed=6)
        report = run_protocol(g, stabilizer_product(g, "0000"), 0.4, config)
        assert report.f_est == 1.0  # weight-0 word never sees an error

    def test_tiny_sample_budgets(self):
        g = path_graph(4)
        setting = stabilizer_product(g, "1100")
        for n_samples in (1, 2, 3):
            config = ProtocolConfig(epsilon=0.5, delta=0.5, n_samples=n_samples, seed=0)
            report = run_protocol(g, setting, 0.4, config)
            assert report.plus_count + report.minus_count == n_samples

    def test_infinite_temperature_runs(self):
        g = path_graph(4)
        setting = stabilizer_product(g, "1100")
        config = ProtocolConfig(epsilon=0.05, delta=0.1, n_samples=100_000, seed=12)
        report = run_protocol(g, setting, 0.0, config)
        assert abs(report.f_est) <= 0.02  # expectation vanishes at p = 1/2

    def test_counts_and_range_invariants(self):
        g = ring_graph(5)
        setting = stabilizer_product(g, "11000")
        for seed in range(5):
            config = ProtocolConfig(epsilon=0.2, delta=0.2, n_samples=997, seed=seed)
            report = run_protocol(g, setting, 0.3, config)
            assert report.plus_count + report.minus_count == report.n_samples
            assert -1.0 <= report.f_est <= 1.0
            assert report.f_est == (report.plus_count - report.minus_count) / 997

    def test_negative_sign_setting_still_stabilizes(self):
        # the half-weight word on the 10-ring carries sign -1 in the letter
        # convention yet stabilizes |G>, so T = 0 outcomes are all +1
        g = ring_graph(10)
        setting = stabilizer_product(g, "1111100000")
        assert setting.sign == -1
        psi = build_pure_state(g)
        from util_dense import stabilizer_check

        assert stabilizer_check(psi, setting)
        config = ProtocolConfig(epsilon=0.1, delta=0.1, n_samples=200, seed=4)
        assert run_protocol(g, setting, math.inf, config).f_est == 1.0

    def test_unbiased_single_samples(self):
        g = path_graph(4)
        setting = stabilizer_product(g, "1100")
        beta = 0.6
        runs = 10_000
        total = 0
        for seed in range(runs):
            config = ProtocolConfig(epsilon=0.5, delta=0.5, n_samples=1, seed=seed)
            total += run_protocol(g, setting, beta, config).f_est
        mean = total / runs
        target = setting_expectation(4, 2, beta)
        stderr = 1.0 / math.sqrt(runs)
        assert abs(mean - target) <= 5 * stderr

    def test_expectation_matches_dense_oracle_statistically(self):
        g = path_graph(5)
        beta = 0.7
        rho = thermal_density(g, beta)
        setting = stabilizer_product(g, "10110")
        exact = dense_expectation(rho, setting)
        config = ProtocolConfig(epsilon=0.02, delta=0.05, n_samples=200_000, seed=21)
        report = run_protocol(g, setting, beta, config)
        assert abs(report.f_est - exact) <= 5 / math.sqrt(200_000)

    def test_non_pauli_setting_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="Pauli word"):
            run_protocol(g, StabilizerProduct(3), 0.5,
                         ProtocolConfig(0.1, 0.1, 10, 0))

    def test_size_mismatch_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            run_protocol(g, PauliString(4), 0.5, ProtocolConfig(0.1, 0.1, 10, 0))

    def test_bound_report_only_for_even_n(self):
        g = path_graph(3)
        setting = stabilizer_product(g, "110")
        report = run_protocol(g, setting, 0.5, ProtocolConfig(0.1, 0.1, 10, 0))
        assert report.bound_report is None


class TestSampleBudgetLimit:
    def test_int64_budget_runs(self):
        config = ProtocolConfig(epsilon=0.1, delta=0.1, n_samples=MAX_SAMPLES)
        report = run_protocol(path_graph(4), stabilizer_product(path_graph(4), "1100"),
                              3.0, config)
        assert report.n_samples == MAX_SAMPLES == 2**63 - 1

    def test_explicit_budget_beyond_int64_rejected(self):
        for n_samples in (2**63, 10**20):
            with pytest.raises(ValueError, match=r"exceeds the limit 2\^63 - 1"):
                ProtocolConfig(epsilon=0.1, delta=0.1, n_samples=n_samples)

    def test_derived_budget_beyond_int64_rejected(self):
        assert sample_size(1e-12, 1e-2) > MAX_SAMPLES
        with pytest.raises(ValueError, match=r"exceeds the limit 2\^63 - 1"):
            ProtocolConfig(epsilon=1e-12, delta=1e-2)
        with pytest.raises(ValueError, match="overflows a float"):
            ProtocolConfig(epsilon=1e-170, delta=1e-2)


class TestReportSerialization:
    def test_zero_temperature_report_dict(self):
        g = ring_graph(4)
        config = ProtocolConfig(epsilon=0.25, delta=0.1, n_samples=100, seed=2)
        report = run_protocol(g, stabilizer_product(g, "1100"), math.inf, config)
        assert report.to_dict() == {
            "f_est": 1.0, "n_samples": 100, "plus_count": 100, "minus_count": 0,
            "setting": "+YYZZ", "beta_used": {"beta": math.inf, "p_flip": 0.0},
            "bound_report": {"fine_bound": 0.25, "coarse_bound": 0.75,
                             "union_bound": 1.0, "leading_coefficient": 0},
            "epsilon": 0.25, "delta": 0.1, "seed": 2,
        }

    def test_odd_n_report_dict_has_no_bounds(self):
        g = path_graph(3)
        report = run_protocol(g, stabilizer_product(g, "110"), 0.5,
                              ProtocolConfig(0.1, 0.1, 10, 0))
        assert report.to_dict() == {
            "f_est": 0.2, "n_samples": 10, "plus_count": 6, "minus_count": 4,
            "setting": "+YYZ", "beta_used": {"beta": 0.5, "p_flip": flip_probability(0.5)},
            "bound_report": None, "epsilon": 0.1, "delta": 0.1, "seed": 0,
        }

    def test_mutating_the_dict_leaves_the_report_unchanged(self):
        g = ring_graph(4)
        report = run_protocol(g, stabilizer_product(g, "1100"), 1.0,
                              ProtocolConfig(0.1, 0.1, 50, 3))
        before = report.to_dict()
        doc = report.to_dict()
        doc["f_est"] = -7.0
        doc["beta_used"]["beta"] = -7.0
        doc["bound_report"]["fine_bound"] = -7.0
        assert report.to_dict() == before
        assert report.bound_report.fine_bound == before["bound_report"]["fine_bound"]
        assert report.beta_used == 1.0


REPORT_KEYS = ["f_est", "n_samples", "plus_count", "minus_count", "setting", "beta_used",
               "bound_report", "epsilon", "delta", "seed"]
WORD = stabilizer_product(ring_graph(4), "1100")


class TestReportStoresTheDraw:
    """A report holds the word, the shot count and the -1 count; f_est, the
    +1 count, the letters and the bounds are derived on each read."""

    def test_report_fields_are_the_draw(self):
        assert [field.name for field in fields(VerificationReport)] == [
            "word", "n_samples", "minus_count", "beta_used", "epsilon", "delta", "seed"]

    @pytest.mark.parametrize("read", [lambda report: report.setting,
                                      lambda report: report.to_dict()["setting"]])
    def test_a_run_spells_no_word_and_evaluates_no_bound(self, monkeypatch, read):
        spelled, bounded = [], []
        spell, bounds = PauliString.__str__, sampler.error_bounds
        monkeypatch.setattr(PauliString, "__str__", lambda word: spelled.append(1) or spell(word))
        monkeypatch.setattr(sampler, "error_bounds",
                            lambda *args, **kwargs: bounded.append(1) or bounds(*args, **kwargs))
        report = run_protocol(ring_graph(4), WORD, 1.0, ProtocolConfig(0.1, 0.1, 50, 3))
        assert (spelled, bounded) == ([], [])
        assert read(report) == "+YYZZ" and spelled == [1]
        spelled.clear(), bounded.clear()
        assert report.to_dict()["setting"] == "+YYZZ"
        assert (spelled, bounded) == ([1], [1])

    def test_reading_every_view_stores_nothing(self):
        report = run_protocol(ring_graph(4), WORD, 1.0, ProtocolConfig(0.1, 0.1, 50, 3))
        views = (report.f_est, report.plus_count, report.setting, report.bound_report,
                 report.to_dict())
        assert all(view is not None for view in views)
        assert list(vars(report)) == [field.name for field in fields(VerificationReport)]

    def test_repr_names_the_draw_at_any_n(self):
        n = 20_000
        spec = HypergraphSpec(n)
        report = run_protocol(spec, stabilizer_product(spec, "01" * (n // 2)), math.inf,
                              ProtocolConfig(0.1, 0.1, 10, 0))
        assert repr(report).startswith(f"VerificationReport(word=PauliString(n={n}, sign=1, ")
        assert repr(report).endswith(
            "n_samples=10, minus_count=0, beta_used=inf, epsilon=0.1, delta=0.1, seed=0)")

    @given(st.integers(1, MAX_SAMPLES), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_estimate_and_plus_count_follow_from_the_counts(self, total, pick):
        minus = (0, 1, total // 2, total - 1, total)[pick]
        report = VerificationReport(word=WORD, n_samples=total, minus_count=minus,
                                    beta_used=1.0, epsilon=0.1, delta=0.1, seed=0)
        exact = Fraction(total - 2 * minus, total)
        assert report.f_est == (total - 2 * minus) / total == float(exact)
        assert report.plus_count == total - minus
        doc = report.to_dict()
        assert list(doc) == REPORT_KEYS
        assert (doc["f_est"], doc["plus_count"], doc["minus_count"]) == (
            report.f_est, total - minus, minus)


class TestPaperScaleDraw:
    """The mean -1 rate of many seeded runs at n = 4e6 and the default
    budget matches the closed form. Seeds and the |z| <= 5 bound were fixed
    before the first run."""

    SEEDS = range(400)

    @pytest.mark.parametrize("beta", [8.0, 13.757])
    def test_mean_minus_rate_matches_the_closed_form(self, beta):
        n = 4_000_000
        spec = HypergraphSpec(n)
        word = stabilizer_product(spec, "01" * (n // 2))
        assert word.xy_support == n // 2
        start = time.perf_counter()
        reports = [run_protocol(spec, word, beta, ProtocolConfig(1e-6, 1e-2, seed=seed))
                   for seed in self.SEEDS]
        elapsed = time.perf_counter() - start
        total = reports[0].n_samples
        assert total == 10_596_634_733_097
        q = minus_probability(n, n // 2, beta)
        mean = sum(report.minus_count for report in reports) / (total * len(self.SEEDS))
        z = (mean - q) / math.sqrt(q * (1 - q) / (total * len(self.SEEDS)))
        assert abs(z) <= 5, (beta, q, mean, z)
        assert elapsed < 5.0  # a run that spelled the 4e6-letter word took about 25 ms


class TestCheckErrorBound:
    def test_zero_temperature_always_passes(self):
        g = ring_graph(6)
        setting = stabilizer_product(g, "111000")
        from thermalverify import fidelity

        config = ProtocolConfig(epsilon=0.05, delta=0.05, n_samples=2000, seed=1)
        report = run_protocol(g, setting, math.inf, config)
        assert check_error_bound(report, fidelity(6, math.inf))

    def test_single_sample_may_fail_but_evaluates(self):
        g = ring_graph(6)
        setting = stabilizer_product(g, "111000")
        from thermalverify import fidelity

        config = ProtocolConfig(epsilon=0.01, delta=0.05, n_samples=1, seed=0)
        report = run_protocol(g, setting, 0.2, config)
        result = check_error_bound(report, fidelity(6, 0.2))
        assert result in (True, False)

    def test_requires_bound_report(self):
        g = path_graph(3)
        setting = stabilizer_product(g, "110")
        report = run_protocol(g, setting, 0.5, ProtocolConfig(0.1, 0.1, 10, 0))
        with pytest.raises(ValueError):
            check_error_bound(report, 0.5)


class TestProtocolConfig:
    def test_resolves_sample_budget(self):
        config = ProtocolConfig(epsilon=0.02, delta=0.05)
        assert config.resolved_samples() == sample_size(0.02, 0.05) == 18445
        assert ProtocolConfig(0.02, 0.05, n_samples=99).resolved_samples() == 99

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(epsilon=0.0, delta=0.5)
        with pytest.raises(ValueError):
            ProtocolConfig(epsilon=0.5, delta=1.0)
        with pytest.raises(ValueError):
            ProtocolConfig(epsilon=0.5, delta=0.5, n_samples=0)

    @pytest.mark.parametrize("kwargs, error, match", [
        ({"n_samples": 1.5}, TypeError, "n_samples must be an integer, got 1.5"),
        ({"n_samples": True}, TypeError, "n_samples must be an integer, got True"),
        ({"seed": -1}, ValueError, "need seed >= 0, got -1"),
        ({"seed": 2.0}, TypeError, "seed must be an integer, got 2.0"),
        ({"seed": False}, TypeError, "seed must be an integer, got False"),
    ])
    def test_budget_and_seed_are_integers(self, kwargs, error, match):
        with pytest.raises(error, match=match):
            ProtocolConfig(epsilon=0.1, delta=0.1, **kwargs)

    def test_numpy_integer_budget_and_seed_pass(self):
        config = ProtocolConfig(0.1, 0.1, n_samples=np.int64(10), seed=np.int32(4))
        assert config.resolved_samples() == 10 and config.seed == 4
        g = ring_graph(4)
        setting = stabilizer_product(g, "1100")
        doc = run_protocol(g, setting, 1.0, config).to_dict()
        assert doc == run_protocol(g, setting, 1.0, ProtocolConfig(0.1, 0.1, 10, 4)).to_dict()
        assert json.loads(json.dumps(doc)) == doc
