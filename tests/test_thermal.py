import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from thermalverify import (BoundReport, HypergraphSpec, ProtocolConfig, beta_from_temperature,
                           certify, deviation_leading_order, error_bounds, fidelity,
                           flip_probability, half_weight_expectation,
                           invert_temperature, minus_probability, ring_graph,
                           run_protocol, sample_size, setting_expectation,
                           stabilizer_product, union_bound)
from thermalverify.cli import _dumps
from thermalverify.thermal import _check_beta
from util_dense import (exact_setting_expectation, exhaustive_parity_expectation,
                        tanh_power_reference)

BETA_HALF = math.log(2) / 2  # exp(-2*beta) = 1/2


class TestFlipProbability:
    def test_limits(self):
        assert flip_probability(math.inf) == 0.0
        assert flip_probability(0.0) == 0.5
        assert flip_probability(BETA_HALF) == pytest.approx(1 / 3, abs=1e-15)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 6.0, 200)
        values = [flip_probability(b) for b in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 0.5 for v in values)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            flip_probability(-0.1)


class TestFidelity:
    def test_values(self):
        assert fidelity(7, math.inf) == 1.0
        assert fidelity(4, BETA_HALF) == pytest.approx(16 / 81, abs=1e-15)
        assert fidelity(1, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            fidelity(0, 1.0)


class TestSettingExpectation:
    def test_weight_zero_is_one(self):
        for n in (1, 4, 17):
            for beta in (0.0, 0.3, 2.0, math.inf):
                assert setting_expectation(n, 0, beta) == 1.0

    def test_known_value(self):
        assert setting_expectation(4, 2, BETA_HALF) == pytest.approx(1 / 9, abs=1e-14)

    def test_matches_exhaustive_parity_model(self):
        for n in range(1, 9):
            for beta in (0.2, 0.7, 1.5):
                p = flip_probability(beta)
                for wt in range(n + 1):
                    support = (1 << wt) - 1
                    brute = exhaustive_parity_expectation(n, support, p)
                    assert setting_expectation(n, wt, beta) == pytest.approx(brute, abs=1e-12)

    def test_matches_independent_bit_product(self):
        # each X/Y site contributes an independent factor 1 - 2p
        for n in (129, 600, 1024):
            for beta in (0.1, 1.0):
                p = flip_probability(beta)
                for wt in (0, 1, n // 2, n):
                    expected = (1.0 - 2.0 * p) ** wt
                    assert setting_expectation(n, wt, beta) == pytest.approx(expected, abs=1e-11)

    def test_size_cap(self):
        # no cap on n; only the site count and the weight are validated
        assert 0.0 < setting_expectation(400_000, 1, 1.0) <= 1.0
        with pytest.raises(ValueError):
            setting_expectation(0, 0, 1.0)
        with pytest.raises(ValueError):
            setting_expectation(4, 5, 1.0)

    @given(st.integers(1, 200).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n))),
           st.floats(0.05, 12.0))
    def test_matches_exact_bracket_sum(self, size_weight, beta):
        n, wt = size_weight
        exact = exact_setting_expectation(n, wt, beta)
        assume(exact > Fraction(1e-300))
        error = abs(Fraction(setting_expectation(n, wt, beta)) - exact)
        assert error <= Fraction(1e-12) * exact

    def test_cancellation_case_stays_positive(self):
        # the bracket terms cancel to ~1e-86 here; the value must not go negative
        exact = float(exact_setting_expectation(512, 256, 0.5))
        assert setting_expectation(512, 256, 0.5) == pytest.approx(exact, rel=1e-12)

    def test_paper_scale_stays_below_one(self):
        # tanh(21) rounds to 1.0, but the mean is 1 - 2.3e-13
        value = setting_expectation(400_000, 200_000, 21.0)
        assert value < 1.0
        assert 1.0 - value == pytest.approx(4e5 * math.exp(-42.0), rel=1e-3)


class TestMinusProbability:
    def test_half_of_one_minus_expectation(self):
        for n, wt, beta in ((4, 2, BETA_HALF), (10, 3, 0.7), (50, 50, 2.0)):
            expected = (1.0 - setting_expectation(n, wt, beta)) / 2.0
            assert minus_probability(n, wt, beta) == pytest.approx(expected, abs=1e-15)

    def test_limits(self):
        assert minus_probability(6, 3, math.inf) == 0.0
        assert minus_probability(6, 0, 0.0) == 0.0
        assert minus_probability(6, 3, 0.0) == 0.5

    def test_keeps_deficit_below_float_resolution_of_the_mean(self):
        # 1 - E is far below an ulp of 1 here; q must still be nonzero
        q = minus_probability(4000, 2000, 30.0)
        assert q == pytest.approx(2000 * math.exp(-60.0), rel=1e-9)


class TestHalfWeightExpectation:
    def test_limits(self):
        assert half_weight_expectation(10, math.inf) == 1.0
        assert half_weight_expectation(4, BETA_HALF) == pytest.approx(1 / 9, abs=1e-15)
        assert half_weight_expectation(8, 0.0) == 0.0

    def test_specializes_general_formula(self):
        for n in range(2, 42, 2):
            for beta in np.linspace(0.05, 5.0, 23):
                assert abs(half_weight_expectation(n, beta)
                           - setting_expectation(n, n // 2, beta)) <= 1e-12

    def test_monotone_in_temperature(self):
        assert half_weight_expectation(50, 1.0) > half_weight_expectation(50, 0.5)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            half_weight_expectation(5, 1.0)


class TestRelativePrecision:
    """The three closed forms built on log tanh(beta), against 80-digit
    decimal arithmetic, on both sides of the switch at beta = 1/8."""

    @given(st.one_of(st.floats(1e-300, 40.0), st.floats(-300.0, 1.6).map(lambda e: 10.0 ** e)),
           st.integers(1, 100))
    @settings(max_examples=400, deadline=None)
    def test_within_a_few_ulps_per_unit_of_log_mean(self, beta, wt):
        n = 2 * wt
        exact = tanh_power_reference(beta, wt)
        mean, half = setting_expectation(n, wt, beta), half_weight_expectation(n, beta)
        if exact < Decimal("1e-300"):  # beyond the normal floats: must underflow
            assert mean <= 1e-300 and half <= 1e-300
            return
        # exp(log E) carries the rounding of log E, about |log E| ulps
        bound = Decimal(4 * sys.float_info.epsilon * (1.0 + abs(float(exact.ln()))))
        for got, want in ((mean, exact), (half, exact),
                          (minus_probability(n, wt, beta), (1 - exact) / 2)):
            assert abs(Decimal(got) - want) <= bound * want, (got, want)

    @pytest.mark.parametrize("beta", [1e-10, 1e-15, 1e-17, 5e-324])
    def test_tiny_beta_keeps_tanh(self, beta):
        for got in (setting_expectation(2, 1, beta), half_weight_expectation(2, beta)):
            assert abs(got - math.tanh(beta)) <= 1e-14 * math.tanh(beta)


class TestBounds:
    def test_zero_temperature_bound_is_epsilon(self):
        report = error_bounds(6, math.inf, 0.25)
        assert report.fine_bound == 0.25
        assert report.coarse_bound == pytest.approx(2 / 6 + 0.25)

    def test_known_value(self):
        report = error_bounds(4, BETA_HALF, 0.0)
        assert report.fine_bound == pytest.approx(8 / 81, abs=1e-15)
        gap = fidelity(4, BETA_HALF) - half_weight_expectation(4, BETA_HALF)
        assert gap == pytest.approx(7 / 81, abs=1e-15)
        assert gap <= report.fine_bound

    def test_fine_below_coarse_on_grid(self):
        for n in range(4, 41, 2):
            for beta in np.linspace(0.05, 5.0, 21):
                report = error_bounds(n, beta, 0.1)
                assert report.fine_bound <= report.coarse_bound + 1e-15

    def test_leading_coefficient(self):
        assert error_bounds(10, 1.0, 0.0).leading_coefficient == 0
        assert error_bounds(10, 1.0, 0.0, wt=2).leading_coefficient == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            error_bounds(5, 1.0, 0.1)
        with pytest.raises(ValueError):
            error_bounds(2, 1.0, 0.1)
        with pytest.raises(ValueError):
            error_bounds(4, 1.0, math.nextafter(1.0, 2.0))

    def test_epsilon_one_has_bounds(self):
        # ProtocolConfig takes 0 < epsilon <= 1, so error_bounds takes 1 too
        config = ProtocolConfig(epsilon=1.0, delta=0.5)
        assert error_bounds(12, 1.0, config.epsilon).coarse_bound == pytest.approx(2 / 12 + 1)

    def test_report_type(self):
        assert isinstance(error_bounds(4, 1.0, 0.1), BoundReport)


class TestDeviationLeadingOrder:
    def test_balanced_weight_vanishes(self):
        assert deviation_leading_order(12, 6, 0.9) == 0.0

    def test_symmetry(self):
        assert deviation_leading_order(12, 0, 1.3) == deviation_leading_order(12, 12, 1.3)

    def test_predicts_deviation_to_second_order(self):
        t = 1e-3
        beta = -math.log(t) / 2
        for wt in (0, 3, 12):
            actual = abs(setting_expectation(12, wt, beta) - fidelity(12, beta))
            predicted = deviation_leading_order(12, wt, beta)
            assert abs(actual - predicted) <= 144 * t * t

    def test_residual_ratio_stays_bounded_on_decreasing_grid(self):
        # | |E - F| - leading | / x^2 remains below n^2 as x -> 0
        n = 10
        for t in (1e-2, 1e-3, 1e-4, 1e-5):
            beta = -math.log(t) / 2
            truth = fidelity(n, beta)
            for wt in (0, 2, 5, 9):
                residual = abs(abs(setting_expectation(n, wt, beta) - truth)
                               - deviation_leading_order(n, wt, beta))
                assert residual / (t * t) <= n * n


class TestUnionBound:
    def test_values(self):
        assert union_bound(50, math.inf) == 1.0
        beta = -math.log(0.01 / 0.99) / 2  # p = 0.01
        assert union_bound(50, beta) == pytest.approx(0.5, abs=1e-12)
        assert union_bound(100, beta) == pytest.approx(0.0, abs=1e-12)
        assert fidelity(100, beta) - half_weight_expectation(100, beta) <= 0.02

    def test_below_fidelity_everywhere(self):
        for n in (1, 10, 100):
            for beta in np.linspace(0.0, 5.0, 40):
                assert union_bound(n, beta) <= fidelity(n, beta) + 1e-12


class TestSampleSize:
    def test_values(self):
        assert sample_size(0.02, 0.05) == 18445
        assert sample_size(1.0, 2 / math.e**2) == 4
        full_scale = sample_size(1e-6, 1e-2)
        assert full_scale == math.ceil(2e12 * math.log(200.0))
        assert full_scale <= 1.06e13

    def test_validation(self):
        for eps, delta in ((0.0, 0.1), (1.5, 0.1), (0.1, 0.0), (0.1, 1.0)):
            with pytest.raises(ValueError):
                sample_size(eps, delta)

    def test_budget_past_the_float_range_is_a_named_error(self):
        # 2/eps^2 overflows to inf at eps = 1e-160 and eps^2 underflows to
        # 0 at eps = 1e-170
        for eps in (1e-160, 1e-170):
            with pytest.raises(ValueError, match="overflows a float"):
                sample_size(eps, 1e-2)


class TestInvertTemperature:
    def test_perfect_observation_is_zero_temperature(self):
        assert invert_temperature(10, 1.0) == math.inf
        assert invert_temperature(10, 1.0, from_fidelity=True) == math.inf

    def test_known_value(self):
        assert invert_temperature(4, 1 / 9) == pytest.approx(BETA_HALF, abs=1e-9)

    def test_round_trip(self):
        for n in (10, 50):
            for beta in (0.1, 0.5, 1.0, 2.0, 3.0):
                recovered = invert_temperature(n, half_weight_expectation(n, beta))
                assert abs(recovered - beta) <= 1e-6

    @given(st.integers(1, 200), st.floats(0.01, 10.0))
    def test_round_trip_property(self, half_n, beta):
        observed = half_weight_expectation(2 * half_n, beta)
        assume(observed > 1e-300)
        assert abs(invert_temperature(2 * half_n, observed) - beta) <= 1e-6

    def test_fidelity_round_trip(self):
        for n in (5, 12):
            for beta in (0.2, 1.0, 2.5):
                recovered = invert_temperature(n, fidelity(n, beta), from_fidelity=True)
                assert abs(recovered - beta) <= 1e-9

    def test_fidelity_floor_is_exactly_zero(self):
        # expm1(-log(floor)/n) rounds to just under 1 at some n (51, 95,
        # 102, ...), which used to leave beta = 1.1e-16 instead of 0
        for n in range(1, 201):
            beta = invert_temperature(n, fidelity(n, 0.0), from_fidelity=True)
            assert beta == 0.0 and math.copysign(1.0, beta) == 1.0, n

    def test_validation(self):
        with pytest.raises(ValueError):
            invert_temperature(10, 0.0)
        with pytest.raises(ValueError):
            invert_temperature(10, 1.2)
        with pytest.raises(ValueError):
            invert_temperature(5, 0.5)  # odd n in expectation mode
        with pytest.raises(ValueError):
            invert_temperature(4, fidelity(4, 0.0) / 2, from_fidelity=True)

    def test_sites_checked_before_the_perfect_observation(self):
        for n in (-5, 0, 1, 3):
            for observed in (1.0, 0.5):
                with pytest.raises(ValueError, match="requires even n >= 2, got"):
                    invert_temperature(n, observed)
        for n in (-5, 0):
            with pytest.raises(ValueError, match="need n >= 1"):
                invert_temperature(n, 1.0, from_fidelity=True)
        assert invert_temperature(3, 1.0, from_fidelity=True) == math.inf


class TestThermalParams:
    """The thermal parameters carried by one float beta: its flip
    probability, its temperature with the T = 0 sentinel math.inf, and that
    sentinel's spelling in JSON."""

    def test_derived_fields(self):
        assert flip_probability(BETA_HALF) == pytest.approx(1 / 3, abs=1e-15)
        assert beta_from_temperature(1 / BETA_HALF) == pytest.approx(BETA_HALF)

    def test_from_temperature(self):
        assert _check_beta(beta_from_temperature(0.0)) == math.inf
        assert _check_beta(beta_from_temperature(2.0)) == 0.5
        with pytest.raises(ValueError, match="temperature must be >= 0, got -1.0"):
            beta_from_temperature(-1.0)
        for beta in (-1.0, math.nan):
            with pytest.raises(ValueError, match="inverse temperature must be >= 0"):
                _check_beta(beta)

    def test_serialization_uses_infinity_token(self):
        g = ring_graph(4)
        report = run_protocol(g, stabilizer_product(g, "1100"), math.inf,
                              ProtocolConfig(0.25, 0.1, 100, 2))
        assert report.to_dict()["beta_used"] == {"beta": math.inf, "p_flip": 0.0}
        encoded = json.loads(_dumps(report.to_dict()))["beta_used"]
        assert encoded == {"beta": "infinity", "p_flip": 0.0}

    def test_beta_from_temperature_matches(self):
        assert beta_from_temperature(0.0) == math.inf
        assert beta_from_temperature(4.0) == 0.25


class TestIntegerSites:
    @pytest.mark.parametrize("call, match", [
        (lambda: fidelity(2.5, 1.0), "n must be an integer, got 2.5"),
        (lambda: fidelity(True, 1.0), "n must be an integer, got True"),
        (lambda: setting_expectation(4.5, 2, 1.0), "n must be an integer, got 4.5"),
        (lambda: setting_expectation(4, 1.5, 1.0), "wt must be an integer, got 1.5"),
        (lambda: union_bound(2.5, 1.0), "n must be an integer, got 2.5"),
        (lambda: minus_probability(3.7, 1, 1.0), "n must be an integer, got 3.7"),
        (lambda: minus_probability(4, False, 1.0), "wt must be an integer, got False"),
        (lambda: deviation_leading_order(4, 2.0, 1.0), "wt must be an integer, got 2.0"),
        (lambda: half_weight_expectation(4.0, 1.0), "n must be an integer, got 4.0"),
        (lambda: error_bounds(6.0, 1.0, 0.1), "n must be an integer, got 6.0"),
        (lambda: error_bounds(6, 1.0, 0.1, wt=3.0), "wt must be an integer, got 3.0"),
        (lambda: invert_temperature(4.0, 0.5), "n must be an integer, got 4.0"),
        (lambda: invert_temperature(True, 0.5, from_fidelity=True),
         "n must be an integer, got True"),
    ])
    def test_non_integers_and_bools_rejected_by_name(self, call, match):
        with pytest.raises(TypeError, match=match):
            call()

    def test_numpy_integers_pass(self):
        n, wt = np.int64(6), np.int32(3)
        assert fidelity(n, 1.0) == fidelity(6, 1.0)
        assert setting_expectation(n, wt, 1.0) == setting_expectation(6, 3, 1.0)
        assert half_weight_expectation(n, 1.0) == half_weight_expectation(6, 1.0)
        assert error_bounds(n, 1.0, 0.1, wt=wt) == error_bounds(6, 1.0, 0.1)
        assert invert_temperature(n, 0.5) == invert_temperature(6, 0.5)

    def test_largest_float_sized_n_gives_finite_results(self):
        n = 2**1023
        assert fidelity(n, 3.0) == 0.0
        assert certify(1.0, n).verdict == "accept"
        for from_fidelity in (False, True):
            assert math.isfinite(invert_temperature(n, 0.5, from_fidelity=from_fidelity))

    @pytest.mark.parametrize("call", [
        lambda n: fidelity(n, 1.0), lambda n: certify(1.0, n),
        lambda n: invert_temperature(n, 0.5), lambda n: HypergraphSpec(n),
    ])
    def test_n_beyond_the_largest_float_is_rejected_by_name(self, call):
        with pytest.raises(ValueError, match=r"the largest float, got an n of 1025 bits"):
            call(2**1024)

    @pytest.mark.parametrize("call, match", [
        (lambda: half_weight_expectation(5, 1.0), "need even n >= 2, got 5"),
        (lambda: half_weight_expectation(0, 1.0), "need even n >= 2, got 0"),
        (lambda: error_bounds(2, 1.0, 0.1), "bounds require even n >= 4, got 2"),
        (lambda: error_bounds(7, 1.0, 0.1), "bounds require even n >= 4, got 7"),
        (lambda: invert_temperature(3, 0.5), "expectation inversion requires even n >= 2, got 3"),
    ])
    def test_even_site_messages_kept(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()
