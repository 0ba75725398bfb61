from math import comb

import numpy as np
import pytest

from util_identities import (IdentityReport, check_alternating, check_even, check_odd,
                             signed_pattern_count)


def brute_force_count(n: int, wt: int, m: int) -> int:
    """Signed enumeration over all weight-m error masks against the support
    {1, ..., wt}: +1 for even overlap, -1 for odd."""
    support = (1 << wt) - 1
    total = 0
    for mask in range(1 << n):
        if bin(mask).count("1") != m:
            continue
        total += -1 if bin(mask & support).count("1") & 1 else 1
    return total


def test_matches_exhaustive_enumeration_small_n():
    for n in range(1, 11):
        for wt in range(n + 1):
            for m in range(n + 1):
                assert signed_pattern_count(n, wt, m) == brute_force_count(n, wt, m)


def polynomial_coefficients(minus_factors: int, plus_factors: int) -> list[int]:
    """Coefficients of (1 - x)^minus_factors (1 + x)^plus_factors, lowest first."""
    coeffs = [1]
    for sign in [-1] * minus_factors + [1] * plus_factors:
        coeffs = [a + sign * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def test_brackets_expand_the_closed_form():
    # sum_m bracket(n, wt, m) x^m = (1-x)^wt (1+x)^(n-wt); dividing by
    # (1+x)^n gives the expectation ((1-x)/(1+x))^wt = tanh(beta)^wt
    for n in range(1, 41):
        for wt in range(n + 1):
            brackets = [signed_pattern_count(n, wt, m) for m in range(n + 1)]
            assert brackets == polynomial_coefficients(wt, n - wt)


def test_specific_values():
    assert signed_pattern_count(4, 2, 0) == 1
    assert signed_pattern_count(4, 2, 1) == 0
    assert signed_pattern_count(4, 2, 2) == -2
    assert signed_pattern_count(4, 2, 3) == 0
    assert signed_pattern_count(6, 3, 6) == -1  # (-1)^3 C(3,3)
    assert signed_pattern_count(7, 0, 3) == comb(7, 3)  # empty support never flips


def test_zero_weight_column_is_one():
    for n in (1, 5, 12):
        for wt in range(n + 1):
            assert signed_pattern_count(n, wt, 0) == 1


def test_validation():
    with pytest.raises(ValueError):
        signed_pattern_count(0, 0, 0)
    with pytest.raises(ValueError):
        signed_pattern_count(4, 5, 1)
    with pytest.raises(ValueError):
        signed_pattern_count(4, 2, 5)


@pytest.mark.parametrize("check", [check_odd, check_even, check_alternating])
@pytest.mark.parametrize("k_max, error, match", [
    (True, TypeError, "k_max must be an integer, got True"),
    (2.5, TypeError, "k_max must be an integer, got 2.5"),
    (0, ValueError, "need k_max >= 1, got 0"),
])
def test_bad_k_max_is_named(check, k_max, error, match):
    with pytest.raises(error, match=match):
        check(k_max)


@pytest.mark.parametrize("m", [1.5, True])
def test_non_integer_error_weight_is_named(m):
    with pytest.raises(TypeError, match=f"m must be an integer, got {m}"):
        signed_pattern_count(4, 2, m)


def test_numpy_integer_counts_run():
    assert signed_pattern_count(np.int64(4), np.int64(2), np.int64(2)) == -2
    report = check_odd(np.int64(3))
    assert report == check_odd(3) and type(report.k_max) is int


def test_check_odd_small():
    report = check_odd(12)
    assert report.ok and report.failures == ()


def test_check_even_small():
    report = check_even(12)
    assert report.ok


def test_check_alternating_small():
    report = check_alternating(12)
    assert report.ok


def test_alternating_value_by_hand():
    # k=2, m=1: C(2,0)C(2,2) - C(2,1)C(2,1) + C(2,2)C(2,0) = 1 - 4 + 1 = -2
    total = sum((-1) ** j * comb(2, j) * comb(2, 2 - j) for j in range(0, 3))
    assert total == -2 == -comb(2, 1)


def test_report_shape():
    report = check_odd(3)
    assert isinstance(report, IdentityReport)
    assert (report.k_max, report.ok, report.failures) == (3, True, ())
    with pytest.raises(ValueError):
        check_odd(0)


def test_polynomial_identity_half_weight():
    """sum_m bracket(n, n/2, m) x^m equals (1 - x^2)^(n/2) exactly."""
    for n in range(2, 14, 2):
        k = n // 2
        lhs = [signed_pattern_count(n, k, m) for m in range(n + 1)]
        rhs = [0] * (n + 1)
        for j in range(k + 1):
            rhs[2 * j] = (-1) ** j * comb(k, j)
        assert lhs == rhs
