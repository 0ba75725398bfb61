"""Exact combinatorial coefficients behind the closed-form expectation values.

Everything here is arbitrary-precision integer arithmetic; checks demand
exact equality. The central quantity is the signed pattern count

    signed_pattern_count(n, wt, m)
        = C(n, m) - 2 * sum_j C(wt, 2j+1) * C(n-wt, m-(2j+1)),

the number of weight-m error patterns with even overlap against a fixed
weight-wt support minus the number with odd overlap. Specialized to
wt = n/2 it collapses to (-1)^(m/2) C(n/2, m/2) for even m and to 0 for
odd m; those collapses are what check_odd / check_even certify.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from thermalverify.thermal import _check_integer, _check_weight


def signed_pattern_count(n: int, wt: int, m: int) -> int:
    """Exact integer bracket coefficient for weight-m error patterns."""
    _check_weight(n, wt)
    m = _check_integer("m", m)
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    # j runs over odd overlap sizes 2j+1; limits keep both binomials in
    # their standard domain, so no extended conventions are needed.
    lo = (max(0, wt + m - n - 1) + 1) // 2
    hi = (min(wt, m) - 1) // 2
    odd_overlap = sum(comb(wt, 2 * j + 1) * comb(n - wt, m - (2 * j + 1))
                      for j in range(lo, hi + 1))
    return comb(n, m) - 2 * odd_overlap


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of an exhaustive identity check up to k_max."""

    k_max: int
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_k_max(k_max: int) -> int:
    k_max = _check_integer("k_max", k_max)
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    return k_max


def check_odd(k_max: int) -> IdentityReport:
    """Half-support bracket vanishes at every odd error weight."""
    k_max = _check_k_max(k_max)
    failures = []
    for k in range(1, k_max + 1):
        for m in range(1, 2 * k + 1, 2):
            if signed_pattern_count(2 * k, k, m) != 0:
                failures.append(("odd", k, m))
    return IdentityReport(k_max, tuple(failures))


def check_even(k_max: int) -> IdentityReport:
    """Half-support bracket equals (-1)^(m/2) C(k, m/2) at even weights."""
    k_max = _check_k_max(k_max)
    failures = []
    for k in range(1, k_max + 1):
        for m in range(0, 2 * k + 1, 2):
            expected = (-1) ** (m // 2) * comb(k, m // 2)
            if signed_pattern_count(2 * k, k, m) != expected:
                failures.append(("even", k, m))
    return IdentityReport(k_max, tuple(failures))


def check_alternating(k_max: int) -> IdentityReport:
    """Alternating convolution: sum_j (-1)^j C(k,j) C(k,2m-j) = (-1)^m C(k,m)."""
    k_max = _check_k_max(k_max)
    failures = []
    for k in range(1, k_max + 1):
        for m in range(0, k + 1):
            total = sum(
                (-1) ** j * comb(k, j) * comb(k, 2 * m - j)
                for j in range(max(0, 2 * m - k), min(k, 2 * m) + 1)
            )
            if total != (-1) ** m * comb(k, m):
                failures.append(("alternating", k, m))
    return IdentityReport(k_max, tuple(failures))
