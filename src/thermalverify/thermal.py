"""Closed-form thermal quantities: flip probability, fidelity, setting
expectations, error bounds, sample sizes, and temperature inversion.

Conventions. k_B = 1, so beta = 1/T; the zero-temperature limit is the
sentinel beta = math.inf, under which every expression below is exact
(exp(-2*beta) evaluates to 0.0). Writing x = exp(-2*beta):

    flip probability      p = x / (1 + x)
    fidelity              F = 1 / (1 + x)^n
    weight-wt expectation E = ((1 - x) / (1 + x))^wt = tanh(beta)^wt
    half-weight case      E = (1 - x^2)^(n/2) / (1 + x)^n

Each X/Y site of the measured word flips the outcome independently with
probability p, so E is a product of wt factors 1 - 2p = tanh(beta); it
holds for every n. E is evaluated through log tanh(beta), in one of two
forms that each keep full relative precision on their side of beta = 1/8
(_SMALL_BETA): log(tanh(beta)) below, where x rounds toward 1 (at beta =
1e-17, x is 1.0 but tanh(beta) is 1e-17), and -2*atanh(x) above, where
tanh(beta) rounds toward 1 (at beta = 21, tanh(beta) is 1.0 but the mean of
200000 sites is 1 - 2.3e-13). Both forms agree to a few ulps near the
switch, but not bit for bit, so it stays below every beta of the golden CLI
corpus and the committed curves (all >= 0.3), whose bytes it would move.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass


_SMALL_BETA = 0.125  # where _log_tanh changes form (see the module docstring)


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if math.isnan(beta) or beta < 0:
        raise ValueError(f"inverse temperature must be >= 0 (inf means T=0), got {beta}")
    return beta


def _check_integer(name: str, value) -> int:
    """value as a plain int; bools and non-integers are rejected by name,
    numpy integers pass."""
    try:
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _check_sites(n: int, even_from: int = 0, need: str = "need") -> int:
    """n as a plain int >= 1; with even_from, an even int >= even_from."""
    n = _check_integer("n", n)
    if even_from and (n < even_from or n % 2):
        raise ValueError(f"{need} even n >= {even_from}, got {n}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n


def _check_weight(n: int, wt: int) -> None:
    _check_sites(n)
    _check_integer("wt", wt)
    if not 0 <= wt <= n:
        raise ValueError(f"need 0 <= wt <= n, got wt={wt}, n={n}")


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"need 0 <= epsilon < 1, got {epsilon}")


def _check_accuracy(epsilon: float, delta: float) -> None:
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"need 0 < epsilon <= 1, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"need 0 < delta < 1, got {delta}")


def beta_from_temperature(temperature: float) -> float:
    """Map a temperature (k_B = 1) to beta; T = 0 maps to the inf sentinel."""
    temperature = float(temperature)
    if math.isnan(temperature) or temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return math.inf
    return 1.0 / temperature


@dataclass(frozen=True)
class BoundReport:
    """Error-budget summary for a weight-wt single-setting estimate.

    fine_bound is the temperature-dependent guarantee (deviation term plus
    the statistical epsilon), coarse_bound its temperature-free relaxation
    2/n + epsilon; fine_bound <= coarse_bound for even n >= 4.
    """

    fine_bound: float
    coarse_bound: float
    union_bound: float
    leading_coefficient: int


def flip_probability(beta: float) -> float:
    """Phase-flip probability exp(-2b)/(1 + exp(-2b)); in [0, 1/2], with the
    endpoints at beta = inf and beta = 0."""
    beta = _check_beta(beta)
    x = math.exp(-2.0 * beta)
    return x / (1.0 + x)


def fidelity(n: int, beta: float) -> float:
    """Overlap of the thermal state with the ideal state: (1 - p)^n."""
    _check_sites(n)
    beta = _check_beta(beta)
    x = math.exp(-2.0 * beta)
    return math.exp(-n * math.log1p(x))


def _log_tanh(beta: float) -> float:
    """log tanh(beta) for finite beta >= 0, -inf at beta = 0, at full
    relative precision on both sides of _SMALL_BETA (see the module
    docstring)."""
    if beta < _SMALL_BETA:
        return math.log(math.tanh(beta)) if beta else -math.inf
    return -2.0 * math.atanh(math.exp(-2.0 * beta))


def _log_setting_expectation(n: int, wt: int, beta: float) -> float:
    """log E = wt*log(tanh(beta)); -inf at beta = 0 when wt > 0."""
    _check_weight(n, wt)
    beta = _check_beta(beta)
    if math.isinf(beta) or wt == 0:
        return 0.0
    return wt * _log_tanh(beta)


def setting_expectation(n: int, wt: int, beta: float) -> float:
    """Infinite-sample mean tanh(beta)^wt of a weight-wt setting on the
    thermal state; it depends on the selector only through wt."""
    return math.exp(_log_setting_expectation(n, wt, beta))


def minus_probability(n: int, wt: int, beta: float) -> float:
    """Probability (1 - E)/2 that one shot of a weight-wt setting reads -1.

    Computed through expm1, so a mean within an ulp of 1 still yields its
    exact small deficit rather than 0.
    """
    return -0.5 * math.expm1(_log_setting_expectation(n, wt, beta))


def half_weight_expectation(n: int, beta: float) -> float:
    """Closed form of setting_expectation at wt = n/2: (1-x^2)^(n/2)/(1+x)^n."""
    _check_sites(n, even_from=2)
    beta = _check_beta(beta)
    if beta < _SMALL_BETA:
        return math.exp((n // 2) * _log_tanh(beta))
    x = math.exp(-2.0 * beta)
    return math.exp((n // 2) * math.log1p(-x * x) - n * math.log1p(x))


def union_bound(n: int, beta: float) -> float:
    """All-settings union lower bound 1 - n*p; valid but loose, may go negative."""
    _check_sites(n)
    return 1.0 - n * flip_probability(beta)


def deviation_leading_order(n: int, wt: int, beta: float) -> float:
    """Small-x leading deviation |n - 2*wt| * x / (1+x)^n of the estimate
    from the fidelity; vanishes at the half-weight choice."""
    _check_weight(n, wt)
    beta = _check_beta(beta)
    coeff = abs(n - 2 * wt)
    if coeff == 0 or math.isinf(beta):
        return 0.0
    x = math.exp(-2.0 * beta)
    return math.exp(math.log(coeff) - 2.0 * beta - n * math.log1p(x))


def error_bounds(n: int, beta: float, epsilon: float, wt: int | None = None) -> BoundReport:
    """Both guarantees for the half-weight protocol on even n >= 4.

    fine_bound = n*x^2 / (2*(1+x)^n) + epsilon, coarse_bound = 2/n + epsilon.
    The leading coefficient |n - 2*wt| is reported for the supplied setting
    weight (default n/2, where it vanishes).
    """
    _check_sites(n, even_from=4, need="bounds require")
    beta = _check_beta(beta)
    _check_epsilon(epsilon)
    if wt is None:
        wt = n // 2
    _check_weight(n, wt)
    x = math.exp(-2.0 * beta)
    fine = math.exp(math.log(n / 2.0) - 4.0 * beta - n * math.log1p(x)) + epsilon
    coarse = 2.0 / n + epsilon
    if fine > coarse + 1e-15:
        raise RuntimeError(
            f"fine bound {fine} exceeded coarse bound {coarse} at n={n}, beta={beta}"
        )
    return BoundReport(fine, coarse, union_bound(n, beta), abs(n - 2 * wt))


def sample_size(epsilon: float, delta: float) -> int:
    """Measurement count ceil(2/eps^2 * ln(2/delta)) for accuracy eps with
    failure probability delta (natural logarithm)."""
    _check_accuracy(epsilon, delta)
    square = epsilon * epsilon
    budget = 2.0 / square * math.log(2.0 / delta) if square else math.inf
    if math.isinf(budget):
        raise ValueError(f"sample budget for epsilon = {epsilon} overflows a float")
    return math.ceil(budget)


def invert_temperature(n: int, observed: float, from_fidelity: bool = False) -> float:
    """Inverse temperature at which the protocol's infinite-sample estimate
    equals `observed` (default), or at which the fidelity does.

    The default inverts the half-weight expectation tanh(beta)^(n/2), i.e.
    the quantity the estimator actually converges to; pass
    from_fidelity=True to invert the fidelity instead. observed = 1 returns
    the T = 0 sentinel (math.inf).
    """
    if from_fidelity:
        _check_sites(n)
    else:
        _check_sites(n, even_from=2, need="expectation inversion requires")
    observed = float(observed)
    if not 0.0 < observed <= 1.0:
        raise ValueError(f"observed value must be in (0, 1], got {observed}")
    if observed == 1.0:
        return math.inf
    if from_fidelity:
        floor = fidelity(n, 0.0)
        if observed < floor:
            raise ValueError(
                f"fidelity {observed} below the infinite-temperature value {floor}"
            )
        if observed == floor:
            return 0.0  # x below can round to just under 1 here
        x = math.expm1(-math.log(observed) / n)  # observed^(-1/n) - 1
        if x == 0.0:
            return math.inf
        # just above the floor x can round to 1 or above: the result is
        # beta = 0, never -0.0 or a negative rounding residue
        return max(0.0, -math.log(x) / 2.0)
    # beta = atanh(t) with t = observed^(2/n), written as log1p(2t/(1-t))/2
    # so that neither t near 0 nor t near 1 loses precision
    log_t = 2.0 * math.log(observed) / n
    return 0.5 * math.log1p(2.0 * math.exp(log_t) / -math.expm1(log_t))
