"""Monte-Carlo execution of the single-setting estimation protocol.

The simulator never touches statevectors: under independent phase-flip noise
the outcome of measuring a signed Pauli word depends on the error pattern
only through the parity of its overlap with the word's X/Y sites. Shots are
therefore independent +-1 draws that read -1 with probability
q = (1 - tanh(beta)^wt)/2, and a run of N shots is one Binomial(N, q) draw
from a generator seeded with the run's seed: the cost does not depend on N
or n, and the same seed gives the same report, whose beta_used is a plain
float (math.inf at T = 0). The per-shot model that the draw stands for (an
error pattern per shot, read through the word's X/Y sites) is kept in
tests/util_dense.py as the reference it is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliString
from .thermal import (BoundReport, _check_accuracy, _check_beta, _check_integer,
                      error_bounds, flip_probability, minus_probability, sample_size)


MAX_SAMPLES = 2**63 - 1  # the binomial draw counts shots in an int64


def _check_draw(name: str, count: int, seed: int) -> None:
    """One seeded draw's integer shot count in 1..MAX_SAMPLES and seed >= 0."""
    _check_integer(name, count)
    if count < 1:
        raise ValueError(f"need {name} >= 1, got {count}")
    if count > MAX_SAMPLES:
        raise ValueError(f"{name} {count} exceeds the limit 2^63 - 1 = {MAX_SAMPLES}")
    _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Accuracy target, failure probability, sample budget, and seed.

    n_samples = None derives the budget from (epsilon, delta). The budget
    must be an integer in 1..MAX_SAMPLES, the seed an integer >= 0.
    """

    epsilon: float
    delta: float
    n_samples: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_accuracy(self.epsilon, self.delta)
        _check_draw("n_samples", self.resolved_samples(), self.seed)

    def resolved_samples(self) -> int:
        if self.n_samples is not None:
            return self.n_samples
        return sample_size(self.epsilon, self.delta)


@dataclass(frozen=True)
class VerificationReport:
    """Record of one protocol run.

    beta_used, the simulated inverse temperature as a float (math.inf at
    T = 0), is ground truth for tests; no bound-checking code reads it.
    """

    f_est: float
    n_samples: int
    plus_count: int
    minus_count: int
    setting: str
    beta_used: float
    bound_report: BoundReport | None
    epsilon: float
    delta: float
    seed: int

    def __post_init__(self):
        if self.plus_count + self.minus_count != self.n_samples:
            raise ValueError("outcome counts do not add up to the sample count")
        expected = (self.plus_count - self.minus_count) / self.n_samples
        if abs(self.f_est - expected) > 1e-15:
            raise ValueError("f_est does not match the outcome counts")

    def to_dict(self) -> dict:
        bounds = self.bound_report
        return {**vars(self),
                "beta_used": {"beta": self.beta_used, "p_flip": flip_probability(self.beta_used)},
                "bound_report": None if bounds is None else dict(vars(bounds))}


def run_protocol(target, setting: PauliString, beta: float,
                 config: ProtocolConfig) -> VerificationReport:
    """Run the estimation protocol: draw the number of -1 outcomes of
    `setting` among the sample budget, and aggregate the empirical mean with
    its error budget.

    The parity model is exact when `setting` stabilizes the noiseless target;
    callers obtain it from stabilizer_product(target, selector), which takes
    a graph or a hypergraph (optimal_setting on the restricted family).
    """
    if not isinstance(setting, PauliString):
        raise ValueError(
            "setting must be a signed Pauli word; reduce the selector with "
            "stabilizer_product first"
        )
    n = target.n
    if setting.n != n:
        raise ValueError(f"setting acts on {setting.n} sites but the state has {n}")
    beta = _check_beta(beta)
    total = int(config.resolved_samples())  # numpy integers pass the rule; JSON needs int
    q = minus_probability(n, setting.xy_support, beta)
    minus = int(np.random.default_rng(config.seed).binomial(total, q))
    plus = total - minus
    bounds = None
    if n % 2 == 0 and n >= 4:
        bounds = error_bounds(n, beta, config.epsilon, wt=setting.xy_support)
    return VerificationReport(
        f_est=(plus - minus) / total,
        n_samples=total,
        plus_count=plus,
        minus_count=minus,
        setting=str(setting),
        beta_used=beta,
        bound_report=bounds,
        epsilon=config.epsilon,
        delta=config.delta,
        seed=int(config.seed),
    )


def check_error_bound(report: VerificationReport, true_fidelity: float) -> bool:
    """Did the run satisfy |fidelity - f_est| <= fine bound?

    The fine bound already includes the statistical epsilon, so with the
    prescribed sample budget this holds with probability at least 1 - delta.
    """
    if report.bound_report is None:
        raise ValueError("report carries no bound evaluations (n odd or < 4)")
    return abs(true_fidelity - report.f_est) <= report.bound_report.fine_bound
