"""Monte-Carlo execution of the single-setting estimation protocol.

The simulator never touches statevectors: under independent phase-flip noise
the outcome of measuring a signed Pauli word depends on the error pattern
only through the parity of its overlap with the word's X/Y sites. Shots are
therefore independent +-1 draws that read -1 with probability
q = (1 - tanh(beta)^wt)/2, and a run of N shots is one Binomial(N, q) draw
from a generator seeded with the run's seed. The report stores that draw:
the word, N and the -1 count m, with beta_used a plain float (math.inf at
T = 0). f_est = (N - 2m)/N, the +1 count, the word's letters and the
error bounds are derived on each read, and nothing is cached. So a run
builds no string and evaluates no bound: its cost does not depend on N, its only
n-dependent step is one popcount of the word's X mask, and the same seed
gives the same report. The per-shot model that the draw stands for (an
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
    """Record of one protocol run: the measured word, the shot count and the
    number of shots that read -1. Everything else is derived from them.

    beta_used is the simulated inverse temperature as a float (math.inf at
    T = 0). The error bounds are evaluated at it (bound_report), so
    check_error_bound and verify's within_fine_bound compare against a
    bound of the simulated beta, and to_dict writes it.
    """

    word: PauliString
    n_samples: int
    minus_count: int
    beta_used: float
    epsilon: float
    delta: float
    seed: int

    @property
    def plus_count(self) -> int:
        return self.n_samples - self.minus_count

    @property
    def f_est(self) -> float:
        return (self.n_samples - 2 * self.minus_count) / self.n_samples

    @property
    def setting(self) -> str:
        """The word's sign and letters, spelled on each read."""
        return str(self.word)

    @property
    def bound_report(self) -> BoundReport | None:
        """error_bounds of the run, evaluated on each read, or None for odd
        n or n < 4."""
        if self.word.n % 2 == 0 and self.word.n >= 4:
            return error_bounds(self.word.n, self.beta_used, self.epsilon, wt=self.word.xy_support)
        return None

    def to_dict(self) -> dict:
        bounds = self.bound_report
        return {"f_est": self.f_est, "n_samples": self.n_samples, "plus_count": self.plus_count,
                "minus_count": self.minus_count, "setting": self.setting,
                "beta_used": {"beta": self.beta_used, "p_flip": flip_probability(self.beta_used)},
                "bound_report": None if bounds is None else dict(vars(bounds)),
                "epsilon": self.epsilon, "delta": self.delta, "seed": self.seed}


def run_protocol(target, setting: PauliString, beta: float,
                 config: ProtocolConfig) -> VerificationReport:
    """Run the estimation protocol: one Binomial draw of the number of -1
    outcomes of `setting` among the sample budget. The report holds the
    word and the counts; the estimate, the letters and the error bounds
    are derived from them on each read.

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
    return VerificationReport(word=setting, n_samples=total, minus_count=minus, beta_used=beta,
                              epsilon=config.epsilon, delta=config.delta, seed=int(config.seed))


def check_error_bound(report: VerificationReport, true_fidelity: float) -> bool:
    """Did the run satisfy |fidelity - f_est| <= fine bound?

    The fine bound already includes the statistical epsilon, so with the
    prescribed sample budget this holds with probability at least 1 - delta.
    """
    if (bounds := report.bound_report) is None:
        raise ValueError("report carries no bound evaluations (n odd or < 4)")
    return abs(true_fidelity - report.f_est) <= bounds.fine_bound
