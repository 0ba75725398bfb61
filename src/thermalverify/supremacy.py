"""Restricted hypergraph family, its single optimal setting, and the
certified sampling decision rule.

The family fixes the three-vertex hyperedges to four arithmetic progressions
of triangles (two-vertex edges stay arbitrary). Each progression stops at its
last triple inside 1..n, which reproduces the known 10-vertex instance
exactly. build_family returns the member as a plain HypergraphSpec, and
every function here takes one. The triples are built as one numpy arange
block whose rows are ascending, in bounds, unique and in lexicographic
order by construction, so the spec stores them, read-only, without
checking them; only the caller's two-vertex edges are validated.
On this family the alternating selector 0101...01 collapses every CZ tail
pairwise, so the product of generalized stabilizers is a plain signed Pauli
word with X/Y on exactly half the sites, and the single-setting estimation
protocol applies unchanged. The cancellation is exact for every member, so
optimal_setting checks membership and reduces only the two-vertex edges;
stabilizer_product, which verify runs, reduces every edge of any spec.
optimal_setting is the library route, for a member a caller built.
certify-iqp simulates the member without two-vertex edges, so the CLI
reduces the edgeless HypergraphSpec(n) under 0101...01 itself, the same
word with no triples built and no membership to check.

The decision rule accepts when f_est - 2/n >= 0.999995 and converts the
accepted estimate into a bound on the (unhalved) l1 distance between the
sampled and ideal output distributions: 2*sqrt(1 + 1e-6 - (f_est - 2/n)),
which at the threshold is below the hardness target 1/192 (L1_TARGET).
The decision constants live here; the CLI reads its defaults from them.

Thermal noise is an independent phase flip Z per site with probability p,
and H^n Z_e = X_e H^n, so the thermal X-basis distribution is the ideal one
XOR-convolved with the product flip distribution: C^(x)n |H^(x)n psi|^2
with C = [[1-p, p], [p, 1-p]]. Its shots are independent draws from that
one distribution, so iqp_sample draws their counts as one multinomial,
with memory O(2^n) whatever the shot count. exact_outcome_distribution runs
the two Kronecker powers as oracle's GEMM passes on the pure state's real
amplitudes and one spare buffer (tracemalloc peak 2.0 statevectors,
256 MiB at the shared oracle cap n <= 24, MAX_STATEVECTOR_N). The array it
returns is read-only and shared: while any caller still holds the
distribution of a (spec, p), both X-basis functions reuse that array
instead of building it again, so "distribution, then iqp_sample" builds
it once. The registry holds only weak references, so an array lives
exactly as long as its callers keep it.
"""
from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .graphs import _NO_ROWS, HypergraphSpec, _canonical_rows, _check_block_sites
from .oracle import (_check_statevector_n, _flip_factor, _hadamard_factor, _kron_power,
                     build_pure_state)
from .pauli import PauliString, stabilizer_product
from .sampler import _check_draw
from .thermal import _built, _check_sites, flip_probability

ACCEPT_MARGIN = 0.999995
EPSILON_FULL_SCALE = 1e-6
L1_TARGET = 1.0 / 192.0
MIN_FULL_SCALE_N = 400_000
_KEY_BLOCK = 1 << 16  # outcome keys built per block: 6 MiB of uint32 at n = 24
# (spec, p) -> the distribution array, while some caller still holds it
_DISTRIBUTIONS = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class CertificationDecision:
    """Outcome of the accept/reject rule applied to an estimate: the rule
    accepts when margin = f_est - 2/n reaches threshold (ACCEPT_MARGIN).
    The record holds f_est and n; the rest follows from them on each read."""

    f_est: float
    n: int
    threshold = ACCEPT_MARGIN

    @property
    def margin(self) -> float:
        return self.f_est - 2.0 / self.n

    @property
    def threshold_met(self) -> bool:
        return self.margin >= ACCEPT_MARGIN

    @property
    def verdict(self) -> str:
        return "accept" if self.threshold_met else "reject"

    @property
    def tvd_bound(self) -> float:
        return 2.0 * math.sqrt(max(0.0, 1.0 + EPSILON_FULL_SCALE - self.margin))

    def to_dict(self) -> dict:
        keys = ("f_est", "n", "threshold_met", "tvd_bound", "verdict", "margin", "threshold")
        return {key: getattr(self, key) for key in keys}


# Triple j of the four progressions, minus 4j: rows in lexicographic order.
_PROGRESSIONS = np.array([[-3, -2, -1], [-3, -1, 0], [-1, 0, 1], [-1, 1, 2]])


def _family_rows(n: int) -> np.ndarray:
    """The family's triples as a read-only (n - 2, 3) int64 array, rows
    ascending.

    Block j holds (4j-3, 4j-2, 4j-1), (4j-3, 4j-1, 4j), (4j-1, 4j, 4j+1)
    and (4j-1, 4j+1, 4j+2), so flattened row k has largest vertex k + 3:
    stopping each progression at its last triple inside 1..n keeps exactly
    the first n - 2 rows.
    """
    block = 4 * np.arange(1, n // 4 + 2)[:, None, None] + _PROGRESSIONS
    rows = block.reshape(-1, 3)[: max(n - 2, 0)]
    rows.flags.writeable = False
    return rows


_CHECK_ROWS = 1 << 12  # triples compared per block: a 96 KiB reference
_FIRST_ROWS = _family_rows(_CHECK_ROWS + 2)  # every member's first _CHECK_ROWS triples


def _holds_family_rows(rows: np.ndarray, n: int) -> bool:
    """Whether rows equal _family_rows(n), compared block by block with
    constant extra memory: rows s.. are rows 0.. plus s when 4 divides s."""
    if rows.shape != (n - 2, 3):
        return False
    for start in range(0, n - 2, _CHECK_ROWS):
        block = rows[start:start + _CHECK_ROWS]
        if not np.array_equal(block, _FIRST_ROWS[:len(block)] + start):
            return False
    return True


def build_family(n: int, e2=frozenset()) -> HypergraphSpec:
    """The restricted family's member on n (even) vertices: its fixed
    triangle pattern plus the caller's two-vertex edges e2. n past
    MAX_BLOCK_N is a ValueError, raised before any row is built."""
    n = _check_block_sites(_check_sites(n, even_from=4, need="family requires"))
    return _built(HypergraphSpec, n=n, e2_rows=_canonical_rows(e2, n, 2), e3_rows=_family_rows(n))


def optimal_setting(spec: HypergraphSpec) -> PauliString:
    """The single measurement setting of a family member: the product of
    its even-site generalized stabilizers, a signed Pauli word with X/Y
    letters on exactly half the sites (the selector's ones). Raises
    RuntimeError for a spec outside the family (odd n or n < 4, or triples
    other than build_family's), even one whose alternating product reduces
    (an even ring, say): use stabilizer_product(spec, alternating_setting(n))
    for those.

    The word is the two-vertex edges' reduction alone, in closed form:
    - each family triple has exactly one even vertex (4j-2, 4j, 4j or
      4j+2), so under the selector 0101...01 it adds no linear term and no
      sign, only the CZ pair of its two odd vertices;
    - rows 2i and 2i+1 carry the same pair, (4j-3, 4j-1) twice and then
      (4j-1, 4j+1) twice, and at even n the first n - 2 rows keep whole
      pairs, so every pair cancels;
    - the normal form (pauli._normal_form) is additive over edges mod 2,
      so the word is exactly the reduction of e2, which only adds Z
      letters (a Y where one meets an X) and the sign.
    The selector goes in as the string "01" * (n // 2), the same bits as
    alternating_setting(n) without its n-entry tuple.
    """
    n = spec.n
    if n < 4 or n % 2 or not _holds_family_rows(spec.e3_rows, n):
        raise RuntimeError(
            "the hypergraph is outside the restricted family: optimal_setting "
            "needs even n >= 4 and build_family's triples"
        )
    graph = _built(HypergraphSpec, n=n, e2_rows=spec.e2_rows, e3_rows=_NO_ROWS[3])
    return stabilizer_product(graph, "01" * (n // 2))


def certify(f_est: float, n: int, allow_small_n: bool = False) -> CertificationDecision:
    """Apply the accept/reject rule to an estimate on n qubits: accept when
    the margin f_est - 2/n reaches ACCEPT_MARGIN. n must be even and >= 4,
    as build_family requires: at odd n there is no family member, no
    half-weight setting and no 2/n bound (error_bounds), whatever the source
    of f_est.

    The full-scale regime assumes n >= 400000 (with epsilon 1e-6); pass
    allow_small_n=True to evaluate the same arithmetic at desk scales.

    A float carries no budget. The bound assumes the estimate came from a
    run at epsilon = EPSILON_FULL_SCALE (1e-6) with sample_size(1e-6, delta)
    shots, and certify cannot check that: certify(run.f_est, 400000) of a
    10-shot run at T = 0 accepts with tvd_bound 0.0049. A library caller
    must hold its run to that budget, as the certify-iqp CLI does (it
    refuses any other budget outside --allow-small-n).

    At n = 400000 the rule sits on its boundary: 1 - 2/n equals 0.999995
    exactly, and the float margin 1.0 - 2.0/400000 rounds to the same double
    as ACCEPT_MARGIN, so only f_est == 1.0 (no -1 shot at all) accepts. One
    -1 shot in the default budget N gives f_est = 1 - 2/N and rejects. At
    both points the float comparison agrees with exact rational arithmetic.

    Below n = 400000, 1 - 2/n < 0.999995, so no estimate reaches the
    threshold: with allow_small_n=True, f_est = 1.0 at n = 12 has margin
    0.833 and is rejected.
    """
    if not -1.0 <= f_est <= 1.0:
        raise ValueError(f"f_est must lie in [-1, 1], got {f_est}")
    n = _check_sites(n, even_from=4, need="family requires")
    if n < MIN_FULL_SCALE_N and not allow_small_n:
        raise ValueError(
            f"n = {n} is below the full-scale regime (>= {MIN_FULL_SCALE_N}); "
            "pass allow_small_n=True to evaluate anyway"
        )
    return CertificationDecision(f_est, n)


def exact_outcome_distribution(spec: HypergraphSpec, beta: float) -> np.ndarray:
    """Exact X-basis outcome distribution of the thermal instance, as a
    read-only length-2^n vector indexed with site 1 in the least
    significant bit. While a caller holds the array, every call with an
    equal spec and a beta of the same flip probability p returns that same
    array (see the module docstring).

    The ideal distribution |H^(x)n psi|^2, then C^(x)n with C = [[1-p, p],
    [p, 1-p]] (skipped at p = 0): the XOR-convolution with the product
    phase-flip distribution. Both Kronecker powers run as GEMM passes on
    the pure state's own amplitudes and one spare buffer.
    """
    p = flip_probability(beta)
    _check_statevector_n(spec.n)  # before the lookup: an oversized spec is never hashed
    dist = _DISTRIBUTIONS.get((spec, p))
    if dist is None:
        amps = build_pure_state(spec)
        dist, spare = _kron_power(amps, np.empty_like(amps), _hadamard_factor)
        np.square(dist, out=dist)
        if p:
            dist, spare = _kron_power(dist, spare, partial(_flip_factor, p=p))
        np.divide(dist, dist.sum(), out=dist)
        dist.flags.writeable = False
        _DISTRIBUTIONS[spec, p] = dist
    return dist


def _outcome_counts(totals: np.ndarray, n: int) -> Counter:
    """The nonzero entries of a length-2^n totals vector in ascending index
    order, keyed by outcome string (site 1 first). numpy builds the keys:
    each block of up to _KEY_BLOCK entries is one broadcast right shift of
    its uint32 indices by 0..n-1, a (block, n) uint32 array turned into the
    code points of "0" and "1" and viewed as n-character strings, so the
    buffer stays small whatever the number of entries. The keys go into
    the Counter with one dict.update."""
    hits = np.flatnonzero(totals)
    shifts = np.arange(n, dtype=np.uint32)
    keys = []
    for start in range(0, hits.size, _KEY_BLOCK):
        chars = hits[start:start + _KEY_BLOCK, None].astype(np.uint32) >> shifts
        chars &= 1
        chars += ord("0")
        keys += chars.view(f"U{n}")[:, 0].tolist()
    counts = Counter()
    dict.update(counts, zip(keys, totals[hits].tolist()))
    return counts


def iqp_sample(spec: HypergraphSpec, beta: float, shots: int, seed: int) -> Counter:
    """Sample X-basis outcome strings from the thermal instance. The shots
    are independent draws from exact_outcome_distribution(spec, beta), so
    their counts are one Multinomial(shots, dist) draw: memory is O(2^n)
    and time does not grow with shots, for any integer 1 <= shots <=
    2^63 - 1 (MAX_SAMPLES) and integer seed >= 0. The draw reads the
    distribution array a caller still holds for the same spec and flip
    probability, and builds it only if none does. Returns counts keyed by
    the outcome string (site 1 first).
    """
    _check_draw("shots", shots, seed)
    rng = np.random.default_rng(seed)
    return _outcome_counts(rng.multinomial(shots, exact_outcome_distribution(spec, beta)), spec.n)
