"""Independent dense references built from explicit 2x2 kron products.

These deliberately avoid the package's bitmask application paths: operators
are assembled letter by letter with np.kron and states by scalar loops over
basis indices, so they can serve as ground truth for the fast code.
StabilizerProduct is the X-times-diagonal normal form sign * X_S * D_f of a
product of generalized generators, checked field by field on construction;
normal_form passes pauli._normal_form's plain tuple through that check,
and try_to_pauli collapses a normal form to a Pauli word, refusing a
non-Hermitian one (the package's stabilizer_product collapses inline and
needs no such check: its products are always Hermitian).
generator builds one stabilizer generator by scanning the edge rows, and
multiply is the normal-form product of two StabilizerProducts; the package
needs neither, because it reduces a whole selected product in one pass. The
ascending generator products built from them are the references for the
one-pass setting reductions in pauli, gibbs_reference is the reference for
boltzmann_density, and hypergraphs_with_selector draws inputs for the
property tests that compare them. conjugated_x_reference is the same
reduction as one pure-Python pass over edge tuples, the reference for the
array reduction in pauli, and family_triples_reference builds the family's
progressions with generators, the reference for the arange block in
supremacy. mixture_outcome_distribution is the per-error-mask reference for
the X-basis distribution of a thermal state. canonical_edge_reference is
the per-edge validation that every edge took before edge sets were
validated as arrays. path_graph builds the path 1-2-...-n, a fixture only
tests use.

The package's runtime needs none of the following either, so they are
kept here as the references tests compare against: from_letters and letter
parse and read a word letter by letter (letter is the reference for
PauliString.letters), pauli_multiply is the Pauli-group product, and
sample_error_pattern and measure_outcome are the per-shot model that
sampler.run_protocol's one binomial draw stands for. outcome_counts_reference
formats each outcome key on its own, the reference for the array-built keys
of supremacy.iqp_sample. parse_setting_reference is the tuple path selectors
took before pauli passed them on as bytes, dumps_reference the two-pass JSON
encoding (infinities converted in a copy, then json.dumps) that cli._dumps
replaced, and tanh_power_reference evaluates tanh(beta)^wt in 80-digit
decimal arithmetic, the reference for the closed forms in thermal. per_edge_pure_state is the one-pass-per-edge sign
loop that oracle.build_pure_state's site-by-site build replaced, and
kron_power_reference the explicit Kronecker power m^(x)n that
oracle._kron_power applies in GEMM passes. mask_loop_thermal_density is
the per-mask loop that oracle.thermal_density's one real matrix product
replaced.

These dense checks live here because no CLI command reaches them:
boltzmann_density builds the thermal state a second, independent way, as
the Gibbs exponential of the generator Hamiltonian H = -sum_i D X_i D (D
the diagonal sign pattern of the pure state, X_i an index flip), so it
shares no code with the symbolic generators in pauli that it cross-checks.
operator_coefficients is the normal-form map c with Op|z> = c[z] |z ^ x_mask>
of a PauliString or StabilizerProduct; on it rest apply_operator (Op applied
to an amplitude vector, an index permutation and a sign), stabilizer_check
(Op|psi> = |psi> for an amplitude vector) and density_expectation
(Tr[rho Op] for any supported operator, where oracle.dense_expectation
takes only a PauliString).

Index convention matches the package: bit i-1 of a basis index is site i.
"""
from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import reduce
from itertools import chain

import numpy as np
from hypothesis import strategies as st

from thermalverify import PauliString
from thermalverify.pauli import _check_mask, _normal_form
from thermalverify.thermal import _check_sites

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
MATS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def _site_pair(pair, n: int) -> tuple[int, int]:
    """A CZ pair as (a, b) with 1 <= a < b <= n and a, b plain ints. A site
    may be any integer type but bool."""
    try:
        sites = tuple(pair)
        if len(sites) != 2 or any(isinstance(v, bool) for v in sites):
            raise TypeError
        a, b = map(operator.index, sites)
    except TypeError:
        raise ValueError(f"quadratic pair {pair!r} must be two integer sites") from None
    if a == b:
        raise ValueError(f"quadratic pair {(a, b)} has repeated site")
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"quadratic pair {(a, b)} outside 1..{n}")
    return (min(a, b), max(a, b))


@dataclass(frozen=True)
class StabilizerProduct:
    """Normal form sign * X^x_mask * D_f with f of boolean degree <= 2.

    f(z) = sum_i linear_i z_i + sum_{(i,j) in quadratic} z_i z_j (mod 2),
    with `linear` a bitmask and `quadratic` a set of sorted 1-indexed pairs,
    each two distinct integer sites.
    """

    n: int
    sign: int = 1
    x_mask: int = 0
    linear: int = 0
    quadratic: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "n", _check_sites(self.n))
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        _check_mask(self.x_mask, self.n, "x_mask")
        _check_mask(self.linear, self.n, "linear")
        object.__setattr__(self, "quadratic",
                           frozenset(_site_pair(p, self.n) for p in self.quadratic))

    @property
    def xy_support(self) -> int:
        return self.x_mask.bit_count()


def normal_form(spec, setting) -> StabilizerProduct:
    """pauli._normal_form of a selected product, through the checking
    constructor."""
    return StabilizerProduct(spec.n, *_normal_form(spec, setting))


def try_to_pauli(s: StabilizerProduct) -> PauliString | None:
    """Collapse a StabilizerProduct to a signed Pauli word, or return None.

    Succeeds exactly when the quadratic part is empty: the diagonal tail is
    then a plain Z-mask and the word is a tensor product of Pauli letters.
    """
    if s.quadratic:
        return None
    phase = (0 if s.sign > 0 else 2) - (s.x_mask & s.linear).bit_count()
    phase %= 4
    if phase % 2:
        raise ValueError("operator is not Hermitian; cannot form a Pauli word")
    return PauliString(s.n, 1 if phase == 0 else -1, s.x_mask, s.linear)


def kron_chain(letters: str) -> np.ndarray:
    """Tensor product of per-site letters, site 1 in the least significant bit."""
    return reduce(np.kron, [MATS[c] for c in reversed(letters)])


def pauli_matrix(word) -> np.ndarray:
    """Dense matrix of a PauliString."""
    return word.sign * kron_chain(word.letters())


def stabilizer_product_matrix(sp) -> np.ndarray:
    """Dense matrix of a StabilizerProduct: sign * X-part * diag((-1)^f)."""
    n = sp.n
    dim = 1 << n
    xletters = "".join(
        "X" if (sp.x_mask >> (i - 1)) & 1 else "I" for i in range(1, n + 1)
    )
    diag = np.ones(dim)
    for z in range(dim):
        val = 0
        for i in range(n):
            if (sp.linear >> i) & 1 and (z >> i) & 1:
                val ^= 1
        for (a, b) in sp.quadratic:
            if (z >> (a - 1)) & 1 and (z >> (b - 1)) & 1:
                val ^= 1
        if val:
            diag[z] = -1.0
    return sp.sign * kron_chain(xletters) @ np.diag(diag)


def hypergraph_state_vector(h) -> np.ndarray:
    """|G~> assembled by scalar loops: uniform superposition, then a sign
    flip per edge/hyperedge whose bits are all 1."""
    n = h.n
    dim = 1 << n
    vec = np.full(dim, dim ** -0.5, dtype=complex)
    for z in range(dim):
        sign = 1
        for (i, j) in h.e2:
            if (z >> (i - 1)) & 1 and (z >> (j - 1)) & 1:
                sign = -sign
        for (i, j, k) in h.e3:
            if (z >> (i - 1)) & 1 and (z >> (j - 1)) & 1 and (z >> (k - 1)) & 1:
                sign = -sign
        vec[z] *= sign
    return vec


def per_edge_pure_state(spec) -> np.ndarray:
    """Reference for oracle.build_pure_state: the uniform real amplitude
    2^(-n/2), negated over the whole vector once per edge and hyperedge
    wherever its bits are all 1."""
    idx = np.arange(1 << spec.n, dtype=np.uint32)
    amps = np.full(1 << spec.n, 2.0 ** (-spec.n / 2.0))
    for row in spec.e2_rows.tolist() + spec.e3_rows.tolist():
        mask = np.uint32(sum(1 << (v - 1) for v in row))
        np.negative(amps, out=amps, where=(idx & mask) == mask)
    return amps


def kron_power_reference(m: np.ndarray, n: int, vec: np.ndarray) -> np.ndarray:
    """m^(x)n @ vec with the dense 2^n x 2^n Kronecker power of a real 2x2
    m; a complex vec is applied part by part so the matrix stays real."""
    full = reduce(np.kron, [m] * n)
    if np.iscomplexobj(vec):
        return full @ vec.real + 1j * (full @ vec.imag)
    return full @ vec


def mask_loop_thermal_density(spec, beta: float) -> np.ndarray:
    """Reference for oracle.thermal_density: the phase-flip mixture
    sum over masks of Pr(mask) * Z_mask |psi><psi| Z_mask, one complex row
    per mask in a Python loop, with psi from per_edge_pure_state."""
    from thermalverify import flip_probability

    n, dim = spec.n, 1 << spec.n
    psi = per_edge_pure_state(spec)
    p = flip_probability(beta)
    idx = np.arange(dim, dtype=np.uint32)
    weights = np.empty(dim)
    flipped = np.empty((dim, dim), dtype=np.complex128)
    for mask in range(dim):
        m = int(np.bitwise_count(np.uint32(mask)))
        weights[mask] = p**m * (1.0 - p) ** (n - m)
        flipped[mask] = (1.0 - 2.0 * (np.bitwise_count(idx & np.uint32(mask)) & 1)) * psi
    v = np.sqrt(weights)[:, None] * flipped
    return v.T @ v.conj()


def mixture_outcome_distribution(h, beta: float) -> np.ndarray:
    """Reference for supremacy.exact_outcome_distribution: the per-mask sum
    sum_e Pr(e) |H^n Z_e psi|^2 over every phase-flip mask e, with H^n and
    Z_e as kron products and psi from hypergraph_state_vector."""
    n = h.n
    x = math.exp(-2.0 * beta)
    p = x / (1.0 + x)
    hadamard = reduce(np.kron, [H2] * n)
    psi = hypergraph_state_vector(h)
    dist = np.zeros(1 << n)
    for mask in range(1 << n):
        m = bin(mask).count("1")
        weight = p**m * (1.0 - p) ** (n - m)
        if weight == 0.0:
            continue
        z_e = reduce(np.kron, [np.diag(Z2 if (mask >> i) & 1 else I2)
                               for i in reversed(range(n))])  # diagonal of Z_e
        dist += weight * np.abs(hadamard @ (z_e * psi)) ** 2
    return dist


@st.composite
def family_members(draw, sizes=(4, 6, 8)):
    """A restricted-family instance of one of the given sizes with a random
    set of two-vertex edges."""
    from thermalverify import build_family

    n = draw(st.sampled_from(sizes))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return build_family(n, e2=draw(st.sets(st.sampled_from(pairs), max_size=n)))


def all_graphs(n: int):
    """Every simple graph on n vertices (edge subsets of the complete graph)."""
    from thermalverify import HypergraphSpec

    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for b, p in enumerate(pairs) if (mask >> b) & 1)
        yield HypergraphSpec(n, e2=edges)


def path_graph(n: int):
    """The path 1-2-...-n as a HypergraphSpec."""
    from thermalverify import HypergraphSpec

    return HypergraphSpec(n, e2=[(i, i + 1) for i in range(1, n)])


def random_hypergraph(n: int, rng: np.random.Generator):
    """A random HypergraphSpec with a handful of edges and hyperedges."""
    from thermalverify import HypergraphSpec

    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    triples = [
        (i, j, k)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(j + 1, n + 1)
    ]
    e2 = frozenset(pairs[t] for t in rng.choice(len(pairs), size=min(3, len(pairs)), replace=False))
    e3 = frozenset()
    if triples:
        e3 = frozenset(
            triples[t] for t in rng.choice(len(triples), size=min(2, len(triples)), replace=False)
        )
    return HypergraphSpec(n, e2=e2, e3=e3)


def generator(h, i: int):
    """Generalized generator U X_i U^dagger of |G~> as a StabilizerProduct:
    X on vertex i, Z on each e2-neighbor and CZ on the other two vertices of
    each hyperedge through i, all found by scanning the edge rows."""
    if not 1 <= i <= h.n:
        raise ValueError(f"vertex {i} outside 1..{h.n}")
    edges = h.e2_rows[(h.e2_rows == i).any(axis=1)]
    triples = h.e3_rows[(h.e3_rows == i).any(axis=1)]
    z_mask = sum(1 << (v - 1) for v in edges[edges != i].tolist())
    pairs = frozenset(tuple(v for v in t if v != i) for t in triples.tolist())
    return StabilizerProduct(h.n, 1, 1 << (i - 1), z_mask, pairs)


def graph_generator(g, i: int):
    """Generator of the graph state |G> as a PauliString: X on vertex i, Z
    on each neighbor (the e3-empty generator collapsed to a word)."""
    return try_to_pauli(generator(g, i))


def multiply(a, b):
    """Normal form of the product a * b of two StabilizerProducts."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n} sites")
    # Push D_f(a) through b's X factors: substitute z -> z ^ c with
    # c = b.x_mask. Degree never rises; constants become sign.
    c = b.x_mask
    const = (a.linear & c).bit_count()
    linear = a.linear
    quadratic = set(a.quadratic)
    for (p, q) in a.quadratic:
        cp = (c >> (p - 1)) & 1
        cq = (c >> (q - 1)) & 1
        if cq:
            linear ^= 1 << (p - 1)
        if cp:
            linear ^= 1 << (q - 1)
        const += cp & cq
    linear ^= b.linear
    quadratic ^= b.quadratic
    sign = a.sign * b.sign * (-1 if const % 2 else 1)
    return StabilizerProduct(a.n, sign, a.x_mask ^ b.x_mask, linear, frozenset(quadratic))


def ascending_stabilizer_product(g, setting):
    """Reference for pauli.stabilizer_product: multiply the selected
    graph-state generators one by one, in ascending vertex order."""
    word = PauliString(g.n)
    for i, b in enumerate(parse_setting_reference(setting, g.n), start=1):
        if b:
            word = pauli_multiply(word, graph_generator(g, i))
    return word


def ascending_generalized_product(h, setting):
    """Reference for pauli._normal_form: multiply the selected generalized
    generators one by one, in ascending vertex order."""
    word = StabilizerProduct(h.n)
    for i, b in enumerate(parse_setting_reference(setting, h.n), start=1):
        if b:
            word = multiply(word, generator(h, i))
    return word


def gibbs_reference(h, beta: float) -> np.ndarray:
    """Reference for boltzmann_density: exp(-beta H)/Z for
    H = -sum_i stabilizer_product_matrix(generator(h, i)), the projector
    onto the ground space of H at beta = inf."""
    ham = -sum(stabilizer_product_matrix(generator(h, i)) for i in range(1, h.n + 1))
    evals, evecs = np.linalg.eigh(ham)
    if math.isinf(beta):
        weights = (evals <= evals[0] + 1e-9).astype(float)
    else:
        weights = np.exp(-beta * (evals - evals[0]))
    return (evecs * weights) @ evecs.conj().T / weights.sum()


MAX_HAMILTONIAN_N = 10


def boltzmann_density(spec, beta: float):
    """Thermal state as exp(-beta * H)/Z with H = -(sum of generators),
    via eigendecomposition of the dense Hamiltonian, as its 2^n x 2^n
    float64 matrix.

    The generator of vertex i is U X_i U^dagger, with U the product of the
    CZ and CCZ gates: the diagonal D of the pure state's amplitude signs.
    So H = -sum_i D X_i D, whose entry at (z ^ 2^(i-1), z) is
    -D[z ^ 2^(i-1)] * D[z], and H is real."""
    from thermalverify import build_pure_state
    from thermalverify.thermal import _check_beta

    if spec.n > MAX_HAMILTONIAN_N:
        raise ValueError(f"Hamiltonian route limited to n <= {MAX_HAMILTONIAN_N}, got {spec.n}")
    beta = _check_beta(beta)
    signs = np.sign(build_pure_state(spec))
    idx = np.arange(1 << spec.n, dtype=np.uint32)
    ham = np.zeros((1 << spec.n, 1 << spec.n))
    for i in range(spec.n):
        flipped = idx ^ np.uint32(1 << i)
        ham[flipped, idx] = -signs[flipped] * signs
    evals, evecs = np.linalg.eigh(ham)
    if math.isinf(beta):
        weights = (evals <= evals[0] + 1e-9).astype(float)
    else:
        weights = np.exp(-beta * (evals - evals[0]))
    return (evecs * weights) @ evecs.conj().T / weights.sum()


def _check_operator(op, shape: tuple, dims: int) -> np.ndarray:
    """The basis indices of a PauliString or StabilizerProduct, checked to
    act on a state of the given shape (dims axes of length 2^n)."""
    if not isinstance(op, (PauliString, StabilizerProduct)):
        raise TypeError(f"unsupported operator type {type(op).__name__}")
    if shape != (1 << op.n,) * dims:
        raise ValueError(f"operator on {op.n} sites cannot act on shape {shape}")
    return np.arange(1 << op.n, dtype=np.uint32)


def operator_coefficients(op, idx: np.ndarray) -> np.ndarray:
    """c over the basis indices idx with Op|z> = c[z] |z ^ x_mask>, for a
    PauliString (sign * i^|X&Z| * (-1)^(z.Z)) or a StabilizerProduct
    (sign * (-1)^f(z) with its phase polynomial f)."""
    from thermalverify.oracle import _signs

    if isinstance(op, PauliString):
        prefactor = op.sign * (1j) ** ((op.x_mask & op.z_mask).bit_count())
        return prefactor * _signs(idx, op.z_mask)
    acc = np.bitwise_count(idx & np.uint32(op.linear)).astype(np.uint32)
    for (a, b) in op.quadratic:
        acc += (idx >> np.uint32(a - 1)) & (idx >> np.uint32(b - 1)) & np.uint32(1)
    return op.sign * np.where(acc & 1, -1.0, 1.0)


def apply_operator(op, amplitudes: np.ndarray) -> np.ndarray:
    """Op|psi> for an amplitude vector: an index permutation and a sign."""
    idx = _check_operator(op, amplitudes.shape, 1)
    return (operator_coefficients(op, idx) * amplitudes)[idx ^ np.uint32(op.x_mask)]


def stabilizer_check(amplitudes, op) -> bool:
    """True iff Op|psi> = |psi> within 1e-10 (max norm), for an amplitude
    vector such as oracle.build_pure_state returns."""
    if not isinstance(amplitudes, np.ndarray):
        raise TypeError(f"unsupported state type {type(amplitudes).__name__}")
    return bool(np.max(np.abs(apply_operator(op, amplitudes) - amplitudes)) <= 1e-10)


def density_expectation(matrix: np.ndarray, op) -> float:
    """Tr[rho Op] = sum_z c[z] rho[z, z ^ x_mask] for a 2^n x 2^n density
    matrix and a PauliString or StabilizerProduct."""
    idx = _check_operator(op, matrix.shape, 2)
    value = np.sum(matrix[idx, idx ^ np.uint32(op.x_mask)] * operator_coefficients(op, idx))
    return float(value.real)


def conjugated_x_reference(n: int, bits, e2, e3):
    """Reference for pauli._normal_form: U X_S U^dagger summed edge by edge
    in pure Python, with e2/e3 iterables of sorted vertex tuples. (a, b)
    toggles linear[a] by s_b and linear[b] by s_a; (a, b, c) toggles the
    CZ pair (a, b) if s_c, (a, c) if s_b, (b, c) if s_a, and linear[a] by
    s_b s_c, and likewise for b and c; edges inside S flip the sign."""
    s = (0, *bits)  # s[v] is the bit of site v
    linear = [0] * (n + 1)
    negative = 0
    for (a, b) in e2:
        sa, sb = s[a], s[b]
        linear[a] ^= sb
        linear[b] ^= sa
        negative ^= sa & sb
    quadratic = set()
    for (a, b, c) in e3:
        sa, sb, sc = s[a], s[b], s[c]
        if sc:
            quadratic ^= {(a, b)}
        if sb:
            quadratic ^= {(a, c)}
        if sa:
            quadratic ^= {(b, c)}
        linear[a] ^= sb & sc
        linear[b] ^= sa & sc
        linear[c] ^= sa & sb
        negative ^= sa & sb & sc
    x_mask = sum(bit << (v - 1) for v, bit in enumerate(bits, start=1))
    z_mask = sum(bit << (v - 1) for v, bit in enumerate(linear[1:], start=1))
    return StabilizerProduct(n, -1 if negative else 1, x_mask, z_mask,
                             frozenset(quadratic))


def family_triples_reference(n: int) -> frozenset:
    """Reference for supremacy._family_rows: the four progressions from
    generators, each stopped at its last triple inside 1..n."""
    return frozenset(chain(
        ((4 * j - 3, 4 * j - 2, 4 * j - 1) for j in range(1, (n + 1) // 4 + 1)),
        ((4 * j - 3, 4 * j - 1, 4 * j) for j in range(1, n // 4 + 1)),
        ((4 * j - 1, 4 * j, 4 * j + 1) for j in range(1, (n - 1) // 4 + 1)),
        ((4 * j - 1, 4 * j + 1, 4 * j + 2) for j in range(1, (n - 2) // 4 + 1)),
    ))


@st.composite
def hypergraphs_with_selector(draw, max_n: int = 12):
    """A random HypergraphSpec on n <= max_n vertices and a 0/1 selector of
    length n. Edges may repeat or list their vertices out of order; the
    spec canonicalizes them."""
    from thermalverify import HypergraphSpec

    n = draw(st.integers(1, max_n))
    vertex = st.integers(1, n)

    def edges(arity):
        if n < arity:
            return []
        edge = st.lists(vertex, min_size=arity, max_size=arity, unique=True)
        return draw(st.lists(edge, max_size=2 * n))

    h = HypergraphSpec(n, e2=frozenset(map(tuple, edges(2))),
                       e3=frozenset(map(tuple, edges(3))))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return h, bits


def canonical_edge_reference(edge, n: int, arity: int) -> tuple[int, ...]:
    """Reference for graphs._canonical_edge: every edge takes every check."""
    name = "edge" if arity == 2 else "hyperedge"
    vertices = tuple(edge)
    if len(vertices) != arity:
        raise ValueError(f"{name} {tuple(edge)} must have {arity} vertices")
    for v in vertices:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{name} {tuple(edge)} has non-integer vertex {v!r}")
        if not 1 <= v <= n:
            raise ValueError(f"{name} {tuple(edge)} has vertex {v} outside 1..{n}")
        if v > 2**63 - 1:  # the rows are int64
            raise ValueError(f"{name} {tuple(edge)} has vertex {v} past the int64 limit 2**63 - 1")
    if len(set(vertices)) != arity:
        raise ValueError(f"{name} {tuple(edge)} has repeated vertices")
    return tuple(sorted(vertices))


def reference_edge_set(edges, n: int, arity: int):
    """The frozenset that canonical_edge_reference gives, edge by edge in
    input order, or the message of the first edge it rejects."""
    try:
        return frozenset(canonical_edge_reference(e, n, arity) for e in edges)
    except ValueError as exc:
        return str(exc)


@st.composite
def raw_edges(draw):
    """(n, arity, edge): the edge is a tuple or list of ints, bools, floats
    or np.int64, in any order, with repeats, out-of-range values and wrong
    lengths. Half of the draws start from a sorted edge inside 0..n+1, often
    canonical, whose vertices may then change type."""
    n = draw(st.integers(1, 8))
    arity = draw(st.sampled_from((2, 3)))
    values = draw(st.one_of(
        st.lists(st.integers(0, n + 1), min_size=arity, max_size=arity).map(sorted),
        st.lists(st.integers(-1, n + 2), min_size=arity - 1, max_size=arity + 1),
    ))

    def retyped(v):
        other = [float(v), v + 0.5, np.int64(v)] + [bool(v)] * (v in (0, 1))
        return st.one_of(st.just(v), st.sampled_from(other))

    vertices = [draw(retyped(v)) for v in values]
    return n, arity, draw(st.sampled_from((tuple, list)))(vertices)


@st.composite
def integer_edge_arrays(draw):
    """(n, arity, rows): an (m, arity) int64 or int32 array whose rows are
    sorted or not, may repeat a vertex or another row, and, in half of the
    draws, may hold vertices outside 1..n."""
    arity = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(arity, 9))
    valid = st.lists(st.integers(1, n), min_size=arity, max_size=arity, unique=True)
    row = st.one_of(valid, valid.map(sorted))
    if draw(st.booleans()):
        row = st.one_of(row, st.lists(st.integers(-1, n + 2), min_size=arity, max_size=arity))
    rows = draw(st.lists(row, min_size=1, max_size=12))
    rows = draw(st.permutations(rows + draw(st.lists(st.sampled_from(rows), max_size=4))))
    return n, arity, np.array(rows, dtype=draw(st.sampled_from((np.int64, np.int32))))


def exhaustive_parity_expectation(n: int, x_mask: int, p: float) -> float:
    """Brute-force infinite-sample mean: sum over all error masks of
    Pr(mask) * (-1)^(overlap with the X/Y support)."""
    total = 0.0
    for mask in range(1 << n):
        m = bin(mask).count("1")
        weight = p**m * (1.0 - p) ** (n - m)
        overlap = bin(mask & x_mask).count("1")
        total += weight * (-1.0 if overlap & 1 else 1.0)
    return total


def exact_setting_expectation(n: int, wt: int, beta: float) -> Fraction:
    """Bracket sum sum_m signed_pattern_count(n, wt, m) x^m / (1+x)^n in
    exact rationals, with x = exp(-2*beta) rounded to the float the package
    itself starts from."""
    from thermalverify import signed_pattern_count

    x = Fraction(math.exp(-2.0 * beta))
    total = Fraction(0)
    for m in range(n, -1, -1):  # Horner
        total = total * x + signed_pattern_count(n, wt, m)
    return total / (1 + x) ** n


def outcome_counts_reference(totals: np.ndarray, n: int) -> Counter:
    """Nonzero entries of a length-2^n totals vector keyed one index at a
    time by its n-bit string, site 1 first, in ascending index order."""
    return Counter({format(int(i), f"0{n}b")[::-1]: int(totals[i])
                    for i in np.flatnonzero(totals)})


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Standard (halved) total variation distance."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def from_letters(letters: str, sign: int = 1):
    """PauliString from a letter string like "XZIY" (site 1 first)."""
    x = z = 0
    for pos, c in enumerate(letters):
        if c == "X":
            x |= 1 << pos
        elif c == "Z":
            z |= 1 << pos
        elif c == "Y":
            x |= 1 << pos
            z |= 1 << pos
        elif c != "I":
            raise ValueError(f"unknown letter {c!r} at site {pos + 1}")
    return PauliString(len(letters), sign, x, z)


def letter(word, i: int) -> str:
    """Letter of site i of a PauliString, read off its two mask bits: the
    reference for PauliString.letters."""
    if not 1 <= i <= word.n:
        raise ValueError(f"site {i} outside 1..{word.n}")
    return _LETTERS[((word.x_mask >> (i - 1)) & 1, (word.z_mask >> (i - 1)) & 1)]


def _phase(word) -> int:
    # exponent p in the internal form i^p X^x Z^z
    p = (word.x_mask & word.z_mask).bit_count()
    if word.sign < 0:
        p += 2
    return p % 4


def pauli_multiply(a, b):
    """The Pauli-group product a * b of two PauliStrings; raises ValueError
    when it is not Hermitian."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n} sites")
    # (X^xa Z^za)(X^xb Z^zb) = (-1)^{za.xb} X^(xa^xb) Z^(za^zb)
    phase = _phase(a) + _phase(b)
    phase += 2 * (a.z_mask & b.x_mask).bit_count()
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    sign_phase = (phase - (x & z).bit_count()) % 4
    if sign_phase % 2:
        raise ValueError("product is not Hermitian (stray factor of i)")
    return PauliString(a.n, 1 if sign_phase == 0 else -1, x, z)


def sample_error_pattern(n: int, p_flip: float, rng: np.random.Generator) -> int:
    """One n-bit error pattern, each bit set independently with p_flip.

    Bit i-1 of the returned integer is the error on site i.
    """
    if not 0.0 <= p_flip <= 0.5:
        raise ValueError(f"need 0 <= p_flip <= 1/2, got {p_flip}")
    bits = rng.random(n) < p_flip
    mask = 0
    for pos in np.flatnonzero(bits):
        mask |= 1 << int(pos)
    return mask


def measure_outcome(pattern: int, setting) -> int:
    """Outcome of measuring `setting` after the errors in `pattern`:
    (-1)^(overlap of the pattern with the setting's X/Y sites)."""
    if pattern < 0 or pattern >> setting.n:
        raise ValueError(f"pattern {bin(pattern)} does not fit {setting.n} sites")
    return -1 if (pattern & setting.x_mask).bit_count() & 1 else 1


def _integral_bit_reference(value) -> int:
    bit = int(value)
    if bit != value:
        raise ValueError(f"setting bit {value!r} is not an integer")
    return bit


def parse_setting_reference(setting, n: int | None = None) -> tuple[int, ...]:
    """Reference for pauli._setting_bytes: the selector as a tuple of 0/1
    bits, converted value by value. Some invalid selectors raise TypeError
    here, or a ValueError from int(), where the package names the setting."""
    if isinstance(setting, str):
        if not set(setting) <= {"0", "1"}:
            raise ValueError(f"setting string must contain only 0/1, got {setting!r}")
        bits = tuple(map(int, setting))
    else:
        values = tuple(setting)
        try:
            raw = bytes(values)
        except (TypeError, ValueError):
            raw = b""
        if raw.count(0) + raw.count(1) == len(values):
            bits = tuple(raw)
        else:
            bits = tuple(map(_integral_bit_reference, values))
            if not set(bits) <= {0, 1}:
                raise ValueError(f"setting bits must be 0/1, got {setting!r}")
    if n is not None and len(bits) != n:
        raise ValueError(f"setting has {len(bits)} bits, expected {n}")
    return bits


def _finite(value):
    """`value` with every infinite float, at any depth, as "infinity" or "-infinity"."""
    if isinstance(value, float) and math.isinf(value):
        return "infinity" if value > 0 else "-infinity"
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def dumps_reference(doc) -> str:
    """Reference for cli._dumps: convert the infinities in a copy, then let
    the stdlib encode it."""
    return json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False)


def tanh_power_reference(beta: float, wt: int) -> Decimal:
    """tanh(beta)^wt to 80 significant digits for finite beta > 0: sinh/cosh
    by their Taylor series below beta = 1, (1 - e^(-2 beta))/(1 + e^(-2 beta))
    above."""
    with localcontext() as ctx:
        ctx.prec = 80
        b = Decimal(beta)
        if b >= 1:
            t = (-2 * b).exp()
            return ((1 - t) / (1 + t)) ** wt
        sinh = term_s = b
        cosh = term_c = Decimal(1)
        for k in range(1, 40):  # the last term is below b^80 / 80!
            term_s = term_s * b * b / ((2 * k) * (2 * k + 1))
            term_c = term_c * b * b / ((2 * k - 1) * (2 * k))
            sinh += term_s
            cosh += term_c
        return (sinh / cosh) ** wt
