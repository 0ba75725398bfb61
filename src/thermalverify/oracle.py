"""Dense brute-force ground truth at small qubit counts.

Pure states are real: the CZ/CCZ sign pattern of a HypergraphSpec's edge
arrays (CZ only, for a graph) applied to the uniform
superposition; thermal states are assembled two independent ways (explicit
phase-flip mixture, and the Gibbs exponential of the generator Hamiltonian)
so the equivalence between the two pictures is something this package
verifies rather than assumes. The Hamiltonian is H = -sum_i D X_i D, with D
the diagonal sign pattern of the pure state and X_i an index flip, so it
shares no code with the symbolic generators in pauli that it cross-checks.

Every supported operator (PauliString, StabilizerProduct) acts on a basis
state as Op|z> = c[z] |z ^ x_mask>; one coefficient map c serves operator
application and mixed-state expectations. Operators apply to statevectors
as that index-permutation + sign map, never as dense matrices, which keeps
checks feasible up to n = 24 (MAX_STATEVECTOR_N, also the cap of the X-basis
functions in supremacy). Dense matrices appear only in the Hamiltonian route
(n <= 10) and density operators (n <= 12; note n = 12 allocates ~0.5 GB).

A Kronecker power m^(x)n of a symmetric 2x2 matrix (the Hadamard transform
and the thermal flip mix, both applied by supremacy's X-basis functions)
acts on a statevector in ceil(n / _PASS_BITS) passes of _kron_power, each
one GEMM against the 2^k x 2^k factor m^(x)k that ping-pongs between the
vector and one spare buffer.

Computational-basis index convention: bit i-1 of the index is the state of
site i (site 1 is the least significant bit).
"""
from __future__ import annotations

import math
from functools import cache

import numpy as np

from .pauli import PauliString, StabilizerProduct
from .thermal import _check_beta, flip_probability

MAX_STATEVECTOR_N = 24
MAX_DENSITY_N = 12
MAX_HAMILTONIAN_N = 10

# Most bits one Kronecker pass transforms: 5 (32 x 32 factors) was fastest
# at n in {10, 16, 20, 24}, with one BLAS thread and with two.
_PASS_BITS = 5


def _indices(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.uint32)


def _signs(values: np.ndarray, mask: int) -> np.ndarray:
    return 1.0 - 2.0 * (np.bitwise_count(values & np.uint32(mask)) & 1)


def _operator_sites(op) -> int:
    """Site count of a supported operator; anything else is a TypeError."""
    if not isinstance(op, (PauliString, StabilizerProduct)):
        raise TypeError(f"unsupported operator type {type(op).__name__}")
    return op.n


def _coefficients(op, idx: np.ndarray) -> np.ndarray:
    """c over the basis indices idx with Op|z> = c[z] |z ^ x_mask>, for a
    PauliString (sign * i^|X&Z| * (-1)^(z.Z)) or a StabilizerProduct
    (sign * (-1)^f(z) with its phase polynomial f)."""
    if isinstance(op, PauliString):
        prefactor = op.sign * (1j) ** ((op.x_mask & op.z_mask).bit_count())
        return prefactor * _signs(idx, op.z_mask)
    acc = np.bitwise_count(idx & np.uint32(op.linear)).astype(np.uint32)
    for (a, b) in op.quadratic:
        acc += (idx >> np.uint32(a - 1)) & (idx >> np.uint32(b - 1)) & np.uint32(1)
    return op.sign * np.where(acc & 1, -1.0, 1.0)


class DenseState:
    """A normalized statevector on n qubits; real input stays real."""

    def __init__(self, amplitudes, n: int):
        amplitudes = np.asarray(amplitudes, dtype=complex if np.iscomplexobj(amplitudes) else float)
        if amplitudes.shape != (1 << n,):
            raise ValueError(f"expected 2^{n} amplitudes, got shape {amplitudes.shape}")
        norm = np.linalg.norm(amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        self.amplitudes = amplitudes
        self.n = n


class DenseMixedState:
    """A density operator on n qubits (Hermitian, unit trace, PSD).

    Positivity is eigenvalue-checked only up to dimension 1024; beyond that
    the check is skipped at construction for cost reasons.
    """

    def __init__(self, matrix, n: int):
        matrix = np.asarray(matrix, dtype=np.complex128)
        dim = 1 << n
        if matrix.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got shape {matrix.shape}")
        herm = np.max(np.abs(matrix - matrix.conj().T))
        if herm > 1e-10:
            raise ValueError(f"matrix is not Hermitian: max deviation {herm:.3e}")
        tr = matrix.trace()
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"matrix does not have unit trace: {tr}")
        if dim <= 1024:
            lowest = np.linalg.eigvalsh(matrix)[0]
            if lowest < -1e-10:
                raise ValueError(f"matrix is not PSD: lowest eigenvalue {lowest:.3e}")
        self.matrix = matrix
        self.n = n


def _ones_view(block: np.ndarray, bits) -> np.ndarray:
    """View of the entries of a length-2^m block whose index has every one
    of the given (0-based, ascending) bits set."""
    shape, index, top = [], [], block.size.bit_length() - 1
    for b in reversed(bits):
        shape += [1 << (top - b - 1), 2]
        index += [slice(None), 1]
        top = b
    return block.reshape(shape + [1 << top])[tuple(index)]


def build_pure_state(spec) -> DenseState:
    """Real statevector of a HypergraphSpec's state: uniform superposition
    with a sign flip wherever an edge's (or hyperedge's) bits are all 1.
    Built site by site: the half with z_v = 1 is the half with z_v = 0 times
    the signs of the edges whose largest vertex is v."""
    n = spec.n
    if n > MAX_STATEVECTOR_N:
        raise ValueError(f"statevector limited to n <= {MAX_STATEVECTOR_N}, got {n}")
    others = [[] for _ in range(n + 1)]  # 0-based lower bits, per largest vertex
    for *rest, top in spec.e2_rows.tolist() + spec.e3_rows.tolist():
        others[top].append([v - 1 for v in rest])
    amps = np.empty(1 << n)
    amps[0] = 2.0 ** (-n / 2.0)
    for v in range(1, n + 1):
        low, high = amps[: 1 << (v - 1)], amps[1 << (v - 1): 1 << v]
        high[...] = low
        for bits in others[v]:
            flipped = _ones_view(high, bits)
            np.negative(flipped, out=flipped)
    return DenseState(amps, n)


def apply_operator(op, amplitudes: np.ndarray) -> np.ndarray:
    """Apply a PauliString or StabilizerProduct to a statevector array."""
    n = _operator_sites(op)
    if n > MAX_STATEVECTOR_N:
        raise ValueError(f"statevector maps limited to n <= {MAX_STATEVECTOR_N}, got {n}")
    if amplitudes.shape != (1 << n,):
        raise ValueError(f"operator on {n} sites cannot act on shape {amplitudes.shape}")
    idx = _indices(n)
    vals = _coefficients(op, idx) * amplitudes
    return vals[idx ^ np.uint32(op.x_mask)]


def thermal_density(spec, beta: float) -> DenseMixedState:
    """Thermal state as the explicit phase-flip mixture: sum over all error
    masks of Pr(mask) * Z_mask |psi><psi| Z_mask."""
    if spec.n > MAX_DENSITY_N:
        raise ValueError(f"density mixture limited to n <= {MAX_DENSITY_N}, got {spec.n}")
    psi = build_pure_state(spec).amplitudes
    p = flip_probability(beta)
    dim = 1 << spec.n
    if p == 0.0:
        return DenseMixedState(np.outer(psi, psi.conj()), spec.n)
    idx = _indices(spec.n)
    weights = np.empty(dim)
    flipped = np.empty((dim, dim), dtype=np.complex128)
    for mask in range(dim):
        m = int(np.bitwise_count(np.uint32(mask)))
        weights[mask] = p**m * (1.0 - p) ** (spec.n - m)
        flipped[mask] = _signs(idx, mask) * psi
    v = np.sqrt(weights)[:, None] * flipped
    rho = v.T @ v.conj()  # sum over masks of w * |flipped><flipped|
    return DenseMixedState(rho, spec.n)


def boltzmann_density(spec, beta: float) -> DenseMixedState:
    """Thermal state as exp(-beta * H)/Z with H = -(sum of generators),
    via eigendecomposition of the dense Hamiltonian.

    The generator of vertex i is U X_i U^dagger, with U the product of the
    CZ and CCZ gates: the diagonal D of the pure state's amplitude signs.
    So H = -sum_i D X_i D, whose entry at (z ^ 2^(i-1), z) is
    -D[z ^ 2^(i-1)] * D[z], and H is real."""
    if spec.n > MAX_HAMILTONIAN_N:
        raise ValueError(f"Hamiltonian route limited to n <= {MAX_HAMILTONIAN_N}, got {spec.n}")
    beta = _check_beta(beta)
    signs = np.sign(build_pure_state(spec).amplitudes)
    idx = _indices(spec.n)
    ham = np.zeros((1 << spec.n, 1 << spec.n))
    for i in range(spec.n):
        flipped = idx ^ np.uint32(1 << i)
        ham[flipped, idx] = -signs[flipped] * signs
    evals, evecs = np.linalg.eigh(ham)
    if math.isinf(beta):
        ground = evals <= evals[0] + 1e-9
        weights = ground.astype(float)
    else:
        weights = np.exp(-beta * (evals - evals[0]))
    rho = (evecs * weights) @ evecs.conj().T / weights.sum()
    return DenseMixedState(rho, spec.n)


def dense_expectation(state, op) -> float:
    """Tr[rho * Op] for a DenseMixedState, or <psi|Op|psi> for a DenseState."""
    n = _operator_sites(op)
    if isinstance(state, DenseState):
        if n != state.n:
            raise ValueError(f"dimension mismatch: state n={state.n}, op n={n}")
        value = np.vdot(state.amplitudes, apply_operator(op, state.amplitudes))
    elif isinstance(state, DenseMixedState):
        if n != state.n:
            raise ValueError(f"dimension mismatch: state n={state.n}, op n={n}")
        idx = _indices(n)
        coeff = _coefficients(op, idx)
        value = np.sum(state.matrix[idx, idx ^ np.uint32(op.x_mask)] * coeff)
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if abs(value.imag) > 1e-10:
        raise RuntimeError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)


def stabilizer_check(state: DenseState, op) -> bool:
    """True iff Op|psi> = |psi> within 1e-10 (max norm)."""
    applied = apply_operator(op, state.amplitudes)
    return bool(np.max(np.abs(applied - state.amplitudes)) <= 1e-10)


@cache
def _hadamard_factor(k: int) -> np.ndarray:
    """H^(x)k, read-only: entry (i, j) is (-1)^popcount(i & j) / 2^(k/2)."""
    i = np.arange(1 << k)
    factor = (1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)) * 2.0 ** (-k / 2.0)
    factor.flags.writeable = False
    return factor


def _flip_factor(k: int, p: float) -> np.ndarray:
    """C^(x)k for C = [[1-p, p], [p, 1-p]]: entry (i, j) is w[popcount(i ^ j)]
    with w[d] = (1-p)^(k-d) p^d."""
    i, d = np.arange(1 << k), np.arange(k + 1)
    return ((1.0 - p) ** (k - d) * p**d)[np.bitwise_count(i[:, None] ^ i)]


def _kron_power(vec: np.ndarray, spare: np.ndarray, factor) -> tuple[np.ndarray, np.ndarray]:
    """m^(x)n applied to a length-2^n vector, m a symmetric 2x2 matrix with
    m^(x)k = factor(k), called once per distinct k. Each pass applies m^(x)k
    to the lowest k index bits and writes the result transposed, so they
    become the highest; after all n bits the order is restored. Overwrites
    vec and spare (same shape and dtype); returns (result, the other one)."""
    n = vec.size.bit_length() - 1
    passes = -(-n // _PASS_BITS)
    sizes = [n // passes + (j < n % passes) for j in range(passes)]
    factors = {k: factor(k) for k in set(sizes)}
    for k in sizes:
        np.matmul(factors[k], vec.reshape(-1, 1 << k).T, out=spare.reshape(1 << k, -1))
        vec, spare = spare, vec
    return vec, spare
