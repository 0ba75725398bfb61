"""Dense brute-force ground truth at small qubit counts.

A pure state is its float64 amplitude vector: the CZ/CCZ sign pattern of a
HypergraphSpec's edge arrays (CZ only, for a graph) applied to the uniform
superposition, returned as built, up to n = 24 (MAX_STATEVECTOR_N, also the
cap of the X-basis functions in supremacy). The thermal state is the
explicit phase-flip mixture, one real GEMM over a 2^n x 2^n matrix of
weighted sign-flipped states: at n = 12 it takes about 1 s and a 256 MiB
tracemalloc peak on a 2-core VM. It is a weighted Gram matrix with unit
trace by construction, so it is returned without the DenseMixedState
constructor's checks. dense_expectation reads Tr[rho P] for a PauliString
P off the density matrix, the one dense expectation oracle-check and the
acceptance gate take. The second, independent route to the same state
(the Gibbs exponential of the generator Hamiltonian, n <= 10), the
StabilizerProduct coefficient map, the statevector operator map and the
stabilizer check are references only tests compare against; they live in
tests/util_dense.py.

A Kronecker power m^(x)n of a symmetric 2x2 matrix (the Hadamard transform
and the thermal flip mix, both applied by supremacy's X-basis functions)
acts on a statevector in ceil(n / _PASS_BITS) passes of _kron_power, each
one GEMM against the 2^k x 2^k factor m^(x)k that ping-pongs between the
vector and one spare buffer.

Computational-basis index convention: bit i-1 of the index is the state of
site i (site 1 is the least significant bit).
"""
from __future__ import annotations

from functools import cache

import numpy as np

from .pauli import PauliString
from .thermal import _built, flip_probability

MAX_STATEVECTOR_N = 24
MAX_DENSITY_N = 12

# Most bits one Kronecker pass transforms: 5 (32 x 32 factors) was fastest
# at n in {10, 16, 20, 24}, with one BLAS thread and with two.
_PASS_BITS = 5


def _indices(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.uint32)


def _signs(values: np.ndarray, mask: int) -> np.ndarray:
    return 1.0 - 2.0 * (np.bitwise_count(values & np.uint32(mask)) & 1)


class DenseMixedState:
    """A density operator on n qubits (Hermitian, unit trace, PSD); real
    input stays real.

    Positivity is eigenvalue-checked only up to dimension 1024; beyond that
    the check is skipped at construction for cost reasons. Each tolerance
    test is written so that NaN fails it.
    """

    def __init__(self, matrix, n: int):
        matrix = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
        dim = 1 << n
        if matrix.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got shape {matrix.shape}")
        herm = np.max(np.abs(matrix - matrix.conj().T))
        if not herm <= 1e-10:
            raise ValueError(f"matrix is not Hermitian: max deviation {herm:.3e}")
        tr = matrix.trace()
        if not abs(tr - 1.0) <= 1e-10:
            raise ValueError(f"matrix does not have unit trace: {tr}")
        if dim <= 1024:
            lowest = np.linalg.eigvalsh(matrix)[0]
            if not lowest >= -1e-10:
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


def _check_statevector_n(n: int) -> int:
    if n > MAX_STATEVECTOR_N:
        raise ValueError(f"statevector limited to n <= {MAX_STATEVECTOR_N}, got {n}")
    return n


def build_pure_state(spec) -> np.ndarray:
    """The float64 amplitude vector of a HypergraphSpec's state, unit norm
    by construction: uniform superposition with a sign flip wherever an
    edge's (or hyperedge's) bits are all 1. Built site by site: the half
    with z_v = 1 is the half with z_v = 0 times the signs of the edges whose
    largest vertex is v."""
    n = _check_statevector_n(spec.n)
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
    return amps


def thermal_density(spec, beta: float) -> DenseMixedState:
    """Thermal state as the explicit phase-flip mixture: sum over all error
    masks of Pr(mask) * Z_mask |psi><psi| Z_mask, returned unchecked (see
    the module docstring)."""
    if spec.n > MAX_DENSITY_N:
        raise ValueError(f"density mixture limited to n <= {MAX_DENSITY_N}, got {spec.n}")
    psi = build_pure_state(spec)
    p = flip_probability(beta)
    idx = _indices(spec.n)
    m = np.bitwise_count(idx)
    # row `mask` of v is sqrt(Pr(mask)) * Z_mask psi, so v.T @ v is the mixture
    v = _signs(idx[:, None], idx) * (np.sqrt(p**m * (1.0 - p) ** (spec.n - m))[:, None] * psi)
    return _built(DenseMixedState, matrix=v.T @ v, n=spec.n)


def dense_expectation(state, op) -> float:
    """Tr[rho * P] for a DenseMixedState rho and a PauliString P. P acts on
    a basis state as P|z> = c[z] |z ^ x_mask> with c[z] = sign *
    i^|X&Z| * (-1)^(z.Z), so the trace is the sum of c[z] rho[z, z ^ x_mask]."""
    if not isinstance(op, PauliString):
        raise TypeError(f"unsupported operator type {type(op).__name__}")
    if not isinstance(state, DenseMixedState):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if op.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, op n={op.n}")
    idx = _indices(op.n)
    coefficients = op.sign * (1j) ** ((op.x_mask & op.z_mask).bit_count()) * _signs(idx, op.z_mask)
    value = np.sum(state.matrix[idx, idx ^ np.uint32(op.x_mask)] * coefficients)
    if not abs(value.imag) <= 1e-10:
        raise RuntimeError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)


@cache
def _hadamard_factor(k: int) -> np.ndarray:
    """H^(x)k, read-only: entry (i, j) is (-1)^popcount(i & j) / 2^(k/2)."""
    i = np.arange(1 << k)
    factor = (1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)) * 2.0 ** (-k / 2.0)
    factor.flags.writeable = False
    return factor


@cache
def _xor_popcounts(k: int) -> np.ndarray:
    """popcount(i ^ j) for i, j < 2^k, read-only."""
    i = np.arange(1 << k)
    table = np.bitwise_count(i[:, None] ^ i)
    table.flags.writeable = False
    return table


def _flip_factor(k: int, p: float) -> np.ndarray:
    """C^(x)k for C = [[1-p, p], [p, 1-p]]: entry (i, j) is w[popcount(i ^ j)]
    with w[d] = (1-p)^(k-d) p^d."""
    d = np.arange(k + 1)
    return ((1.0 - p) ** (k - d) * p**d)[_xor_popcounts(k)]


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
