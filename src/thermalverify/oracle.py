"""Statevectors at small qubit counts, for the X-basis sampler.

A pure state is its float64 amplitude vector: the CZ/CCZ sign pattern of a
HypergraphSpec's edge arrays (CZ only, for a graph) applied to the uniform
superposition, returned as built, up to n = 24 (MAX_STATEVECTOR_N, also the
cap of the X-basis functions in supremacy). The dense thermal mixture, the
Gibbs exponential of the generator Hamiltonian, the X-times-diagonal
normal form StabilizerProduct with its coefficient map, the statevector
operator map and the stabilizer check are references only tests compare
against; they live in tests/util_oracle.py and tests/util_dense.py.

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

MAX_STATEVECTOR_N = 24

# Most bits one Kronecker pass transforms: 5 (32 x 32 factors) was fastest
# at n in {10, 16, 20, 24}, with one BLAS thread and with two.
_PASS_BITS = 5


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
            # NumPy 2.4 miscomputes np.negative(v, out=v) when the view v
            # has an inner element stride of 8 (4 for float32); a view here
            # fixes at most two bits, so its inner stride is 1, 2 or 4
            flipped = _ones_view(high, bits)
            np.negative(flipped, out=flipped)
    return amps


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
