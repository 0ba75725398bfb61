"""The dense thermal oracle: ground truth for the closed forms at small n.

The thermal state is its float64 density matrix: the explicit phase-flip
mixture, one real GEMM over a 2^n x 2^n matrix of weighted sign-flipped
states, at n = 12 about 1 s and a 256 MiB tracemalloc peak on a 2-core VM.
It is a weighted Gram matrix with unit trace by construction, so it is
returned as built, and tests check those properties on the matrix itself.
dense_expectation reads Tr[rho P] for a PauliString P off that matrix, the
one dense expectation the acceptance gate takes; it checks the operator
type and the matrix shape of its outside input. The protocol never builds
a density matrix, so none of this is part of the package; the pure state
the mixture starts from is the package's oracle.build_pure_state, which the
X-basis sampler also runs.

Computational-basis index convention: bit i-1 of the index is the state of
site i (site 1 is the least significant bit).
"""
from __future__ import annotations

import numpy as np

from thermalverify.oracle import build_pure_state
from thermalverify.pauli import PauliString
from thermalverify.thermal import flip_probability

MAX_DENSITY_N = 12


def _indices(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.uint32)


def _signs(values: np.ndarray, mask: int) -> np.ndarray:
    return 1.0 - 2.0 * (np.bitwise_count(values & np.uint32(mask)) & 1)


def thermal_density(spec, beta: float) -> np.ndarray:
    """Thermal state as the explicit phase-flip mixture: the float64
    2^n x 2^n matrix of the sum over all error masks of
    Pr(mask) * Z_mask |psi><psi| Z_mask, returned as built (see the module
    docstring)."""
    if spec.n > MAX_DENSITY_N:
        raise ValueError(f"density mixture limited to n <= {MAX_DENSITY_N}, got {spec.n}")
    psi = build_pure_state(spec)
    p = flip_probability(beta)
    idx = _indices(spec.n)
    m = np.bitwise_count(idx)
    # row `mask` of v is sqrt(Pr(mask)) * Z_mask psi, so v.T @ v is the mixture
    v = _signs(idx[:, None], idx) * (np.sqrt(p**m * (1.0 - p) ** (spec.n - m))[:, None] * psi)
    return v.T @ v


def dense_expectation(rho, op) -> float:
    """Tr[rho * P] for a 2^n x 2^n density matrix rho, such as
    thermal_density returns, and a PauliString P. P acts on a basis state as
    P|z> = c[z] |z ^ x_mask> with c[z] = sign * i^|X&Z| * (-1)^(z.Z), so the
    trace is the sum of c[z] rho[z, z ^ x_mask]."""
    if not isinstance(op, PauliString):
        raise TypeError(f"unsupported operator type {type(op).__name__}")
    rho = np.asarray(rho)
    dim = 1 << op.n
    if rho.shape != (dim, dim):
        raise ValueError(f"operator on {op.n} sites needs a {dim}x{dim} density matrix, "
                         f"got shape {rho.shape}")
    idx = _indices(op.n)
    coefficients = op.sign * (1j) ** ((op.x_mask & op.z_mask).bit_count()) * _signs(idx, op.z_mask)
    value = np.sum(rho[idx, idx ^ np.uint32(op.x_mask)] * coefficients)
    if not abs(value.imag) <= 1e-10:
        raise RuntimeError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)
