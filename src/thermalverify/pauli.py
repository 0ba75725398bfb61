"""Signed Pauli words and the reduction of a selected stabilizer product
to one.

PauliString is a tensor product of single-site I/X/Z/Y letters with a
global sign, kept Hermitian (the Y letter absorbs the i in Y = iXZ, so
eigenvalues are always +-1). Sites are 1-indexed in every public signature;
bit i-1 of a mask corresponds to site i.

Every generator is U X_i U^dagger, with U the product of the CZ and CCZ
gates, so a selected product is U X_S U^dagger = sign * X_S * D_f, where
D_f is diagonal with entries (-1)^f(z) and f is a boolean polynomial of
degree at most two. stabilizer_product is the one route from a selector to
the measured Pauli word: _normal_form computes (sign, X_S, f) and
stabilizer_product collapses it to letters, which succeeds exactly when f
has no CZ pair left. _normal_form takes a HypergraphSpec (a graph is one
with no triples) and reads its int64 edge arrays in place with
whole-array numpy operations, O(n + |E2| + |E3|): each edge's share of f
is gathered from the selector, the linear part is the parity of a
bincount, the CZ pairs are the pair keys with odd counts, and the masks
are packed bits read as one integer. The frozenset edge views are not
built, and an empty edge table is skipped: a spec with no edges runs no
tally at all. The selector travels as one bytes object of 0/1 values
(_setting_bytes, which parse_setting also uses): a string is translated, a
tuple or list is packed in place, and no per-site tuple is built on the
way to the numpy view. Letter strings are formatted from whole masks, so
printing a word is O(n) as well.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .thermal import _check_sites

# hex digit x + 2z of a site -> its letter (see PauliString.letters)
_HEX_LETTERS = str.maketrans("0123", "IXZY")


def _mask_from_bits(bits: np.ndarray) -> int:
    """Mask with bit i-1 set where bits[i-1] is nonzero (site 1 first)."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _check_mask(mask: int, n: int, name: str) -> None:
    if mask < 0 or mask >> n:
        raise ValueError(f"{name} {bin(mask)} does not fit {n} sites")


_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _integral_bit(value, setting) -> int:
    """`value` as the bit it equals, 0 or 1, else a ValueError naming the
    setting."""
    try:
        bit = int(value)
    except (TypeError, ValueError, OverflowError):
        bit = None
    if bit is None or bit != value:
        raise ValueError(f"setting bit {value!r} is not an integer, in setting {setting!r}")
    if bit not in (0, 1):
        raise ValueError(f"setting bits must be 0/1, got {setting!r}")
    return bit


def _setting_bytes(setting, n: int | None = None) -> bytes:
    """A selector as one bytes object of 0/1 values, site 1 first, checked
    as parse_setting describes. A tuple or list is read in place."""
    if isinstance(setting, str):
        # isascii first: encode() raises on a lone surrogate
        if not setting.isascii() or setting.encode().translate(None, b"01"):
            raise ValueError(f"setting string must contain only 0/1, got {setting!r}")
        bits = setting.encode().translate(_DIGIT_BITS)
    else:
        try:
            values = setting if isinstance(setting, (tuple, list)) else tuple(setting)
        except TypeError:
            raise ValueError(f"setting must be a 0/1 string or sequence, got {setting!r}") from None
        try:
            bits = bytes(values)  # the usual case: integers in 0..255
        except (TypeError, ValueError):  # 1.0 or np.True_, say, or an invalid value
            bits = bytes([_integral_bit(value, setting) for value in values])
        if bits.count(0) + bits.count(1) != len(bits):
            raise ValueError(f"setting bits must be 0/1, got {setting!r}")
    if n is not None and len(bits) != n:
        raise ValueError(f"setting has {len(bits)} bits, expected {n}")
    return bits


def parse_setting(setting, n: int | None = None) -> tuple[int, ...]:
    """Normalize a selector to a tuple of 0/1 bits (site 1 first).

    Accepts a string like "1100" or any sequence of values equal to 0 or 1;
    a value that is not integral (0.5, say) is rejected, not truncated, and
    every rejected selector is a ValueError that names it.
    """
    return tuple(_setting_bytes(setting, n))


def _check_selector_sites(n: int) -> int:
    """n, if a selector of n entries can be built: n < sys.maxsize, so that
    the n + 1 entry array of _normal_form has an index-sized length."""
    if n >= sys.maxsize:
        raise ValueError(f"need n < {sys.maxsize} (sys.maxsize) to build a selector, got {n}")
    return n


def leading_half_setting(n: int) -> tuple[int, ...]:
    """The selector 1^(n/2) 0^(n/2); requires even n >= 2."""
    n = _check_selector_sites(_check_sites(n, even_from=2, need="half-weight selector needs"))
    return (1,) * (n // 2) + (0,) * (n // 2)


def alternating_setting(n: int) -> tuple[int, ...]:
    """The selector 0101...01 picking every even site; requires even n >= 2."""
    n = _check_selector_sites(_check_sites(n, even_from=2, need="alternating selector needs"))
    return (0, 1) * (n // 2)


@dataclass(frozen=True)
class PauliString:
    """A Hermitian signed Pauli word on n sites.

    Site letters are read off the mask bits: (x, z) = (0,0) I, (1,0) X,
    (0,1) Z, (1,1) Y. The stored sign is the full prefactor; every
    PauliString squares to the identity.
    """

    n: int
    sign: int = 1
    x_mask: int = 0
    z_mask: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _check_sites(self.n))
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        _check_mask(self.x_mask, self.n, "x_mask")
        _check_mask(self.z_mask, self.n, "z_mask")

    def letters(self) -> str:
        # Read each mask's binary digits as hex digits, so that site i owns
        # hex digit i-1 of the sum x + 2z; one format call then yields every
        # site's letter code at once.
        code = int(format(self.x_mask, "b"), 16) + 2 * int(format(self.z_mask, "b"), 16)
        return format(code, f"0{self.n}x")[::-1].translate(_HEX_LETTERS)

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + self.letters()

    def __repr__(self) -> str:
        # masks in hex: Python refuses to write an int of more than 4300 decimal
        # digits, which a mask reaches at about 14 300 sites
        return (f"PauliString(n={self.n}, sign={self.sign}, x_mask={self.x_mask:#x}, "
                f"z_mask={self.z_mask:#x})")

    @property
    def xy_support(self) -> int:
        """Number of sites carrying X or Y."""
        return self.x_mask.bit_count()


def stabilizer_product(spec, setting) -> PauliString:
    """Product of the generators of a HypergraphSpec selected by the bits
    of `setting`, as the signed Pauli word it measures.

    The normal form sign * X_S * D_f collapsed to letters: on a graph, X on
    the selected set S, Z^(|N(j) & S| mod 2) on each site j, and sign
    (-1)^(|E(S)| + |X & Z| / 2), where E(S) are the edges inside S and the
    second term turns each XZ into a Y letter. Sites with selector bit 1 are
    exactly the sites carrying X or Y in the result. Raises ValueError when
    CZ tails remain (three-vertex edges the selector does not cancel).

    |X & Z| is always even: each generator is Hermitian (U is a real +-1
    diagonal) and they commute, so their product is Hermitian too.
    """
    sign, x_mask, linear, quadratic = _normal_form(spec, setting)
    if quadratic:
        raise ValueError(
            "selector does not reduce to a Pauli word on this hypergraph; "
            "choose a selector whose CZ tails cancel (e.g. 0101...01 on the "
            "restricted family)"
        )
    if (x_mask & linear).bit_count() % 4 == 2:
        sign = -sign
    return PauliString(spec.n, sign, x_mask, linear)


def _normal_form(spec, setting) -> tuple[int, int, int, frozenset]:
    """(sign, x_mask, linear, quadratic) of the product of the generalized
    generators of a HypergraphSpec selected by `setting`, equal to their
    product in ascending vertex order (they commute): U X_S U^dagger =
    sign * X^x_mask * D_f with f(z) = sum_i linear_i z_i +
    sum_{(i,j) in quadratic} z_i z_j (mod 2), for U the product of CZ over
    the e2 rows and CCZ over the e3 rows and S the sites whose bit is 1.
    The edge rows are read in place.

    Every generator is U X_i U^dagger, so the product over S is
    U X_S U^dagger = X_S D_f with f(z) = sum over edges e of
    prod_{v in e} (z_v ^ s_v) + prod_{v in e} z_v. Expanding one edge at a
    time: (a, b) adds s_b z_a + s_a z_b; (a, b, c) adds the CZ pair (a, b)
    if s_c, (a, c) if s_b, (b, c) if s_a, and the linear terms s_b s_c z_a,
    s_a s_c z_b, s_a s_b z_c. The constant term, the number of edges inside
    S, becomes the sign. All edges are summed at once: a linear bit is the
    parity of its toggle count, a CZ pair survives when its count is odd.
    Every pair (a, b) comes from an ascending edge row, so 1 <= a < b <= n.
    """
    n = spec.n
    bits = _setting_bytes(setting, n)  # checked before the n + 1 entry array is allocated
    s = np.zeros(n + 1, dtype=bool)  # s[v] is the bit of site v
    s[1:] = np.frombuffer(bits, dtype=np.uint8)
    toggled = []  # one entry per linear-term toggle
    inside = 0
    quadratic = frozenset()
    if len(spec.e2_rows):
        a, b = spec.e2_rows.T
        sa, sb = s[a], s[b]
        toggled += [a[sb], b[sa]]
        inside += np.count_nonzero(sa & sb)
    if len(spec.e3_rows):
        a, b, c = spec.e3_rows.T
        sa, sb, sc = s[a], s[b], s[c]
        toggled += [a[sb & sc], b[sa & sc], c[sa & sb]]
        inside += np.count_nonzero(sa & sb & sc)
        keys = (np.concatenate((a[sc], a[sb], b[sa])) * (n + 1)
                + np.concatenate((b[sc], c[sb], c[sa])))
        keys, counts = np.unique(keys, return_counts=True)
        first, second = np.divmod(keys[counts & 1 == 1], n + 1)
        quadratic = frozenset(zip(first.tolist(), second.tolist()))
    linear = 0
    if toggled:
        linear = _mask_from_bits(np.bincount(np.concatenate(toggled), minlength=n + 1)[1:] & 1)
    return -1 if inside & 1 else 1, _mask_from_bits(s[1:]), linear, quadratic
