"""Signed Pauli words and X-times-diagonal normal forms for stabilizer products.

Two operator representations live here:

* PauliString -- a tensor product of single-site I/X/Z/Y letters with a global
  sign, kept Hermitian (the Y letter absorbs the i in Y = iXZ, so eigenvalues
  are always +-1).
* StabilizerProduct -- sign * (product of X_i over an x-mask) * D_f, where D_f
  is diagonal with entries (-1)^f(z) and f is a boolean polynomial of degree
  at most two. Every product of graph-state stabilizers, or of their
  CZ-dressed hypergraph generalizations, has this normal form.

Sites are 1-indexed in every public signature; bit i-1 of a mask corresponds
to site i.

Every generator is U X_i U^dagger, with U the product of the CZ and CCZ
gates, so a selected product is U X_S U^dagger = sign * X_S * D_f.
generalized_product is the one route to that normal form, and
stabilizer_product, its collapse by try_to_pauli, the one route to the
measured Pauli word. Both take a HypergraphSpec (a graph is one with no
triples) and read its int64 edge arrays in place with whole-array numpy
operations, O(n + |E2| + |E3|): each edge's share of f is gathered
from the selector, the linear part is the parity of a bincount, the CZ
pairs are the pair keys with odd counts, and the masks are packed bits
read as one integer. The frozenset edge views are not built, and an empty
edge table is skipped. The selector travels as one bytes object of 0/1
values (_setting_bytes, which parse_setting also uses): a string is
translated, a tuple or list is packed in place, and no per-site tuple is
built on the way to the numpy view. Letter strings are formatted from whole
masks, so printing a word is O(n) as well.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .thermal import _built, _check_sites

# hex digit x + 2z of a site -> its letter (see PauliString.letters)
_HEX_LETTERS = str.maketrans("0123", "IXZY")


def _mask_from_bits(bits: np.ndarray) -> int:
    """Mask with bit i-1 set where bits[i-1] is nonzero (site 1 first)."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _check_mask(mask: int, n: int, name: str) -> None:
    if mask < 0 or mask >> n:
        raise ValueError(f"{name} {bin(mask)} does not fit {n} sites")


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


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")


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
        if setting.strip("01"):
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


def leading_half_setting(n: int) -> tuple[int, ...]:
    """The selector 1^(n/2) 0^(n/2); requires even n >= 2."""
    n = _check_sites(n, even_from=2, need="half-weight selector needs")
    return (1,) * (n // 2) + (0,) * (n // 2)


def alternating_setting(n: int) -> tuple[int, ...]:
    """The selector 0101...01 picking every even site; requires even n >= 2."""
    n = _check_sites(n, even_from=2, need="alternating selector needs")
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
        _check_sign(self.sign)
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

    @property
    def xy_support(self) -> int:
        """Number of sites carrying X or Y."""
        return self.x_mask.bit_count()


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
        _check_sign(self.sign)
        _check_mask(self.x_mask, self.n, "x_mask")
        _check_mask(self.linear, self.n, "linear")
        object.__setattr__(self, "quadratic",
                           frozenset(_site_pair(p, self.n) for p in self.quadratic))

    @property
    def xy_support(self) -> int:
        return self.x_mask.bit_count()


def stabilizer_product(spec, setting) -> PauliString:
    """Product of the generators of a HypergraphSpec selected by the bits
    of `setting`, as the signed Pauli word it measures.

    The generalized_product collapsed by try_to_pauli: on a graph, X on the
    selected set S, Z^(|N(j) & S| mod 2) on each site j, and sign
    (-1)^(|E(S)| + |X & Z| / 2), where E(S) are the edges inside S and the
    second term turns each XZ into a Y letter. Sites with selector bit 1 are
    exactly the sites carrying X or Y in the result. Raises ValueError when
    CZ tails remain (three-vertex edges the selector does not cancel).
    """
    word = try_to_pauli(generalized_product(spec, setting))
    if word is None:
        raise ValueError(
            "selector does not reduce to a Pauli word on this hypergraph; "
            "choose a selector whose CZ tails cancel (e.g. 0101...01 on the "
            "restricted family)"
        )
    return word


def generalized_product(spec, setting) -> StabilizerProduct:
    """Normal-form product of the generalized generators of a HypergraphSpec
    selected by `setting`, equal to their product in ascending vertex order
    (they commute): U X_S U^dagger, for U the product of CZ over the e2 rows
    and CCZ over the e3 rows and S the sites whose bit is 1. The edge rows
    are read in place.

    Every generator is U X_i U^dagger, so the product over S is
    U X_S U^dagger = X_S D_f with f(z) = sum over edges e of
    prod_{v in e} (z_v ^ s_v) + prod_{v in e} z_v. Expanding one edge at a
    time: (a, b) adds s_b z_a + s_a z_b; (a, b, c) adds the CZ pair (a, b)
    if s_c, (a, c) if s_b, (b, c) if s_a, and the linear terms s_b s_c z_a,
    s_a s_c z_b, s_a s_b z_c. The constant term, the number of edges inside
    S, becomes the sign. All edges are summed at once: a linear bit is the
    parity of its toggle count, a CZ pair survives when its count is odd.
    The masks fit n sites and each pair (a, b) of ascending edge rows has
    1 <= a < b <= n, so the result is stored without StabilizerProduct's
    re-check.
    """
    n = spec.n
    s = np.zeros(n + 1, dtype=bool)  # s[v] is the bit of site v
    s[1:] = np.frombuffer(_setting_bytes(setting, n), dtype=np.uint8)
    toggled = [np.empty(0, np.int64)]  # one entry per linear-term toggle
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
    linear = np.bincount(np.concatenate(toggled), minlength=n + 1) & 1
    return _built(StabilizerProduct, n=n, sign=-1 if inside & 1 else 1,
                  x_mask=_mask_from_bits(s[1:]), linear=_mask_from_bits(linear[1:]),
                  quadratic=quadratic)


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
