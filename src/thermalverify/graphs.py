"""Graph and hypergraph specifications and their JSON interchange format.

Vertices are 1-indexed everywhere in the public interface. Edges connect two
distinct vertices, hyperedges three. Edge sets use set semantics: duplicates
collapse, storage is canonical. HypergraphSpec is the one spec type: a graph
is the case with no hyperedges, HypergraphSpec(n, e2=edges).

Storage is one sorted, deduplicated, read-only int64 array per edge set, of
shape (m, 2) for edges and (m, 3) for hyperedges, each row ascending and the
rows in lexicographic order (e2_rows and e3_rows). The constructor accepts
integer ndarrays and any iterable of edges. Integer ndarrays, and lists or
tuples of edges whose every vertex is a plain int, are validated with
whole-array operations: sort each row only if some row does not already
ascend, require 1 <= a < b (< c) <= n, then lexsort and deduplicate only
if the rows are not already in strictly ascending order. Every other
input, and any input that fails those checks, takes the per-edge checks in
input order (an ndarray as its tolist() rows), so an error names the first
offending edge. An empty edge collection, such as the default e2 or e3,
takes none of these steps: every empty edge set is the same read-only
(0, 2) or (0, 3) array.

The public e2 and e3 stay frozensets of sorted tuples: they are views of
the arrays, built on each read and not stored. The setting reductions in
pauli and the statevector builder in oracle read the arrays and never
build the views.

load_hypergraph reads a graph file by one of two routes. The byte route
takes the layout json.dumps writes for to_dict(), in any JSON whitespace.
It parses first: each edge array goes through np.fromstring into int64
values, and the number of values gives the array's edge count. It checks
after: the file's structure must be exactly the one those counts imply,
compared with bytes.count and startswith, which copy nothing. The rows go
to the constructor, which validates them; no Python object is built per
edge. Every other document (other key orders, other value types, anything
malformed) takes the JSON route: json.loads with the garbage collector
paused, then the dict checks. to_dict pauses it too, while it builds one
list per edge. A document the byte route takes loads to the spec, or
raises the error, that json.loads of it would give.
"""
from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .thermal import _check_integer, _check_sites


def _canonical_edge(edge, n: int, arity: int) -> tuple[int, ...]:
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


def _plain_int_rows(edges, arity: int) -> np.ndarray | None:
    """edges as an (m, arity) int64 array if it is a list or tuple of lists
    and tuples of arity vertices, each of type exactly int (so no bool),
    else None."""
    if (set(map(type, edges)) <= {tuple, list} and set(map(len, edges)) <= {arity}
            and set(map(type, chain.from_iterable(edges))) <= {int}):
        try:
            flat = np.fromiter(chain.from_iterable(edges), np.int64, arity * len(edges))
        except OverflowError:  # a vertex beyond int64
            return None
        return flat.reshape(-1, arity)
    return None


def _checked_rows(rows: np.ndarray, n: int, arity: int) -> np.ndarray | None:
    """The canonical copy of an integer array of edges, or None if it has
    the wrong shape or any edge is invalid."""
    if rows.ndim != 2 or rows.shape[1] != arity or not len(rows):
        return None
    rows = rows.astype(np.int64)  # a copy: the caller keeps theirs
    if not (rows[:, 1:] > rows[:, :-1]).all():
        rows.sort(axis=1)
        if not (rows[:, 1:] > rows[:, :-1]).all():
            return None
    if rows.min() < 1 or rows.max() > n:
        return None
    later, same = rows[1:] > rows[:-1], rows[1:] == rows[:-1]
    ascending = later[:, -1]  # row k+1 > row k, lexicographically
    for col in range(arity - 2, -1, -1):
        ascending = later[:, col] | (same[:, col] & ascending)
    if not ascending.all():
        rows = rows[np.lexsort(rows.T[::-1])]
        rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    return rows


# The largest n whose int64 triple block NumPy can index: build_family's
# block holds 12 int64 values per 4 vertices, (n // 4 + 1) * 96 bytes, and
# NumPy refuses an array of more than 2**63 - 1 bytes. A ring's (n, 2)
# rows are smaller, so ring_graph stops at the same n.
MAX_BLOCK_N = 4 * ((2**63 - 1) // 96) - 2
_NO_ROWS = {arity: np.empty((0, arity), np.int64) for arity in (2, 3)}  # every empty edge set
for _rows in _NO_ROWS.values():
    _rows.flags.writeable = False


def _canonical_rows(edges, n: int, arity: int) -> np.ndarray:
    """Sorted, deduplicated, read-only (m, arity) int64 rows of an edge
    collection; raises ValueError naming the first invalid edge."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu":
        rows = _checked_rows(edges, n, arity)
        if rows is None:
            edges = edges.tolist()
    else:
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)  # read an iterator once, in its own order
        rows = _plain_int_rows(edges, arity) if edges else None
        if rows is not None:
            rows = _checked_rows(rows, n, arity)
    if rows is None:
        canon = sorted({_canonical_edge(e, n, arity) for e in edges})
        if not canon:
            return _NO_ROWS[arity]
        rows = np.array(canon, dtype=np.int64).reshape(-1, arity)
    rows.flags.writeable = False
    return rows


def _edge_set(rows: np.ndarray) -> frozenset:
    return frozenset(map(tuple, rows.tolist()))


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while a block builds one small
    list per edge, which it would otherwise scan again and again at the
    paper's scale; re-enable it afterwards only if it was enabled before."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


class HypergraphSpec:
    """A hypergraph on vertices 1..n with two-vertex edges (e2) and
    three-vertex edges (e3); a graph is the case with no e3.

    e2_rows and e3_rows are the (m, 2) and (m, 3) int64 arrays; e2 and e3
    are their frozenset views. Immutable after construction. Two specs are
    equal, and hash alike, when n and the edge rows agree.
    """

    def __init__(self, n: int, e2=frozenset(), e3=frozenset()):
        n = _check_sites(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "e2_rows", _canonical_rows(e2, n, 2))
        object.__setattr__(self, "e3_rows", _canonical_rows(e3, n, 3))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return (self.n, self.e2_rows.tobytes(), self.e3_rows.tobytes())

    def __eq__(self, other):
        if not isinstance(other, HypergraphSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{type(self).__name__}(n={self.n}, e2={self.e2_rows.tolist()}, "
                f"e3={self.e3_rows.tolist()})")

    @property
    def e2(self) -> frozenset:
        """The two-vertex edges as sorted tuples, built on each read."""
        return _edge_set(self.e2_rows)

    @property
    def e3(self) -> frozenset:
        """The three-vertex edges as sorted tuples, built on each read."""
        return _edge_set(self.e3_rows)

    def to_dict(self) -> dict:
        with _gc_paused():
            return {"n": self.n, "e2": self.e2_rows.tolist(), "e3": self.e3_rows.tolist()}


_JSON_SPACE = b" \t\n\r"
_EDGE_KEYS = {b'"e2"': 2, b'"e3"': 3}
_DIGITS_TO_ZERO = bytes.maketrans(b"0123456789", b"0" * 10)
_POWERS_OF_TEN = 10 ** np.arange(1, 18, dtype=np.int64)  # v >= 10**k for digits(v) - 1 of them
_JSON_TYPES = {dict: "object", str: "string", bool: "boolean", int: "number",
               float: "number", type(None): "null"}


def _layout_rows(data: bytes) -> tuple[int, dict] | None:
    """(n, edges) of a document in the layout to_dict() writes, parsed with
    whole-buffer operations, or None to decline it; edges maps "e2" and
    "e3" to the (m, arity) int64 rows of each non-empty array.

    The layout is {"n": N, "e2": [[i, j], ...], "e3": [[i, j, k], ...]}:
    the edge keys optional but in that order, no other string, and JSON
    whitespace anywhere between tokens.

    Parse first. Each array, without its outer whitespace and then without
    its brackets, goes through np.fromstring, which rejects two numbers in
    one slot but takes 01 and values beyond int64 (saturated) and reads a
    blank slot as 0 (so [ ] must lose its space first). The value count
    gives the array's edge count m.

    Check after. The skeleton (the bytes without digits and whitespace)
    must be exactly the one those counts imply: {"n":, then for each key
    ,"e":[ with m comma-joined edge units [,] or [,,] and ], then }. The
    skeleton cannot see a digit moved out of its slot, and deleting the
    brackets would join it to a neighbour, so no digit may sit just outside
    a bracket. The values must all lie in 1..10**18 - 1 (vertex 0 is
    invalid anyway), and the file must hold exactly as many digits as the
    canonical spellings of n, of the key digits and of the values have.
    """
    quote = data.find(b'"')
    if not data.startswith(b'"n"', quote):
        return None
    keys, at = [], quote + 3  # (arity, offset) of each edge key
    while (at := data.find(b'"', at)) >= 0:
        arity = _EDGE_KEYS.get(data[at:at + 4])
        if arity is None or (keys and keys[-1][0] >= arity):
            return None
        keys.append((arity, at))
        at += 4
    squeezed = data.translate(_DIGITS_TO_ZERO, _JSON_SPACE)
    if b"0[" in squeezed or b"]0" in squeezed:
        return None
    skeleton = squeezed.translate(None, b"0")
    digits = len(squeezed) - len(skeleton) - len(keys)  # the keys hold one digit each
    del squeezed
    edges, at = {}, 5  # at: the comma before each edge key in the skeleton, then its }
    for (arity, key_at), end in zip(keys, [at for _, at in keys[1:]] + [len(data)]):
        try:
            first = data.index(b"[", key_at, end)
            last = data.rindex(b"]", first, end)
            # one chain, so the slice is freed before np.fromstring runs
            text = data[first + 1:last].strip(_JSON_SPACE).translate(None, b"[]")
            values = np.fromstring(text, dtype=np.int64, sep=",")
        except ValueError:  # no array, two numbers in one slot, or an empty slot
            return None
        m, extra = divmod(values.size, arity)
        unit = b"[" + b"," * (arity - 1) + b"],"  # one edge and its comma
        rest, close = (m - 1, unit[:-1] + b"]") if m else (0, b"]")  # close: last edge and ]
        tail = at + 6 + len(unit) * rest  # rest non-overlapping units in rest units' length tile
        if (extra or not skeleton.startswith(b',"e":[', at) or not skeleton.startswith(close, tail)
                or skeleton.count(unit, at + 6, tail) != rest):
            return None
        at = tail + len(close)
        if m:  # an empty array is the spec's default
            top = int(values.max())
            if values.min() < 1 or top >= 10 ** 18:
                return None
            powers = _POWERS_OF_TEN[:len(str(top)) - 1]
            digits -= values.size + int(np.searchsorted(powers, values, "right").sum())
            edges[f"e{arity}"] = values.reshape(m, arity)
    if not (skeleton.startswith(b'{"n":') and skeleton.endswith(b"}") and len(skeleton) == at + 1):
        return None
    colon = data.index(b":")
    token = data[colon + 1:data.index(b"," if keys else b"}", colon)].strip(_JSON_SPACE)
    if not token.isdigit() or len(token) > 18 or (token[:1] == b"0" and len(token) > 1):
        return None
    return (int(token), edges) if digits == len(token) else None  # n's digits are the rest


def load_hypergraph(source) -> HypergraphSpec:
    """Build a HypergraphSpec from a dict, or from the JSON file at a path
    (a str or Path, always read as a file name, never as JSON text).

    Expected document shape: {"n": int, "e2": [[i, j], ...], "e3": [[i, j, k], ...]}
    with 1-indexed vertices; "e2"/"e3" may be omitted. Every malformed
    document, a non-integer n or an "e2"/"e3" that is not an array
    included, is a ValueError.

    A file is read once, as bytes. If it has the layout json.dumps writes
    for to_dict() (keys n, e2, e3 in that order, integers without sign,
    fraction or leading zero, vertices >= 1, any JSON whitespace), the
    byte route parses each edge array straight into int64 rows, with no
    Python object per edge. Every other document is decoded as UTF-8,
    whatever the locale, and goes through json.loads. Only that JSON
    route pauses the cyclic garbage collector (_gc_paused), while
    json.loads builds the edge lists.
    """
    doc = source
    if isinstance(source, (str, Path)):
        with open(source, "rb", buffering=0) as fh:  # one unbuffered read to the end
            data = fh.read()
        layout = _layout_rows(data)
        if layout is not None:
            n, edges = layout
            return HypergraphSpec(n, **edges)
        text = data.decode("utf-8")
        with _gc_paused():
            doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"graph document must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {"n", "e2", "e3"}
    if unknown:
        raise ValueError(f"graph document has unknown keys {sorted(unknown)}")
    if "n" not in doc:
        raise ValueError('graph document is missing "n"')
    for key in ("e2", "e3"):
        if key in doc and not isinstance(doc[key], list):
            kind = _JSON_TYPES.get(type(doc[key]), type(doc[key]).__name__)
            raise ValueError(f'graph document: "{key}" must be a JSON array, got {kind}')
    try:
        return HypergraphSpec(doc["n"], e2=doc.get("e2", []), e3=doc.get("e3", []))
    except TypeError as exc:  # a value of the wrong JSON type is a bad document
        raise ValueError(f"graph document: {exc}") from None


def _check_block_sites(n: int) -> int:
    """n, if it is at most MAX_BLOCK_N; checked before any row is built."""
    if n > MAX_BLOCK_N:
        raise ValueError(f"need n <= {MAX_BLOCK_N}, the largest n whose int64 triple block "
                         f"NumPy can index, got {n}")
    return n


def ring_graph(n: int) -> HypergraphSpec:
    """The cycle 1-2-...-n-1 (requires 3 <= n <= MAX_BLOCK_N). Its edge
    rows are built as one int64 array, already in canonical order."""
    n = _check_block_sites(_check_integer("n", n))
    if n < 3:
        raise ValueError(f"ring graph needs at least 3 vertices, got {n}")
    return HypergraphSpec(n, e2=np.column_stack((np.r_[1, 1:n], np.r_[2, n, 3:n + 1])))
