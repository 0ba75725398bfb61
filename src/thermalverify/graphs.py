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
whole-array operations: sort each row, require 1 <= a < b (< c) <= n, then
lexsort and deduplicate only if the rows are not already strictly
ascending. Every other input, and any input that fails those checks, takes
the per-edge checks in input order (an ndarray as its tolist() rows), so an
error names the first offending edge.

The public e2 and e3 stay frozensets of sorted tuples: they are views of
the arrays, built on first read. The setting reductions in pauli and the
statevector builder in oracle read the arrays and never build the views.
"""
from __future__ import annotations

import json
from functools import cached_property
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
    rows.sort(axis=1)
    if (not (rows[:, 1:] > rows[:, :-1]).all()
            or rows[:, 0].min() < 1 or rows[:, -1].max() > n):
        return None
    later, same = rows[1:] > rows[:-1], rows[1:] == rows[:-1]
    ascending = later[:, -1]  # row k+1 > row k, lexicographically
    for col in range(arity - 2, -1, -1):
        ascending = later[:, col] | (same[:, col] & ascending)
    if not ascending.all():
        rows = rows[np.lexsort(rows.T[::-1])]
        rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    return rows


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
        rows = _plain_int_rows(edges, arity)
        if rows is not None:
            rows = _checked_rows(rows, n, arity)
    if rows is None:
        canon = sorted({_canonical_edge(e, n, arity) for e in edges})
        rows = np.array(canon, dtype=np.int64).reshape(-1, arity)
    rows.flags.writeable = False
    return rows


def _edge_set(rows: np.ndarray) -> frozenset:
    return frozenset(map(tuple, rows.tolist()))


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

    @cached_property
    def e2(self) -> frozenset:
        """The two-vertex edges as sorted tuples, built on first read."""
        return _edge_set(self.e2_rows)

    @cached_property
    def e3(self) -> frozenset:
        """The three-vertex edges as sorted tuples, built on first read."""
        return _edge_set(self.e3_rows)

    def to_dict(self) -> dict:
        return {"n": self.n, "e2": self.e2_rows.tolist(), "e3": self.e3_rows.tolist()}


def load_hypergraph(source) -> HypergraphSpec:
    """Build a HypergraphSpec from a dict, or from the JSON file at a path
    (a str or Path, always read as a file name, never as JSON text).

    Expected document shape: {"n": int, "e2": [[i, j], ...], "e3": [[i, j, k], ...]}
    with 1-indexed vertices; "e2"/"e3" may be omitted. Every malformed
    document, a non-integer n or a non-list edge included, is a ValueError.
    """
    doc = source
    if isinstance(source, (str, Path)):
        doc = json.loads(Path(source).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"graph document must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {"n", "e2", "e3"}
    if unknown:
        raise ValueError(f"graph document has unknown keys {sorted(unknown)}")
    if "n" not in doc:
        raise ValueError('graph document is missing "n"')
    try:
        return HypergraphSpec(doc["n"], e2=doc.get("e2", []), e3=doc.get("e3", []))
    except TypeError as exc:  # a value of the wrong JSON type is a bad document
        raise ValueError(f"graph document: {exc}") from None


def ring_graph(n: int) -> HypergraphSpec:
    """The cycle 1-2-...-n-1 (requires n >= 3)."""
    n = _check_integer("n", n)
    if n < 3:
        raise ValueError(f"ring graph needs at least 3 vertices, got {n}")
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    return HypergraphSpec(n, e2=edges)
