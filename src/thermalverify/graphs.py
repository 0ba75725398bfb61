"""Graph and hypergraph specifications and their JSON interchange format.

Vertices are 1-indexed everywhere in the public interface. Edges connect two
distinct vertices, hyperedges three. Edge sets use set semantics: duplicates
collapse, storage is canonical (sorted tuples).

Validation costs one comparison chain per edge that is already canonical (a
tuple of plain ints, strictly ascending inside 1..n), which is what the
family builders generate; every other edge takes the full checks.

The setting reductions in pauli read the edge sets directly and build no
per-vertex index. The index exists only behind the public neighbors and
incident_triples lookups: it is built once, on the first such call, and maps
each vertex to its sorted neighbors (and, for hypergraphs, to its sorted
hyperedges), so every later lookup is O(1).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path


def _canonical_edge(edge, n: int, arity: int) -> tuple[int, ...]:
    # A tuple of plain ints, strictly ascending inside 1..n, is already
    # canonical and is kept as it is; anything else takes the checks below.
    if type(edge) is tuple and len(edge) == arity:
        if arity == 2:
            a, b = edge
            if type(a) is type(b) is int and 0 < a < b <= n:
                return edge
        else:
            a, b, c = edge
            if type(a) is type(b) is type(c) is int and 0 < a < b < c <= n:
                return edge
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


def _check_vertex_count(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")


def _check_vertex(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"vertex {i} outside 1..{n}")


def _edges_by_vertex(edges) -> dict[int, tuple]:
    """Vertex -> the edges containing it, ascending. Vertices on no edge
    are left out, so an empty edge set costs nothing for any n."""
    rows: dict[int, list] = {}
    for e in sorted(edges):
        for v in e:
            rows.setdefault(v, []).append(e)
    return {v: tuple(row) for v, row in rows.items()}


def _neighbors_by_vertex(edges) -> dict[int, tuple[int, ...]]:
    """Vertex -> its neighbors, ascending. Sorted edges reach v first as
    (a, v) with a < v, then as (v, b) with b > v, each group ascending."""
    return {v: tuple(a if b == v else b for (a, b) in row)
            for v, row in _edges_by_vertex(edges).items()}


@dataclass(frozen=True)
class GraphSpec:
    """An undirected simple graph on vertices 1..n (no self-loops)."""

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        _check_vertex_count(self.n)
        canon = frozenset(_canonical_edge(e, self.n, 2) for e in self.edges)
        object.__setattr__(self, "edges", canon)

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        return _neighbors_by_vertex(self.edges)

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Vertices adjacent to vertex i, ascending."""
        _check_vertex(i, self.n)
        return self._adjacency.get(i, ())

    def as_hypergraph(self) -> "HypergraphSpec":
        return HypergraphSpec(self.n, e2=self.edges)


@dataclass(frozen=True)
class HypergraphSpec:
    """A hypergraph with two-vertex edges (e2) and three-vertex edges (e3).

    A GraphSpec embeds as the e3-empty case.
    """

    n: int
    e2: frozenset = frozenset()
    e3: frozenset = frozenset()

    def __post_init__(self):
        _check_vertex_count(self.n)
        object.__setattr__(
            self, "e2", frozenset(_canonical_edge(e, self.n, 2) for e in self.e2)
        )
        object.__setattr__(
            self, "e3", frozenset(_canonical_edge(e, self.n, 3) for e in self.e3)
        )

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        return _neighbors_by_vertex(self.e2)

    @cached_property
    def _incidence(self) -> dict[int, tuple[tuple[int, int, int], ...]]:
        return _edges_by_vertex(self.e3)

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Vertices joined to i by a two-vertex edge, ascending."""
        _check_vertex(i, self.n)
        return self._adjacency.get(i, ())

    def incident_triples(self, i: int) -> tuple[tuple[int, int, int], ...]:
        """Hyperedges containing vertex i, sorted."""
        _check_vertex(i, self.n)
        return self._incidence.get(i, ())

    def as_hypergraph(self) -> "HypergraphSpec":
        return self

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "e2": [list(e) for e in sorted(self.e2)],
            "e3": [list(e) for e in sorted(self.e3)],
        }


def load_hypergraph(source) -> HypergraphSpec:
    """Build a HypergraphSpec from a dict, a JSON string, or a JSON file path.

    Expected document shape: {"n": int, "e2": [[i, j], ...], "e3": [[i, j, k], ...]}
    with 1-indexed vertices; "e2"/"e3" may be omitted.
    """
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        text = Path(source).read_text()
        doc = json.loads(text)
    elif isinstance(source, str):
        doc = json.loads(source)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError(f"graph document must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {"n", "e2", "e3"}
    if unknown:
        raise ValueError(f"graph document has unknown keys {sorted(unknown)}")
    if "n" not in doc:
        raise ValueError('graph document is missing "n"')
    e2 = [tuple(e) for e in doc.get("e2", [])]
    e3 = [tuple(e) for e in doc.get("e3", [])]
    return HypergraphSpec(doc["n"], e2=frozenset(e2), e3=frozenset(e3))


def path_graph(n: int) -> GraphSpec:
    """The path 1-2-...-n."""
    return GraphSpec(n, edges=frozenset((i, i + 1) for i in range(1, n)))


def ring_graph(n: int) -> GraphSpec:
    """The cycle 1-2-...-n-1 (requires n >= 3)."""
    if n < 3:
        raise ValueError(f"ring graph needs at least 3 vertices, got {n}")
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    return GraphSpec(n, edges=frozenset(edges))
