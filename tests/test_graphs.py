import json

import pytest
from hypothesis import given, settings

from thermalverify import GraphSpec, HypergraphSpec, load_hypergraph, path_graph, ring_graph
from util_dense import canonical_edge_reference, hypergraphs_with_selector, raw_edges


def test_edges_stored_canonically():
    g = GraphSpec(4, edges={(3, 1), (1, 3), (2, 4)})
    assert g.edges == frozenset({(1, 3), (2, 4)})


def test_neighbors_sorted():
    g = GraphSpec(5, edges={(2, 5), (1, 2), (2, 3)})
    assert g.neighbors(2) == (1, 3, 5)
    assert g.neighbors(4) == ()


def test_self_loop_rejected():
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        GraphSpec(3, edges={(2, 2)})


def test_out_of_range_vertex_named_in_error():
    with pytest.raises(ValueError, match=r"\(1, 9\).*outside 1\.\.8"):
        GraphSpec(8, edges={(1, 9)})


def test_vertex_count_validated():
    with pytest.raises(ValueError):
        GraphSpec(0)


def test_hypergraph_triples_canonical():
    h = HypergraphSpec(5, e3={(3, 1, 2), (5, 4, 3)})
    assert h.e3 == frozenset({(1, 2, 3), (3, 4, 5)})
    assert h.incident_triples(3) == ((1, 2, 3), (3, 4, 5))


def test_hypergraph_rejects_repeated_vertices():
    with pytest.raises(ValueError, match="repeated"):
        HypergraphSpec(4, e3={(1, 2, 2)})


def test_graph_embeds_as_hypergraph():
    g = GraphSpec(3, edges={(1, 2)})
    h = g.as_hypergraph()
    assert h.e2 == g.edges and h.e3 == frozenset() and h.n == 3
    assert h.as_hypergraph() is h


def test_load_from_dict_and_json_string():
    doc = {"n": 4, "e2": [[1, 2]], "e3": [[2, 3, 4]]}
    h1 = load_hypergraph(doc)
    h2 = load_hypergraph(json.dumps(doc))
    assert h1 == h2
    assert h1.e2 == frozenset({(1, 2)})
    assert h1.e3 == frozenset({(2, 3, 4)})


def test_load_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 2, "e2": [[1, 2]]}')
    assert load_hypergraph(path) == HypergraphSpec(2, e2=frozenset({(1, 2)}))
    assert load_hypergraph(str(path)).n == 2


def test_load_rejects_bad_documents():
    with pytest.raises(ValueError, match="missing"):
        load_hypergraph({"e2": []})
    with pytest.raises(ValueError, match="unknown keys"):
        load_hypergraph({"n": 2, "edges": []})
    with pytest.raises(ValueError, match=r"\(1, 5\)"):
        load_hypergraph({"n": 3, "e2": [[1, 5]]})


def test_round_trip_to_dict():
    h = HypergraphSpec(4, e2={(1, 2)}, e3={(1, 3, 4)})
    assert load_hypergraph(h.to_dict()) == h


def test_helpers():
    assert path_graph(4).edges == frozenset({(1, 2), (2, 3), (3, 4)})
    assert ring_graph(4).edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})
    with pytest.raises(ValueError):
        ring_graph(2)


@given(hypergraphs_with_selector())
@settings(max_examples=200, deadline=None)
def test_indexed_lookups_match_edge_scan(case):
    h, _ = case
    g = GraphSpec(h.n, edges=h.e2)
    for i in range(1, h.n + 1):
        scanned = tuple(sorted({b if a == i else a for (a, b) in h.e2 if i in (a, b)}))
        assert g.neighbors(i) == scanned
        assert h.neighbors(i) == scanned
        assert h.incident_triples(i) == tuple(sorted(t for t in h.e3 if i in t))
    for bad in (0, h.n + 1):
        for lookup in (g.neighbors, h.neighbors, h.incident_triples):
            with pytest.raises(ValueError, match=f"vertex {bad} outside 1..{h.n}"):
                lookup(bad)


def _stored_or_message(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@given(raw_edges())
@settings(max_examples=500, deadline=None)
def test_validation_matches_reference(case):
    n, arity, edge = case
    expected = _stored_or_message(lambda: frozenset({canonical_edge_reference(edge, n, arity)}))
    if arity == 2:
        assert _stored_or_message(lambda: GraphSpec(n, edges=[edge]).edges) == expected
        assert _stored_or_message(lambda: HypergraphSpec(n, e2=[edge]).e2) == expected
    else:
        assert _stored_or_message(lambda: HypergraphSpec(n, e3=[edge]).e3) == expected
