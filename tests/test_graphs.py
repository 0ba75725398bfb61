import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermalverify import HypergraphSpec, load_hypergraph, ring_graph
from util_dense import (canonical_edge_reference, generator, hypergraphs_with_selector,
                        integer_edge_arrays, path_graph, raw_edges, reference_edge_set)


def neighbors(spec, i):
    """Vertices joined to i by a two-vertex edge, ascending: the Z mask of
    the test-side generator of vertex i."""
    z_mask = generator(spec, i).linear
    return tuple(v for v in range(1, spec.n + 1) if z_mask >> (v - 1) & 1)


def incident_triples(h, i):
    """Hyperedges containing i, sorted: the generator's CZ pairs plus i."""
    return tuple(sorted(tuple(sorted((*pair, i))) for pair in generator(h, i).quadratic))


def test_edges_stored_canonically():
    g = HypergraphSpec(4, e2={(3, 1), (1, 3), (2, 4)})
    assert g.e2 == frozenset({(1, 3), (2, 4)})


def test_neighbors_sorted():
    g = HypergraphSpec(5, e2={(2, 5), (1, 2), (2, 3)})
    assert neighbors(g, 2) == (1, 3, 5)
    assert neighbors(g, 4) == ()


def test_self_loop_rejected():
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        HypergraphSpec(3, e2={(2, 2)})


def test_out_of_range_vertex_named_in_error():
    with pytest.raises(ValueError, match=r"\(1, 9\).*outside 1\.\.8"):
        HypergraphSpec(8, e2={(1, 9)})


def test_vertex_count_validated():
    with pytest.raises(ValueError):
        HypergraphSpec(0)


@pytest.mark.parametrize("build, n", [(HypergraphSpec, 3), (ring_graph, 5)])
def test_numpy_integer_site_count_builds_the_same_spec(build, n):
    spec = build(np.int64(n))
    assert spec == build(n) and type(spec.n) is int
    assert json.loads(json.dumps(spec.to_dict()))["n"] == n


@pytest.mark.parametrize("build", [HypergraphSpec, ring_graph])
@pytest.mark.parametrize("n", [5.0, True, "5"])
def test_non_integer_site_count_is_named(build, n):
    with pytest.raises(TypeError, match=f"n must be an integer, got {n!r}"):
        build(n)


def test_site_count_below_one_keeps_the_shared_message():
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        HypergraphSpec(0)


@pytest.mark.parametrize("doc, match", [({"n": 1.5}, "n must be an integer, got 1.5"),
                                        ({"n": 3, "e2": [1, 2]}, "not iterable")])
def test_wrong_json_type_is_a_bad_document(doc, match):
    with pytest.raises(ValueError, match=f"graph document: .*{match}"):
        load_hypergraph(doc)


def test_hypergraph_triples_canonical():
    h = HypergraphSpec(5, e3={(3, 1, 2), (5, 4, 3)})
    assert h.e3 == frozenset({(1, 2, 3), (3, 4, 5)})
    assert incident_triples(h, 3) == ((1, 2, 3), (3, 4, 5))


def test_hypergraph_rejects_repeated_vertices():
    with pytest.raises(ValueError, match="repeated"):
        HypergraphSpec(4, e3={(1, 2, 2)})


def test_load_from_dict_and_json_string():
    doc = {"n": 4, "e2": [[1, 2]], "e3": [[2, 3, 4]]}
    h1 = load_hypergraph(doc)
    h2 = load_hypergraph(json.loads(json.dumps(doc)))
    assert h1 == h2
    assert h1.e2 == frozenset({(1, 2)})
    assert h1.e3 == frozenset({(2, 3, 4)})


def test_load_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 2, "e2": [[1, 2]]}')
    assert load_hypergraph(path) == HypergraphSpec(2, e2=frozenset({(1, 2)}))
    assert load_hypergraph(str(path)).n == 2


@pytest.mark.parametrize("collecting", [True, False])
def test_load_keeps_the_callers_gc_state(tmp_path, monkeypatch, collecting):
    """The collector is paused while json.loads runs and comes back as the
    caller had it, after a load and after a malformed document."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"n": 3, "e2": [[1, 2]]}')
    bad.write_text('{"n": 3, "e2": [[1, 2]')
    parse, during = json.loads, []
    monkeypatch.setattr(json, "loads", lambda text: during.append(gc.isenabled()) or parse(text))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert load_hypergraph(good) == HypergraphSpec(3, e2={(1, 2)})
        assert gc.isenabled() is collecting
        with pytest.raises(ValueError, match="Expecting"):
            load_hypergraph(bad)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


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
    assert path_graph(4).e2 == frozenset({(1, 2), (2, 3), (3, 4)})
    assert ring_graph(4).e2 == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})
    with pytest.raises(ValueError):
        ring_graph(2)


@given(hypergraphs_with_selector())
@settings(max_examples=200, deadline=None)
def test_indexed_lookups_match_edge_scan(case):
    h, _ = case
    g = HypergraphSpec(h.n, e2=h.e2)
    for i in range(1, h.n + 1):
        scanned = tuple(sorted({b if a == i else a for (a, b) in h.e2 if i in (a, b)}))
        assert neighbors(g, i) == scanned
        assert neighbors(h, i) == scanned
        assert incident_triples(h, i) == tuple(sorted(t for t in h.e3 if i in t))
    for bad in (0, h.n + 1):
        for spec, lookup in ((g, neighbors), (h, neighbors), (h, incident_triples)):
            with pytest.raises(ValueError, match=f"vertex {bad} outside 1..{h.n}"):
                lookup(spec, bad)


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
        assert _stored_or_message(lambda: HypergraphSpec(n, e2=[edge]).e2) == expected
    else:
        assert _stored_or_message(lambda: HypergraphSpec(n, e3=[edge]).e3) == expected


MULTI_EDGE_CASES = {
    "reversed and duplicate rows": (4, 2, [(2, 1), (1, 2), (4, 3), [3, 4], (2, 1)]),
    "reversed and duplicate triples": (4, 3, [(3, 2, 1), [1, 3, 2], (2, 3, 4), (4, 2, 3)]),
    "True among ints": (3, 2, [(1, 2), (True, 3), (2, 3)]),
    "True in a triple": (3, 3, [[1, 2, 3], [1, True, 3]]),
    "np.int64 inside tuples": (3, 2, [(1, 2), (np.int64(2), 3)]),
    "ragged, short row": (4, 3, [[1, 2, 3], [2, 3]]),
    "ragged, long row": (4, 2, [[1, 2], [1, 2, 3]]),
    "two bad rows, first named": (4, 2, [(1, 2), (1, 9), (0, 1)]),
    "int ndarray, row out of range": (8, 2, np.array([[1, 2], [9, 1], [0, 3]])),
    "int ndarray, reversed and repeated": (5, 3, np.array([[5, 4, 3], [3, 4, 5], [1, 2, 3]],
                                                          dtype=np.int32)),
    "int ndarray, repeated vertex": (5, 3, np.array([[1, 2, 3], [2, 2, 4]])),
    "int ndarray, wrong arity": (5, 2, np.array([[1, 2, 3]])),
    "uint64 ndarray beyond int64": (5, 2, np.array([[1, 2**64 - 1]], dtype=np.uint64)),
    "bool ndarray": (3, 2, np.array([[True, False]])),
}


@pytest.mark.parametrize("case", MULTI_EDGE_CASES.values(), ids=MULTI_EDGE_CASES.keys())
def test_multi_edge_validation_matches_reference_in_input_order(case):
    n, arity, edges = case
    rows = edges.tolist() if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" \
        else edges
    expected = reference_edge_set(rows, n, arity)
    if arity == 2:
        assert _stored_or_message(lambda: HypergraphSpec(n, e2=edges).e2) == expected
    else:
        assert _stored_or_message(lambda: HypergraphSpec(n, e3=edges).e3) == expected


@given(integer_edge_arrays(), st.booleans())
@settings(max_examples=500, deadline=None)
def test_integer_arrays_match_the_per_edge_path(case, as_lists):
    """The whole-array checks, which sort only when some row does not
    ascend, store the rows or raise the message of the per-edge path, for
    an ndarray and for the same rows as a list of int lists."""
    n, arity, rows = case
    expected = reference_edge_set(rows.tolist(), n, arity)
    if not isinstance(expected, str):
        expected = sorted(map(list, expected))
    edges = rows.tolist() if as_lists else rows
    name = "e2" if arity == 2 else "e3"
    stored = _stored_or_message(
        lambda: getattr(HypergraphSpec(n, **{name: edges}), name + "_rows").tolist())
    assert stored == expected


def test_json_true_is_rejected_like_the_reference():
    doc = '{"n": 3, "e2": [[1, 2], [2, true]]}'
    expected = reference_edge_set(json.loads(doc)["e2"], 3, 2)
    assert expected == "edge (2, True) has non-integer vertex True"
    with pytest.raises(ValueError) as exc:
        load_hypergraph(json.loads(doc))
    assert str(exc.value) == expected


def test_rows_are_sorted_read_only_int64():
    h = HypergraphSpec(5, e2=[(4, 3), (2, 1), (1, 2)], e3=np.array([[5, 4, 3], [3, 2, 1]]))
    assert h.e2_rows.tolist() == [[1, 2], [3, 4]] and h.e2_rows.dtype == np.int64
    assert h.e3_rows.tolist() == [[1, 2, 3], [3, 4, 5]] and h.e3_rows.shape == (2, 3)
    with pytest.raises(ValueError):
        h.e3_rows[0, 0] = 2
    with pytest.raises(AttributeError):
        h.n = 6
    source = np.array([[1, 2]])
    g = HypergraphSpec(3, e2=source)
    source[0, 1] = 3  # the spec holds its own copy
    assert g.e2 == frozenset({(1, 2)})
    assert HypergraphSpec(3).e2_rows.shape == (0, 2)


@pytest.mark.parametrize("empty", [frozenset, list, tuple, lambda: iter(()),
                                   lambda: np.empty((0, 3), np.int64), lambda: np.empty(0, np.int32)])
def test_every_empty_edge_set_is_one_shared_read_only_array(empty):
    h, bare = HypergraphSpec(4, e2=empty(), e3=empty()), HypergraphSpec(3)
    assert h.e2_rows is bare.e2_rows and h.e3_rows is bare.e3_rows
    assert h.e2_rows.shape == (0, 2) and h.e3_rows.shape == (0, 3)
    assert h.e2_rows.dtype == h.e3_rows.dtype == np.int64
    assert not h.e2_rows.flags.writeable and not h.e3_rows.flags.writeable
    assert h == HypergraphSpec(4) and h.e2 == h.e3 == frozenset()


def test_specs_of_different_types_differ():
    assert HypergraphSpec(3, e2={(1, 2)}) != HypergraphSpec(3, e3={(1, 2, 3)})
    assert HypergraphSpec(3, e2={(1, 2)}) != HypergraphSpec(4, e2={(1, 2)})
    assert repr(HypergraphSpec(3, e2={(2, 1)})) == "HypergraphSpec(n=3, e2=[[1, 2]], e3=[])"


@given(hypergraphs_with_selector())
@settings(max_examples=200, deadline=None)
def test_to_dict_bytes_match_sorted_views(case):
    h, _ = case
    expected = {"n": h.n, "e2": [list(e) for e in sorted(h.e2)],
                "e3": [list(e) for e in sorted(h.e3)]}
    assert json.dumps(h.to_dict()) == json.dumps(expected)


@given(hypergraphs_with_selector(), st.sampled_from((np.int64, np.int32, np.uint16)))
@settings(max_examples=200, deadline=None)
def test_ndarray_spec_equals_and_hashes_like_frozenset_spec(case, dtype):
    h, _ = case
    # every row reversed, then every row again: the array path must sort and dedupe
    e2 = np.array([e[::-1] for e in h.e2] + list(h.e2), dtype=dtype).reshape(-1, 2)
    e3 = np.array([e[::-1] for e in h.e3] + list(h.e3), dtype=dtype).reshape(-1, 3)
    from_arrays = HypergraphSpec(h.n, e2=e2, e3=e3)
    from_sets = HypergraphSpec(h.n, e2=frozenset(h.e2), e3=frozenset(h.e3))
    assert from_arrays == from_sets and hash(from_arrays) == hash(from_sets)
    assert from_arrays.e2 == h.e2 and from_arrays.e3 == h.e3
    g = HypergraphSpec(h.n, e2=e2)
    assert g == HypergraphSpec(h.n, e2=h.e2) and hash(g) == hash(HypergraphSpec(h.n, e2=h.e2))
