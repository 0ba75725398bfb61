import gc
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermalverify import HypergraphSpec, build_family, load_hypergraph, ring_graph
from thermalverify.graphs import MAX_BLOCK_N
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
def test_load_and_to_dict_keep_the_callers_gc_state(tmp_path, monkeypatch, collecting):
    """The collector is paused while json.loads runs and comes back as the
    caller had it, after a load, after a malformed document and after
    to_dict, which returns the same dict either way. The good document has
    its keys reordered, so the byte route declines it and json.loads reads
    it; a to_dict() file never reaches json.loads."""
    good, bad, written = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "ring.json"
    good.write_text('{"e2": [[1, 2]], "n": 3}')
    bad.write_text('{"n": 3, "e2": [[1, 2]')
    written.write_text(json.dumps(ring_graph(5).to_dict()))
    parse, during = json.loads, []
    monkeypatch.setattr(json, "loads", lambda text: during.append(gc.isenabled()) or parse(text))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert load_hypergraph(written) == ring_graph(5)
        assert during == [] and gc.isenabled() is collecting
        assert load_hypergraph(good) == HypergraphSpec(3, e2={(1, 2)})
        assert gc.isenabled() is collecting
        with pytest.raises(ValueError, match="Expecting"):
            load_hypergraph(bad)
        assert gc.isenabled() is collecting
        assert HypergraphSpec(4, e2={(2, 1)}, e3={(4, 2, 3)}).to_dict() == {
            "n": 4, "e2": [[1, 2]], "e3": [[2, 3, 4]]}
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize("text", [json.dumps(ring_graph(6).to_dict()),
                                  '{"e2": [[1, 2], [1, 6], [2, 3], [3, 4], [4, 5], [5, 6]], "n": 6}'])
def test_load_reads_a_pipe_once(text):
    """A pipe, such as --graph /dev/stdin, can be read only once: both the
    byte route and the JSON route it falls back to load from that read."""
    read, write = os.pipe()
    try:
        os.write(write, text.encode())
        os.close(write)
        assert load_hypergraph(f"/dev/fd/{read}") == ring_graph(6)
    finally:
        os.close(read)


@pytest.mark.parametrize("text, kind", [('{"n": 3, "e2": {}}', "e2\" must be a JSON array, got object"),
                                        ('{"n": 3, "e2": ""}', "e2\" must be a JSON array, got string"),
                                        ('{"n": 3, "e3": {}}', "e3\" must be a JSON array, got object"),
                                        ('{"n": 3, "e3": 7}', "e3\" must be a JSON array, got number"),
                                        ('{"n": 3, "e2": null}', "e2\" must be a JSON array, got null")])
def test_non_array_edge_collection_is_a_bad_document(tmp_path, text, kind):
    """An "e2" or "e3" that is not a JSON array no longer loads as an
    edgeless graph, from a dict or from a file."""
    path = tmp_path / "g.json"
    path.write_text(text)
    for source in (json.loads(text), path):
        with pytest.raises(ValueError) as exc:
            load_hypergraph(source)
        assert str(exc.value) == 'graph document: "' + kind
    assert HypergraphSpec(3, e2={}) == HypergraphSpec(3, e2="") == HypergraphSpec(3)


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


def test_reading_the_edge_views_stores_nothing():
    spec = HypergraphSpec(4, e2=[(1, 2)], e3=[(2, 3, 4)])
    assert (spec.e2, spec.e3) == ({(1, 2)}, {(2, 3, 4)})
    assert spec.to_dict() == {"n": 4, "e2": [[1, 2]], "e3": [[2, 3, 4]]}
    assert list(vars(spec)) == ["n", "e2_rows", "e3_rows"]


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_ring_rows_match_the_edge_set(n):
    ring = ring_graph(n)
    assert ring == HypergraphSpec(n, e2={(i, i + 1) for i in range(1, n)} | {(1, n)})
    assert ring.e2_rows.dtype == np.int64 and not ring.e2_rows.flags.writeable


@pytest.mark.parametrize("build", [ring_graph, build_family])
@pytest.mark.parametrize("n", [MAX_BLOCK_N + 2, 2**62, 10**30])
def test_an_n_past_the_block_limit_is_named_before_any_row_is_built(build, n):
    # each n fails its check before NumPy is asked for an array
    with pytest.raises(ValueError, match=f"need n <= {MAX_BLOCK_N}, the largest n whose int64 "
                                         f"triple block NumPy can index, got {n}$"):
        build(n)


def test_the_block_limit_is_the_largest_n_numpy_can_index():
    # build_family's block holds n // 4 + 1 groups of 12 int64 values
    assert MAX_BLOCK_N % 2 == 0
    assert (MAX_BLOCK_N // 4 + 1) * 96 <= sys.maxsize < ((MAX_BLOCK_N + 2) // 4 + 1) * 96


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
    "vertex past int64, n past it too": (2**70, 2, [(1, 2), (1, 2**64)]),
    "uint64 ndarray past int64, n past it too": (2**70, 3, np.array([[1, 2, 2**64 - 1]],
                                                                    dtype=np.uint64)),
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


def test_a_spec_never_equals_another_kind_of_object():
    assert HypergraphSpec(3).__eq__("x") is NotImplemented
    assert (HypergraphSpec(3) == "x") is False and HypergraphSpec(3) != (3, (), ())


def test_edges_that_are_not_int_sequences_take_the_per_edge_route():
    h = HypergraphSpec(4, e2=[frozenset({2, 1})], e3=[frozenset({4, 2, 3})])
    assert h.e2_rows.tolist() == [[1, 2]] and h.e3_rows.tolist() == [[2, 3, 4]]
    assert not h.e2_rows.flags.writeable and h.e2_rows.dtype == np.int64


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


def _outcome(load):
    """What load() returns, or the type and message of what it raises."""
    try:
        return load()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("layouts") / "graph.json"


def _file_and_json_routes(path, text):
    """The outcome of loading text from a file, whether that load called
    json.loads, and the outcome of loading json.loads(text) as a dict."""
    path.write_bytes(text.encode())
    expected = _outcome(lambda: load_hypergraph(json.loads(text)))
    with mock.patch.object(json, "loads", wraps=json.loads) as parse:
        got = _outcome(lambda: load_hypergraph(path))
    return got, parse.called, expected


SPACE = st.text(alphabet=" \t\n\r", max_size=3)
VERTEX = st.one_of(st.integers(1, 12), st.sampled_from([0, -1, True, 10**18, 2**63, 2**70]))


@st.composite
def graph_texts(draw):
    """A graph document with random n, e2 and e3 (invalid edges included),
    written by json.dumps in its default, compact or indent=2 style, or
    compact with random JSON whitespace between tokens; and whether every
    value is one the byte route reads (a plain int, vertices >= 1)."""
    n = draw(st.one_of(st.integers(1, 12), st.sampled_from([0, -2, True, 10**17, 2**64])))
    doc, plain = {"n": n}, type(n) is int and 0 <= n < 10**18
    for arity in (2, 3):
        if draw(st.booleans()):
            edge = st.one_of(st.lists(VERTEX, min_size=arity, max_size=arity),
                             st.lists(VERTEX, max_size=4))
            edges = draw(st.lists(edge, max_size=6))
            doc[f"e{arity}"] = edges
            plain &= all(len(e) == arity and all(type(v) is int and 1 <= v < 10**18 for v in e)
                         for e in edges)
    style = draw(st.sampled_from(["default", "compact", "indent", "spaced"]))
    if style == "default":
        return json.dumps(doc), plain
    if style == "indent":
        return json.dumps(doc, indent=2), plain
    tokens = re.split(r"([\[\]{},:])", json.dumps(doc, separators=(",", ":")))
    if style == "compact":
        return "".join(tokens), plain
    return "".join(draw(SPACE) + token for token in tokens) + draw(SPACE), plain


@given(graph_texts())
@settings(max_examples=300, deadline=None)
def test_byte_route_matches_the_json_route(doc_path, case):
    """A file loads to the same spec, or raises the same exception type and
    message, as json.loads of its text loaded as a dict; a document whose
    every value is a plain int in range of the layout never reaches json.loads."""
    text, plain = case
    got, parsed, expected = _file_and_json_routes(doc_path, text)
    assert got == expected and type(got) is type(expected)
    if plain:
        assert not parsed


MUTATION_BYTES = st.sampled_from(list("0123456789 \t\n\r,[]{}:\"-+.e\x0c"))


@given(st.sampled_from([json.dumps(ring_graph(5).to_dict()),
                        json.dumps(build_family(6, e2={(1, 2)}).to_dict(), indent=2),
                        '{"n":13,"e2":[[1,10],[2,11]],"e3":[]}']),
       st.lists(st.tuples(st.integers(0, 10**6), st.one_of(MUTATION_BYTES, st.just(""))),
                min_size=1, max_size=3))
@settings(max_examples=500, deadline=None)
def test_mutated_layouts_match_the_json_route(doc_path, text, edits):
    """Insert or delete single characters of to_dict() files: whatever the
    byte route still takes must load as json.loads reads it."""
    for at, char in edits:
        at %= len(text) + 1
        text = text[:at] + char + text[at + (not char):]
    got, _, expected = _file_and_json_routes(doc_path, text)
    assert got == expected and type(got) is type(expected)


BYTE_ROUTE_LAYOUTS = {
    "to_dict, default": json.dumps(ring_graph(5).to_dict()),
    "to_dict with triples, indent=2": json.dumps(build_family(10, e2={(1, 4)}).to_dict(), indent=2),
    "to_dict, compact": json.dumps(build_family(6).to_dict(), separators=(",", ":")),
    "no edges": json.dumps(HypergraphSpec(4).to_dict()),
    "n alone": '{"n": 5}',
    "triples alone": '{"n": 4, "e3": [[3, 2, 1]]}',
    "every JSON whitespace": '\n{ "n" :\t4 ,\r"e2" : [ [ 2 , 1 ] ,[3,4 ] ] }\r\n',
    "vertex out of range": '{"n": 3, "e2": [[1, 9]]}',
    "repeated vertex": '{"n": 3, "e3": [[1, 2, 2]]}',
    "n = 0": '{"n": 0}',
    "18-digit n": '{"n": 999999999999999999}',
    "empty array written [ ]": '{"n": 3, "e2": [ ]}',
    "empty array written [newline]": '{"n": 3, "e2": [\n], "e3": [[1, 2, 3]]}',
}
DECLINED_LAYOUTS = {
    "space inside a number": '{"n": 30, "e2": [[1 2, 3]]}',
    "leading zero": '{"n": 3, "e2": [[01, 2]]}',
    "leading zero in n": '{"n": 03, "e2": [[1, 2]]}',
    "plus sign": '{"n": 3, "e2": [[+1, 2]]}',
    "negative vertex": '{"n": 3, "e2": [[-1, 2]]}',
    "trailing comma": '{"n": 3, "e2": [[1, 2],]}',
    "trailing comma in an edge": '{"n": 3, "e2": [[1, 2,]]}',
    "trailing comma before a later key": '{"n": 3, "e2": [[1, 2],], "e3": []}',
    "two values, one edge's worth, grouped wrongly": '{"n": 3, "e2": [[1],[2]]}',
    "no comma between edges": '{"n": 4, "e2": [[1,2][3,4]]}',
    "three vertices in an edge": '{"n": 3, "e2": [[1,2,3]]}',
    "stray digit after the closing brace": '{"n": 3, "e2": [[1, 2]]}5',
    "a bare vertex for an edge": '{"n": 3, "e2": [5]}',
    "first edge short, its vertex outside it": '{"n": 4, "e2": [[1], 2, [3, 4]]}',
    "last edge short, its vertex outside it": '{"n": 4, "e2": [[1, 2], [3], 4]}',
    "comma for the colon after a key": '{"n": 3, "e2", [[1, 2]]}',
    "trailing comma in the object": '{"n": 3, "e2": [[1, 2]],}',
    "brace for the closing bracket": '{"n": 3, "e2": [[1, 2]}]',
    "bracket for the opening brace": '["n": 3, "e2": [[1, 2]]}',
    "bracket for the closing brace": '{"n": 3, "e2": [[1, 2]]]',
    "bracket for the closing brace, no edges": '{"n": 3]',
    "true": '{"n": 3, "e2": [[1, 2], [2, true]]}',
    "float": '{"n": 3, "e2": [[1.0, 2]]}',
    "exponent": '{"n": 3, "e2": [[1e3, 2]]}',
    "duplicate n": '{"n": 3, "n": 4, "e2": [[1, 4]]}',
    "duplicate edge key": '{"n": 4, "e2": [[1, 2]], "e2": [[3, 4]]}',
    "unknown key": '{"n": 3, "e4": [[1, 2]]}',
    "n after the edges": '{"e2": [[1, 2]], "n": 3}',
    "triples before edges": '{"n": 4, "e3": [[1, 2, 3]], "e2": [[1, 2]]}',
    "BOM": '\ufeff{"n": 3, "e2": [[1, 2]]}',
    "form feed as whitespace": '{"n": 3,\x0c"e2": [[1, 2]]}',
    "no-break space as whitespace": '{"n": 3,\xa0"e2": [[1, 2]]}',
    "vertex beyond int64": '{"n": 3, "e2": [[1, 99999999999999999999]]}',
    "19-digit vertex": '{"n": 3, "e2": [[1, 1000000000000000000]]}',
    "n beyond int64": '{"n": 99999999999999999999, "e2": [[1, 2]]}',
    "empty edge": '{"n": 3, "e2": [[]]}',
    "nested arrays": '{"n": 3, "e2": [[[1, 2]]]}',
    "missing n": '{"e2": [[1, 2]]}',
    "vertex 0": '{"n": 3, "e2": [[0, 2]]}',
    "blank slot and a leading zero": '{"n": 20, "e2": [[ , 010]]}',
    "stray digit before an edge": '{"n": 30, "e2": [[1, 2], 5[, 4]]}',
    "stray digit after an edge": '{"n": 30, "e2": [[1, 2], [, 4]5]}',
    "digit before a bracket joins a number": '{"n": 60, "e2": [[1, 2], 5[3, 4]]}',
    "digit after a bracket joins a number": '{"n": 30, "e2": [[1, 2]5, [3, 4]]}',
    "stray digit after a key": '{"n": 3, "e2"7: [[1, 2]]}',
    "e2 is an object": '{"n": 3, "e2": {}}',
    "not an object": '[[1, 2]]',
    "empty file": '',
}


@pytest.mark.parametrize("text", BYTE_ROUTE_LAYOUTS.values(), ids=BYTE_ROUTE_LAYOUTS.keys())
def test_layouts_the_byte_route_takes(tmp_path, text):
    got, parsed, expected = _file_and_json_routes(tmp_path / "g.json", text)
    assert not parsed
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("text", DECLINED_LAYOUTS.values(), ids=DECLINED_LAYOUTS.keys())
def test_declined_layouts_take_the_json_route(tmp_path, text):
    got, parsed, expected = _file_and_json_routes(tmp_path / "g.json", text)
    assert parsed
    assert got == expected and type(got) is type(expected)
