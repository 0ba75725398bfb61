import thermalverify
from thermalverify import GraphSpec, HypergraphSpec, StabilizerProduct, graphs, oracle, pauli


def test_every_exported_name_resolves():
    for name in thermalverify.__all__:
        assert hasattr(thermalverify, name), name


def test_generator_algebra_and_vertex_index_are_gone():
    removed = {
        thermalverify: ("graph_stabilizer", "hypergraph_stabilizer", "dense_matrix"),
        pauli: ("graph_stabilizer", "hypergraph_stabilizer", "_mask_from_sites"),
        graphs: ("_edges_by_vertex", "_neighbors_by_vertex", "_check_vertex"),
        oracle: ("graph_stabilizer", "hypergraph_stabilizer", "dense_matrix"),
        GraphSpec: ("neighbors", "_adjacency"),
        HypergraphSpec: ("neighbors", "incident_triples", "_adjacency", "_incidence"),
        StabilizerProduct: ("__mul__", "phase_polynomial_degree"),
    }
    for owner, names in removed.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert not set(thermalverify.__all__) & {"graph_stabilizer", "hypergraph_stabilizer",
                                             "dense_matrix"}


def test_oracle_takes_only_the_operator_types_from_pauli():
    from_pauli = {name for name, value in vars(oracle).items()
                  if getattr(value, "__module__", None) == pauli.__name__}
    assert from_pauli == {"PauliString", "StabilizerProduct"}
