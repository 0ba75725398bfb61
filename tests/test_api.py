"""The package's public surface, pinned: thermalverify.__all__ is exactly
PUBLIC, the names that a CLI subcommand, tests/test_acceptance.py or the
README's "Library quick start" reach from the package. A test-only
reference belongs in the test helpers, not here: the acceptance gate
imports the checks the protocol never runs (boltzmann_density and
stabilizer_check from tests/util_dense.py, the identities from
tests/util_identities.py, thermal_density and dense_expectation from
tests/util_oracle.py) from there. The CI job imports this module from outside
the checkout to check the installed package against the same set."""
import importlib
from pathlib import Path

import pytest

import thermalverify
from thermalverify import (HypergraphSpec, PauliString, VerificationReport, cli, graphs,
                           oracle, pauli, sampler, supremacy, thermal)
from util_identities import IdentityReport

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "__version__",
    "HypergraphSpec", "load_hypergraph", "ring_graph",
    "PauliString", "alternating_setting", "leading_half_setting", "parse_setting",
    "stabilizer_product",
    "BoundReport", "beta_from_temperature", "deviation_leading_order", "error_bounds",
    "fidelity", "flip_probability", "half_weight_expectation", "invert_temperature",
    "minus_probability", "sample_size", "setting_expectation", "union_bound",
    "build_pure_state",
    "ProtocolConfig", "VerificationReport", "check_error_bound", "run_protocol",
    "CertificationDecision", "build_family", "certify",
    "exact_outcome_distribution", "iqp_sample", "optimal_setting",
}


def readme_quick_start() -> str:
    """The Python block under the README's "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_all_is_the_pinned_surface():
    assert sorted(thermalverify.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 32


def test_test_only_names_are_gone():
    removed = {
        thermalverify: ("sample_error_pattern", "measure_outcome", "family_triples",
                        "ThermalParams", "FamilyInstance", "GraphSpec", "hadamard_transform",
                        "path_graph", "apply_operator", "boltzmann_density",
                        "stabilizer_check", "DenseState", "DenseMixedState",
                        "StabilizerProduct", "generalized_product", "try_to_pauli",
                        "identities", "IdentityReport", "check_alternating", "check_even",
                        "check_odd", "signed_pattern_count", "dense_expectation",
                        "thermal_density"),
        cli: ("CheckFailure", "cmd_identities", "cmd_oracle_check", "check_odd",
              "thermal_density", "dense_expectation"),
        sampler: ("sample_error_pattern", "measure_outcome", "json"),
        supremacy: ("family_triples", "FamilyInstance", "hadamard_transform"),
        graphs: ("GraphSpec", "path_graph"),
        oracle: ("hadamard_transform", "apply_operator", "boltzmann_density",
                 "stabilizer_check", "MAX_HAMILTONIAN_N", "DenseState", "DenseMixedState",
                 "thermal_density", "dense_expectation", "MAX_DENSITY_N", "_indices",
                 "_signs"),
        HypergraphSpec: ("as_hypergraph",),
        pauli: ("_LETTERS", "StabilizerProduct", "generalized_product", "try_to_pauli",
                "_site_pair", "_built", "operator"),
        PauliString: ("identity", "from_letters", "letter", "xy_sites", "_phase", "__mul__"),
        VerificationReport: ("to_json",),
        IdentityReport: ("to_dict",),
        thermal: ("ThermalParams",),
    }
    for owner, names in removed.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)


def test_readme_quick_start_runs(capsys):
    exec(compile(readme_quick_start(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(float(line) > 0 for line in lines)


def test_every_exported_name_resolves():
    for name in thermalverify.__all__:
        assert hasattr(thermalverify, name), name


def test_generator_algebra_and_vertex_index_are_gone():
    removed = {
        thermalverify: ("graph_stabilizer", "hypergraph_stabilizer", "dense_matrix"),
        pauli: ("graph_stabilizer", "hypergraph_stabilizer", "_mask_from_sites"),
        graphs: ("_edges_by_vertex", "_neighbors_by_vertex", "_check_vertex"),
        oracle: ("graph_stabilizer", "hypergraph_stabilizer", "dense_matrix"),
        HypergraphSpec: ("neighbors", "incident_triples", "_adjacency", "_incidence"),
    }
    for owner, names in removed.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert not set(thermalverify.__all__) & {"graph_stabilizer", "hypergraph_stabilizer",
                                             "dense_matrix"}


def test_oracle_takes_nothing_from_pauli():
    # the operator types went with the dense expectation to tests/util_oracle.py
    assert not {name for name, value in vars(oracle).items()
                if getattr(value, "__module__", None) == pauli.__name__}


def test_the_identities_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("thermalverify.identities")
