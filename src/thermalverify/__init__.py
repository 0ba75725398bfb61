"""Single-setting fidelity estimation for thermal graph and hypergraph states.

The toolkit has three layers that deliberately overlap: exact closed forms
(thermal, identities), a Monte-Carlo protocol simulator (sampler), and dense
brute-force oracles (oracle) that re-derive every closed form from scratch at
small qubit counts. Between the spec (graphs.HypergraphSpec; a graph is one
with no three-vertex edges) and the closed forms, pauli reduces the one
selected product of stabilizer generators to a normal form in a single pass
over the edge arrays. The supremacy module builds the restricted hypergraph
family whose single measurement setting certifies diagonal-circuit
sampling.

__all__ is the runtime surface that the CLI, the acceptance tests and the
README quick start reach, pinned by tests/test_api.py. References that only
tests compare against (the per-shot error-pattern model, the Pauli product)
live in tests/util_dense.py.
"""

__version__ = "0.1.0"

from .graphs import GraphSpec, HypergraphSpec, load_hypergraph, path_graph, ring_graph
from .identities import (IdentityReport, check_alternating, check_even, check_odd,
                         signed_pattern_count)
from .pauli import (PauliString, StabilizerProduct, alternating_setting,
                    generalized_product, leading_half_setting, parse_setting,
                    stabilizer_product, try_to_pauli)
from .thermal import (BoundReport, ThermalParams, beta_from_temperature,
                      deviation_leading_order, error_bounds, fidelity,
                      flip_probability, half_weight_expectation, invert_temperature,
                      minus_probability, sample_size, setting_expectation,
                      union_bound)
from .oracle import (DenseMixedState, DenseState, apply_operator, boltzmann_density,
                     build_pure_state, dense_expectation, hadamard_transform,
                     stabilizer_check, thermal_density)
from .sampler import ProtocolConfig, VerificationReport, check_error_bound, run_protocol
from .supremacy import (CertificationDecision, FamilyInstance, build_family, certify,
                        exact_outcome_distribution, iqp_sample, optimal_setting)

__all__ = [
    "__version__",
    "GraphSpec", "HypergraphSpec", "load_hypergraph", "path_graph", "ring_graph",
    "IdentityReport", "check_alternating", "check_even", "check_odd",
    "signed_pattern_count",
    "PauliString", "StabilizerProduct", "alternating_setting", "generalized_product",
    "leading_half_setting", "parse_setting", "stabilizer_product", "try_to_pauli",
    "BoundReport", "ThermalParams", "beta_from_temperature",
    "deviation_leading_order", "error_bounds", "fidelity", "flip_probability",
    "half_weight_expectation", "invert_temperature", "minus_probability", "sample_size",
    "setting_expectation", "union_bound",
    "DenseMixedState", "DenseState", "apply_operator", "boltzmann_density",
    "build_pure_state", "dense_expectation", "hadamard_transform",
    "stabilizer_check", "thermal_density",
    "ProtocolConfig", "VerificationReport", "check_error_bound", "run_protocol",
    "CertificationDecision", "FamilyInstance", "build_family", "certify",
    "exact_outcome_distribution", "iqp_sample", "optimal_setting",
]
