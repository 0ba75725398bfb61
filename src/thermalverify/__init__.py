"""Single-setting fidelity estimation for thermal graph and hypergraph states.

The toolkit has three layers that deliberately overlap: exact closed forms
(thermal, identities), a Monte-Carlo protocol simulator (sampler), and dense
brute-force oracles (oracle) that re-derive every closed form from scratch at
small qubit counts. Every public function that takes or returns a spec uses
the one spec type, graphs.HypergraphSpec (a graph is one with no
three-vertex edges).
Between the spec and the closed forms, pauli reduces the one selected
product of stabilizer generators to the signed Pauli word it measures, in
a single pass over the edge arrays. The supremacy module builds, as a
HypergraphSpec, the member of the restricted hypergraph family whose single
measurement setting certifies diagonal-circuit sampling.

__all__ is the runtime surface that the CLI, the acceptance tests and the
README quick start reach, pinned by tests/test_api.py. A pure state is its
float64 amplitude vector (oracle.build_pure_state), a thermal state its
float64 density matrix (oracle.thermal_density). References that only
tests compare against (the per-shot error-pattern model, the Pauli product,
path graphs, the Gibbs-state builder boltzmann_density, the X-times-diagonal
normal form StabilizerProduct with its coefficient map, the statevector
operator map apply_operator and stabilizer_check) live in
tests/util_dense.py.
"""

__version__ = "0.1.0"

from .graphs import HypergraphSpec, load_hypergraph, ring_graph
from .identities import (IdentityReport, check_alternating, check_even, check_odd,
                         signed_pattern_count)
from .pauli import (PauliString, alternating_setting, leading_half_setting, parse_setting,
                    stabilizer_product)
from .thermal import (BoundReport, beta_from_temperature, deviation_leading_order,
                      error_bounds, fidelity, flip_probability, half_weight_expectation,
                      invert_temperature, minus_probability, sample_size,
                      setting_expectation, union_bound)
from .oracle import build_pure_state, dense_expectation, thermal_density
from .sampler import ProtocolConfig, VerificationReport, check_error_bound, run_protocol
from .supremacy import (CertificationDecision, build_family, certify,
                        exact_outcome_distribution, iqp_sample, optimal_setting)

__all__ = [
    "__version__",
    "HypergraphSpec", "load_hypergraph", "ring_graph",
    "IdentityReport", "check_alternating", "check_even", "check_odd",
    "signed_pattern_count",
    "PauliString", "alternating_setting", "leading_half_setting", "parse_setting",
    "stabilizer_product",
    "BoundReport", "beta_from_temperature", "deviation_leading_order", "error_bounds",
    "fidelity", "flip_probability", "half_weight_expectation", "invert_temperature",
    "minus_probability", "sample_size", "setting_expectation", "union_bound",
    "build_pure_state", "dense_expectation", "thermal_density",
    "ProtocolConfig", "VerificationReport", "check_error_bound", "run_protocol",
    "CertificationDecision", "build_family", "certify",
    "exact_outcome_distribution", "iqp_sample", "optimal_setting",
]
