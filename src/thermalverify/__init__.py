"""Single-setting fidelity estimation for thermal graph and hypergraph states.

The package is the protocol: exact closed forms (thermal), a Monte-Carlo
protocol simulator (sampler) that draws one Binomial per run, and the
linear-time setting reduction (pauli) between a spec and the closed forms.
Every public function that takes or returns a spec uses the one spec type,
graphs.HypergraphSpec (a graph is one with no three-vertex edges). pauli
reduces the one selected product of stabilizer generators to the signed
Pauli word it measures, in a single pass over the edge arrays. The
supremacy module builds, as a HypergraphSpec, the member of the restricted
hypergraph family whose single measurement setting certifies
diagonal-circuit sampling, and samples its X-basis outcomes from the pure
state that oracle.build_pure_state builds.

__all__ is the runtime surface that the CLI, the acceptance tests and the
README quick start reach, pinned by tests/test_api.py. The references the
tests check the closed forms against live in tests/: the exact
combinatorial identities (util_identities), the dense thermal mixture with
its expectation (util_oracle), and the per-shot error-pattern model, the
Pauli product, path graphs, the Gibbs-state builder boltzmann_density, the
X-times-diagonal normal form StabilizerProduct with its coefficient map, the
statevector operator map apply_operator and stabilizer_check (util_dense).
"""

__version__ = "0.1.0"

from .graphs import HypergraphSpec, load_hypergraph, ring_graph
from .pauli import (PauliString, alternating_setting, leading_half_setting, parse_setting,
                    stabilizer_product)
from .thermal import (BoundReport, beta_from_temperature, deviation_leading_order,
                      error_bounds, fidelity, flip_probability, half_weight_expectation,
                      invert_temperature, minus_probability, sample_size,
                      setting_expectation, union_bound)
from .oracle import build_pure_state
from .sampler import ProtocolConfig, VerificationReport, check_error_bound, run_protocol
from .supremacy import (CertificationDecision, build_family, certify,
                        exact_outcome_distribution, iqp_sample, optimal_setting)

__all__ = [
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
]
