import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermalverify import (DenseMixedState, DenseState, HypergraphSpec,
                           PauliString, StabilizerProduct, apply_operator,
                           boltzmann_density, build_pure_state, dense_expectation,
                           fidelity, flip_probability, generalized_product, ring_graph,
                           setting_expectation, stabilizer_check, stabilizer_product,
                           thermal_density)
from thermalverify.oracle import _flip_factor, _hadamard_factor, _kron_power
from util_dense import (exhaustive_parity_expectation, from_letters, generator,
                        gibbs_reference, graph_generator, hypergraph_state_vector, hypergraphs_with_selector,
                        kron_power_reference, mask_loop_thermal_density, path_graph,
                        pauli_matrix, per_edge_pure_state, random_hypergraph,
                        stabilizer_product_matrix)

BETA_HALF = math.log(2) / 2


class TestBuildPureState:
    def test_single_qubit(self):
        psi = build_pure_state(HypergraphSpec(1))
        assert np.allclose(psi.amplitudes, [2**-0.5, 2**-0.5])

    def test_single_edge_signs(self):
        psi = build_pure_state(HypergraphSpec(2, e2={(1, 2)}))
        assert np.allclose(psi.amplitudes, np.array([1, 1, 1, -1]) / 2)

    def test_single_triple_signs(self):
        psi = build_pure_state(HypergraphSpec(3, e3={(1, 2, 3)}))
        expected = np.full(8, 8**-0.5)
        expected[0b111] *= -1
        assert np.allclose(psi.amplitudes, expected)

    def test_matches_scalar_construction(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 5):
            h = random_hypergraph(n, rng)
            assert np.allclose(build_pure_state(h).amplitudes, hypergraph_state_vector(h))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            build_pure_state(HypergraphSpec(25))

    def test_amplitudes_are_real(self):
        h = HypergraphSpec(5, e2={(1, 3), (2, 5)}, e3={(1, 2, 4), (3, 4, 5)})
        psi = build_pure_state(h)
        assert psi.amplitudes.dtype == np.float64
        assert np.array_equal(psi.amplitudes, hypergraph_state_vector(h).real)

    @given(hypergraphs_with_selector(max_n=14))
    @settings(max_examples=60, deadline=None)
    def test_site_by_site_build_matches_per_edge_loop(self, case):
        h, _ = case
        amplitudes = build_pure_state(h).amplitudes
        assert np.array_equal(amplitudes, per_edge_pure_state(h))
        assert np.max(np.abs(amplitudes - hypergraph_state_vector(h))) <= 1e-15


class TestApplyOperator:
    def test_matches_kron_for_pauli_strings(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            word = PauliString(n, int(rng.choice([1, -1])),
                               int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            assert np.allclose(apply_operator(word, vec), pauli_matrix(word) @ vec,
                               atol=1e-12)

    def test_matches_kron_for_stabilizer_products(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            h = random_hypergraph(n, rng)
            sp = generator(h, int(rng.integers(1, n + 1)))
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            assert np.allclose(apply_operator(sp, vec), stabilizer_product_matrix(sp) @ vec,
                               atol=1e-12)

    def test_unsupported_operator_rejected(self):
        not_an_operator = HypergraphSpec(2, e2={(1, 2)})
        psi = build_pure_state(not_an_operator)
        rho = thermal_density(not_an_operator, 1.0)
        with pytest.raises(TypeError, match="HypergraphSpec"):
            apply_operator(not_an_operator, psi.amplitudes)
        for state in (psi, rho):
            with pytest.raises(TypeError, match="HypergraphSpec"):
                dense_expectation(state, not_an_operator)

    def test_operand_without_site_count_rejected_by_type(self):
        psi = DenseState(np.ones(4) / 2, 2)
        rho = DenseMixedState(np.eye(4) / 4, 2)
        with pytest.raises(TypeError, match="unsupported operator type str"):
            apply_operator("XZ", np.ones(4) / 2)
        for state in (psi, rho):
            with pytest.raises(TypeError, match="unsupported operator type str"):
                dense_expectation(state, "XZ")


class TestThermalDensity:
    def test_zero_temperature_is_projector(self):
        g = path_graph(3)
        rho = thermal_density(g, math.inf)
        psi = build_pure_state(g).amplitudes
        assert np.allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-14)

    def test_full_dephasing_single_qubit(self):
        rho = thermal_density(HypergraphSpec(1), 0.0)
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)

    def test_known_fidelity(self):
        g = path_graph(4)
        rho = thermal_density(g, BETA_HALF)
        psi = build_pure_state(g).amplitudes
        overlap = np.real(psi.conj() @ rho.matrix @ psi)
        assert overlap == pytest.approx(16 / 81, abs=1e-12)
        assert overlap == pytest.approx(fidelity(4, BETA_HALF), abs=1e-12)

    def test_eigenvalues_nonnegative(self):
        rho = thermal_density(path_graph(5), 0.4)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12

    @given(hypergraphs_with_selector(max_n=6), st.booleans(),
           st.one_of(st.sampled_from((0.0, 1e-3, math.inf)),
                     st.floats(0.05, 5.0, exclude_min=True, exclude_max=True)))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_mask_loop(self, case, graph_only, beta):
        h, _ = case
        if graph_only:
            h = HypergraphSpec(h.n, e2=h.e2)
        rho = thermal_density(h, beta).matrix
        assert rho.dtype == np.float64
        assert np.max(np.abs(rho - mask_loop_thermal_density(h, beta))) <= 1e-15


class TestBoltzmannDensity:
    def test_matches_error_mixture(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 5, 6):
            h = random_hypergraph(n, rng)
            for beta in (0.3, 1.0, 2.0):
                gibbs = boltzmann_density(h, beta)
                mixture = thermal_density(h, beta)
                assert gibbs.matrix.dtype == mixture.matrix.dtype == np.float64
                assert np.max(np.abs(gibbs.matrix - mixture.matrix)) <= 1e-8

    def test_large_beta_approaches_projector(self):
        g = path_graph(3)
        rho = boltzmann_density(g, 30.0)
        psi = build_pure_state(g).amplitudes
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) <= 1e-8

    def test_zero_temperature_sentinel(self):
        g = path_graph(3)
        rho = boltzmann_density(g, math.inf)
        psi = build_pure_state(g).amplitudes
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) <= 1e-10

    def test_infinite_temperature_is_maximally_mixed(self):
        rho = boltzmann_density(path_graph(3), 0.0)
        assert np.allclose(rho.matrix, np.eye(8) / 8, atol=1e-12)

    @pytest.mark.parametrize("beta", [-1.0, math.nan])
    def test_beta_rule_is_the_thermal_one(self, beta):
        with pytest.raises(ValueError,
                           match=r"inverse temperature must be >= 0 \(inf means T=0\), got"):
            boltzmann_density(path_graph(2), beta)


@given(hypergraphs_with_selector(max_n=6),
       st.one_of(st.sampled_from((0.0, math.inf)), st.floats(0.0, 8.0)))
@settings(max_examples=150, deadline=None)
def test_gibbs_state_matches_generator_sum_reference(case, beta):
    h, _ = case
    assert np.max(np.abs(boltzmann_density(h, beta).matrix - gibbs_reference(h, beta))) <= 1e-12


class TestDenseExpectation:
    def test_identity_has_unit_expectation(self):
        rho = thermal_density(path_graph(3), 0.7)
        assert dense_expectation(rho, PauliString(3)) == pytest.approx(1.0, abs=1e-12)

    def test_stabilizer_on_pure_projector(self):
        g = path_graph(4)
        psi = build_pure_state(g).amplitudes
        projector = DenseMixedState(np.outer(psi, psi.conj()), 4)
        for selector in (0b0011, 0b1010, 0b1111):
            bits = [(selector >> b) & 1 for b in range(4)]
            word = stabilizer_product(g, bits)
            assert dense_expectation(projector, word) == pytest.approx(1.0, abs=1e-12)

    def test_known_value(self):
        g = path_graph(4)
        rho = thermal_density(g, BETA_HALF)
        word = stabilizer_product(g, "1100")
        assert dense_expectation(rho, word) == pytest.approx(1 / 9, abs=1e-12)

    def test_pure_state_route_matches_mixed_route(self):
        g = path_graph(3)
        psi = build_pure_state(g)
        projector = DenseMixedState(np.outer(psi.amplitudes, psi.amplitudes.conj()), 3)
        word = stabilizer_product(g, "101")
        assert dense_expectation(psi, word) == pytest.approx(
            dense_expectation(projector, word), abs=1e-12)

    def test_dimension_mismatch(self):
        rho = thermal_density(path_graph(3), 0.7)
        with pytest.raises(ValueError):
            dense_expectation(rho, PauliString(4))

    def test_oracle_consistency_triangle(self):
        """Mixture route, Gibbs route, and the exhaustive parity model agree
        for every setting."""
        rng = np.random.default_rng(77)
        for n in (2, 4, 6):
            h = random_hypergraph(n, rng)
            beta = 0.6
            p = flip_probability(beta)
            mixture = thermal_density(h, beta)
            gibbs = boltzmann_density(h, beta)
            for selector in range(1 << n):
                bits = [(selector >> b) & 1 for b in range(n)]
                product = generalized_product(h, bits)
                a = dense_expectation(mixture, product)
                b = dense_expectation(gibbs, product)
                c = exhaustive_parity_expectation(n, product.x_mask, p)
                assert abs(a - b) <= 1e-8
                assert abs(a - c) <= 1e-8


class TestStabilizerCheck:
    def test_generators_stabilize(self):
        g = path_graph(4)
        psi = build_pure_state(g)
        for i in range(1, 5):
            assert stabilizer_check(psi, graph_generator(g, i))

    @given(hypergraphs_with_selector(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_test_side_generators_stabilize_the_statevector(self, case):
        h, _ = case
        psi = build_pure_state(h)
        for i in range(1, h.n + 1):
            assert stabilizer_check(psi, generator(h, i))

    def test_non_stabilizer_rejected(self):
        g = HypergraphSpec(2, e2={(1, 2)})
        psi = build_pure_state(g)
        x1 = from_letters("XI")
        assert not stabilizer_check(psi, x1)

    @pytest.mark.parametrize("state", [lambda: thermal_density(ring_graph(4), 1.0),
                                       lambda: build_pure_state(ring_graph(4)).amplitudes],
                             ids=["DenseMixedState", "ndarray"])
    def test_other_state_types_rejected(self, state):
        with pytest.raises(TypeError, match="unsupported state type"):
            stabilizer_check(state(), graph_generator(ring_graph(4), 1))


class TestStateValidation:
    @pytest.mark.parametrize("make, real, integer, complex_", [
        (lambda a: DenseState(a, 1).amplitudes, [0.6, 0.8], [1, 0], [0.6, 0.8j]),
        (lambda a: DenseMixedState(a, 1).matrix, np.eye(2) / 2, [[1, 0], [0, 0]],
         [[0.5, 0.5j], [-0.5j, 0.5]]),
    ], ids=["DenseState", "DenseMixedState"])
    def test_dtype_follows_the_input(self, make, real, integer, complex_):
        assert make(real).dtype == np.float64
        assert make(integer).dtype == np.float64
        assert make(complex_).dtype == np.complex128

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            DenseState(np.ones(4), 2)

    def test_non_hermitian_rejected(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DenseMixedState(bad, 2)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DenseMixedState(np.eye(4, dtype=complex), 2)

    def test_negative_matrix_rejected(self):
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="PSD"):
            DenseMixedState(bad, 2)


class TestKronPower:
    @given(n=st.integers(1, 12), complex_input=st.booleans(), p=st.floats(0.0, 0.5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_kronecker_power(self, n, complex_input, p, seed):
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=1 << n)
        if complex_input:
            vec = vec + 1j * rng.normal(size=1 << n)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        flip = np.array([[1.0 - p, p], [p, 1.0 - p]])
        for m, factor in ((hadamard, _hadamard_factor), (flip, partial(_flip_factor, p=p))):
            out, _ = _kron_power(vec.copy(), np.empty_like(vec), factor)
            assert out.dtype == vec.dtype
            assert np.max(np.abs(out - kron_power_reference(m, n, vec))) <= 1e-12

    def test_hadamard_factor_is_cached_read_only(self):
        assert _hadamard_factor(5) is _hadamard_factor(5)
        with pytest.raises(ValueError, match="read-only"):
            _hadamard_factor(5)[0, 0] = 0.0


def test_closed_form_matches_oracle_spot_checks():
    for n, beta in ((3, 0.5), (5, 1.2)):
        g = path_graph(n)
        rho = thermal_density(g, beta)
        for selector in range(1 << n):
            bits = [(selector >> b) & 1 for b in range(n)]
            word = stabilizer_product(g, bits)
            assert dense_expectation(rho, word) == pytest.approx(
                setting_expectation(n, sum(bits), beta), abs=1e-10)
