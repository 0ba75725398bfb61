import re
import sys
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from thermalverify import (HypergraphSpec, PauliString, alternating_setting, build_family,
                           leading_half_setting, parse_setting, stabilizer_product)
from thermalverify.pauli import _normal_form, _setting_bytes
from util_dense import (StabilizerProduct, all_graphs, ascending_generalized_product,
                        ascending_stabilizer_product, conjugated_x_reference, family_members,
                        from_letters, generator, graph_generator, hypergraph_state_vector,
                        hypergraphs_with_selector, kron_chain, letter, multiply, normal_form,
                        parse_setting_reference, path_graph, pauli_matrix, pauli_multiply,
                        random_hypergraph, stabilizer_product_matrix, try_to_pauli)


def fig3_instance() -> HypergraphSpec:
    return build_family(10)


class TestPauliString:
    def test_letters_and_str(self):
        word = from_letters("XZIY", sign=-1)
        assert str(word) == "-XZIY"
        assert letter(word, 1) == "X" and letter(word, 4) == "Y"
        assert word.xy_support == 2

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            PauliString(2, 1, 0b100, 0)
        with pytest.raises(ValueError):
            PauliString(2, 2, 0, 0)

    def test_product_tracks_sign_exactly(self):
        xz = from_letters("XZ")
        zx = from_letters("ZX")
        assert str(pauli_multiply(xz, zx)) == "+YY"
        assert str(pauli_multiply(zx, xz)) == "+YY"

    def test_every_word_squares_to_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            word = PauliString(n, int(rng.choice([1, -1])),
                               int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
            assert pauli_multiply(word, word) == PauliString(n)

    def test_product_matches_kron_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            a = PauliString(n, int(rng.choice([1, -1])),
                            int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
            b = PauliString(n, int(rng.choice([1, -1])),
                            int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
            dense = pauli_matrix(a) @ pauli_matrix(b)
            if np.allclose(dense, dense.conj().T, atol=1e-12):
                assert np.allclose(pauli_matrix(pauli_multiply(a, b)), dense, atol=1e-12)
            else:
                with pytest.raises(ValueError, match="Hermitian"):
                    pauli_multiply(a, b)

    @pytest.mark.parametrize("cls", [PauliString, StabilizerProduct])
    @pytest.mark.parametrize("n, error, match", [
        (True, TypeError, "n must be an integer, got True"),
        (2.5, TypeError, "n must be an integer, got 2.5"),
        ("3", TypeError, "n must be an integer, got '3'"),
        (0, ValueError, "need n >= 1, got 0"),
    ])
    def test_bad_site_count_is_named(self, cls, n, error, match):
        with pytest.raises(error, match=match):
            cls(n)

    @pytest.mark.parametrize("cls", [PauliString, StabilizerProduct])
    def test_numpy_site_count_is_stored_as_plain_int(self, cls):
        op = cls(np.int64(3), x_mask=0b101)
        assert op == cls(3, x_mask=0b101) and type(op.n) is int
        if cls is PauliString:
            assert str(op) == "+XIX"

    @pytest.mark.parametrize("n", [3, 20_000])
    def test_repr_round_trips_past_the_decimal_digit_limit(self, n):
        word = PauliString(n, -1, (1 << n) - 1, 1 << (n - 1))
        assert eval(repr(word), {"PauliString": PauliString}) == word
        assert repr(PauliString(3, -1, 0b101, 0b110)) == (
            "PauliString(n=3, sign=-1, x_mask=0x5, z_mask=0x6)")

    def test_anti_hermitian_product_raises(self):
        x = from_letters("X")
        z = from_letters("Z")
        with pytest.raises(ValueError, match="Hermitian"):
            pauli_multiply(x, z)


class TestGraphStabilizers:
    def test_single_edge(self):
        g = HypergraphSpec(2, e2={(1, 2)})
        assert str(graph_generator(g, 1)) == "+XZ"
        assert str(graph_generator(g, 2)) == "+ZX"

    def test_isolated_vertex(self):
        g = HypergraphSpec(3)
        assert str(graph_generator(g, 2)) == "+IXI"

    def test_two_neighbors(self):
        g = path_graph(3)
        assert str(graph_generator(g, 2)) == "+ZXZ"

    def test_index_out_of_range(self):
        g = HypergraphSpec(2)
        with pytest.raises(ValueError):
            graph_generator(g, 0)
        with pytest.raises(ValueError):
            graph_generator(g, 3)

    def test_edge_graph_full_product_is_yy(self):
        g = HypergraphSpec(2, e2={(1, 2)})
        assert str(stabilizer_product(g, "11")) == "+YY"

    def test_empty_selector_is_identity(self):
        g = path_graph(4)
        assert stabilizer_product(g, "0000") == PauliString(4)

    def test_path_product_matches_dense_oracle(self):
        g = path_graph(4)
        word = stabilizer_product(g, "1100")
        dense = pauli_matrix(graph_generator(g, 1)) @ pauli_matrix(graph_generator(g, 2))
        assert np.allclose(pauli_matrix(word), dense, atol=1e-12)

    def test_all_graphs_all_selectors_match_dense_oracle(self):
        for n in (2, 3, 4):
            for g in all_graphs(n):
                generators = [pauli_matrix(graph_generator(g, i)) for i in range(1, n + 1)]
                for selector in range(1 << n):
                    bits = [(selector >> b) & 1 for b in range(n)]
                    dense = np.eye(1 << n, dtype=complex)
                    for i, bit in enumerate(bits):
                        if bit:
                            dense = dense @ generators[i]
                    word = stabilizer_product(g, bits)
                    assert np.allclose(pauli_matrix(word), dense, atol=1e-12)

    def test_xy_support_equals_selector_weight(self):
        rng = np.random.default_rng(3)
        for n in (5, 6, 7, 8):
            for _ in range(5):
                pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
                take = rng.random(len(pairs)) < 0.4
                g = HypergraphSpec(n, e2=frozenset(p for p, t in zip(pairs, take) if t))
                for selector in range(1 << n):
                    bits = [(selector >> b) & 1 for b in range(n)]
                    assert stabilizer_product(g, bits).xy_support == sum(bits)

    def test_selector_xor_is_product(self):
        # generators commute and square to I, so products compose by XOR of
        # selectors, sign included
        rng = np.random.default_rng(29)
        for n in (4, 6, 8):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            take = rng.random(len(pairs)) < 0.4
            g = HypergraphSpec(n, e2=frozenset(p for p, t in zip(pairs, take) if t))
            for _ in range(10):
                s1 = int(rng.integers(0, 1 << n))
                s2 = int(rng.integers(0, 1 << n))
                bits = lambda s: [(s >> b) & 1 for b in range(n)]
                lhs = pauli_multiply(stabilizer_product(g, bits(s1)),
                                     stabilizer_product(g, bits(s2)))
                assert lhs == stabilizer_product(g, bits(s1 ^ s2))

    def test_product_order_independent(self):
        rng = np.random.default_rng(17)
        g = path_graph(6)
        for _ in range(20):
            sites = [i for i in range(1, 7) if rng.random() < 0.5]
            forward = PauliString(6)
            for i in sites:
                forward = pauli_multiply(forward, graph_generator(g, i))
            shuffled = list(sites)
            rng.shuffle(shuffled)
            backward = PauliString(6)
            for i in shuffled:
                backward = pauli_multiply(backward, graph_generator(g, i))
            assert forward == backward

    def test_stabilizes_dense_graph_state(self):
        from thermalverify import build_pure_state
        from util_dense import stabilizer_check

        rng = np.random.default_rng(23)
        for n in (2, 3, 5, 6):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            take = rng.random(len(pairs)) < 0.5
            g = HypergraphSpec(n, e2=frozenset(p for p, t in zip(pairs, take) if t))
            psi = build_pure_state(g)
            for selector in range(1 << n):
                bits = [(selector >> b) & 1 for b in range(n)]
                assert stabilizer_check(psi, stabilizer_product(g, bits))


class TestStabilizerProduct:
    def test_generator_fields_graph_case(self):
        h = HypergraphSpec(2, e2={(1, 2)})
        sp = generator(h, 1)
        assert sp.x_mask == 0b01 and sp.linear == 0b10 and sp.quadratic == frozenset()

    def test_generator_fields_triple_case(self):
        h = HypergraphSpec(3, e3={(1, 2, 3)})
        sp = generator(h, 1)
        assert sp.x_mask == 0b001 and sp.linear == 0
        assert sp.quadratic == frozenset({(2, 3)})

    def test_fig3_vertex3_quadratic(self):
        h = fig3_instance()
        sp = generator(h, 3)
        expected = frozenset(
            tuple(sorted(v for v in t if v != 3)) for t in h.e3 if 3 in t
        )
        assert sp.quadratic == expected
        assert len([t for t in h.e3 if 3 in t]) == 4

    def test_generator_squares_to_identity(self):
        h = fig3_instance()
        for i in range(1, 11):
            sp = generator(h, i)
            assert multiply(sp, sp) == StabilizerProduct(10)

    def test_x_through_cz_both_orders_match_dense(self):
        x1 = StabilizerProduct(2, x_mask=0b01)
        cz = StabilizerProduct(2, quadratic=frozenset({(1, 2)}))
        left = multiply(x1, cz)
        right = multiply(cz, x1)
        assert right.linear == 0b10  # CZ picks up a Z_2 when pushed past X_1
        for sp in (left, right):
            assert sp.quadratic == frozenset({(1, 2)})
        assert np.allclose(stabilizer_product_matrix(left),
                           stabilizer_product_matrix(x1) @ stabilizer_product_matrix(cz),
                           atol=1e-12)
        assert np.allclose(stabilizer_product_matrix(right),
                           stabilizer_product_matrix(cz) @ stabilizer_product_matrix(x1),
                           atol=1e-12)

    def test_products_match_dense_oracle_random_hypergraphs(self):
        rng = np.random.default_rng(41)
        for n in (3, 4, 5, 6):
            for _ in range(4):
                h = random_hypergraph(n, rng)
                gens = [generator(h, i) for i in range(1, n + 1)]
                mats = [stabilizer_product_matrix(g) for g in gens]
                for a in range(n):
                    for b in range(n):
                        assert np.allclose(stabilizer_product_matrix(multiply(gens[a], gens[b])),
                                           mats[a] @ mats[b], atol=1e-12)

    def test_fig3_pair_product_matches_dense(self):
        h = fig3_instance()
        g2 = generator(h, 2)
        g4 = generator(h, 4)
        assert np.allclose(stabilizer_product_matrix(multiply(g2, g4)),
                           stabilizer_product_matrix(g2) @ stabilizer_product_matrix(g4),
                           atol=1e-12)

    def test_all_generator_pairs_at_ten_sites(self):
        # statevector route: (a*b)|v> == a(b|v>) for every ordered pair on a
        # 10-site hypergraph with edges and triangles
        from util_dense import apply_operator

        h = HypergraphSpec(10, e2={(1, 6), (2, 9)}, e3=fig3_instance().e3)
        gens = [generator(h, i) for i in range(1, 11)]
        rng = np.random.default_rng(61)
        vecs = rng.normal(size=(3, 1 << 10)) + 1j * rng.normal(size=(3, 1 << 10))
        for a in gens:
            for b in gens:
                combined = multiply(a, b)
                for v in vecs:
                    assert np.allclose(apply_operator(combined, v),
                                       apply_operator(a, apply_operator(b, v)),
                                       atol=1e-10)

    def test_associative(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            h = random_hypergraph(5, rng)
            a, b, c = (generator(h, int(i)) for i in rng.integers(1, 6, size=3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_quadratic_pairs_are_two_distinct_integer_sites(self):
        for bad in ((1.5, 2), (True, 2), (1, 2, 3)):
            with pytest.raises(ValueError, match="must be two integer sites") as exc:
                StabilizerProduct(3, quadratic={bad})
            assert repr(bad) in str(exc.value)
        with pytest.raises(ValueError, match=r"\(2, 2\) has repeated site"):
            StabilizerProduct(3, quadratic={(2, 2)})
        with pytest.raises(ValueError, match=r"\(1, 4\) outside 1\.\.3"):
            StabilizerProduct(3, quadratic={(1, 4)})
        sp = StabilizerProduct(3, quadratic={(np.int64(3), np.int64(1))})
        assert sp == StabilizerProduct(3, quadratic={(1, 3)})
        assert all(type(v) is int for pair in sp.quadratic for v in pair)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            multiply(StabilizerProduct(2), StabilizerProduct(3))


class TestGeneralizedProduct:
    def test_all_zero_selector(self):
        h = fig3_instance()
        assert normal_form(h, "0" * 10) == StabilizerProduct(10)

    def test_fig3_alternating_selector_collapses(self):
        h = fig3_instance()
        sp = normal_form(h, alternating_setting(10))
        assert sp.quadratic == frozenset()
        assert sp.x_mask == sum(1 << (i - 1) for i in (2, 4, 6, 8, 10))

    def test_fig4_alternating_selector_collapses(self):
        h = build_family(20)
        sp = normal_form(h, alternating_setting(20))
        assert sp.quadratic == frozenset()
        assert sp.x_mask == sum(1 << (i - 1) for i in range(2, 21, 2))

    def test_stabilizes_dense_hypergraph_state(self):
        from thermalverify import build_pure_state
        from util_dense import stabilizer_check

        rng = np.random.default_rng(7)
        for n in (3, 4, 6):
            h = random_hypergraph(n, rng)
            psi = build_pure_state(h)
            for selector in range(1 << n):
                bits = [(selector >> b) & 1 for b in range(n)]
                assert stabilizer_check(psi, normal_form(h, bits))

    def test_stabilizes_ten_vertex_instance_exhaustively(self):
        from thermalverify import build_pure_state
        from util_dense import stabilizer_check

        h = fig3_instance()
        psi = build_pure_state(h)
        for selector in range(1 << 10):
            bits = [(selector >> b) & 1 for b in range(10)]
            assert stabilizer_check(psi, normal_form(h, bits))

    def test_matches_scalar_statevector(self):
        h = fig3_instance()
        psi = hypergraph_state_vector(h)
        sp = normal_form(h, alternating_setting(10))
        applied = stabilizer_product_matrix(sp) @ psi
        assert np.allclose(applied, psi, atol=1e-12)

    def test_selector_xor_is_product(self):
        # generalized generators are commuting conjugates of X's, so the
        # same XOR composition law holds in the normal form
        rng = np.random.default_rng(37)
        for n in (4, 5, 6):
            h = random_hypergraph(n, rng)
            for _ in range(10):
                s1 = int(rng.integers(0, 1 << n))
                s2 = int(rng.integers(0, 1 << n))
                bits = lambda s: [(s >> b) & 1 for b in range(n)]
                lhs = multiply(normal_form(h, bits(s1)),
                               normal_form(h, bits(s2)))
                assert lhs == normal_form(h, bits(s1 ^ s2))


    @given(st.one_of(hypergraphs_with_selector(),
                     st.just((build_family(2000), leading_half_setting(2000)))))
    @settings(max_examples=100, deadline=None)
    def test_plain_tuple_passes_the_checking_constructor(self, case):
        # _normal_form returns its fields unchecked; StabilizerProduct must
        # accept them unchanged, all plain ints
        h, bits = case
        fields = _normal_form(h, bits)
        sp = StabilizerProduct(h.n, *fields)
        assert (sp.sign, sp.x_mask, sp.linear, sp.quadratic) == fields
        sign, x_mask, linear, quadratic = fields
        values = [sign, x_mask, linear, *chain.from_iterable(quadratic)]
        assert {type(v) for v in values} == {int}


class TestTryToPauli:
    def test_identity(self):
        word = try_to_pauli(StabilizerProduct(3))
        assert word == PauliString(3)

    def test_nonempty_quadratic_is_not_a_pauli_word(self):
        h = HypergraphSpec(3, e3={(1, 2, 3)})
        assert try_to_pauli(generator(h, 1)) is None

    def test_fig3_reduction_has_half_support(self):
        h = fig3_instance()
        word = stabilizer_product(h, alternating_setting(10))
        assert try_to_pauli(normal_form(h, alternating_setting(10))) == word
        assert word.xy_support == 5
        assert str(word) == "+IXIXIXIXIX"

    def test_round_trip_against_dense(self):
        for sp in (StabilizerProduct(3, sign=-1, x_mask=0b011, linear=0b100),
                   StabilizerProduct(3, sign=-1, x_mask=0b011, linear=0b011),
                   StabilizerProduct(4, sign=1, x_mask=0b1010, linear=0b0101)):
            word = try_to_pauli(sp)
            assert np.allclose(pauli_matrix(word), stabilizer_product_matrix(sp), atol=1e-12)

    def test_odd_xz_overlap_is_not_hermitian(self):
        # -X1 X2 Z1 Z3 equals i * (Y1 X2 Z3): a valid normal form but not a
        # Hermitian Pauli word, so the collapse must refuse it.
        sp = StabilizerProduct(3, sign=-1, x_mask=0b011, linear=0b101)
        with pytest.raises(ValueError, match="Hermitian"):
            try_to_pauli(sp)


class TestSelectors:
    def test_parse_setting(self):
        assert parse_setting("0110") == (0, 1, 1, 0)
        assert parse_setting([1, 0]) == (1, 0)
        with pytest.raises(ValueError):
            parse_setting("012")
        with pytest.raises(ValueError):
            parse_setting("01", n=3)

    def test_parse_setting_rejects_non_integral_values(self):
        for bad in ((0.5, 1), (1, 0, 1.5), [np.float64(0.25)]):
            with pytest.raises(ValueError, match="is not an integer") as exc:
                parse_setting(bad)
            assert repr(next(v for v in bad if v != int(v))) in str(exc.value)
        assert parse_setting((1.0, 0.0)) == (1, 0)
        assert parse_setting([True, np.int64(0), np.uint8(1)]) == (1, 0, 1)
        with pytest.raises(ValueError, match="must be 0/1"):
            parse_setting((1.0, 2.0))
        with pytest.raises(ValueError, match="must be 0/1"):
            parse_setting((0, 256))

    @pytest.mark.parametrize("bad", [[0, None], [0, [1]], [0, "x"], [0, 2], [0, 1.5],
                                     (1, float("nan")), (0, float("inf")), 5, None])
    def test_every_rejected_selector_is_a_value_error_naming_it(self, bad):
        g = path_graph(2)
        for reduce in (parse_setting, lambda s: _normal_form(g, s),
                       lambda s: stabilizer_product(g, s)):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                reduce(bad)

    @pytest.mark.parametrize("bad", ["01\u00e9", "0\ud8001", "0 1"])
    def test_a_string_with_any_other_character_is_rejected(self, bad):
        # a non-ASCII letter and a lone surrogate, which str.encode refuses
        message = f"setting string must contain only 0/1, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _setting_bytes(bad, 3)

    def test_the_empty_string_is_short_not_invalid(self):
        assert _setting_bytes("") == b""
        with pytest.raises(ValueError, match="setting has 0 bits, expected 4"):
            _setting_bytes("", 4)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_bytes_match_the_tuple_path(self, data):
        bits = st.integers(-1, 2)
        kind = data.draw(st.sampled_from(("str", "tuple", "list", "ndarray")), label="kind")
        if kind == "str":
            setting = data.draw(st.text("01x", max_size=6) | st.text(max_size=3), label="setting")
        elif kind == "ndarray":
            dtype = data.draw(st.sampled_from((np.int64, np.uint8, np.float64, bool)), label="dtype")
            items = st.integers(0 if dtype is np.uint8 else -1, 2)
            setting = np.array(data.draw(st.lists(items, max_size=6), label="items"), dtype=dtype)
        else:
            value = st.one_of(bits, bits.map(bool), bits.map(float), st.sampled_from((0.5, 1e300)),
                              bits.map(np.int64), st.integers(0, 2).map(np.uint8),
                              bits.map(np.bool_),
                              st.sampled_from((None, "1", "x", [1], float("nan"), float("inf"))))
            values = data.draw(st.lists(value, max_size=6), label="values")
            setting = (tuple if kind == "tuple" else list)(values)
        n = data.draw(st.sampled_from((None, len(setting), len(setting) + 1)), label="n")
        try:
            expected = parse_setting_reference(setting, n)
        except (TypeError, ValueError, OverflowError):
            with pytest.raises(ValueError):
                _setting_bytes(setting, n)
        else:
            assert _setting_bytes(setting, n) == bytes(expected)
            assert parse_setting(setting, n) == expected

    def test_canned_selectors(self):
        assert leading_half_setting(4) == (1, 1, 0, 0)
        assert alternating_setting(6) == (0, 1, 0, 1, 0, 1)
        with pytest.raises(ValueError):
            leading_half_setting(5)
        with pytest.raises(ValueError):
            alternating_setting(7)

    @pytest.mark.parametrize("build", [alternating_setting, leading_half_setting])
    @pytest.mark.parametrize("n, error, match", [
        (0, ValueError, "needs even n >= 2, got 0"),
        (-2, ValueError, "needs even n >= 2, got -2"),
        (4.0, TypeError, "n must be an integer, got 4.0"),
        (True, TypeError, "n must be an integer, got True"),
    ])
    def test_canned_selectors_reject_bad_site_counts(self, build, n, error, match):
        with pytest.raises(error, match=match):
            build(n)

    @pytest.mark.parametrize("build", [alternating_setting, leading_half_setting])
    @pytest.mark.parametrize("n", [10**30, sys.maxsize + 1])
    def test_canned_selectors_reject_an_n_past_the_index_limit(self, build, n):
        # an even n that fits a float but leaves no index for the n + 1 entry array
        with pytest.raises(ValueError, match=rf"need n < {sys.maxsize} \(sys\.maxsize\)"):
            build(n)


class TestFastReductions:
    """The one-pass reductions against the ascending generator products."""

    @given(hypergraphs_with_selector())
    @settings(max_examples=300, deadline=None)
    def test_stabilizer_product_matches_ascending_product(self, case):
        h, bits = case
        g = HypergraphSpec(h.n, e2=h.e2)
        assert stabilizer_product(g, bits) == ascending_stabilizer_product(g, bits)

    @given(hypergraphs_with_selector())
    @settings(max_examples=300, deadline=None)
    def test_generalized_product_matches_ascending_product(self, case):
        h, bits = case
        assert normal_form(h, bits) == ascending_generalized_product(h, bits)

    @given(hypergraphs_with_selector())
    @settings(max_examples=300, deadline=None)
    def test_graph_case_of_generalized_product_is_stabilizer_product(self, case):
        h, bits = case
        graph_part = HypergraphSpec(h.n, e2=h.e2)
        assert (try_to_pauli(normal_form(graph_part, bits))
                == stabilizer_product(graph_part, bits))

    @given(hypergraphs_with_selector())
    @settings(max_examples=300, deadline=None)
    def test_stabilizer_product_is_the_collapsed_normal_form(self, case):
        h, bits = case
        word = try_to_pauli(ascending_generalized_product(h, bits))
        assert try_to_pauli(conjugated_x_reference(h.n, bits, h.e2, h.e3)) == word
        if word is None:
            with pytest.raises(ValueError, match="CZ tails cancel"):
                stabilizer_product(h, bits)
        else:
            assert stabilizer_product(h, bits) == word

    @given(st.one_of(hypergraphs_with_selector(), family_members().flatmap(
        lambda h: st.tuples(st.just(h), st.one_of(
            st.just(alternating_setting(h.n)),
            st.lists(st.integers(0, 1), min_size=h.n, max_size=h.n))))))
    @settings(max_examples=300, deadline=None)
    def test_every_word_is_hermitian_and_graph_signs_count_inner_edges(self, case):
        # stabilizer_product collapses without a Hermiticity check; this is
        # the invariant that makes the check unreachable
        h, bits = case
        graph = HypergraphSpec(h.n, e2=h.e2_rows)
        for spec in (h, graph):
            try:
                word = stabilizer_product(spec, bits)
            except ValueError:
                assert spec is h and len(h.e3_rows)  # only CZ tails refuse
                continue
            overlap = (word.x_mask & word.z_mask).bit_count()
            assert overlap % 2 == 0
        inner = np.array([0, *bits], dtype=bool)[graph.e2_rows].all(axis=1)
        assert word.sign == (-1) ** (int(np.count_nonzero(inner)) + overlap // 2)

    @given(hypergraphs_with_selector())
    @settings(max_examples=300, deadline=None)
    def test_array_reduction_matches_pure_python_pass(self, case):
        h, bits = case
        expected = conjugated_x_reference(h.n, bits, h.e2, h.e3)
        assert normal_form(h, bits) == expected
        assume(expected.quadratic)  # count only draws with CZ pairs left over

    @given(st.integers(1, 300).flatmap(
        lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    @settings(max_examples=100, deadline=None)
    def test_edgeless_spec_has_no_linear_part(self, bits):
        h = HypergraphSpec(len(bits))
        sp = normal_form(h, bits)
        assert type(sp.linear) is int and sp.linear == 0
        assert sp == conjugated_x_reference(h.n, bits, (), ())
        assert sp == ascending_generalized_product(h, bits)

    def test_edgeless_reduction_runs_no_per_site_tally(self):
        # the selector's bytes and its bool view take 3 bytes a site; an
        # int64 bincount over the sites would add 8 more
        n = 1_000_000
        h, bits = HypergraphSpec(n), "01" * (n // 2)
        _normal_form(HypergraphSpec(4), "0101")  # lazy numpy set-up outside the peak
        tracemalloc.start()
        try:
            _, x_mask, linear, _ = _normal_form(h, bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert linear == 0 and x_mask == int("10" * (n // 2), 2)
        assert peak < 4 * n

    def test_reduction_builds_no_vertex_index(self):
        g = path_graph(50)
        stabilizer_product(g, leading_half_setting(50))
        assert "_adjacency" not in g.__dict__
        assert set(g.__dict__) == {"n", "e2_rows", "e3_rows"}

    @given(st.integers(1, 130).flatmap(lambda n: st.tuples(
        st.just(n), st.sampled_from((1, -1)),
        st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))))
    @settings(max_examples=200, deadline=None)
    def test_letters_match_per_site_reference(self, word_args):
        word = PauliString(*word_args)
        letters = "".join(letter(word, i) for i in range(1, word.n + 1))
        assert word.letters() == letters
        assert str(word) == ("+" if word.sign > 0 else "-") + letters
