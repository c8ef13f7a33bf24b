"""Problem compilers: independent set, 3-CNF, and copy amplification."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from spnmap import (
    CnfFormula,
    Graph,
    LeafNode,
    Network,
    ProductNode,
    ReductionResult,
    SumNode,
    Variable,
    amplification_q,
    amplify,
    cnf_to_spn,
    evaluate,
    exact_map,
    mis_decision_threshold,
    mis_to_spn,
    network_stats,
    parse_spn,
    random_graph,
    serialize_spn,
    validate,
)
from spnmap.experiments import gap_fragment
from oracles import all_assignments, amplified_nodes, brute_mis_size, brute_sat


def random_formula(n: int, m: int, seed: int) -> CnfFormula:
    import random

    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(n, tuple(clauses))


PIN = {"0": (1.0, 0.0), "1": (0.0, 1.0), "-": (0.5, 0.5)}


def assert_pinned_layout(net, layout) -> None:
    """Root sum 0 mixes ``layout``'s products in order; leaf k of each is over variable k.

    ``layout`` maps each product id to its leaf ids and a string with one
    character per leaf: pinned to ``0``, pinned to ``1``, or uniform ``-``.
    """
    assert net.root == 0
    assert net.nodes[0].children == tuple(layout)
    for product_id, (leaf_ids, pins) in layout.items():
        assert net.nodes[product_id] == ProductNode(leaf_ids)
        for var, (leaf_id, pin) in enumerate(zip(leaf_ids, pins, strict=True)):
            assert net.nodes[leaf_id] == LeafNode(var, PIN[pin])


class TestGraph:
    def test_normalizes_edge_orientation(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})
        assert g.neighbors(2) == frozenset({0, 1})
        assert g.neighbors(0) == frozenset({2})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="vertex range"):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(-1, frozenset())


class TestCnfFormula:
    def test_rejects_short_clause(self):
        with pytest.raises(ValueError, match="exactly 3"):
            CnfFormula(3, ((1, 2),))

    def test_rejects_repeated_variable(self):
        with pytest.raises(ValueError, match="repeats"):
            CnfFormula(3, ((1, -1, 2),))

    def test_rejects_literal_zero(self):
        with pytest.raises(ValueError, match="literal 0"):
            CnfFormula(3, ((0, 1, 2),))

    def test_rejects_variable_beyond_count(self):
        with pytest.raises(ValueError, match="exceeds"):
            CnfFormula(3, ((1, 2, 4),))

    def test_rejects_empty_variable_set(self):
        with pytest.raises(ValueError):
            CnfFormula(0, ())


class TestIndependentSetReduction:
    def test_diamond_structure(self, diamond_graph):
        result = mis_to_spn(diamond_graph)
        net = result.network
        assert len(net.nodes) == 4 * 4 + 4 + 1
        assert result.normalizer == Fraction(6)
        root = net.nodes[net.root]
        assert isinstance(root, SumNode)
        assert root.weights == (1 / 6, 2 / 6, 1 / 6, 2 / 6)
        assert_pinned_layout(
            net,
            {
                1: ((2, 3, 4, 5), "1000"),
                6: ((7, 8, 9, 10), "010-"),
                11: ((12, 13, 14, 15), "0010"),
                16: ((17, 18, 19, 20), "0-01"),
            },
        )
        stats = network_stats(net)
        assert stats.height == 2
        assert stats.sum_count == 1 and stats.product_count == 4
        assert validate(net) == []
        assert result.metadata == {"kind": "mis", "q": 1, "n": 4}

    def test_diamond_map_is_mis_size_over_c(self, diamond_graph):
        result = mis_to_spn(diamond_graph)
        best = exact_map(result.network)
        assert best.value.linear == pytest.approx(2 / 6, rel=1e-12)
        # The maximizer picks the independent pair of degree-2 vertices.
        assert best.configuration == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_triangle(self):
        result = mis_to_spn(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        assert result.normalizer == Fraction(3)
        assert exact_map(result.network).value.linear == pytest.approx(1 / 3, rel=1e-12)

    def test_edgeless_graph(self):
        result = mis_to_spn(Graph.from_edges(3, []))
        assert result.normalizer == Fraction(12)
        assert exact_map(result.network).value.linear == pytest.approx(3 / 12, rel=1e-12)

    def test_single_vertex(self):
        result = mis_to_spn(Graph.from_edges(1, []))
        assert len(result.network.nodes) == 3
        assert result.normalizer == Fraction(1)
        assert exact_map(result.network).value.linear == pytest.approx(1.0)

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            mis_to_spn(Graph(0, frozenset()))

    def test_support_counts_selectable_vertices(self, diamond_graph):
        # S(x) = |{i : x_i = 1 and every neighbor is 0}| / c, so the value
        # is positive exactly when some selected vertex has no selected
        # neighbor, and scaling by c recovers an integer set size.
        result = mis_to_spn(diamond_graph)
        c = float(result.normalizer)
        for assignment in all_assignments(result.network):
            selected = {
                i
                for i in range(diamond_graph.n)
                if assignment[i] == 1
                and all(assignment[j] == 0 for j in diamond_graph.neighbors(i))
            }
            value = evaluate(result.network, assignment).linear
            assert value * c == pytest.approx(len(selected), abs=1e-9)

    def test_ones_of_an_independent_set_score_its_size(self, diamond_graph):
        result = mis_to_spn(diamond_graph)
        independent = {1, 3}
        assignment = {i: int(i in independent) for i in range(diamond_graph.n)}
        value = evaluate(result.network, assignment).linear
        assert value == pytest.approx(len(independent) / 6, rel=1e-12)

    def test_oracle_equivalence_on_random_graphs(self):
        for seed in range(30):
            graph = random_graph(2 + seed % 7, 10.0 + 10 * (seed % 6), seed=seed)
            result = mis_to_spn(graph)
            best = exact_map(result.network).value.linear
            scaled = best * float(result.normalizer)
            assert abs(scaled - round(scaled)) < 1e-9
            assert round(scaled) == brute_mis_size(graph)

    def test_decision_threshold(self, diamond_graph):
        result = mis_to_spn(diamond_graph)
        assert mis_decision_threshold(result, 2) == pytest.approx(2 / 6)
        assert mis_decision_threshold(result, 0) == 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            mis_decision_threshold(result, -1)
        best = exact_map(result.network).value.linear
        assert best >= mis_decision_threshold(result, 2) * (1 - 1e-9)
        assert best < mis_decision_threshold(result, 3)
        huge = ReductionResult(result.network, Fraction(2**1100))
        assert mis_decision_threshold(huge, 1) == Fraction(1, 2**1100)


class TestCnfReduction:
    def test_two_clause_structure(self, two_clause_formula):
        result = cnf_to_spn(two_clause_formula)
        net = result.network
        assert len(net.nodes) == 1 + 7 * 2 * (1 + 4)
        assert result.normalizer == Fraction(8, 7 * 2**4)
        root = net.nodes[net.root]
        assert isinstance(root, SumNode)
        assert len(root.children) == 14
        assert all(w == pytest.approx(1 / 14) for w in root.weights)
        # One product per satisfying assignment of each clause's variables,
        # in counting order: clause 1 pins x1..x3, clause 2 pins x1, x3, x4.
        assert_pinned_layout(
            net,
            {
                1: ((2, 3, 4, 5), "000-"),
                6: ((7, 8, 9, 10), "001-"),
                11: ((12, 13, 14, 15), "010-"),
                16: ((17, 18, 19, 20), "011-"),
                21: ((22, 23, 24, 25), "100-"),
                26: ((27, 28, 29, 30), "110-"),
                31: ((32, 33, 34, 35), "111-"),
                36: ((37, 38, 39, 40), "0-00"),
                41: ((42, 43, 44, 45), "0-01"),
                46: ((47, 48, 49, 50), "0-10"),
                51: ((52, 53, 54, 55), "0-11"),
                56: ((57, 58, 59, 60), "1-01"),
                61: ((62, 63, 64, 65), "1-10"),
                66: ((67, 68, 69, 70), "1-11"),
            },
        )
        assert network_stats(net).height == 2
        assert validate(net) == []
        assert result.metadata == {"kind": "cnf", "q": 1, "m": 2, "n": 4}

    def test_satisfiable_map_hits_the_threshold(self, two_clause_formula):
        result = cnf_to_spn(two_clause_formula)
        best = exact_map(result.network)
        assert best.value.linear == pytest.approx(float(result.normalizer), rel=1e-12)
        assert best.value.linear == pytest.approx(1 / 14, rel=1e-12)

    def test_single_clause(self):
        result = cnf_to_spn(CnfFormula(3, ((1, 2, 3),)))
        assert len(result.network.nodes) == 1 + 7 * (1 + 3)
        assert exact_map(result.network).value.linear == pytest.approx(
            float(Fraction(8, 7 * 8)), rel=1e-12
        )

    def test_unsatisfiable_formula_stays_below_threshold(self):
        # All eight sign patterns over three variables: no assignment wins.
        clauses = tuple(
            (s1 * 1, s2 * 2, s3 * 3)
            for s1 in (1, -1)
            for s2 in (1, -1)
            for s3 in (1, -1)
        )
        formula = CnfFormula(3, clauses)
        assert not brute_sat(formula)
        result = cnf_to_spn(formula)
        best = exact_map(result.network).value.linear
        threshold = float(result.normalizer)
        m = len(clauses)
        assert best <= (m - 1) / m * threshold * (1 + 1e-9)

    def test_oracle_equivalence_on_random_formulas(self):
        for seed in range(25):
            formula = random_formula(3 + seed % 5, 1 + seed % 6, seed)
            result = cnf_to_spn(formula)
            best = exact_map(result.network).value.linear
            threshold = float(result.normalizer)
            satisfiable = best >= threshold * (1 - 1e-9)
            assert satisfiable == brute_sat(formula)

    def test_rejects_empty_clause_list(self):
        with pytest.raises(ValueError, match="at least one clause"):
            cnf_to_spn(CnfFormula(3, ()))


class TestAmplification:
    def test_copy_count_examples(self):
        # ln2 * 2 * sqrt(102) squares to about 196.03, so q = 197.
        assert amplification_q(2, 100, 0.5) == 197
        assert amplification_q(2, 5, 0.0) == 2
        assert amplification_q(2, 99999, 0.0) == 2
        assert amplification_q(1, 1, 0.0) == 1

    def test_copy_count_grows_with_epsilon(self):
        sizes = [amplification_q(2, 100, eps) for eps in (0.0, 0.25, 0.5, 0.75)]
        assert sizes == sorted(sizes)
        assert sizes[0] == 2

    def test_copy_count_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            amplification_q(0, 10, 0.5)
        with pytest.raises(ValueError):
            amplification_q(1, 0, 0.5)
        with pytest.raises(ValueError):
            amplification_q(1, 10, 1.0)
        with pytest.raises(ValueError):
            amplification_q(1, 10, -0.1)

    def test_copy_count_past_float_range_is_refused(self):
        with pytest.raises(ValueError, match="more copies than a float can count"):
            amplification_q(2, 71, 0.999)

    def test_single_copy_is_identity(self, two_clause_formula):
        result = cnf_to_spn(two_clause_formula)
        assert amplify(result, 1) is result

    def test_rejects_nonpositive_copies(self, two_clause_formula):
        with pytest.raises(ValueError, match="positive"):
            amplify(cnf_to_spn(two_clause_formula), 0)

    def test_two_copies_structure(self, two_clause_formula):
        base = cnf_to_spn(two_clause_formula)
        doubled = amplify(base, 2)
        net = doubled.network
        assert len(net.nodes) == 2 * 71 + 1
        assert len(net.variables) == 8
        assert doubled.normalizer == Fraction(8, 7 * 2**4) ** 2
        assert doubled.metadata["q"] == 2
        root = net.nodes[net.root]
        assert isinstance(root, ProductNode) and len(root.children) == 2
        assert network_stats(net).height == 3
        assert validate(net) == []

    def test_copy_variables_are_offset_blocks(self, two_clause_formula):
        base = cnf_to_spn(two_clause_formula)
        tripled = amplify(base, 3).network
        n = len(base.network.variables)
        for node in tripled.nodes.values():
            if isinstance(node, LeafNode):
                assert 0 <= node.variable < 3 * n
        scopes = [tripled.scope(child) for child in tripled.nodes[tripled.root].children]
        assert sorted(map(min, scopes)) == [0, n, 2 * n]
        assert all(max(s) - min(s) == n - 1 for s in scopes)

    def test_map_value_is_the_power_of_the_base(self, two_clause_formula):
        base = cnf_to_spn(two_clause_formula)
        base_best = exact_map(base.network)
        for q in (2, 3):
            amped = amplify(base, q)
            best = exact_map(amped.network)
            assert best.value.log == pytest.approx(q * base_best.value.log, rel=1e-9)

    def test_amplified_gap_fragment_value(self):
        amped = amplify(gap_fragment(), 3)
        best = exact_map(amped.network)
        assert best.value.linear == pytest.approx((11 / 16) ** 3, rel=1e-12)
        assert best.configuration == {0: 0, 1: 0, 2: 0}

    def test_amplified_configuration_repeats_the_base_block(self, two_clause_formula):
        base = cnf_to_spn(two_clause_formula)
        base_config = exact_map(base.network).configuration
        n = len(base.network.variables)
        doubled_config = exact_map(amplify(base, 2).network).configuration
        for t in range(2):
            for k in range(n):
                assert doubled_config[t * n + k] == base_config[k]

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("base", ["mis", "cnf", "gap", "sparse_ids", "sparse_ids_root_last"])
    def test_tiling_matches_a_copy_by_copy_build(self, base, q, diamond_graph, two_clause_formula):
        sparse = {  # ids 3 and 7 only, declared out of id order or with the root last
            "sparse_ids": "spn 2\nnode 7 prod\nnode 3 leaf 0 0.5 0.5\nedge 7 3\nroot 7\n",
            "sparse_ids_root_last": "spn 2\nnode 3 leaf 0 0.5 0.5\nnode 7 prod\nedge 7 3\nroot 7\n",
        }
        result = {
            "mis": lambda: mis_to_spn(diamond_graph),
            "cnf": lambda: cnf_to_spn(two_clause_formula),
            "gap": gap_fragment,
        }.get(base, lambda: ReductionResult(parse_spn(sparse[base]), Fraction(1)))()
        amplified = amplify(result, q).network
        base_vars = result.network.variables
        variables = [Variable(t * len(base_vars) + v.index, v.cardinality) for t in range(q) for v in base_vars]
        expected = Network(amplified_nodes(result.network, q), 0, variables)
        assert amplified.nodes == expected.nodes
        assert amplified.root == expected.root == 0
        assert amplified.variables == expected.variables
        assert serialize_spn(amplified) == serialize_spn(expected)
        assert amplified.topological_order() == expected.topological_order()
