"""MAP solvers: golden results, ordering invariants, oracle equivalence."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from spnmap import (
    LeafNode,
    Network,
    ProductNode,
    Solver,
    SumNode,
    approx_factor_bound,
    argmax_product,
    decision_map,
    evaluate,
    evaluate_marginal,
    exact_map,
    log_partition,
    max_product,
    mis_to_spn,
    random_graph,
    random_spn,
    solve,
    validate,
)
from spnmap.experiments import derive_seed, gap_fragment
from conftest import shared_leaf_dag, shared_sum_dag
from oracles import argmax_candidate, brute_map, brute_mis_size, brute_value

LOG_SLACK = 1e-12


def log_leq(a: float, b: float, slack: float = LOG_SLACK) -> bool:
    """a <= b in log-domain with additive slack; -inf compares cleanly."""
    if a == float("-inf"):
        return True
    return a <= b + slack


def solver_cases(count: int, evidence_seed: int = 0):
    """Seeded trees and their shared-leaf and shared-sum DAGs, with random evidence.

    The evidence may be empty.
    """
    import random

    for seed in range(count):
        n_vars = 1 + seed % 6
        net = random_spn(n_vars, max_height=4, seed=seed)
        rng = random.Random(derive_seed(evidence_seed, "evidence", seed))
        evidence = {
            v.index: rng.randrange(v.cardinality)
            for v in net.variables
            if rng.random() < 0.4
        }
        yield net, evidence
        yield shared_leaf_dag(net), evidence
        yield shared_sum_dag(net), evidence


class TestGoldenMixture:
    def test_max_product(self, mixture_net):
        result = max_product(mixture_net)
        assert result.configuration == {0: 0, 1: 0}
        assert result.value.linear == pytest.approx(0.3, abs=1e-12)
        assert result.pd_value is not None
        assert result.pd_value.linear == pytest.approx(0.24, abs=1e-12)
        assert result.solver is Solver.MAX_PRODUCT

    def test_argmax_product(self, mixture_net):
        result = argmax_product(mixture_net)
        assert result.configuration == {0: 1, 1: 0}
        assert result.value.linear == pytest.approx(0.4, abs=1e-12)
        assert result.pd_value is None
        assert result.solver is Solver.ARGMAX_PRODUCT

    def test_exact(self, mixture_net):
        result = exact_map(mixture_net)
        assert result.configuration == {0: 1, 1: 0}
        assert result.value.linear == pytest.approx(0.4, abs=1e-12)
        assert result.solver is Solver.EXACT

    def test_evidence_pins_variables(self, mixture_net):
        result = exact_map(mixture_net, {0: 0})
        assert result.configuration == {0: 0, 1: 0}
        assert result.value.linear == pytest.approx(0.3, abs=1e-12)
        for solver in (max_product, argmax_product):
            assert solver(mixture_net, {0: 0}).configuration[0] == 0

    def test_value_is_the_network_at_the_configuration(self, mixture_net):
        for solver in (max_product, argmax_product, exact_map):
            result = solver(mixture_net)
            recomputed = evaluate(mixture_net, result.configuration)
            assert result.value.log == pytest.approx(recomputed.log, rel=1e-12)


class TestGapFragment:
    def test_max_product_commits_to_the_heaviest_child(self):
        net = gap_fragment().network
        result = max_product(net)
        assert result.configuration == {0: 1}
        assert result.value.linear == pytest.approx(5 / 16, rel=1e-12)
        assert result.pd_value.linear == pytest.approx(5 / 16, rel=1e-12)

    def test_argmax_product_recovers_the_true_map(self):
        net = gap_fragment().network
        result = argmax_product(net)
        assert result.configuration == {0: 0}
        assert result.value.linear == pytest.approx(11 / 16, rel=1e-12)
        exact = exact_map(net)
        assert exact.configuration == {0: 0}
        assert exact.value.linear == pytest.approx(11 / 16, rel=1e-12)


class TestOrderingInvariants:
    def test_sandwich_on_random_instances(self):
        for net, evidence in solver_cases(150):
            mp = max_product(net, evidence)
            am = argmax_product(net, evidence)
            ex = exact_map(net, evidence)
            assert log_leq(mp.pd_value.log, mp.value.log)
            assert log_leq(mp.value.log, am.value.log)
            assert log_leq(am.value.log, ex.value.log)

    def test_argmax_product_reaches_its_reference_candidate(self):
        # Each sum must choose after the sums below it: on some of these
        # cases, choosing parents first scores below this recursion.
        for net, evidence in solver_cases(150):
            reference = brute_value(net, argmax_candidate(net, evidence))
            assert reference <= argmax_product(net, evidence).value.linear * (1 + 1e-9)

    def test_degree_product_bounds_the_gap(self):
        for net, evidence in solver_cases(150):
            mp = max_product(net, evidence)
            ex = exact_map(net, evidence)
            log_degrees = sum(
                math.log(len(node.children))
                for node in net.nodes.values()
                if isinstance(node, SumNode)
            )
            if ex.value.is_zero:
                continue
            assert mp.pd_value.log + log_degrees >= ex.value.log - 1e-9

    def test_evidence_consistency(self):
        for net, evidence in solver_cases(60, evidence_seed=7):
            for solver in (max_product, argmax_product, exact_map):
                config = solver(net, evidence).configuration
                assert set(config) == {v.index for v in net.variables}
                for var, cat in evidence.items():
                    assert config[var] == cat

    def test_determinism(self):
        for net, evidence in solver_cases(20, evidence_seed=3):
            for solver in (max_product, argmax_product, exact_map):
                first = solver(net, evidence)
                second = solver(net, evidence)
                assert first.configuration == second.configuration
                assert first.value == second.value


class TestExactAgainstOracle:
    def test_matches_brute_force_value_and_configuration(self):
        for net, evidence in solver_cases(80, evidence_seed=5):
            expected_config, expected_value = brute_map(net, evidence)
            result = exact_map(net, evidence)
            assert result.configuration == expected_config
            assert result.value.linear == pytest.approx(
                expected_value, rel=1e-11, abs=1e-300
            )

    def test_ties_pick_the_lexicographically_smallest(self):
        # All four assignments share value 0.25: index order decides.
        nodes = {
            0: ProductNode((1, 2)),
            1: LeafNode(0, (0.5, 0.5)),
            2: LeafNode(1, (0.5, 0.5)),
        }
        net = Network.from_nodes(nodes, 0)
        assert exact_map(net).configuration == {0: 0, 1: 0}
        assert exact_map(net, {1: 1}).configuration == {0: 0, 1: 1}
        assert max_product(net).configuration == {0: 0, 1: 0}
        assert argmax_product(net).configuration == {0: 0, 1: 0}

    def test_sum_tie_prefers_the_lowest_child_index(self):
        nodes = {
            0: SumNode((1, 2), (0.5, 0.5)),
            1: LeafNode(0, (0.0, 1.0)),
            2: LeafNode(0, (1.0, 0.0)),
        }
        net = Network.from_nodes(nodes, 0)
        # Both children reach max value 0.5; child 1 wins and pins x0 = 1.
        assert max_product(net).configuration == {0: 1}
        assert argmax_product(net).configuration == {0: 1}

    def test_enumeration_cap(self, mixture_net, monkeypatch):
        nodes: dict = {0: ProductNode(tuple(range(1, 26)))}
        for k in range(25):
            nodes[k + 1] = LeafNode(k, (0.5, 0.5))
        net = Network.from_nodes(nodes, 0)
        with pytest.raises(ValueError, match="enumeration cap"):
            exact_map(net)  # 2**25 free configurations exceed the default cap
        with pytest.raises(ValueError, match="33554432 configurations exceed the enumeration cap"):
            log_partition(net)
        monkeypatch.setattr("spnmap.inference.DEFAULT_ENUMERATION_CAP", 3)
        with pytest.raises(ValueError, match="enumeration cap"):
            exact_map(mixture_net)
        monkeypatch.setattr("spnmap.inference.DEFAULT_ENUMERATION_CAP", 4)
        result = exact_map(mixture_net)
        assert result.value.linear == pytest.approx(0.4)


class TestZeroProbabilityEvidence:
    def build(self) -> Network:
        nodes = {
            0: ProductNode((1, 2)),
            1: LeafNode(0, (1.0, 0.0)),
            2: LeafNode(1, (0.3, 0.7)),
        }
        return Network.from_nodes(nodes, 0)

    def build_zero_weight_branch(self) -> Network:
        # Under x0 = 1 the weighted child has zero mass and the other child
        # has weight zero.
        nodes = {
            0: SumNode((1, 2), (1.0, 0.0)),
            1: ProductNode((3, 4)),
            2: ProductNode((5, 6)),
            3: LeafNode(0, (1.0, 0.0)),
            4: LeafNode(1, (0.3, 0.7)),
            5: LeafNode(0, (0.0, 1.0)),
            6: LeafNode(1, (0.5, 0.5)),
        }
        return Network.from_nodes(nodes, 0)

    def test_short_circuit_returns_smallest_consistent(self):
        for net in (self.build(), self.build_zero_weight_branch()):
            for solver in (max_product, argmax_product, exact_map):
                result = solver(net, {0: 1})
                assert result.configuration == {0: 1, 1: 0}
                assert result.value.is_zero

    def test_max_product_reports_zero_bound(self):
        for net in (self.build(), self.build_zero_weight_branch()):
            result = max_product(net, {0: 1})
            assert result.pd_value is not None and result.pd_value.is_zero


class TestInvalidNetworks:
    def test_incomplete_sum_is_refused(self):
        # The root mixes a leaf of x0 with a leaf of x1, so either child
        # yields a configuration that misses a variable.
        nodes = {
            0: SumNode((1, 2), (0.5, 0.5)),
            1: LeafNode(0, (0.3, 0.7)),
            2: LeafNode(1, (0.6, 0.4)),
        }
        net = Network.from_nodes(nodes, 0)
        for solver in (max_product, argmax_product):
            with pytest.raises(ValueError, match="missing variable"):
                solver(net)

    def test_invalid_parameters_are_refused(self):
        cases = [
            ((-1e-12, 1.0 + 1e-12), (0.5, 0.5)),
            ((-0.5, 1.5), (0.5, 0.5)),
            ((math.nan, 1.0), (0.5, 0.5)),
            ((math.inf, 0.0), (0.5, 0.5)),
            ((0.5, 0.5), (-0.1, 1.1)),
            ((0.5, 0.5), (math.nan, 1.0)),
        ]
        for leaf, weights in cases:
            nodes = {
                0: SumNode((1, 2), weights),
                1: ProductNode((3, 4)),
                2: ProductNode((5, 4)),
                3: LeafNode(0, leaf),
                4: LeafNode(1, (0.3, 0.7)),
                5: LeafNode(0, (0.4, 0.6)),
            }
            net = Network.from_nodes(nodes, 0)
            message = f"node {3 if leaf != (0.5, 0.5) else 0} has a negative or non-finite"
            calls = [
                lambda: evaluate(net, {0: 0, 1: 0}),
                lambda: evaluate_marginal(net, {1: 1}),
                lambda: max_product(net),
                lambda: argmax_product(net),
                lambda: exact_map(net),
                lambda: log_partition(net),
            ]
            for call in calls:
                with pytest.raises(ValueError, match=message):
                    call()
            assert validate(net)  # reported, not raised


class TestDispatchAndDecision:
    def test_solve_dispatches(self, mixture_net):
        assert solve(mixture_net, None, Solver.MAX_PRODUCT).solver is Solver.MAX_PRODUCT
        assert solve(mixture_net, None, Solver.ARGMAX_PRODUCT).value.linear == (
            pytest.approx(0.4)
        )
        assert solve(mixture_net, None, Solver.EXACT).value.linear == pytest.approx(0.4)

    def test_decision_thresholds(self, mixture_net):
        assert decision_map(mixture_net, None, 0.0)
        assert decision_map(mixture_net, None, 0.4)
        assert not decision_map(mixture_net, None, 0.41)

    def test_decision_depends_on_the_solver(self):
        net = gap_fragment().network
        assert not decision_map(net, None, 0.5, Solver.MAX_PRODUCT)
        assert decision_map(net, None, 0.5, Solver.ARGMAX_PRODUCT)
        assert decision_map(net, None, 0.5, Solver.EXACT)

    def test_decision_compares_in_log_space(self):
        # The MAP value 2**-1100 underflows a float; Fraction thresholds keep
        # the comparison exact.
        nodes: dict = {0: ProductNode(tuple(range(1, 1101)))}
        for k in range(1100):
            nodes[k + 1] = LeafNode(k, (0.5, 0.5))
        net = Network.from_nodes(nodes, 0)
        for solver in (Solver.MAX_PRODUCT, Solver.ARGMAX_PRODUCT):
            assert not decision_map(net, None, Fraction(1, 2**1099), solver)
            assert decision_map(net, None, Fraction(1, 2**1100), solver)

    def test_decision_rejects_bad_gamma(self, mixture_net):
        with pytest.raises(ValueError, match="gamma"):
            decision_map(mixture_net, None, -0.1)
        with pytest.raises(ValueError, match="gamma"):
            decision_map(mixture_net, None, 1.5)


class TestDegreeBound:
    def test_mixture_bound(self, mixture_net):
        bound = approx_factor_bound(mixture_net)
        assert bound.log2_degree_product == pytest.approx(math.log2(3))
        assert bound.size_lower_bound == 8 + 9
        assert bound.exponent_bound == pytest.approx(0.5284 * 17)
        assert bound.satisfied

    def test_sum_free_network(self):
        nodes = {0: ProductNode((1,)), 1: LeafNode(0, (0.5, 0.5))}
        bound = approx_factor_bound(Network.from_nodes(nodes, 0))
        assert bound.log2_degree_product == 0.0
        assert bound.satisfied

    def test_holds_on_generated_networks(self):
        for seed in range(30):
            net = random_spn(1 + seed % 6, max_height=4, seed=seed)
            assert approx_factor_bound(net).satisfied


class TestIndependentSetInstances:
    def test_max_product_within_vertex_count_factor(self):
        # Height-2 instance bound: the sum node has n children, and the
        # max-product value is at most a factor n below the true optimum.
        for seed in range(25):
            graph = random_graph(6, 40.0, seed=seed)
            reduction = mis_to_spn(graph)
            mp = max_product(reduction.network)
            ex = exact_map(reduction.network)
            assert mp.value.linear * graph.n >= ex.value.linear * (1 - 1e-9)
            assert round(ex.value.linear * float(reduction.normalizer)) == (
                brute_mis_size(graph)
            )
