"""MAP solvers: golden results, ordering invariants, oracle equivalence."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from spnmap import (
    CnfFormula,
    LeafNode,
    Network,
    ProductNode,
    ReductionResult,
    Solver,
    SumNode,
    approx_factor_bound,
    argmax_product,
    decision_map,
    evaluate,
    evaluate_marginal,
    exact_map,
    gap_network,
    log_partition,
    max_product,
    mis_to_spn,
    network_stats,
    random_graph,
    random_spn,
    solve,
    validate,
)
from spnmap import solvers
from spnmap.experiments import derive_seed, gap_fragment
from spnmap.reductions import amplify, cnf_to_spn
from conftest import shared_leaf_dag, shared_sum_dag, single_child_sum
from oracles import (
    argmax_by_sum,
    argmax_candidate,
    brute_map,
    brute_mis_size,
    brute_value,
    logsumexp_column,
    logsumexp_in_order,
    max_pass_by_entry,
    max_product_by_entry,
    scores_by_sum,
    sum_pass_by_entry,
)

LOG_SLACK = 1e-12


def log_leq(a: float, b: float, slack: float = LOG_SLACK) -> bool:
    """a <= b in log-domain with additive slack; -inf compares cleanly."""
    if a == float("-inf"):
        return True
    return a <= b + slack


def solver_cases(count: int, evidence_seed: int = 0):
    """Seeded trees and their shared-leaf and shared-sum DAGs, with random evidence.

    The shared-sum DAG comes twice, once with a one-child sum inserted below
    its root.  The evidence may be empty.
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
        yield single_child_sum(shared_sum_dag(net)), evidence


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


def random_dags(count: int, seed: int = 0):
    """Networks over three binary variables from random node dicts with valid parameters.

    Children are drawn with repetition from every node made before, so
    nodes are shared, products can repeat a child or split no scope, and sums
    can be incomplete.  Some leaves hold a zero.
    """
    rng = random.Random(seed)
    for _ in range(count):
        nodes: dict = {}
        for nid in range(6):
            p = rng.choice((0.0, 0.25, 0.5, 0.9, 1.0, rng.random()))
            nodes[nid] = LeafNode(nid % 3, (p, 1.0 - p))
        for nid in range(6, 6 + rng.randint(2, 9)):
            kids = tuple(rng.randrange(nid) for _ in range(rng.randint(1, 4)))
            if rng.random() < 0.5:
                raw = [rng.random() + 0.05 for _ in kids]
                nodes[nid] = SumNode(kids, [w / sum(raw) for w in raw])
            else:
                nodes[nid] = ProductNode(kids)
        yield Network.from_nodes(nodes, max(nodes))


def outcome(solver, net: Network, evidence: dict) -> tuple:
    """A solver's configuration, value and bound bits, or its exception's type and message."""
    try:
        result = solver(net, evidence)
    except ValueError as exc:
        return type(exc), str(exc)
    pd = None if result.pd_value is None else result.pd_value.log.hex()
    return sorted(result.configuration.items()), result.value.log.hex(), pd


def passes_agree(cases) -> int:
    """Checks each case's passes and solvers against the per-entry oracles; returns the case count.

    The oracles' sums reduce as the levelled passes do, as ``logsumexp_column``.
    """
    rng = random.Random(0)
    count = 0
    for net, evidence in cases:
        marginal = evaluate_marginal(net, evidence).log
        assert marginal.hex() == sum_pass_by_entry(net, evidence, logsumexp_column).hex()
        # A total assignment that extends the evidence.
        total = {v.index: rng.randrange(v.cardinality) for v in net.variables} | evidence
        expected = sum_pass_by_entry(net, total, logsumexp_column)
        assert evaluate(net, total).log.hex() == expected.hex()
        value, choice = solvers._max_pass(net, evidence)
        expected_value, expected_choice = max_pass_by_entry(net, evidence)
        assert (value.hex(), choice) == (expected_value.hex(), expected_choice)
        for solver, oracle in (
            (max_product, max_product_by_entry),
            (argmax_product, argmax_by_sum),
        ):
            reference = functools.partial(oracle, logsumexp=logsumexp_column)
            assert outcome(solver, net, evidence) == outcome(reference, net, evidence)
        count += 1
    return count


def nine_leaf_sum() -> Network:
    """A sum of nine leaves of x0 whose value at x0 = 1 rounds differently by contract.

    Adding its shifted exponentials in order and adding them pairwise, as
    numpy adds a column, give different bits.
    """
    rng = random.Random(2)
    raw = [rng.random() for _ in range(9)]
    nodes = {0: SumNode(tuple(range(1, 10)), [w / sum(raw) for w in raw])}
    for nid in range(1, 10):
        p = rng.random()
        nodes[nid] = LeafNode(0, (1.0 - p, p))
    net = Network.from_nodes(nodes, 0)
    weights = np.array(net.nodes[0].weights)
    ones = np.array([net.nodes[nid].distribution[1] for nid in range(1, 10)])
    terms = (np.log(weights) + np.log(ones)).tolist()
    assert logsumexp_column(terms) != logsumexp_in_order(terms)
    return net


class TestWaveRescoring:
    """The wave pass against the per-sum loop, bit for bit, on networks of every size."""

    @pytest.fixture(autouse=True)
    def recorded_scores(self, monkeypatch):
        """Records the wave pass's scores by sum entry."""
        self.scores: dict = {}
        score_wave = solvers._score_wave

        def recorded(*args):
            scores, candidates = score_wave(*args)
            self.scores.update(zip(args[-1].sums.tolist(), scores))
            return scores, candidates

        monkeypatch.setattr(solvers, "_score_wave", recorded)

    def agree(self, cases) -> int:
        """Checks each case's result and every candidate's score; returns the case count."""
        count = 0
        for net, evidence in cases:
            self.scores.clear()
            reference = functools.partial(argmax_by_sum, logsumexp=logsumexp_column)
            assert outcome(argmax_product, net, evidence) == outcome(reference, net, evidence)
            if self.scores:  # the solver got as far as re-evaluating
                expected = scores_by_sum(net, evidence)
                assert {e: v.tobytes() for e, v in self.scores.items()} == {
                    e: v.tobytes() for e, v in expected.items()
                }
            count += 1
        return count

    def test_nested_waves_with_and_without_evidence(self):
        nets = [random_spn(3 + s % 6, 4 + s % 4, seed=s) for s in range(40)]
        assert max(network_stats(net).height for net in nets) >= 6
        self.agree((net, ev) for s, net in enumerate(nets) for ev in ({}, {0: s % 2}))

    def test_gap_and_independent_set_networks(self):
        self.agree((gap_network(copies), {}) for copies in range(1, 11))
        graphs = [
            random_graph(n, pct, derive_seed(0, n, pct))
            for n in (5, 10, 20)
            for pct in (10.0, 60.0)
        ]
        self.agree((mis_to_spn(g).network, {}) for g in graphs)
        self.agree([(mis_to_spn(graphs[-1]).network, {0: 1, 3: 0})])

    def test_amplified_formulas(self):
        unsat = CnfFormula(
            3,
            tuple(
                tuple(sign * v for sign, v in zip(signs, (1, 2, 3)))
                for signs in itertools.product((1, -1), repeat=3)
            ),
        )
        sat = CnfFormula(4, ((-1, 2, -3), (-1, 3, 4)))
        nets = [amplify(cnf_to_spn(unsat), 8).network, amplify(cnf_to_spn(sat), 6).network]
        self.agree((net, {}) for net in nets)

    def test_shared_and_non_decomposable_dags(self):
        assert self.agree((net, {}) for net in random_dags(300)) == 300
        self.agree(solver_cases(30))
        # Copies of a shared DAG under one product make waves of several sums.
        dags = [
            amplify(ReductionResult(net, Fraction(1), {}), 3).network
            for net in random_dags(60, seed=1)
        ]
        self.agree((net, {1: 0}) for net in dags)

    def test_nine_terms_are_summed_pairwise(self):
        # The oracles' ``logsumexp_rows`` sums each score's terms as one
        # contiguous run, which numpy adds pairwise: for sum 1's nine weights
        # that rounds differently from adding them in order.
        rng = random.Random(5)
        raw = [rng.random() for _ in range(9)]
        nodes = {
            0: SumNode((1, 2), (0.5, 0.5)),
            1: SumNode(tuple(range(3, 12)), [w / sum(raw) for w in raw]),
            2: LeafNode(0, (0.1, 0.9)),
            **{nid: LeafNode(0, (1.0, 0.0)) for nid in range(3, 12)},
        }
        net = Network.from_nodes(nodes, 0)
        self.agree([(net, {})])
        logs = np.log(np.array(net.nodes[1].weights))
        terms = np.exp(logs - logs.max())
        assert terms.sum() != functools.reduce(operator.add, terms.tolist())
        assert set(self.scores[net._entry[1]]) == {logs.max() + np.log(terms.sum())}

    def test_a_tree_whose_leaves_disagree_keeps_its_first_visited_leaf(self):
        # Product 1 is not decomposable: leaf 3 prefers x0 = 1 and leaf 4,
        # under product 8, x0 = 0.  The walk down child 1 visits leaf 3
        # first, so that candidate is {x0: 1, x1: 0} and scores
        # 0.5 * 0.8 * 0.3 * 0.9 + 0.5 * 0.3 * 0.7 = 0.213; child 2's
        # {x0: 0, x1: 0} scores 0.063 + 0.245 = 0.308 and wins.  Had leaf 4
        # won, the two candidates would tie and child 1 would be kept.
        nodes = {
            0: SumNode((1, 2), (0.5, 0.5)),
            1: ProductNode((8, 3)),
            8: ProductNode((4, 5)),
            3: LeafNode(0, (0.2, 0.8)),
            4: LeafNode(0, (0.7, 0.3)),
            5: LeafNode(1, (0.9, 0.1)),
            2: ProductNode((6, 7)),
            6: LeafNode(0, (0.7, 0.3)),
            7: LeafNode(1, (0.7, 0.3)),
        }
        net = Network.from_nodes(nodes, 0)
        assert max_product(net).configuration == {0: 1, 1: 0}
        result = argmax_product(net)
        assert result.configuration == {0: 0, 1: 0}
        assert result.value.linear == pytest.approx(0.308, rel=1e-12)


class TestLevelledPasses:
    """The levelled sum and max passes against the per-entry oracles, bit for bit."""

    def agree(self, cases) -> int:
        return passes_agree(cases)

    def test_random_networks_with_and_without_evidence(self):
        nets = [random_spn(3 + s % 6, 4 + s % 4, seed=s) for s in range(40)]
        cases = ((net, ev) for s, net in enumerate(nets) for ev in ({}, {0: s % 2}))
        assert self.agree(cases) == 80

    def test_small_random_networks_with_and_without_evidence(self):
        nets = [random_spn(2 + s % 6, 3 + s % 3, seed=s) for s in range(60)]
        cases = ((net, ev) for s, net in enumerate(nets) for ev in ({}, {0: s % 2}))
        assert self.agree(cases) == 120

    def test_gap_and_small_independent_set_networks(self):
        assert self.agree((gap_network(copies), {}) for copies in range(1, 11)) == 10
        graphs = [
            random_graph(n, pct, derive_seed(0, n, pct))
            for n in (3, 5, 8, 10)
            for pct in (10.0, 60.0)
        ]
        cases = ((mis_to_spn(g).network, ev) for g in graphs for ev in ({}, {0: 1, 2: 0}))
        assert self.agree(cases) == 16

    def test_independent_set_and_amplified_networks(self):
        graphs = [
            random_graph(n, pct, derive_seed(0, n, pct))
            for n in (5, 10, 20)
            for pct in (10.0, 60.0)
        ]
        mis = [mis_to_spn(g).network for g in graphs]
        self.agree((net, ev) for net in mis for ev in ({}, {0: 1, 3: 0}))
        # With every vertex out of the set the evidence has no mass, and the
        # solvers return ``decode_configuration(..., 0)``.
        nobody = {v.index: 0 for v in mis[-1].variables}
        assert max_product(mis[-1], nobody).pd_value.is_zero
        self.agree([(mis[-1], nobody)])
        sat = amplify(cnf_to_spn(CnfFormula(4, ((-1, 2, -3), (-1, 3, 4)))), 6).network
        self.agree((sat, ev) for ev in ({}, {0: 1}))

    def test_zero_weights_and_zero_probability_leaves(self):
        # Under x0 = 1 both terms of the root sum are LOG_ZERO.
        nodes = {
            0: SumNode((1, 2), (1.0, 0.0)),
            1: ProductNode((3, 4)),
            2: ProductNode((5, 6)),
            3: LeafNode(0, (1.0, 0.0)),
            4: LeafNode(1, (0.3, 0.7)),
            5: LeafNode(0, (0.0, 1.0)),
            6: LeafNode(1, (0.5, 0.5)),
        }
        net = Network.from_nodes(nodes, 0)
        assert evaluate_marginal(net, {0: 1}).is_zero
        self.agree((net, ev) for ev in ({}, {0: 0}, {0: 1}, {1: 1}))

    def test_wide_sums_add_pairwise(self):
        self.agree((nine_leaf_sum(), ev) for ev in ({}, {0: 1}))

    def test_shared_and_non_decomposable_dags(self):
        assert self.agree((net, {}) for net in random_dags(300)) == 300
        self.agree((net, {1: 0}) for net in random_dags(100, seed=2))
        self.agree(solver_cases(30))


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

    def test_a_chosen_root_candidate_that_misses_a_variable_is_refused(self):
        # The root covers x0 and x1, but its leaf child covers x0 only.
        # Max-product picks the product (0.7 * 0.5 against 0.3 * 0.8), and
        # re-evaluation the leaf (0.7 * 0.5 + 0.3 * 0.8 against 0.7 * 0.5 + 0.3 * 0.2),
        # whose tree leaves x1 unset.
        nodes = {
            0: SumNode((1, 2), (0.7, 0.3)),
            1: ProductNode((3, 4)),
            2: LeafNode(0, (0.2, 0.8)),
            3: LeafNode(0, (0.5, 0.5)),
            4: LeafNode(1, (1.0, 0.0)),
        }
        net = Network.from_nodes(nodes, 0)
        assert max_product(net).configuration == {0: 0, 1: 0}
        reference = functools.partial(argmax_by_sum, logsumexp=logsumexp_column)
        assert outcome(argmax_product, net, {}) == outcome(reference, net, {})
        with pytest.raises(ValueError, match="missing variable 1"):
            argmax_product(net)

    def test_argmax_product_improves_a_zero_valued_max_product_result(self):
        # Product 1 is not decomposable: the walk reaches leaf 3 before leaf 4
        # and fixes x0 = 0, where leaf 4 is zero.  The positive bound is not
        # zero mass, so argmax-product still re-evaluates and picks product 2.
        nodes = {
            0: SumNode((1, 2), (0.9, 0.1)),
            1: ProductNode((4, 3, 5)),
            2: ProductNode((6, 7)),
            3: LeafNode(0, (0.9, 0.1)),
            4: LeafNode(0, (0.0, 1.0)),
            5: LeafNode(1, (0.5, 0.5)),
            6: LeafNode(0, (0.0, 1.0)),
            7: LeafNode(1, (0.5, 0.5)),
        }
        net = Network.from_nodes(nodes, 0)
        mp = max_product(net)
        assert mp.configuration == {0: 0, 1: 0}
        assert mp.value.is_zero and not mp.pd_value.is_zero
        am = argmax_product(net)
        assert am.configuration == {0: 1, 1: 0}
        assert am.value.linear == pytest.approx(0.9 * 0.1 * 0.5 + 0.1 * 0.5, rel=1e-12)

    def test_invalid_parameters_are_refused(self):
        cases = [
            ((-1e-12, 1.0 + 1e-12), (0.5, 0.5)),
            ((-0.5, 1.5), (0.5, 0.5)),
            ((math.nan, 1.0), (0.5, 0.5)),
            ((math.inf, 0.0), (0.5, 0.5)),
            ((0.5, 0.5), (-0.1, 1.1)),
            ((0.5, 0.5), (math.nan, 1.0)),
            ((-0.5, 1.5), (-0.1, 1.1)),  # both bad: the leaf, first children first, is named
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


def kept_cases():
    """Networks to solve in sequence, as ``(build, evidence)``; ``build`` makes a fresh copy.

    Independent-set networks of 5, 10 and 20 vertices (31, 111 and 421
    entries) and ``random_spn`` networks of 23 to 995 entries.
    """
    cases = []
    for n, pct in itertools.product((5, 10, 20), (10.0, 60.0)):
        graph = random_graph(n, pct, derive_seed(0, n, pct))
        cases += [(lambda g=graph: mis_to_spn(g).network, ev) for ev in ({}, {0: 1, 3: 0})]
    for s in range(4):
        for height in (5, 7):
            build = functools.partial(random_spn, 4 + s if height == 5 else 12, height, seed=s)
            cases += [(build, ev) for ev in ({}, {0: s % 2})]
    sizes = {len(build().nodes) for build, _ in cases}
    assert {31, 111, 421} <= sizes and (min(sizes), max(sizes)) == (23, 995)
    return cases


class TestKeptMaxProduct:
    """The network keeps max-product's last result; what every caller sees stays the same."""

    @pytest.mark.parametrize("max_product_first", [True, False])
    def test_one_network_gives_the_results_of_fresh_copies(self, max_product_first):
        for build, evidence in kept_cases():
            expected = [outcome(solver, build(), evidence) for solver in (max_product, argmax_product)]
            gamma = math.exp(argmax_product(build(), evidence).value.log)
            decision = decision_map(build(), evidence, gamma, Solver.MAX_PRODUCT)
            net = build()
            if max_product_first:
                got = [outcome(max_product, net, evidence), outcome(argmax_product, net, evidence)]
            else:
                got = [outcome(argmax_product, net, evidence), outcome(max_product, net, evidence)]
                got.reverse()
            assert got == expected
            assert decision_map(net, evidence, gamma, Solver.MAX_PRODUCT) == decision

    def test_max_pass_runs_once_per_network_and_evidence(self, monkeypatch):
        calls = []
        max_pass = solvers._max_pass

        def counted(network, evidence):
            calls.append(dict(evidence))
            return max_pass(network, evidence)

        monkeypatch.setattr(solvers, "_max_pass", counted)
        for build, _ in kept_cases():
            net = build()
            calls.clear()
            max_product(net)
            argmax_product(net, {})
            decision_map(net, None, 0.5, Solver.MAX_PRODUCT)
            assert calls == [{}]
            argmax_product(net, {0: 1})
            max_product(net, {0: 1})
            assert calls == [{}, {0: 1}]
            max_product(net)
            assert calls == [{}, {0: 1}, {}]

    def test_mutating_a_returned_configuration_changes_no_later_result(self):
        for build, evidence in kept_cases():
            expected = [outcome(solver, build(), evidence) for solver in (max_product, argmax_product)]
            net = build()
            max_product(net, evidence).configuration[0] ^= 1
            argmax_product(net, evidence).configuration.clear()
            max_product(net, evidence).configuration[len(net.variables)] = 0
            got = [outcome(solver, net, evidence) for solver in (max_product, argmax_product)]
            assert got == expected

    def test_equal_numpy_evidence_gets_its_own_values(self):
        for build, _ in kept_cases():
            net = build()
            kept = max_product(net, {0: 1})
            result = max_product(net, {0: np.int64(1)})
            assert result.configuration == kept.configuration
            assert type(result.configuration[0]) is np.int64

    def test_a_kept_result_still_refuses_bool_and_float_evidence(self):
        for build, _ in kept_cases():
            net = build()
            max_product(net, {0: 1})
            for evidence in ({0: True}, {0: 1.0}):
                for solver in (max_product, argmax_product):
                    with pytest.raises(ValueError, match="not a pair of integers"):
                        solver(net, evidence)
                with pytest.raises(ValueError, match="not a pair of integers"):
                    decision_map(net, evidence, 0.5, Solver.MAX_PRODUCT)


class TestDispatchAndDecision:
    def test_solve_dispatches(self, mixture_net):
        assert solve(mixture_net, None, Solver.MAX_PRODUCT).solver is Solver.MAX_PRODUCT
        assert solve(mixture_net, None, Solver.ARGMAX_PRODUCT).value.linear == (
            pytest.approx(0.4)
        )
        assert solve(mixture_net, None, Solver.EXACT).value.linear == pytest.approx(0.4)

    def test_solve_rejects_an_unknown_solver(self, mixture_net):
        with pytest.raises(ValueError, match="unknown solver 'exact'"):
            solve(mixture_net, None, "exact")

    def test_decision_thresholds(self, mixture_net):
        assert decision_map(mixture_net, None, 0.0)
        assert decision_map(mixture_net, None, 0.4)
        assert not decision_map(mixture_net, None, 0.41)

    def test_decision_takes_numpy_numbers(self, mixture_net):
        # numpy numbers decide as Python's do.
        assert decision_map(mixture_net, None, np.int64(0))
        assert not decision_map(mixture_net, None, np.int32(1))
        assert decision_map(mixture_net, None, np.float64(0.4))
        assert decision_map(mixture_net, None, np.False_)
        assert not decision_map(mixture_net, None, np.True_)

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
        assert bound.log2_degree_product < bound.exponent_bound

    def test_sum_free_network(self):
        nodes = {0: ProductNode((1,)), 1: LeafNode(0, (0.5, 0.5))}
        bound = approx_factor_bound(Network.from_nodes(nodes, 0))
        assert bound.log2_degree_product == 0.0
        assert bound.log2_degree_product < bound.exponent_bound

    def test_holds_on_generated_networks(self):
        for seed in range(30):
            net = random_spn(1 + seed % 6, max_height=4, seed=seed)
            bound = approx_factor_bound(net)
            assert bound.log2_degree_product < bound.exponent_bound


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


def relative_ulps(got: float, want: float) -> float:
    """``|got - want|`` in units of ``want``'s magnitude times ``2**-52``."""
    return abs(got - want) / (abs(want) * 2.0**-52)


class TestInvariantsPastEnumeration:
    """Checks against optima that need no enumeration of the assignments."""

    @pytest.mark.parametrize("copies", [2, 3, 7])
    def test_disjoint_copies_power_the_value_and_repeat_the_configuration(self, copies):
        # ``amplify`` multiplies disjoint copies: every solver's log value is
        # ``copies`` times the base's, up to the rounding of the copies'
        # sums, and each copy repeats the base configuration.
        worst = 0.0
        for s in range(60):
            n = 5 + s % 16
            base = mis_to_spn(random_graph(n, (10.0, 30.0, 50.0)[s % 3], derive_seed(0, "power", s)))
            net = amplify(base, copies).network
            for solver in (max_product, argmax_product):
                one, many = solver(base.network), solver(net)
                worst = max(worst, relative_ulps(many.value.log, copies * one.value.log))
                for t in range(copies):
                    copy = {k: many.configuration[t * n + k] for k in range(n)}
                    assert copy == one.configuration, (s, solver.__name__, t)
        assert worst <= 2

    @pytest.mark.parametrize("n", [30, 60, 80])
    @pytest.mark.parametrize("pct", [10.0, 40.0])
    def test_independent_set_solvers_lie_below_the_largest_set(self, n, pct):
        # The MAP value of an independent-set network is alpha(G) / c, with
        # alpha(G) a maximum clique of the complement graph.  Under the
        # lowest-index tie rule argmax-product keeps one vertex, 1 / c.
        nx = pytest.importorskip("networkx")
        graph = random_graph(n, pct, derive_seed(0, "optimum", n, pct))
        reduction = mis_to_spn(graph)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(graph.edges)
        alpha = len(nx.max_weight_clique(nx.complement(g), weight=None)[0])
        log_c = math.log(reduction.normalizer.numerator)
        mp, am = max_product(reduction.network), argmax_product(reduction.network)
        assert log_leq(mp.value.log, am.value.log)
        assert log_leq(am.value.log, math.log(alpha) - log_c)
        assert am.value.log + log_c == pytest.approx(0.0, abs=1e-12)
