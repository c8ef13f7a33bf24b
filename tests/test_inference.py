"""Evaluation and marginals against golden values and brute-force oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from spnmap import (
    LOG_ZERO,
    LeafNode,
    Network,
    ProductNode,
    SumNode,
    batch_log_values,
    count_free_configurations,
    decode_configuration,
    enumerate_log_values,
    evaluate,
    evaluate_marginal,
    log_partition,
    random_spn,
)
from spnmap.experiments import gap_network
from spnmap.inference import free_variables, log_evaluate
from conftest import shared_leaf_dag
from oracles import all_assignments, below, brute_marginal, brute_value


def small_networks(count: int, max_vars: int = 6):
    for seed in range(count):
        n_vars = 1 + seed % max_vars
        yield random_spn(n_vars, max_height=4, seed=seed)


class TestGoldenMixture:
    def test_point_values(self, mixture_net):
        assert evaluate(mixture_net, {0: 1, 1: 0}).linear == pytest.approx(0.4, abs=1e-12)
        assert evaluate(mixture_net, {0: 0, 1: 0}).linear == pytest.approx(0.3, abs=1e-12)
        assert evaluate(mixture_net, {0: 0, 1: 1}).linear == pytest.approx(0.15, abs=1e-12)
        assert evaluate(mixture_net, {0: 1, 1: 1}).linear == pytest.approx(0.15, abs=1e-12)

    def test_marginals(self, mixture_net):
        assert evaluate_marginal(mixture_net, {1: 0}).linear == pytest.approx(0.7, abs=1e-12)
        assert evaluate_marginal(mixture_net, {1: 1}).linear == pytest.approx(0.3, abs=1e-12)
        assert evaluate_marginal(mixture_net, {0: 0}).linear == pytest.approx(0.45, abs=1e-12)

    def test_empty_evidence_is_total_mass(self, mixture_net):
        assert evaluate_marginal(mixture_net).linear == pytest.approx(1.0, abs=1e-12)
        assert evaluate_marginal(mixture_net, {}).linear == pytest.approx(1.0, abs=1e-12)

    def test_node_values_cover_every_node(self, mixture_net):
        assignment = {0: 1, 1: 0}
        cats = np.array([[assignment[0], assignment[1]]])
        vals = {nid: batch_log_values(mixture_net, nid, cats)[0] for nid in mixture_net.nodes}
        for nid, value in vals.items():
            expected = math.log(brute_value(mixture_net, assignment, nid))
            assert value == pytest.approx(expected, rel=1e-12)
        assert vals[4] == pytest.approx(math.log(0.4))
        assert vals[3] == pytest.approx(math.log(0.9 * 0.8))


class TestArgumentChecks:
    def test_partial_assignment_is_rejected(self, mixture_net):
        with pytest.raises(ValueError, match="missing variable"):
            evaluate(mixture_net, {0: 1})

    def test_unknown_variable(self, mixture_net):
        with pytest.raises(ValueError, match="unknown variable"):
            evaluate_marginal(mixture_net, {7: 0})

    def test_category_out_of_range(self, mixture_net):
        with pytest.raises(ValueError, match="cardinality"):
            evaluate_marginal(mixture_net, {0: 2})


class TestOracleAgreement:
    def test_mixture_agrees_with_recursive_oracle(self, mixture_net):
        for assignment in all_assignments(mixture_net):
            expected = brute_value(mixture_net, assignment)
            assert evaluate(mixture_net, assignment).linear == pytest.approx(
                expected, rel=1e-12
            )

    def test_random_networks_agree_with_oracle(self):
        for net in small_networks(40):
            for assignment in all_assignments(net):
                got = evaluate(net, assignment).linear
                expected = brute_value(net, assignment)
                assert got == pytest.approx(expected, rel=1e-11, abs=1e-300)
                assert 0.0 <= got <= 1.0 + 1e-12

    def test_marginal_is_sum_over_consistent_assignments(self):
        for net in small_networks(25):
            evidence = {0: 0} if len(net.variables) > 1 else {}
            got = evaluate_marginal(net, evidence).linear
            assert got == pytest.approx(brute_marginal(net, evidence), rel=1e-9)

    def test_monotone_evidence(self):
        for net in small_networks(25, max_vars=5):
            if len(net.variables) < 2:
                continue
            wide = evaluate_marginal(net, {0: 1}).linear
            narrow_evidence = {0: 1, len(net.variables) - 1: 0}
            narrow = evaluate_marginal(net, narrow_evidence).linear
            assert narrow <= wide + 1e-15


class TestBatchEvaluation:
    def test_batch_matches_scalar_on_mixture(self, mixture_net):
        cats = np.array([[a[0], a[1]] for a in all_assignments(mixture_net)])
        batched = batch_log_values(mixture_net, mixture_net.root, cats)
        for row, assignment in zip(batched, all_assignments(mixture_net)):
            assert row == pytest.approx(log_evaluate(mixture_net, assignment), rel=1e-12)

    def test_batch_matches_scalar_on_random_networks(self):
        for net in small_networks(20):
            assignments = list(all_assignments(net))
            cats = np.array(
                [[a[v.index] for v in net.variables] for a in assignments]
            )
            batched = batch_log_values(net, net.root, cats)
            for row, assignment in zip(batched, assignments):
                expected = log_evaluate(net, assignment)
                if expected == LOG_ZERO:
                    assert row == LOG_ZERO
                else:
                    assert row == pytest.approx(expected, rel=1e-12)

    def test_batch_rejects_wrong_width(self, mixture_net):
        with pytest.raises(ValueError, match="column"):
            batch_log_values(mixture_net, 0, np.zeros((4, 3), dtype=np.intp))

    def test_batch_reads_only_scope_columns(self, mixture_net):
        # Node 4 ranges over variable 0 only; garbage in column 1 is ignored.
        cats = np.array([[0, 99], [1, 99]])
        out = batch_log_values(mixture_net, 4, cats)
        assert out[0] == pytest.approx(math.log(0.6))
        assert out[1] == pytest.approx(math.log(0.4))
        # An inner sum of a DAG: its sub-DAG holds leaves that have a second
        # parent outside it, and columns outside its scope are out of range.
        dag = shared_leaf_dag(random_spn(4, max_height=3, seed=4))
        node_id = 7
        shared = dag.nodes[dag.nodes[dag.root].children[1]].children
        scope = sorted(dag.scope(node_id))
        assert isinstance(dag.nodes[node_id], SumNode) and len(scope) < 4
        assert set(shared) & below(dag, node_id)
        rows = list(itertools.product(range(2), repeat=len(scope)))
        cats = np.full((len(rows), 4), 99)
        cats[:, scope] = rows
        out = batch_log_values(dag, node_id, cats)
        for row, value in zip(rows, out):
            expected = math.log(brute_value(dag, dict(zip(scope, row)), node_id))
            assert value == pytest.approx(expected, rel=1e-12)


class TestEnumeration:
    def test_free_variables_and_count(self, mixture_net):
        assert [v.index for v in free_variables(mixture_net)] == [0, 1]
        assert [v.index for v in free_variables(mixture_net, {0: 1})] == [1]
        assert count_free_configurations(mixture_net) == 4
        assert count_free_configurations(mixture_net, {0: 1, 1: 0}) == 1

    def test_decode_is_lexicographic(self, mixture_net):
        assert decode_configuration(mixture_net, None, 0) == {0: 0, 1: 0}
        assert decode_configuration(mixture_net, None, 1) == {0: 0, 1: 1}
        assert decode_configuration(mixture_net, None, 2) == {0: 1, 1: 0}
        assert decode_configuration(mixture_net, None, 3) == {0: 1, 1: 1}

    def test_decode_respects_evidence(self, mixture_net):
        assert decode_configuration(mixture_net, {0: 1}, 0) == {0: 1, 1: 0}
        assert decode_configuration(mixture_net, {0: 1}, 1) == {0: 1, 1: 1}

    def test_chunks_enumerate_every_assignment_in_order(self, monkeypatch):
        monkeypatch.setattr("spnmap.inference._CHUNK_SIZE", 3)
        net = random_spn(4, max_height=3, seed=11)
        values = []
        for start, chunk in enumerate_log_values(net, {1: 1}):
            assert start == len(values) and len(chunk) <= 3
            values.extend(chunk.tolist())
        expected = [log_evaluate(net, a) for a in all_assignments(net, {1: 1})]
        assert len(set(expected)) == len(expected) == 8
        assert values == pytest.approx(expected, rel=1e-12)

    def test_enumerate_log_values_matches_decode(self, mixture_net):
        for start, values in enumerate_log_values(mixture_net):
            for offset, value in enumerate(values):
                assignment = decode_configuration(mixture_net, None, start + offset)
                assert value == pytest.approx(log_evaluate(mixture_net, assignment))


class TestNormalization:
    def test_mixture_total_mass(self, mixture_net):
        assert log_partition(mixture_net) == pytest.approx(0.0, abs=1e-12)

    def test_random_networks_total_mass(self):
        for net in small_networks(20):
            assert log_partition(net) == pytest.approx(0.0, abs=1e-9)

    def test_small_chunks_do_not_change_the_total(self, mixture_net, monkeypatch):
        monkeypatch.setattr("spnmap.inference._CHUNK_SIZE", 1)
        assert log_partition(mixture_net) == pytest.approx(0.0, abs=1e-12)


class TestLogDomainRobustness:
    def test_deep_products_underflow_linear_but_not_log(self):
        copies = 700
        net = gap_network(copies)
        value = evaluate(net, {i: 1 for i in range(copies)})
        assert value.log == pytest.approx(copies * math.log(5 / 16), rel=1e-12)
        assert value.linear == 0.0  # linear doubles cannot hold exp(-814)
        assert not value.is_zero

    def test_leaf_logs_follow_one_rule(self):
        net = Network.from_nodes({0: LeafNode(0, (1.0, 0.0))}, 0)
        assert evaluate(net, {0: 0}).log == 0.0
        assert evaluate(net, {0: 1}).log == LOG_ZERO
        net = Network.from_nodes({0: LeafNode(0, (0.5, 0.5))}, 0)
        assert evaluate(net, {0: 0}).log == pytest.approx(math.log(0.5))

    def test_exact_zero_propagates_as_sentinel(self):
        nodes = {
            0: ProductNode((1, 2)),
            1: LeafNode(0, (1.0, 0.0)),
            2: LeafNode(1, (0.5, 0.5)),
        }
        net = Network.from_nodes(nodes, 0)
        value = evaluate(net, {0: 1, 1: 0})
        assert value.is_zero
        assert evaluate_marginal(net, {0: 1}).is_zero
