"""Network construction, weight renormalization, validation, and statistics."""

from __future__ import annotations

import math

import pytest

from spnmap import (
    LeafNode,
    Network,
    ProductNode,
    SumNode,
    Variable,
    Violation,
    network_stats,
    validate,
)
from conftest import mixture_nodes


def leaf_only(distribution=(0.5, 0.5)) -> Network:
    return Network({0: LeafNode(0, distribution)}, 0, [Variable(0, 2)])


class TestNodeTypes:
    def test_variable_rejects_bad_index_and_cardinality(self):
        with pytest.raises(ValueError):
            Variable(-1, 2)
        with pytest.raises(ValueError):
            Variable(0, 1)

    def test_leaf_needs_two_categories(self):
        with pytest.raises(ValueError):
            LeafNode(0, (1.0,))

    def test_leaf_coerces_to_float_tuple(self):
        leaf = LeafNode(0, [1, 0])
        assert leaf.distribution == (1.0, 0.0)
        assert leaf.children == ()

    def test_sum_checks_weight_count(self):
        with pytest.raises(ValueError):
            SumNode((1, 2), (0.5,))
        with pytest.raises(ValueError):
            SumNode((), ())

    def test_product_needs_children(self):
        with pytest.raises(ValueError):
            ProductNode(())


class TestConstruction:
    def test_rejects_empty_network(self):
        with pytest.raises(ValueError):
            Network({}, 0, [Variable(0, 2)])

    def test_rejects_missing_root(self):
        with pytest.raises(ValueError):
            Network({0: LeafNode(0, (0.5, 0.5))}, 1, [Variable(0, 2)])

    def test_rejects_unknown_child(self):
        nodes = {0: ProductNode((1, 9)), 1: LeafNode(0, (0.5, 0.5))}
        with pytest.raises(ValueError, match="unknown child 9"):
            Network(nodes, 0, [Variable(0, 2)])

    def test_rejects_variable_index_gap(self):
        with pytest.raises(ValueError, match="0..n-1"):
            Network({0: LeafNode(0, (0.5, 0.5))}, 0, [Variable(1, 2)])

    def test_rejects_leaf_over_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            Network({0: LeafNode(3, (0.5, 0.5))}, 0, [Variable(0, 2)])

    def test_rejects_leaf_cardinality_mismatch(self):
        with pytest.raises(ValueError, match="cardinality"):
            Network({0: LeafNode(0, (0.2, 0.3, 0.5))}, 0, [Variable(0, 2)])

    def test_from_nodes_infers_variables(self, mixture_net):
        assert [v.index for v in mixture_net.variables] == [0, 1]
        assert all(v.cardinality == 2 for v in mixture_net.variables)

    def test_from_nodes_rejects_cardinality_conflict(self):
        nodes = {
            0: ProductNode((1, 2)),
            1: LeafNode(0, (0.5, 0.5)),
            2: LeafNode(0, (0.2, 0.3, 0.5)),
        }
        with pytest.raises(ValueError, match="cardinality"):
            Network.from_nodes(nodes, 0)

    def test_from_nodes_rejects_variable_gap(self):
        nodes = {0: LeafNode(1, (0.5, 0.5))}
        with pytest.raises(ValueError, match="cover"):
            Network.from_nodes(nodes, 0)


class TestRenormalization:
    def build(self, weights) -> Network:
        nodes = {
            0: SumNode((1, 2), weights),
            1: LeafNode(0, (0.5, 0.5)),
            2: LeafNode(0, (0.9, 0.1)),
        }
        return Network(nodes, 0, [Variable(0, 2)])

    def test_small_drift_is_silently_renormalized(self):
        net = self.build((0.5 + 4e-7, 0.5))
        total = sum(net.nodes[0].weights)
        assert total == pytest.approx(1.0, abs=1e-15)
        assert validate(net) == []

    def test_renormalized_weights_total_exactly_one(self):
        # Divided by their total, these weights sum to 1 + 2**-52, so a plain
        # division left weights that the next construction changed again.
        net = self.build((0.002, 0.9980005))
        weights = net.nodes[0].weights
        assert math.fsum(weights) == 1.0
        rebuilt = Network(net.nodes, net.root, net.variables)
        assert rebuilt.nodes[0].weights == weights

    def test_exact_weights_stay_untouched(self):
        net = self.build((0.25, 0.75))
        assert net.nodes[0].weights == (0.25, 0.75)

    def test_large_drift_is_a_violation_not_a_repair(self):
        net = self.build((0.6, 0.6))
        assert net.nodes[0].weights == (0.6, 0.6)
        kinds = [v.kind for v in validate(net)]
        assert kinds == ["normalization"]

    def test_negative_weight_is_never_renormalized(self):
        net = self.build((-0.1, 1.1))
        assert net.nodes[0].weights == (-0.1, 1.1)
        assert [v.kind for v in validate(net)] == ["normalization"]


class TestTraversal:
    def test_topological_order_puts_children_first(self, mixture_net):
        order = mixture_net.topological_order()
        position = {nid: k for k, nid in enumerate(order)}
        for nid, node in mixture_net.nodes.items():
            for child in node.children:
                assert position[child] < position[nid]

    def test_cycle_refuses_traversal(self):
        nodes = {
            0: ProductNode((1,)),
            1: ProductNode((0,)),
            2: LeafNode(0, (0.5, 0.5)),
        }
        net = Network(nodes, 0, [Variable(0, 2)])
        assert not net.is_acyclic
        with pytest.raises(ValueError, match="cycle"):
            net.topological_order()
        with pytest.raises(ValueError, match="cycle"):
            net.scope(0)

    def test_scope_of_mixture(self, mixture_net):
        assert mixture_net.scope(0) == frozenset({0, 1})
        assert mixture_net.scope(4) == frozenset({0})
        assert mixture_net.scope(1) == frozenset({0, 1})
        with pytest.raises(KeyError):
            mixture_net.scope(99)

    def test_arc_count(self, mixture_net):
        assert mixture_net.arc_count == 3 + 3 * 2

    def test_reachable_from(self, mixture_net):
        assert validate(mixture_net) == []
        report = validate(Network.from_nodes(mixture_nodes(), 3))
        unreachable = [n for n in range(8) if n not in {3, 5, 7}]
        assert [(v.node_id, v.kind) for v in report] == [(n, "unreachable") for n in unreachable]


class TestValidate:
    def test_mixture_is_clean(self, mixture_net):
        assert validate(mixture_net) == []

    def test_leaf_distribution_total(self):
        net = leaf_only((0.5, 0.6))
        report = validate(net)
        assert [v.kind for v in report] == ["distribution"]
        assert report[0].node_id == 0

    def test_leaf_negative_probability(self):
        assert [v.kind for v in validate(leaf_only((-0.1, 1.1)))] == ["distribution"]

    def test_nan_parameters_are_reported(self):
        report = validate(leaf_only((math.nan, 1.0)))
        assert [(v.node_id, v.kind, v.message) for v in report] == [
            (0, "distribution", "probabilities sum to nan")
        ]
        nodes = {
            0: SumNode((1, 2), (math.nan, 1.0)),
            1: LeafNode(0, (0.5, 0.5)),
            2: LeafNode(0, (0.9, 0.1)),
        }
        report = validate(Network(nodes, 0, [Variable(0, 2)]))
        assert [(v.node_id, v.kind, v.message) for v in report] == [
            (0, "normalization", "weights sum to nan")
        ]

    def test_unreachable_node(self):
        nodes = dict(mixture_nodes())
        nodes[8] = LeafNode(0, (0.5, 0.5))
        report = validate(Network.from_nodes(nodes, 0))
        assert [(v.node_id, v.kind) for v in report] == [(8, "unreachable")]

    def test_cycle_is_reported_and_cuts_scope_checks(self):
        nodes = {
            0: ProductNode((1,)),
            1: ProductNode((0,)),
            2: LeafNode(0, (0.5, 0.5)),
        }
        report = validate(Network(nodes, 0, [Variable(0, 2)]))
        assert [v.kind for v in report] == ["unreachable", "cycle"]

    def test_cycle_below_the_root_beside_an_unreachable_node(self):
        # The walk meets the cycle 1 -> 2 -> 1 from node 1, before the root,
        # so the root reaches node 1 only through the edge back to it.
        nodes = {
            0: LeafNode(0, (0.5, 0.5)),
            1: ProductNode((2,)),
            2: ProductNode((1, 3)),
            3: LeafNode(0, (0.5, 0.5)),
            4: ProductNode((2,)),
        }
        report = validate(Network(nodes, 4, [Variable(0, 2)]))
        assert report == [
            Violation(0, "unreachable", "not reachable from the root"),
            Violation(1, "cycle", "node lies on a directed cycle"),
        ]

    def test_incomplete_sum(self):
        nodes = {
            0: SumNode((1, 2), (0.5, 0.5)),
            1: LeafNode(0, (0.5, 0.5)),
            2: LeafNode(1, (0.5, 0.5)),
        }
        net = Network(nodes, 0, [Variable(0, 2), Variable(1, 2)])
        assert [v.kind for v in validate(net)] == ["completeness"]

    def test_non_decomposable_product(self):
        nodes = {
            0: ProductNode((1, 2)),
            1: LeafNode(0, (0.5, 0.5)),
            2: LeafNode(0, (0.9, 0.1)),
        }
        net = Network(nodes, 0, [Variable(0, 2)])
        assert [v.kind for v in validate(net)] == ["decomposability"]

    def test_root_scope_must_cover_all_variables(self):
        nodes = {0: LeafNode(0, (0.5, 0.5)), 1: LeafNode(1, (0.5, 0.5))}
        net = Network(nodes, 0, [Variable(0, 2), Variable(1, 2)])
        kinds = [v.kind for v in validate(net)]
        assert "scope" in kinds and "unreachable" in kinds


class TestStats:
    def test_mixture_stats(self, mixture_net):
        stats = network_stats(mixture_net)
        assert stats.node_count == 8
        assert stats.sum_count == 1
        assert stats.product_count == 3
        assert stats.leaf_count == 4
        assert stats.height == 2
        assert stats.sum_out_degrees == (3,)

    def test_single_leaf_stats(self):
        stats = network_stats(leaf_only())
        assert stats.node_count == 1
        assert stats.height == 0
        assert stats.sum_out_degrees == ()
