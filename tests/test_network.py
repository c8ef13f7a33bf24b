"""Network construction, weight renormalization, validation, and statistics."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import pickle
import random

import numpy as np
import pytest

import spnmap
from spnmap import (
    LeafNode,
    Network,
    Node,
    ProductNode,
    SumNode,
    Variable,
    Violation,
    approx_factor_bound,
    evaluate,
    gap_network,
    max_product,
    mis_to_spn,
    network_stats,
    parse_spn,
    random_graph,
    random_spn,
    serialize_spn,
    validate,
)
from spnmap import inference
from spnmap import network as network_module
from spnmap.reductions import CnfFormula, amplify, cnf_to_spn
from conftest import mixture_nodes, shared_leaf_dag, shared_sum_dag, single_child_sum
from oracles import below, validate_by_walk


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

    def test_rejects_empty_variable_list(self):
        with pytest.raises(ValueError, match="at least one variable"):
            Network({0: LeafNode(0, (0.5, 0.5))}, 0, [])

    def test_nodes_are_a_read_only_view(self, mixture_net):
        max_product(mixture_net)
        with pytest.raises(TypeError):
            mixture_net.nodes[1] = LeafNode(0, (0.1, 0.9))
        with pytest.raises(TypeError):
            del mixture_net.nodes[0]
        assert mixture_net.nodes == mixture_nodes()
        assert evaluate(mixture_net, {0: 0, 1: 0}).linear == pytest.approx(0.3, abs=1e-12)

    def test_solved_network_pickles(self, mixture_net):
        expected = max_product(mixture_net)
        again = pickle.loads(pickle.dumps(mixture_net))
        assert again.nodes == mixture_net.nodes and again.root == mixture_net.root
        assert again.variables == mixture_net.variables
        assert max_product(again) == expected

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
        # The walk starts from the ids in increasing order, whatever order the
        # nodes are stored in, and a pass leaves the stored order alone.
        lines = serialize_spn(mixture_net).splitlines()
        reversed_net = parse_spn("\n".join([lines[0], *reversed(lines[1:9]), *lines[9:]]))
        for net, stored in (
            (mixture_net, [0, 1, 2, 3, 4, 5, 6, 7]),
            (reversed_net, [7, 6, 5, 4, 3, 2, 1, 0]),
        ):
            assert net.topological_order() == (4, 6, 1, 7, 2, 5, 3, 0)
            assert list(net.nodes) == stored
            max_product(net)
            assert list(net.nodes) == stored

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
        for _ in range(2):  # a refusal is not cached away
            with pytest.raises(ValueError, match="cycle"):
                net.scope(0)
        with pytest.raises(ValueError, match="cycle"):
            network_stats(net)
        with pytest.raises(ValueError, match="cycle"):
            approx_factor_bound(net)

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
        net = Network.from_nodes(mixture_nodes(), 3)
        report = validate(net)
        unreachable = [n for n in range(8) if n not in {3, 5, 7}]
        assert [(v.node_id, v.kind) for v in report] == [(n, "unreachable") for n in unreachable]
        assert validate(parse_spn(serialize_spn(net))) == report


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
        leaves = {1: LeafNode(0, (0.5, 0.5)), 2: LeafNode(0, (0.9, 0.1))}
        cases = [
            (leaf_only((-0.1, 1.1)), (0, "distribution", "negative probability")),
            (leaf_only((-math.inf, 1.0)), (0, "distribution", "negative probability")),
            (
                Network({0: SumNode((1, 2), (-0.5, 1.5)), **leaves}, 0, [Variable(0, 2)]),
                (0, "normalization", "negative weight"),
            ),
            (
                Network({0: SumNode((1, 2), (math.inf, 0.5)), **leaves}, 0, [Variable(0, 2)]),
                (0, "normalization", "weights sum to inf"),
            ),
        ]
        for net, expected in cases:
            assert [(v.node_id, v.kind, v.message) for v in validate(net)] == [expected]

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
        net = Network.from_nodes(nodes, 0)
        report = validate(net)
        assert [(v.node_id, v.kind) for v in report] == [(8, "unreachable")]
        assert validate(parse_spn(serialize_spn(net))) == report

    def test_cycle_is_reported_and_cuts_scope_checks(self):
        nodes = {
            0: ProductNode((1,)),
            1: ProductNode((0,)),
            2: LeafNode(0, (0.5, 0.5)),
        }
        net = Network(nodes, 0, [Variable(0, 2)])
        report = validate(net)
        assert [v.kind for v in report] == ["unreachable", "cycle"]
        assert validate(parse_spn(serialize_spn(net))) == report

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
        net = Network(nodes, 4, [Variable(0, 2)])
        report = validate(net)
        assert report == [
            Violation(0, "unreachable", "not reachable from the root"),
            Violation(1, "cycle", "node lies on a directed cycle"),
        ]
        text = serialize_spn(net)
        assert validate(parse_spn(text)) == report
        # The same document with its nodes declared in decreasing id order.
        lines = text.splitlines()  # the header, five node lines, edges, root
        decreasing = [lines[0], *reversed(lines[1:6]), *lines[6:]]
        assert validate(parse_spn("\n".join(decreasing))) == report

    def test_of_two_cycles_the_first_found_is_named(self):
        # From the root the walk closes 1 -> 2 -> 1 before 3 -> 4 -> 3, and
        # meets node 1 again on its path, not node 2 whose edge leads back.
        nodes = {
            0: ProductNode((1, 3)),
            1: ProductNode((2,)),
            2: ProductNode((1, 5)),
            3: ProductNode((4,)),
            4: ProductNode((3, 5)),
            5: LeafNode(0, (0.5, 0.5)),
        }
        net = Network(nodes, 0, [Variable(0, 2)])
        report = [Violation(1, "cycle", "node lies on a directed cycle")]
        assert validate(net) == validate_by_walk(net) == report
        with pytest.raises(ValueError, match="^network contains a cycle through node 1$"):
            max_product(net)

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


def column_networks() -> list[Network]:
    """Trees, DAGs with shared nodes, and networks with unreachable entries or many copies."""
    trees = [random_spn(1 + s % 7, 1 + s % 6, seed=s) for s in range(60)]
    nets = [*trees, *map(shared_leaf_dag, trees)]
    nets += [single_child_sum(shared_sum_dag(tree)) for tree in trees]
    nets += [gap_network(copies) for copies in range(1, 5)]
    nets.append(mis_to_spn(random_graph(12, 30.0, 3)).network)
    formula = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))
    amplified = amplify(cnf_to_spn(formula), 40).network
    nets += [amplified, parse_spn(serialize_spn(amplified))]
    unreachable = {
        0: ProductNode((1, 2)),
        1: LeafNode(0, (0.5, 0.5)),
        2: LeafNode(1, (0.2, 0.8)),
        3: ProductNode((2, 1, 4)),
        4: SumNode((1, 1), (0.5, 0.5)),
    }
    nets += [leaf_only(), Network.from_nodes(unreachable, 0)]
    return nets


class TestArrays:
    """The numpy columns of the passes that work a level at a time."""

    @staticmethod
    def rebuilt(net: Network) -> tuple:
        """Heights by a loop over the walk's record, whether an entry is shared,
        and each leaf's first most probable category, from the nodes."""
        numbering, t = net._numbering, net._tables
        height = [0] * len(t.ids)
        for e in numbering.internal:  # children first
            height[e] = 1 + max(height[kid] for kid in numbering.children[e])
        shared = len(set(t.child_index.tolist())) < len(t.child_index)
        best = [-1] * len(t.ids)
        for nid, node in net.nodes.items():
            if isinstance(node, LeafNode):
                best[net._entry[nid]] = node.distribution.index(max(node.distribution))
        return np.array(height, dtype=np.intp), shared, np.array(best, dtype=np.intp)

    def test_columns_and_heights_match_a_rebuild(self):
        for net in column_networks():
            height, shared, best = self.rebuilt(net)
            assert net._arrays.shared is shared
            for got, want in ((net._arrays.height, height), (net._compiled.best, best)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_levels_hold_each_inner_entry_once_above_its_children(self):
        for net in column_networks():
            t, height, log_table = net._tables, net._arrays.height, net._compiled.log_table
            fan, done, plan = np.diff(t.child_offset), t.variable >= 0, net._plan
            assert np.array_equal(plan.entries[: plan.leaves], np.flatnonzero(done))
            for lo, hi, slots, weights, *_ in plan.groups:
                entries, level_kids = plan.entries[lo:hi].tolist(), plan.entries[slots]
                assert (slots < lo).all()
                assert not done[entries].any()
                assert len(set(height[entries].tolist())) == 1
                assert set(fan[entries].tolist()) == {level_kids.shape[1]}
                for e, kids in zip(entries, level_kids.tolist()):
                    assert kids == list(net._numbering.children[e]) and done[kids].all()
                if weights is None:
                    assert (np.diff(t.param_offset)[entries] == 0).all()
                else:
                    at = t.param_offset[entries][:, None] + np.arange(level_kids.shape[1])
                    assert np.array_equal(weights, log_table[at])
                done[entries] = True
            assert done.all()
            assert plan.entries[plan.root] == net._entry[net.root]


def built_networks() -> dict[str, Network]:
    """A network from each builder; the parsed one names nodes by ids past 64 bits."""
    big = 10**20
    doc = (
        f"spn 3\nnode -7 sum\nnode {big} leaf 0 0.5 0.5\nnode {-big} leaf 0 0.1 0.9\n"
        f"edge -7 {-big} 0.25\nedge -7 {big} 0.75\nroot -7\n"
    )
    formula = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))
    return {
        "parse_spn": parse_spn(doc),
        "mis_to_spn": mis_to_spn(random_graph(5, 40.0, 2)).network,
        "cnf_to_spn": cnf_to_spn(formula).network,
        "amplify": amplify(cnf_to_spn(formula), 20).network,  # 1141 entries: levelled passes
        "Network": Network(mixture_nodes(), 0, [Variable(1, 2), Variable(0, 2)]),
        "from_nodes": random_spn(4, 3, seed=5),
    }


class TestOneForm:
    """Tables held once, as numpy columns, behind a surface of Python numbers."""

    def test_every_builder_gives_each_column_its_dtype(self):
        for name, net in built_networks().items():
            t = net._tables
            assert type(t.ids) is list and all(type(i) is int for i in t.ids), name
            dtypes = (np.int8, np.intp, np.intp, np.intp, np.intp, np.float64)
            assert [column.dtype for column in t[1:]] == list(map(np.dtype, dtypes)), name

    def test_the_public_surface_stays_python_numbers(self):
        def python(value) -> bool:
            if isinstance(value, (tuple, frozenset)):
                return all(map(python, value))
            return type(value) in (int, float)

        for name, net in built_networks().items():
            for nid, node in net.nodes.items():
                fields = [getattr(node, f.name) for f in dataclasses.fields(node)]
                assert python(nid) and all(map(python, fields)), (name, node)
                assert python(net.scope(nid))
            assert python(net.topological_order())
            assert all(map(python, dataclasses.astuple(network_stats(net)))), name
            result = max_product(net)
            assert python(tuple(result.configuration.items())), name
        big = 10**20
        parsed = built_networks()["parse_spn"]
        assert repr(parsed.nodes[-7]) == f"SumNode(children=({-big}, {big}), weights=(0.25, 0.75))"
        assert repr(parsed.nodes[big]) == "LeafNode(variable=0, distribution=(0.5, 0.5))"
        assert parsed.topological_order() == (-big, big, -7)

    def test_reports_and_refusals_name_python_ids(self):
        big = 10**20
        nodes = {
            -7: SumNode((-big, big), (0.5, 0.75)),
            big: LeafNode(0, (0.5, 0.5)),
            -big: LeafNode(0, (-0.1, 1.1)),
            big + 1: LeafNode(1, (0.5, 0.5)),
        }
        net = Network(nodes, -7, [Variable(0, 2), Variable(1, 2)])
        assert validate(net) == [
            Violation(-big, "distribution", "negative probability"),
            Violation(-7, "normalization", "weights sum to 1.25"),
            Violation(big + 1, "unreachable", "not reachable from the root"),
            Violation(-7, "scope", "root scope does not cover all variables"),
        ]
        assert all(type(v.node_id) is int for v in validate(net))
        with pytest.raises(ValueError, match=f"^node {-big} has a negative or non-finite"):
            max_product(net)
        cycle = {-big: ProductNode((big,)), big: SumNode((-big,), (1.0,))}
        with pytest.raises(ValueError, match=f"^network contains a cycle through node {-big}$"):
            max_product(Network(cycle, -big, [Variable(0, 2)]))


def defective_dag(rng: random.Random) -> Network:
    """A random network of up to 15 nodes, with defects drawn at random.

    Each node's children are drawn among the nodes before it, so children are
    often shared and the network is a DAG unless a two-node cycle is added.
    Parameters are negative, NaN or infinite, or total just inside or just
    outside ``1e-9`` (leaves) and ``1e-6`` (sums) of 1; sums and products
    draw children of any scope, and the root is any node.
    """
    cards = [rng.randint(2, 5) for _ in range(rng.randint(1, 4))]
    ids = rng.sample(range(40), rng.randint(2, 14))
    nodes: dict[int, Node] = {}

    def parameters(count: int, tolerance: float) -> list[float]:
        shares = [rng.random() + 0.01 for _ in range(count)]
        roll = rng.random()
        if roll < 0.4:
            target = 1.0
        else:  # just inside or outside the tolerance, or at its edge
            target = 1.0 + rng.choice((-1, 1)) * tolerance * rng.choice(
                (0.5, 1 - 1e-4, 1 - 1e-7, 1.0, 1 + 1e-7, 1 + 1e-4, 2.0)
            )
        values = [target * x / math.fsum(shares) for x in shares]
        if rng.random() < 0.15:
            values[rng.randrange(count)] = rng.choice((-0.25, -math.inf, math.inf, math.nan, 0.0))
        return values

    for k, nid in enumerate(ids):
        roll = rng.random() if k else 0.0
        if roll < 0.4:
            var = rng.randrange(len(cards))
            nodes[nid] = LeafNode(var, parameters(cards[var], 1e-9))
        else:
            kids = tuple(rng.choice(ids[:k]) for _ in range(rng.randint(1, 3)))
            if roll < 0.7:
                nodes[nid] = SumNode(kids, parameters(len(kids), 1e-6))
            else:
                nodes[nid] = ProductNode(kids)
    inner = [nid for nid in ids if not isinstance(nodes[nid], LeafNode)]
    if inner and rng.random() < 0.2:  # a cycle through a new product
        top, nid = rng.choice(inner), max(ids) + 1
        nodes[nid] = ProductNode((top,))
        node = nodes[top]
        if isinstance(node, SumNode):
            nodes[top] = SumNode((*node.children, nid), (*node.weights[:-1], 0.5, 0.5))
        else:
            nodes[top] = ProductNode((*node.children, nid))
    root = inner[-1] if inner and rng.random() < 0.6 else rng.choice(ids)
    return Network(nodes, root, [Variable(i, c) for i, c in enumerate(cards)])


def refusal(net: Network):
    """The structural queries' answer, or the message of their refusal."""
    try:
        return net.topological_order(), [net.scope(nid) for nid in sorted(net.nodes)]
    except ValueError as exc:
        return str(exc)


class TestLevelledValidate:
    """``validate`` and the cycle check of the levelled path against the walk."""

    @pytest.fixture(autouse=True)
    def every_network_levelled(self, monkeypatch):
        monkeypatch.setattr(inference, "_LEVELLED_MIN", 0)

    @staticmethod
    def report(violations) -> list[tuple[int, str, str]]:
        return [(v.node_id, v.kind, v.message) for v in violations]

    def test_reports_match_the_walk_on_random_dags(self, monkeypatch):
        rng = random.Random(0)
        kinds, refusals = set(), set()
        for _ in range(600):
            net = defective_dag(rng)
            # The same nodes above the threshold take the walk's cycle check.
            walked = Network(dict(net.nodes), net.root, net.variables)
            report = self.report(validate(net))
            assert report == self.report(validate_by_walk(walked))
            assert net.is_acyclic is (walked._numbering.cycle is None)
            outcome = refusal(net)
            monkeypatch.setattr(inference, "_LEVELLED_MIN", 1 << 30)
            assert walked.is_acyclic is net.is_acyclic
            assert refusal(walked) == outcome
            monkeypatch.setattr(inference, "_LEVELLED_MIN", 0)
            kinds.update(kind for _, kind, _ in report)
            if isinstance(outcome, str):
                refusals.add(outcome.split(" ")[-1] if "cycle" in outcome else "parameter")
            elif net.is_acyclic:
                for nid in net.nodes:
                    leaves = (net.nodes[i] for i in below(net, nid))
                    assert net.scope(nid) == {n.variable for n in leaves if isinstance(n, LeafNode)}
        every_kind = {
            "distribution", "normalization", "unreachable", "cycle",
            "completeness", "decomposability", "scope",
        }
        assert kinds == every_kind
        assert "parameter" in refusals and len(refusals) > 2

    def test_edge_totals_take_the_exact_sum(self):
        # Rows whose total, added in order, falls on the other side of the
        # tolerance than the exact total does.
        rng, tested = random.Random(1), 0
        for tolerance in (1e-9, 1e-6):
            for _ in range(4000):
                shares = [rng.random() for _ in range(rng.randint(3, 12))]
                side = rng.choice((-1, 1))
                target = 1 + side * tolerance * (1 + rng.choice((-1, 1)) * rng.random() * 1e-6)
                row = [target * x / math.fsum(shares) for x in shares]
                in_order = functools.reduce(operator.add, row)
                if (abs(in_order - 1) <= tolerance) == (abs(math.fsum(row) - 1) <= tolerance):
                    continue
                if tolerance == 1e-9:
                    net = Network({0: LeafNode(0, row)}, 0, [Variable(0, len(row))])
                else:
                    leaves = {k: LeafNode(0, (0.5, 0.5)) for k in range(1, len(row) + 1)}
                    net = Network({0: SumNode(tuple(leaves), row), **leaves}, 0, [Variable(0, 2)])
                assert self.report(validate(net)) == self.report(validate_by_walk(net))
                tested += 1
        assert tested > 50

    def test_shared_and_amplified_networks_are_valid(self):
        *valid, unreachable = column_networks()  # the last one has unreachable entries
        for net in valid:
            assert validate(net) == validate_by_walk(net) == []
        assert validate(unreachable) == validate_by_walk(unreachable) != []


def test_a_large_valid_network_is_solved_without_the_walk():
    # The unsatisfiable formula of all eight sign patterns: 1801 entries.
    clauses = [(a * 1, b * 2, c * 3) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    formula = CnfFormula(3, tuple(clauses))
    net = parse_spn(serialize_spn(amplify(cnf_to_spn(formula), 8).network))
    assert inference._levelled(net)
    assert validate(net) == []
    spnmap.evaluate_marginal(net)
    max_product(net)
    spnmap.argmax_product(net)
    spnmap.decision_map(net, None, 0.0, spnmap.Solver.MAX_PRODUCT)
    assert len(net.nodes) == 1801
    assert "_numbering" not in vars(net) and "_lists" not in vars(net)
    assert net.is_acyclic and "_numbering" not in vars(net)
    net.topological_order()  # a structural query numbers the entries
    assert "_numbering" in vars(net)


def test_the_ratio_studys_largest_networks_are_solved_by_levels():
    # The ratio study's networks of 20 vertices, 421 entries, take the
    # levelled passes and the waves, and look up no node by id.
    net = mis_to_spn(random_graph(20, 50.0, spnmap.derive_seed(0, 20, 50.0, 0))).network
    assert len(net.nodes) == 421
    max_product(net)
    spnmap.argmax_product(net)
    assert "_numbering" not in vars(net) and "_lists" not in vars(net)
    assert "_waves" in vars(net) and "_entry" not in vars(net)


@pytest.fixture
def shapes(monkeypatch) -> dict:
    """An empty shape table for the test, in place of the process's."""
    table: dict = {}
    monkeypatch.setattr(network_module, "_SHAPES", table)
    return table


def ratio_network(n: int, rep: int) -> Network:
    """The ratio study's network of ``n`` vertices at 50% edges, repetition ``rep``."""
    return mis_to_spn(random_graph(n, 50.0, spnmap.derive_seed(0, n, 50.0, rep))).network


def bits(net: Network) -> list[str]:
    """Max-product, argmax-product and the marginal of ``{0: 1}`` on ``net``, in hex."""
    mp, am = max_product(net), spnmap.argmax_product(net)
    solved = [f"{sorted(r.configuration.items())} {r.value.log.hex()}" for r in (mp, am)]
    return [*solved, spnmap.evaluate_marginal(net, {0: 1}).log.hex()]


class TestShapeRecords:
    """Records fixed by a network's shape, built once and shared by the networks of that shape."""

    def test_networks_of_one_shape_share_their_records(self, shapes):
        small, other = ratio_network(5, 0), ratio_network(5, 1)  # 31 entries: the per-entry path
        for net in (small, other):
            max_product(net)
        assert small._numbering is other._numbering
        large, other = ratio_network(20, 0), ratio_network(20, 1)  # 421 entries: levels and waves
        for net in (large, other):
            spnmap.argmax_product(net)
        assert large._arrays is other._arrays
        assert large._plan.entries is other._plan.entries
        assert large._shape_waves is other._shape_waves
        assert len(shapes) == 2

    def test_each_network_weighs_its_plan_and_waves_with_its_own_parameters(self, shapes):
        nets = [ratio_network(20, rep) for rep in range(3)]
        for net in nets:
            spnmap.argmax_product(net)
        assert len(shapes) == 1
        roots = set()
        for net in nets:
            offset, log_table = net._tables.param_offset, net._compiled.log_table
            for plan in (net._plan, *net._waves):
                entries = plan.entries if isinstance(plan, network_module._Plan) else plan.entry
                for lo, hi, kids, weights, *_ in plan.groups:
                    if weights is not None:
                        at = offset[entries[lo:hi]][:, None] + np.arange(kids.shape[1])
                        assert np.array_equal(weights, log_table[at])
            roots.add(net._plan.groups[-1][3].tobytes())
        assert len(roots) == 3  # the root's weights differ from graph to graph

    def test_shared_records_give_the_bits_of_a_fresh_build(self, shapes):
        shared = []
        for n, rep in itertools.product((5, 10, 20), range(4)):
            net = ratio_network(n, rep)
            exact = spnmap.exact_map(net) if n == 5 else None
            shared.append((bits(net), exact))
        assert len(shapes) == 3
        for (n, rep), (expected, exact) in zip(itertools.product((5, 10, 20), range(4)), shared):
            shapes.clear()
            net = ratio_network(n, rep)
            assert bits(net) == expected
            if exact is not None:
                assert spnmap.exact_map(net) == exact
            assert len(shapes) == 1

    def test_shapes_that_differ_in_ids_root_or_a_cardinality_are_apart(self, shapes):
        nodes, two = mixture_nodes(), [Variable(0, 2), Variable(1, 2)]
        moved = {  # the same tables, every id 10 higher
            nid + 10: dataclasses.replace(n, children=tuple(c + 10 for c in n.children))
            if n.children
            else n
            for nid, n in nodes.items()
        }
        wider = {**nodes, 6: LeafNode(1, (0.3, 0.3, 0.4)), 7: LeafNode(1, (0.8, 0.1, 0.1))}
        nets = [
            Network(nodes, 0, two),
            Network(moved, 10, two),
            Network(nodes, 1, two),
            Network(wider, 0, [Variable(0, 2), Variable(1, 3)]),
            Network(nodes, 0, [*two, Variable(2, 2)]),  # a variable with no leaf: the same tables
            Network(nodes, 0, [*two, Variable(2, 3)]),
        ]
        for net in nets:
            net._plan
        assert len(shapes) == len(nets) == len({id(net._arrays) for net in nets})
        assert [net._plan.entries[net._plan.root] for net in nets] == [0, 0, 1, 0, 0, 0]
        assert [sorted(net.scope(net.root)) for net in nets[-2:]] == [[0, 1], [0, 1]]

    def test_cyclic_networks_of_one_table_name_their_own_nodes(self, shapes):
        # One root and one table; the walk starts from the other node, the lowest id.
        for other in (-1, -5, -(10**20)):
            nodes = {0: ProductNode((other,)), other: ProductNode((0,)), 1: LeafNode(0, (0.5, 0.5))}
            net = Network(nodes, 0, [Variable(0, 2)])
            assert validate(net)[-1] == Violation(other, "cycle", "node lies on a directed cycle")
            with pytest.raises(ValueError, match=f"^network contains a cycle through node {other}$"):
                net._compiled
        assert len(shapes) == 3

    def test_a_network_above_the_budget_stores_nothing(self, shapes, monkeypatch):
        monkeypatch.setattr(network_module, "_SHAPE_BUDGET", 420)
        expected = bits(ratio_network(20, 0))  # 421 entries
        assert not shapes
        monkeypatch.setattr(network_module, "_SHAPE_BUDGET", 421)
        assert bits(ratio_network(20, 0)) == expected and len(shapes) == 1

    def test_the_table_holds_the_shapes_used_last_within_its_budget(self, shapes, monkeypatch):
        monkeypatch.setattr(network_module, "_SHAPE_BUDGET", 600)
        random_spn(3, 3, seed=0)._arrays
        (kept,) = shapes
        for seed in range(1, 60):
            random_spn(1 + seed % 7, 1 + seed % 5, seed=seed)._arrays
            random_spn(3, 3, seed=0)._arrays  # its shape again, so the most recently used
            assert sum(len(key[0]) for key in shapes) <= 600
            assert list(shapes)[-1] == kept
        assert 1 < len(shapes) < 59

    def test_shared_records_are_read_only(self, shapes):
        net = ratio_network(20, 0)
        spnmap.argmax_product(net)
        small = ratio_network(5, 0)
        max_product(small)
        writes = [
            lambda: net._arrays.height.__setitem__(0, 7),
            lambda: net._plan.entries.__setitem__(0, 0),
            lambda: net._plan.fan.__setitem__(0, 0),
            lambda: net._plan.groups[0][2].__setitem__((0, 0), 0),
            lambda: net._waves[0].sums.__setitem__(0, 0),
            lambda: net._waves[0].groups[-1][2].__setitem__((0, 0), 0),
        ]
        for write in writes:
            with pytest.raises(ValueError, match="read-only"):
                write()
        assert type(small._numbering.order) is tuple and type(net._shape_plan.groups) is tuple
        with pytest.raises(TypeError):
            small._numbering.rank[0] = 1
