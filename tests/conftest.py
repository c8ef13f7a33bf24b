"""Shared fixtures: a small golden mixture network and tiny problem instances."""

from __future__ import annotations

from dataclasses import replace

import pytest

from spnmap import (
    CnfFormula,
    Graph,
    LeafNode,
    Network,
    Node,
    ProductNode,
    SumNode,
)


def mixture_nodes() -> dict[int, Node]:
    """Three-component mixture over two binary variables with shared leaves."""
    return {
        0: SumNode((1, 2, 3), (0.2, 0.5, 0.3)),
        1: ProductNode((4, 6)),
        2: ProductNode((4, 7)),
        3: ProductNode((5, 7)),
        4: LeafNode(0, (0.6, 0.4)),
        5: LeafNode(0, (0.1, 0.9)),
        6: LeafNode(1, (0.3, 0.7)),
        7: LeafNode(1, (0.8, 0.2)),
    }


def shared_leaf_dag(tree: Network) -> Network:
    """``tree`` mixed at a new sum root with a product of one leaf per variable.

    Each leaf in that product is the tree's lowest-id leaf over its variable
    and gets a second parent, so the result is a DAG.
    """
    first: dict[int, int] = {}
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            first.setdefault(node.variable, nid)
    top = max(tree.nodes)
    nodes = dict(tree.nodes)
    nodes[top + 1] = ProductNode(tuple(first[v.index] for v in tree.variables))
    nodes[top + 2] = SumNode((tree.root, top + 1), (0.7, 0.3))
    return Network(nodes, top + 2, tree.variables)


def shared_sum_dag(tree: Network) -> Network:
    """``tree`` mixed at a new sum root with two products that share one sum.

    The shared sum mixes three new leaves over variable 0; max-product picks
    its first child (x0 = 1) and re-evaluation its second (x0 = 0).  Each
    product adds, for every other variable, the tree's lowest-id or
    highest-id leaf over it.
    """
    leaves: dict[int, list[int]] = {}
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            leaves.setdefault(node.variable, []).append(nid)
    rest = [v.index for v in tree.variables if v.index != 0]
    top = max(tree.nodes)
    nodes = dict(tree.nodes)
    nodes[top + 1] = LeafNode(0, (0.1, 0.9))
    nodes[top + 2] = LeafNode(0, (0.9, 0.1))
    nodes[top + 3] = LeafNode(0, (0.8, 0.2))
    nodes[top + 4] = SumNode((top + 1, top + 2, top + 3), (0.4, 0.3, 0.3))
    nodes[top + 5] = ProductNode((top + 4, *(leaves[v][0] for v in rest)))
    nodes[top + 6] = ProductNode((top + 4, *(leaves[v][-1] for v in rest)))
    nodes[top + 7] = SumNode((tree.root, top + 5, top + 6), (0.5, 0.3, 0.2))
    return Network(nodes, top + 7, tree.variables)


def single_child_sum(dag: Network) -> Network:
    """``dag`` with a one-child sum of weight 1 above the root's first child."""
    top = max(dag.nodes)
    root = dag.nodes[dag.root]
    nodes = dict(dag.nodes)
    nodes[top + 1] = SumNode(root.children[:1], (1.0,))
    nodes[dag.root] = replace(root, children=(top + 1, *root.children[1:]))
    return Network(nodes, dag.root, dag.variables)


@pytest.fixture
def mixture_net() -> Network:
    """Golden 8-node network: S(1,0) = 0.4, S(X1=0) = 0.7, Σ_x S(x) = 1."""
    return Network.from_nodes(mixture_nodes(), 0)


@pytest.fixture
def diamond_graph() -> Graph:
    """Four vertices, five edges; the maximum independent set has size 2."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


@pytest.fixture
def two_clause_formula() -> CnfFormula:
    """Satisfiable 3-CNF with 4 variables and 2 clauses."""
    return CnfFormula(4, ((-1, 2, -3), (-1, 3, 4)))
