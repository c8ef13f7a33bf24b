"""Independent brute-force oracles for the test suite.

Everything here works in linear-domain floats with plain recursion and
exhaustive enumeration, deliberately sharing no propagation code with the
package under test.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Mapping

from spnmap import CnfFormula, Graph, LeafNode, Network, ProductNode


def brute_value(
    network: Network, assignment: Mapping[int, int], node_id: int | None = None
) -> float:
    """Linear-domain recursive evaluation of a node (default: the root).

    ``assignment`` must cover the node's scope.
    """
    memo: dict[int, float] = {}

    def value(nid: int) -> float:
        if nid in memo:
            return memo[nid]
        node = network.nodes[nid]
        if isinstance(node, LeafNode):
            result = node.distribution[assignment[node.variable]]
        elif isinstance(node, ProductNode):
            result = 1.0
            for child in node.children:
                result *= value(child)
        else:
            result = math.fsum(
                w * value(child) for w, child in zip(node.weights, node.children)
            )
        memo[nid] = result
        return result

    return value(network.root if node_id is None else node_id)


def below(network: Network, node_id: int) -> set[int]:
    """Ids of ``node_id`` and every node under it, by plain recursion."""
    ids = {node_id}
    for child in network.nodes[node_id].children:
        ids |= below(network, child)
    return ids


def all_assignments(
    network: Network, evidence: Mapping[int, int] | None = None
) -> Iterator[dict[int, int]]:
    """Every total assignment consistent with the evidence, lexicographically.

    Free variables vary in ascending index order with the first free
    variable most significant, matching the engine's enumeration order.
    """
    evidence = dict(evidence or {})
    free = [v for v in network.variables if v.index not in evidence]
    for combo in itertools.product(*(range(v.cardinality) for v in free)):
        assignment = dict(evidence)
        assignment.update({v.index: cat for v, cat in zip(free, combo)})
        yield assignment


def brute_marginal(network: Network, evidence: Mapping[int, int] | None = None) -> float:
    """Sum of ``brute_value`` over every assignment consistent with the evidence."""
    return math.fsum(brute_value(network, a) for a in all_assignments(network, evidence))


def brute_map(
    network: Network, evidence: Mapping[int, int] | None = None
) -> tuple[dict[int, int], float]:
    """Exhaustive argmax keeping the lexicographically first maximizer."""
    best_assignment: dict[int, int] | None = None
    best_value = -1.0
    for assignment in all_assignments(network, evidence):
        v = brute_value(network, assignment)
        if best_assignment is None or v > best_value:
            best_assignment = assignment
            best_value = v
    assert best_assignment is not None
    return best_assignment, best_value


def argmax_candidate(
    network: Network, evidence: Mapping[int, int] | None = None
) -> dict[int, int]:
    """Argmax-product's configuration by plain recursion, before its fallback.

    Each node gets one candidate over its scope: a leaf the evidence or its
    most probable category (lowest on ties), a product the union of its
    children's candidates, and a sum the candidate of its first child that
    gives the sum its largest value.  Valid networks only.
    """
    evidence = dict(evidence or {})
    memo: dict[int, dict[int, int]] = {}

    def candidate(nid: int) -> dict[int, int]:
        if nid not in memo:
            node = network.nodes[nid]
            if isinstance(node, LeafNode):
                best = node.distribution.index(max(node.distribution))
                memo[nid] = {node.variable: evidence.get(node.variable, best)}
            elif isinstance(node, ProductNode):
                memo[nid] = {k: v for child in node.children for k, v in candidate(child).items()}
            else:
                options = [candidate(child) for child in node.children]
                values = [brute_value(network, option, nid) for option in options]
                memo[nid] = options[values.index(max(values))]
        return memo[nid]

    return candidate(network.root)


def brute_mis_size(graph: Graph) -> int:
    """Maximum independent set size by enumerating all vertex subsets."""
    adjacency = [0] * graph.n
    for u, v in graph.edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    best = 0
    for subset in range(1 << graph.n):
        size = 0
        independent = True
        remaining = subset
        while remaining:
            vertex = (remaining & -remaining).bit_length() - 1
            if adjacency[vertex] & subset:
                independent = False
                break
            size += 1
            remaining &= remaining - 1
        if independent and size > best:
            best = size
    return best


def brute_sat(formula: CnfFormula) -> bool:
    """Whether any of the 2**n assignments satisfies every clause."""
    for bits in itertools.product((False, True), repeat=formula.n):
        if all(
            any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in formula.clauses
        ):
            return True
    return False
