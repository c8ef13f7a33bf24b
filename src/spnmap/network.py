"""Sum-product network structure: node types, validation, statistics.

A network is a rooted DAG whose internal nodes are weighted sums or products
and whose leaves are categorical distributions over single variables.  The
``Network`` container is immutable after construction; structural defects
(cycles, scope violations, bad weight totals) are reported by ``validate``
rather than raised, so that files under inspection can still be loaded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .logspace import LOG_ZERO

#: Sum weights whose total is within this distance of 1 are silently
#: renormalized at construction; larger deviations become violations.
WEIGHT_TOLERANCE = 1e-6

#: Leaf distributions must sum to 1 within this tolerance.
LEAF_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Variable:
    """A categorical variable identified by its position in the network."""

    index: int
    cardinality: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"variable index must be nonnegative, got {self.index}")
        if self.cardinality < 2:
            raise ValueError(
                f"variable {self.index} needs cardinality >= 2, got {self.cardinality}"
            )


@dataclass(frozen=True)
class LeafNode:
    """Categorical distribution over one variable."""

    variable: int
    distribution: tuple[float, ...]

    children: ClassVar[tuple[int, ...]] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "distribution", tuple(float(p) for p in self.distribution))
        if len(self.distribution) < 2:
            raise ValueError("leaf distribution needs at least two categories")


@dataclass(frozen=True)
class SumNode:
    """Weighted mixture of children that share a scope."""

    children: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(int(c) for c in self.children))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.children:
            raise ValueError("sum node needs at least one child")
        if len(self.children) != len(self.weights):
            raise ValueError(
                f"sum node has {len(self.children)} children but {len(self.weights)} weights"
            )


@dataclass(frozen=True)
class ProductNode:
    """Product of children over pairwise disjoint scopes."""

    children: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(int(c) for c in self.children))
        if not self.children:
            raise ValueError("product node needs at least one child")


Node = Union[LeafNode, SumNode, ProductNode]

#: A total map from variable index to category index.
Assignment = Mapping[int, int]

#: A partial map from variable index to category index.
Evidence = Mapping[int, int]


@dataclass(frozen=True)
class Violation:
    """One structural defect found by ``validate``."""

    node_id: int
    kind: str
    message: str


class _Compiled(NamedTuple):
    """A network indexed by position, children first.

    Log tables follow one rule, ``log p if p > 0 else LOG_ZERO``.  Position
    ``i``'s entries, a leaf's categories or a sum's weights, are
    ``log_table[offset[i]:offset[i + 1]]``.  A cyclic network is numbered
    too, skipping edges back to a node on the walk's path; its scopes are
    partial, and only ``validate`` and ``is_acyclic`` read its record.
    """

    order: tuple[int, ...]  # node id at each position
    position: dict[int, int]  # position of each node id
    root: int  # position of the root
    internal: list[int]  # positions of sums and products, increasing
    children: list[tuple[int, ...]]  # child positions; empty for leaves
    scopes: list[frozenset[int]]  # variables below each position
    log_weights: list[tuple[float, ...] | None]  # per sum; None elsewhere
    variable: list[int]  # per leaf; -1 elsewhere
    best: list[int]  # per leaf: most probable category, lowest on ties
    offset: list[int]
    log_table: np.ndarray
    log_list: list[float]  # ``log_table`` as Python floats, for scalar passes
    cycle: int | None  # id of the first node found on a cycle
    invalid: int | None  # id of the first node with a negative or non-finite parameter


class Network:
    """Immutable rooted DAG of sum, product, and leaf nodes.

    Parameters
    ----------
    nodes:
        Mapping from integer node id to node.  Child references must name
        ids present in the mapping.
    root:
        Id of the root node.
    variables:
        The variables of the network; indices must be exactly ``0..n-1``.

    Construction renormalizes sum weights that are within ``1e-6`` of a
    proper convex combination.  The nodes are numbered and tabulated on
    first use.  Cyclic graphs are constructible (so ``validate`` can report
    them) but refuse traversal-based queries.
    """

    def __init__(
        self,
        nodes: Mapping[int, Node],
        root: int,
        variables: Sequence[Variable],
    ) -> None:
        if not nodes:
            raise ValueError("network needs at least one node")
        store = {int(nid): node for nid, node in nodes.items()}
        if root not in store:
            raise ValueError(f"root id {root} is not a node")

        ordered_vars = tuple(sorted(variables, key=lambda v: v.index))
        if [v.index for v in ordered_vars] != list(range(len(ordered_vars))):
            raise ValueError("variable indices must be 0..n-1 with no gaps")
        if not ordered_vars:
            raise ValueError("network needs at least one variable")
        card = {v.index: v.cardinality for v in ordered_vars}

        for nid, node in store.items():
            for child in node.children:
                if child not in store:
                    raise ValueError(f"node {nid} references unknown child {child}")
            if isinstance(node, LeafNode):
                if node.variable not in card:
                    raise ValueError(f"leaf {nid} references unknown variable {node.variable}")
                if len(node.distribution) != card[node.variable]:
                    raise ValueError(
                        f"leaf {nid} has {len(node.distribution)} probabilities for "
                        f"variable {node.variable} of cardinality {card[node.variable]}"
                    )
            elif isinstance(node, SumNode):
                total = math.fsum(node.weights)
                if (
                    all(w >= 0 for w in node.weights)
                    and total != 1.0
                    and abs(total - 1.0) <= WEIGHT_TOLERANCE
                ):
                    weights = [w / total for w in node.weights]
                    # Step the largest weight by ulps until the total is exactly 1,
                    # so a network built from these weights (as by a serialize-parse
                    # round trip) keeps them.  A step moves the total by at most
                    # 2**-53, less than the span that rounds to 1, so it stops.
                    j = weights.index(max(weights))
                    while (total := math.fsum(weights)) != 1.0:
                        weights[j] = math.nextafter(weights[j], 2.0 if total < 1.0 else 0.0)
                    store[nid] = SumNode(node.children, tuple(weights))

        self._nodes = store
        self._root = int(root)
        self._variables = ordered_vars
        self._cardinalities = card
        self._record: _Compiled | None = None

    @property
    def nodes(self) -> dict[int, Node]:
        return self._nodes

    @property
    def root(self) -> int:
        return self._root

    @property
    def variables(self) -> tuple[Variable, ...]:
        return self._variables

    def cardinality(self, variable: int) -> int:
        return self._cardinalities[variable]

    @property
    def is_acyclic(self) -> bool:
        return self._numbering().cycle is None

    @property
    def arc_count(self) -> int:
        return sum(len(node.children) for node in self._nodes.values())

    def topological_order(self) -> tuple[int, ...]:
        """All node ids, children before parents."""
        return self._compiled.order

    def scope(self, node_id: int) -> frozenset[int]:
        """Variable indices reachable below ``node_id``."""
        if node_id not in self._nodes:
            raise KeyError(f"unknown node id {node_id}")
        compiled = self._compiled
        return compiled.scopes[compiled.position[node_id]]

    def _numbering(self) -> _Compiled:
        """Number the nodes children-first in one depth-first walk and tabulate them.

        The walk starts from each id not yet numbered, in increasing order.
        It skips each edge back to a node on its path and records the first
        such node as ``cycle``.  The record is built on first use and kept.
        """
        if self._record is not None:
            return self._record
        nodes = self._nodes
        position: dict = {}
        on_path: set[int] = set()
        cycle = None
        stack = [(None, iter(sorted(nodes)))]  # a bottom frame whose children are all ids
        while stack:
            nid, kids = stack[-1]
            child = next(kids, None)
            if child is None:
                stack.pop()
                on_path.discard(nid)
                position[nid] = len(position)
            elif child in on_path:
                if cycle is None:
                    cycle = child
            elif child not in position:
                on_path.add(child)
                stack.append((child, iter(nodes[child].children)))
        del position[None]  # the bottom frame finishes last

        order = tuple(position)  # numbering order: dicts keep insertion order
        children: list[tuple[int, ...]] = [()] * len(order)
        scopes: list[frozenset[int]] = [frozenset()] * len(order)
        singletons = [frozenset((v.index,)) for v in self._variables]
        log_weights: list[tuple[float, ...] | None] = [None] * len(order)
        variable = [-1] * len(order)
        best = [-1] * len(order)
        params: list[tuple[float, ...]] = []
        internal: list[int] = []
        for pos, nid in enumerate(order):
            node = nodes[nid]
            if isinstance(node, LeafNode):
                scopes[pos] = singletons[node.variable]
                variable[pos] = node.variable
                best[pos] = node.distribution.index(max(node.distribution))
                params.append(node.distribution)
                continue
            internal.append(pos)
            children[pos] = kids = tuple(map(position.__getitem__, node.children))
            scopes[pos] = frozenset().union(*map(scopes.__getitem__, kids))
            params.append(node.weights if isinstance(node, SumNode) else ())
        offset = [0, *itertools.accumulate(map(len, params))]
        flat = np.fromiter(itertools.chain.from_iterable(params), float, offset[-1])
        log_table = np.log(flat, out=np.full(flat.shape, LOG_ZERO), where=flat > 0)
        log_list = log_table.tolist()
        bad = np.flatnonzero((flat < 0) | ~np.isfinite(flat))
        invalid = order[np.searchsorted(offset, bad[0], "right") - 1] if len(bad) else None
        for pos in internal:
            if offset[pos] < offset[pos + 1]:  # sums have weights, products none
                log_weights[pos] = tuple(log_list[offset[pos] : offset[pos + 1]])
        self._record = _Compiled(
            order, position, position[self._root], internal, children, scopes,
            log_weights, variable, best, offset, log_table, log_list, cycle, invalid,
        )
        return self._record

    @property
    def _compiled(self) -> _Compiled:
        """The numbering that every pass reads; refuses cycles and invalid parameters."""
        record = self._numbering()
        if record.cycle is not None:
            raise ValueError(f"network contains a cycle through node {record.cycle}")
        if record.invalid is not None:
            raise ValueError(f"node {record.invalid} has a negative or non-finite parameter")
        return record

    @classmethod
    def from_nodes(cls, nodes: Mapping[int, Node], root: int) -> "Network":
        """Build a network inferring variables from the leaf distributions.

        Each variable's cardinality is that of its first leaf; the
        constructor rejects a leaf that disagrees.
        """
        cards: dict[int, int] = {}
        for node in nodes.values():
            if isinstance(node, LeafNode):
                cards.setdefault(node.variable, len(node.distribution))
        if not cards or sorted(cards) != list(range(len(cards))):
            raise ValueError("leaf variables must cover indices 0..n-1 with no gaps")
        variables = [Variable(i, cards[i]) for i in range(len(cards))]
        return cls(nodes, root, variables)


def _below(
    children: Sequence[tuple[int, ...]], start: int, choice: Mapping[int, int]
) -> dict[int, None]:
    """Positions reachable from ``start``, each once, in depth-first order.

    ``children`` holds each position's child positions.  A sum in ``choice``
    follows only its child of that index.
    """
    seen: dict[int, None] = {}
    stack = [start]
    while stack:
        pos = stack.pop()
        if pos not in seen:
            seen[pos] = None
            kids = children[pos]
            stack.extend((kids[choice[pos]],) if pos in choice else kids)
    return seen


def validate(network: Network) -> list[Violation]:
    """Report every structural defect; an empty list means the network is valid.

    Checks, in order: leaf distributions (nonnegative, unit total within
    ``1e-9``), sum weights (nonnegative, unit total within ``1e-6``),
    acyclicity, reachability from the root, completeness of sum nodes,
    decomposability of product nodes, and root scope coverage.
    """
    violations: list[Violation] = []
    nodes = network.nodes

    for nid in sorted(nodes):
        node = nodes[nid]
        if isinstance(node, LeafNode):
            if any(p < 0 for p in node.distribution):
                violations.append(Violation(nid, "distribution", "negative probability"))
            else:
                total = math.fsum(node.distribution)
                if not abs(total - 1.0) <= LEAF_TOLERANCE:  # NaN fails this test
                    violations.append(
                        Violation(nid, "distribution", f"probabilities sum to {total!r}")
                    )
        elif isinstance(node, SumNode):
            if any(w < 0 for w in node.weights):
                violations.append(Violation(nid, "normalization", "negative weight"))
            else:
                total = math.fsum(node.weights)
                if not abs(total - 1.0) <= WEIGHT_TOLERANCE:  # NaN fails this test
                    violations.append(
                        Violation(nid, "normalization", f"weights sum to {total!r}")
                    )

    record = network._numbering()
    position, children, scopes = record.position, record.children, record.scopes
    reachable = _below(children, record.root, {})
    for nid in sorted(nodes):
        if position[nid] not in reachable:
            violations.append(Violation(nid, "unreachable", "not reachable from the root"))

    if record.cycle is not None:
        violations.append(Violation(record.cycle, "cycle", "node lies on a directed cycle"))
        return violations

    for nid in sorted(nodes):
        node = nodes[nid]
        kids = children[position[nid]]
        if isinstance(node, SumNode):
            if len({scopes[kid] for kid in kids}) > 1:
                violations.append(
                    Violation(nid, "completeness", "children have differing scopes")
                )
        elif isinstance(node, ProductNode):
            seen: set[int] = set()
            for kid in kids:
                child_scope = scopes[kid]
                if seen & child_scope:
                    violations.append(
                        Violation(nid, "decomposability", "children share scope variables")
                    )
                    break
                seen |= child_scope
    all_vars = frozenset(v.index for v in network.variables)
    if scopes[record.root] != all_vars:
        violations.append(
            Violation(network.root, "scope", "root scope does not cover all variables")
        )
    return violations


@dataclass(frozen=True)
class NetworkStats:
    """Structural summary of a network."""

    node_count: int
    sum_count: int
    product_count: int
    leaf_count: int
    height: int
    sum_out_degrees: tuple[int, ...]


def network_stats(network: Network) -> NetworkStats:
    """Counts, height (arcs from root to deepest leaf), and sum out-degrees."""
    nodes = network.nodes
    sums = products = leaves = 0
    degrees: list[int] = []
    for nid in sorted(nodes):
        node = nodes[nid]
        if isinstance(node, SumNode):
            sums += 1
            degrees.append(len(node.children))
        elif isinstance(node, ProductNode):
            products += 1
        else:
            leaves += 1
    compiled = network._compiled
    heights: list[int] = []
    for kids in compiled.children:
        heights.append(1 + max(map(heights.__getitem__, kids)) if kids else 0)
    return NetworkStats(
        node_count=len(nodes),
        sum_count=sums,
        product_count=products,
        leaf_count=leaves,
        height=heights[compiled.root],
        sum_out_degrees=tuple(degrees),
    )
