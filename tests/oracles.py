"""Independent brute-force oracles for the test suite.

Everything here but the ``_by_entry`` and ``_by_sum`` oracles works in
linear-domain floats, or exact rationals (``exact_mass``), with plain
recursion and exhaustive enumeration, deliberately sharing no propagation
code with the package under test.
Those are the sum and max passes one entry at a time over the tables
(``_pass_by_entry``), a batch pass one entry at a time (``batch_by_entry``),
and argmax-product's per-sum loop, built from this module's tree walk
(``_tree_walk``) and that batch pass; they read the tables and the log table.
Their log-sum-exps (``logsumexp_in_order``, ``logsumexp_rows``), tree
walk, decode and assignment check are this module's own: from the package
it imports only data types and table constants.
The library's passes must match them bit for bit.  Every pass (the
levelled passes, the wave pass, the batch pass and enumeration) adds a
sum's exponentials as ``logsumexp_rows`` adds a column; for the
single-assignment oracles that is ``logsumexp_column``, which can differ in
the last bits from ``logsumexp_in_order``, their default.  ``validate_by_walk``
checks each node over its own depth-first walk's child lists and scope
sets; the array ``validate`` must report what it reports.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from spnmap import (
    CnfFormula,
    Graph,
    LeafNode,
    MapResult,
    Network,
    Node,
    Probability,
    ProductNode,
    Solver,
    SumNode,
    Variable,
    Violation,
)
from spnmap.network import LEAF_TOLERANCE, WEIGHT_TOLERANCE, _LEAF, _PRODUCT, _SUM


def logsumexp_in_order(values: list[float]) -> float:
    """log(sum(exp(v))) by ``math``, the exponentials added in order; ``-inf`` if all are."""
    peak = max(values)
    if peak == -math.inf:
        return peak
    total = 0.0
    for v in values:
        total += math.exp(v - peak)
    return peak + math.log(total)


def logsumexp_rows(rows: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each column of a ``(t, k)`` array by numpy; ``-inf`` columns stay so."""
    peak = rows.max(axis=0)
    out = np.full(rows.shape[1], -math.inf)
    finite = peak > -math.inf
    out[finite] = peak[finite] + np.log(np.exp(rows[:, finite] - peak[finite]).sum(axis=0))
    return out


def logsumexp_column(values: list[float]) -> float:
    """``logsumexp_rows`` of one column: a sum of the levelled passes, one assignment."""
    return float(logsumexp_rows(np.array(values)[:, None])[0])


def _best(network: Network, e: int) -> int:
    """Table entry ``e``'s most probable category, the lowest on ties; ``e`` is a leaf."""
    t = network._tables
    probs = t.params[t.param_offset[e] : t.param_offset[e + 1]].tolist()
    return probs.index(max(probs))


def _tree_walk(
    network: Network, evidence: Mapping[int, int], start: int, choice: Mapping[int, int]
) -> dict[int, int]:
    """The configuration of the tree that ``choice`` induces below table entry ``start``.

    Depth first, each node once, a product's children from the last to the
    first and a sum in ``choice`` to its child of that index; the first leaf
    of each variable that the walk meets fixes it, to the evidence or to its
    most probable category.
    """
    t = network._tables
    config: dict[int, int] = {}
    seen: set[int] = set()

    def visit(e: int) -> None:
        if e in seen:
            return
        seen.add(e)
        if (var := int(t.variable[e])) >= 0:
            if var not in config:
                config[var] = evidence[var] if var in evidence else _best(network, e)
            return
        kids = t.child_index[t.child_offset[e] : t.child_offset[e + 1]].tolist()
        for kid in [kids[choice[e]]] if e in choice else reversed(kids):
            visit(kid)

    visit(start)
    return config


def _check_total(network: Network, assignment: Mapping[int, int]) -> None:
    """Raise the package's ``ValueError`` if ``assignment`` misses a variable, naming the lowest.

    A walk's categories are the evidence's or a leaf's, so only a variable
    that no leaf on the tree holds can be wrong.
    """
    missing = [v.index for v in network.variables if v.index not in assignment]
    if missing:
        raise ValueError(f"assignment is missing variable {missing[0]}")


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


def exact_mass(network: Network) -> Fraction:
    """The network polynomial with every indicator at 1, in exact rationals.

    One pass by plain recursion, each node once: a leaf gives the exact sum
    of its float parameters, a product the product of its children's values
    and a sum its weighted children's.  For a complete, decomposable network
    whose leaves cover every variable, this is the exact total mass over
    every total assignment.
    """
    memo: dict[int, Fraction] = {}

    def mass(nid: int) -> Fraction:
        if nid not in memo:
            node = network.nodes[nid]
            if isinstance(node, LeafNode):
                memo[nid] = sum(map(Fraction, node.distribution))
            elif isinstance(node, ProductNode):
                memo[nid] = math.prod(mass(child) for child in node.children)
            else:
                memo[nid] = sum(Fraction(w) * mass(c) for w, c in zip(node.weights, node.children))
        return memo[nid]

    return mass(network.root)


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


def _children_first(network: Network) -> tuple[list[list[int]], list[int], int | None]:
    """Each entry's child entries, every sum and product entry children first, and a cycle.

    Plain recursion over the tables from each entry in increasing id order,
    each entry's children in order.  The third value is the id of the first
    node that the walk finds on a cycle, the first child it meets on its own
    path, or None; only without one is the order children first.
    """
    t = network._tables
    children = [
        t.child_index[start:stop].tolist()
        for start, stop in zip(t.child_offset[:-1].tolist(), t.child_offset[1:].tolist())
    ]
    order: list[int] = []
    seen: set[int] = set()
    path: set[int] = set()
    cycle = None

    def visit(e: int) -> None:
        nonlocal cycle
        if e in path:
            if cycle is None:
                cycle = t.ids[e]
        elif e not in seen:
            seen.add(e)
            path.add(e)
            for kid in children[e]:
                visit(kid)
            path.remove(e)
            if children[e]:
                order.append(e)

    for e in sorted(range(len(children)), key=t.ids.__getitem__):
        visit(e)
    return children, order, cycle


def _scopes(network: Network, children: list[list[int]], order: list[int]) -> list[frozenset[int]]:
    """Each entry's scope, built children first along ``order``; the network must be acyclic."""
    variable = network._tables.variable.tolist()
    scopes = [frozenset([var]) if var >= 0 else frozenset() for var in variable]
    for e in order:
        scopes[e] = frozenset().union(*(scopes[kid] for kid in children[e]))
    return scopes


def _pass_by_entry(network: Network, leaf_value, reduce) -> tuple[dict[int, float], list]:
    """Every entry's log value, one entry at a time, children first.

    ``leaf_value(entry, variable, logs)`` gives a leaf's value from its log row.  A
    product adds its children's values in order; a sum passes its weighted
    child terms, as a list, to ``reduce``.  Also returns the child lists.
    """
    t, log_table = network._tables, network._compiled.log_table
    children, order, _ = _children_first(network)
    logs = [
        log_table[start:stop].tolist()
        for start, stop in zip(t.param_offset[:-1].tolist(), t.param_offset[1:].tolist())
    ]
    vals = {
        e: leaf_value(e, var, logs[e]) for e, var in enumerate(t.variable.tolist()) if var >= 0
    }
    for e in order:
        if logs[e]:
            vals[e] = reduce([w + vals[kid] for w, kid in zip(logs[e], children[e])])
        else:
            acc = vals[children[e][0]]
            for kid in children[e][1:]:
                acc = acc + vals[kid]
            vals[e] = acc
    return vals, children


def sum_pass_by_entry(
    network: Network, evidence: Mapping[int, int], logsumexp=logsumexp_in_order
) -> float:
    """The root's log value with unobserved leaves at 1, one entry at a time.

    Each sum takes ``logsumexp`` of its weighted child terms.
    """
    vals, _ = _pass_by_entry(
        network,
        lambda e, var, logs: 0.0 if (cat := evidence.get(var)) is None else logs[cat],
        logsumexp,
    )
    return vals[network._compiled.root]


def max_pass_by_entry(
    network: Network, evidence: Mapping[int, int]
) -> tuple[float, dict[int, int]]:
    """Max-product's root value and each sum's choice, one entry at a time.

    Free leaves take their most probable category, the first on ties; each
    sum takes the ``max`` of its weighted child terms and chooses the first
    child whose term reaches it.
    """
    t, log_table = network._tables, network._compiled.log_table

    def leaf_value(e: int, var: int, logs: list[float]) -> float:
        return logs[evidence[var] if var in evidence else _best(network, e)]

    vals, children = _pass_by_entry(network, leaf_value, max)
    choice = {}
    for e in (t.kind == _SUM).nonzero()[0].tolist():
        weights = log_table[t.param_offset[e] : t.param_offset[e + 1]].tolist()
        terms = [w + vals[kid] for w, kid in zip(weights, children[e])]
        choice[e] = terms.index(vals[e])
    return vals[network._compiled.root], choice


def max_product_by_entry(
    network: Network, evidence: Mapping[int, int] | None = None, logsumexp=logsumexp_in_order
) -> MapResult:
    """Max-product with the per-entry passes.

    The configuration is ``max_pass_by_entry``'s tree, valued by
    ``sum_pass_by_entry`` with ``logsumexp``, or the first one when the
    evidence has no mass.
    """
    evidence = dict(evidence or {})
    compiled = network._compiled
    upward, choice = max_pass_by_entry(network, evidence)
    bound = Probability(upward)
    if bound.is_zero:
        config = next(all_assignments(network, evidence))  # the lexicographically first
        return MapResult(config, bound, Solver.MAX_PRODUCT, bound)
    config = {**evidence, **_tree_walk(network, evidence, compiled.root, choice)}
    _check_total(network, config)
    value = Probability(sum_pass_by_entry(network, config, logsumexp))
    return MapResult(config, value, Solver.MAX_PRODUCT, bound)


def batch_by_entry(network: Network, entry: int, columns: Mapping[int, np.ndarray]) -> np.ndarray:
    """Log value of table entry ``entry`` for each row of a batch, one entry at a time.

    ``columns[var]`` holds one category per row for each variable in the
    entry's scope.  Plain recursion over the tables: a leaf gathers its log
    row at its column, a product adds its children's rows in order, and a
    sum passes its weighted children's rows, stacked, to ``logsumexp_rows``.
    """
    t, log_table = network._tables, network._compiled.log_table
    memo: dict[int, np.ndarray] = {}

    def value(e: int) -> np.ndarray:
        if e not in memo:
            logs = log_table[t.param_offset[e] : t.param_offset[e + 1]]
            kids = t.child_index[t.child_offset[e] : t.child_offset[e + 1]].tolist()
            if t.variable[e] >= 0:
                memo[e] = logs[columns[int(t.variable[e])]]
            elif not len(logs):  # a product
                acc = value(kids[0])
                for kid in kids[1:]:
                    acc = acc + value(kid)
                memo[e] = acc
            else:
                memo[e] = logsumexp_rows(np.stack([w + value(k) for w, k in zip(logs, kids)]))
        return memo[e]

    return value(entry)


def scores_by_sum(network: Network, evidence: Mapping[int, int]) -> dict[int, np.ndarray]:
    """Each sum's log value at each child's candidate, one re-evaluation per sum.

    Children first, each sum with two or more children walks each child's
    chosen tree (``_tree_walk``), evaluates its own sub-DAG at those candidates
    (``batch_by_entry``, with category 0 for a scope variable a candidate
    misses) and chooses the first best child.
    """
    t = network._tables
    children, order, _ = _children_first(network)
    scopes = _scopes(network, children, order)
    scores: dict[int, np.ndarray] = {}
    choice: dict[int, int] = {}
    for e in order:
        if t.param_offset[e + 1] - t.param_offset[e] < 2:  # products and one-child sums
            continue
        candidates = [_tree_walk(network, evidence, kid, choice) for kid in children[e]]
        scope = list(scopes[e])
        rows = np.array([[c.get(var, 0) for c in candidates] for var in scope], dtype=np.intp)
        scores[e] = batch_by_entry(network, e, dict(zip(scope, rows)))
        choice[e] = int(np.argmax(scores[e]))
    return scores


def argmax_by_sum(
    network: Network, evidence: Mapping[int, int] | None = None, logsumexp=logsumexp_in_order
) -> MapResult:
    """Argmax-product with ``scores_by_sum``'s choices and the per-entry passes.

    The configuration chosen from the root replaces ``max_product_by_entry``'s
    unless it scores strictly lower; both are valued with ``logsumexp``.
    """
    base = max_product_by_entry(network, evidence, logsumexp)
    if base.pd_value.is_zero:
        return MapResult(base.configuration, base.value, Solver.ARGMAX_PRODUCT)
    evidence = dict(evidence or {})
    compiled = network._compiled
    choice = {e: int(np.argmax(v)) for e, v in scores_by_sum(network, evidence).items()}
    config = _tree_walk(network, evidence, compiled.root, choice)
    _check_total(network, config)
    value = Probability(sum_pass_by_entry(network, config, logsumexp))
    if base.value.log > value.log:
        config, value = base.configuration, base.value
    return MapResult(config, value, Solver.ARGMAX_PRODUCT)


def validate_by_walk(network: Network) -> list[Violation]:
    """``validate``'s report, checked one node at a time over this module's own walk.

    Parameter totals by ``math.fsum``, reachability by a stack over the
    child lists, the cycle that ``_children_first`` finds, and each sum's
    and product's rule on its children's scope sets, every check in
    increasing id order.
    """
    violations: list[Violation] = []
    ids, kind = network._tables.ids, network._tables.kind.tolist()
    param_offset, params = network._tables.param_offset.tolist(), network._tables.params.tolist()
    # Per kind: the check, one parameter, several, and the tolerance on their total.
    rules = {
        _LEAF: ("distribution", "probability", "probabilities", LEAF_TOLERANCE),
        _SUM: ("normalization", "weight", "weights", WEIGHT_TOLERANCE),
    }
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    for e in by_id:
        if kind[e] == _PRODUCT:
            continue
        check, one, several, tolerance = rules[kind[e]]
        row = params[param_offset[e] : param_offset[e + 1]]
        if any(p < 0 for p in row):
            violations.append(Violation(ids[e], check, f"negative {one}"))
            continue
        total = math.fsum(row)
        if not abs(total - 1.0) <= tolerance:  # NaN fails this test
            violations.append(Violation(ids[e], check, f"{several} sum to {total!r}"))

    children, order, cycle = _children_first(network)
    root = ids.index(network.root)
    reachable, stack = set(), [root]
    while stack:
        if (e := stack.pop()) not in reachable:
            reachable.add(e)
            stack.extend(children[e])
    for e in by_id:
        if e not in reachable:
            violations.append(Violation(ids[e], "unreachable", "not reachable from the root"))

    if cycle is not None:
        violations.append(Violation(cycle, "cycle", "node lies on a directed cycle"))
        return violations

    scopes = _scopes(network, children, order)

    for e in by_id:
        if kind[e] == _SUM:
            if len({scopes[kid] for kid in children[e]}) > 1:
                violations.append(
                    Violation(ids[e], "completeness", "children have differing scopes")
                )
        elif kind[e] == _PRODUCT:
            seen: set[int] = set()
            for kid in children[e]:
                if seen & scopes[kid]:
                    violations.append(
                        Violation(ids[e], "decomposability", "children share scope variables")
                    )
                    break
                seen |= scopes[kid]
    if scopes[root] != frozenset(v.index for v in network.variables):
        violations.append(
            Violation(network.root, "scope", "root scope does not cover all variables")
        )
    return violations


def amplified_nodes(network: Network, q: int) -> dict[int, Node]:
    """The nodes of ``q`` disjoint copies of ``network`` under product root 0, node by node.

    Copy ``t`` gives the node of rank ``r`` among the network's ids the id
    ``1 + t * size + r`` and renames variable ``k`` to ``t * n + k``.
    """
    base_ids = sorted(network.nodes)
    rank = {nid: r for r, nid in enumerate(base_ids)}
    size, n = len(base_ids), len(network.variables)
    nodes: dict[int, Node] = {}
    for t in range(q):
        first = 1 + t * size
        for nid in base_ids:
            node = network.nodes[nid]
            if isinstance(node, LeafNode):
                copy: Node = LeafNode(t * n + node.variable, node.distribution)
            elif isinstance(node, SumNode):
                copy = SumNode(tuple(first + rank[c] for c in node.children), node.weights)
            else:
                copy = ProductNode(tuple(first + rank[c] for c in node.children))
            nodes[first + rank[nid]] = copy
    nodes[0] = ProductNode(tuple(1 + t * size + rank[network.root] for t in range(q)))
    return nodes


def random_spn_by_nodes(variable_count: int, max_height: int, seed: int = 0) -> Network:
    """``random_spn`` as a dict of node objects, built through ``Network(nodes, ...)``.

    It makes the same ``random.Random(seed)`` calls in the same order, and
    numbers each node when it is made, after its children, so the library's
    tables must equal this network's bit for bit.
    """
    if variable_count < 1:
        raise ValueError("need at least one variable")
    if max_height < 0:
        raise ValueError("max height must be nonnegative")
    if variable_count > 1 and max_height < 1:
        raise ValueError(f"{variable_count} variables cannot fit under a height-0 network")
    rng = random.Random(seed)
    nodes: dict[int, Node] = {}

    def add(node: Node) -> int:
        nodes[len(nodes)] = node
        return len(nodes) - 1

    def make_leaf(var: int) -> int:
        p = rng.random()
        return add(LeafNode(var, (1.0 - p, p)))

    def mixture_weights(count: int) -> tuple[float, ...]:
        raw = [rng.random() + 0.05 for _ in range(count)]
        total = sum(raw)
        return tuple(w / total for w in raw)

    def partition(scope: tuple[int, ...]) -> list[tuple[int, ...]]:
        items = list(scope)
        rng.shuffle(items)
        k = rng.randint(2, min(3, len(items)))
        cuts = sorted(rng.sample(range(1, len(items)), k - 1))
        bounds = [0, *cuts, len(items)]
        return [tuple(items[a:b]) for a, b in zip(bounds, bounds[1:])]

    def generate(scope: tuple[int, ...], height: int) -> int:
        if len(scope) == 1:
            if height < 1 or rng.random() < 0.5:
                return make_leaf(scope[0])
            fanout = rng.randint(2, 3)
            children = tuple(generate(scope, height - 1) for _ in range(fanout))
            return add(SumNode(children, mixture_weights(fanout)))
        if height == 1:
            return add(ProductNode(tuple(generate((v,), 0) for v in scope)))
        if rng.random() < 0.5:
            return add(ProductNode(tuple(generate(p, height - 1) for p in partition(scope))))
        fanout = rng.randint(2, 3)
        children = tuple(generate(scope, height - 1) for _ in range(fanout))
        return add(SumNode(children, mixture_weights(fanout)))

    root = generate(tuple(range(variable_count)), max_height)
    return Network(nodes, root, [Variable(i, 2) for i in range(variable_count)])


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
