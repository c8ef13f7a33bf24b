"""MAP solvers: max-product, argmax-product, and exhaustive search.

All three return a total configuration together with its exact probability,
so results are directly comparable.  Ties are broken deterministically:
sum nodes prefer the lowest child index, leaves the lowest category index,
and the exhaustive solver the first assignment in lexicographic order whose
computed log value is largest.  Assignments that tie exactly can differ in
the last bits of their computed values, so that is not always the smallest
exact maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

import numpy as np

from .inference import (
    _batch_upward,
    _upward,
    check_evidence,
    decode_configuration,
    enumerate_log_values,
    evaluate,
)
from .logspace import LOG_ZERO, Probability
from .network import Network, SumNode, _below

#: Exponent of the size-based bound on the product of sum out-degrees.
DEGREE_BOUND_EXPONENT = 0.5284


class Solver(Enum):
    """Which MAP algorithm produced a result."""

    MAX_PRODUCT = "max_product"
    ARGMAX_PRODUCT = "argmax_product"
    EXACT = "exact"


@dataclass(frozen=True)
class MapResult:
    """A configuration, its exact value, and the solver that found it.

    ``value`` is always the network evaluated at ``configuration``;
    ``pd_value`` is the max-product upward value, a lower bound on that
    solver's ``value``, and is set only by that solver.
    """

    configuration: dict[int, int]
    value: Probability
    solver: Solver
    pd_value: Probability | None = None


def _smallest_consistent(network: Network, evidence: Mapping[int, int]) -> dict[int, int]:
    return {v.index: evidence.get(v.index, 0) for v in network.variables}


def _max_pass(network: Network, evidence: Mapping[int, int]) -> tuple[dict, dict]:
    """Max-product's upward pass: each sum keeps its best weighted child value.

    Free leaves take their most probable category.  The root value is
    ``LOG_ZERO`` exactly when the evidence has zero mass.  Also returns each
    sum's choice, by position: the index of its first child reaching the max.
    """
    compiled = network._compiled
    variable, best = compiled.variable, compiled.best
    offset, log_list = compiled.offset, compiled.log_list
    vals = {
        pos: log_list[offset[pos] + evidence.get(var, best[pos])]
        for pos, var in enumerate(variable)
        if var >= 0
    }
    picks: list[int] = []

    def first_max(terms: list[float]) -> float:
        picks.append(terms.index(top := max(terms)))
        return top

    # ``_upward`` reduces the sums in increasing position order.
    vals = _upward(network, vals, first_max)
    sums = [pos for pos in compiled.internal if compiled.log_weights[pos] is not None]
    return vals, dict(zip(sums, picks))


def _walk(
    network: Network, evidence: Mapping[int, int], start: int, choice: Mapping[int, int]
) -> dict[int, int]:
    """Configuration of the tree that ``choice`` induces below position ``start``.

    Each leaf on the tree fixes its variable to the evidence or to its most
    probable category, unless a leaf visited earlier fixed it.
    """
    compiled = network._compiled
    variable, best = compiled.variable, compiled.best
    config: dict[int, int] = {}
    for pos in _below(compiled.children, start, choice):
        if (var := variable[pos]) >= 0:
            config.setdefault(var, evidence.get(var, best[pos]))
    return config


def max_product(
    network: Network, evidence: Mapping[int, int] | None = None
) -> MapResult:
    """Upward max-propagation followed by downward argmax selection.

    ``pd_value`` carries the upward value, the best single induced tree's
    weight.  It is a lower bound on the value of the selected configuration;
    times the product of sum out-degrees it bounds the optimum from above.
    Runs in time linear in the network size.
    """
    evidence = dict(evidence or {})
    check_evidence(network, evidence)
    upward, choice = _max_pass(network, evidence)
    root = network._compiled.root
    bound = Probability(upward[root])
    if bound.is_zero:
        config = _smallest_consistent(network, evidence)
        return MapResult(config, bound, Solver.MAX_PRODUCT, bound)
    config = {**evidence, **_walk(network, evidence, root, choice)}
    return MapResult(config, evaluate(network, config), Solver.MAX_PRODUCT, bound)


def argmax_product(
    network: Network, evidence: Mapping[int, int] | None = None
) -> MapResult:
    """Max-product with each sum's child chosen by re-evaluation.

    Children first, each sum with several children evaluates itself at the
    configuration that each child's chosen tree induces, and chooses the first
    best child.  Choices are per sum, so a shared node contributes one
    consistent choice.  The configuration chosen from the root is compared
    against max-product's and the better is returned (ties keep the former),
    so the result is never worse.  Worst case quadratic in network size.
    """
    evidence = dict(evidence or {})
    check_evidence(network, evidence)
    compiled = network._compiled
    upward, max_choice = _max_pass(network, evidence)
    if upward[compiled.root] == LOG_ZERO:
        config = _smallest_consistent(network, evidence)
        return MapResult(config, Probability(LOG_ZERO), Solver.ARGMAX_PRODUCT)

    choice = dict(max_choice)
    for pos in max_choice:  # increasing positions, so children come first
        kids = compiled.children[pos]
        if len(kids) < 2:
            continue
        candidates = [_walk(network, evidence, kid, choice) for kid in kids]
        # Candidates of an incomplete sum (an invalid network) can miss scope
        # variables; those read category 0.
        scope = list(compiled.scopes[pos])
        rows = np.array([[c.get(var, 0) for c in candidates] for var in scope], dtype=np.intp)
        choice[pos] = int(np.argmax(_batch_upward(network, pos, dict(zip(scope, rows)))))

    config = _walk(network, evidence, compiled.root, choice)
    value = evaluate(network, config)
    # With nested sums the greedy candidate can score below max-product's
    # configuration, whose value feeds cross terms the candidate pass never
    # sees; keeping the better of the two restores the dominance guarantee.
    fallback = {**evidence, **_walk(network, evidence, compiled.root, max_choice)}
    if fallback != config:
        fallback_value = evaluate(network, fallback)
        if fallback_value.log > value.log:
            config, value = fallback, fallback_value
    return MapResult(config, value, Solver.ARGMAX_PRODUCT)


def exact_map(network: Network, evidence: Mapping[int, int] | None = None) -> MapResult:
    """Exhaustive search over every assignment consistent with the evidence."""
    best_index, best_value = 0, LOG_ZERO
    for start, values in enumerate_log_values(network, evidence):
        j = int(np.argmax(values))
        if values[j] > best_value:
            best_index, best_value = start + j, float(values[j])
    config = decode_configuration(network, evidence, best_index)
    return MapResult(config, evaluate(network, config), Solver.EXACT)


def solve(
    network: Network,
    evidence: Mapping[int, int] | None,
    solver: Solver,
) -> MapResult:
    """Dispatch to the named solver."""
    if solver is Solver.MAX_PRODUCT:
        return max_product(network, evidence)
    if solver is Solver.ARGMAX_PRODUCT:
        return argmax_product(network, evidence)
    if solver is Solver.EXACT:
        return exact_map(network, evidence)
    raise ValueError(f"unknown solver {solver!r}")


def decision_map(
    network: Network,
    evidence: Mapping[int, int] | None,
    gamma: float | Fraction,
    solver: Solver = Solver.EXACT,
) -> bool:
    """Whether the solver's MAP value reaches the threshold ``gamma``.

    The comparison runs in log space, so thresholds below the smallest
    float, given as a ``Fraction``, are decided correctly.  It allows a
    relative slack of ``1e-9`` so thresholds that are met exactly are not
    rejected for rounding reasons.
    """
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    gamma = Fraction(gamma)
    log_gamma = math.log(gamma.numerator) - math.log(gamma.denominator) if gamma else LOG_ZERO
    result = solve(network, evidence, solver)
    return result.value.log >= log_gamma + math.log1p(-1e-9)


@dataclass(frozen=True)
class DegreeBound:
    """Product of sum out-degrees against the size-based exponent bound."""

    log2_degree_product: float
    size_lower_bound: int
    exponent_bound: float
    satisfied: bool


def approx_factor_bound(network: Network) -> DegreeBound:
    """Bound the worst-case max-product approximation factor by network size.

    The product of sum out-degrees satisfies
    ``log2(prod d_i) < 0.5284 * (nodes + arcs)`` whenever the network has at
    least one sum node; ``nodes + arcs`` is a lower bound on any reasonable
    encoding size.
    """
    degrees = [
        len(node.children)
        for node in network.nodes.values()
        if isinstance(node, SumNode)
    ]
    log2_product = sum(math.log2(d) for d in degrees)
    size = len(network.nodes) + network.arc_count
    bound = DEGREE_BOUND_EXPONENT * size
    satisfied = log2_product < bound
    if degrees and not satisfied:
        raise RuntimeError(
            f"degree product 2**{log2_product} violates the size bound {bound}"
        )
    return DegreeBound(log2_product, size, bound, satisfied)
