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
from .network import Network, _below, _Compiled, network_stats

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


def _max_pass(compiled: _Compiled, evidence: Mapping[int, int]) -> tuple[dict, dict]:
    """Max-product's upward pass: each sum keeps its best weighted child value.

    Free leaves take their most probable category.  The root value is
    ``LOG_ZERO`` exactly when the evidence has zero mass.  Also returns each
    sum's choice, by table entry: the index of its first child reaching the max.
    """
    variable, best = compiled.variable, compiled.best
    offset, log_list = compiled.offset, compiled.log_list
    vals = {
        e: log_list[offset[e] + evidence.get(var, best[e])]
        for e, var in enumerate(variable)
        if var >= 0
    }
    vals = _upward(compiled, vals, max)
    children = compiled.children
    choice: dict[int, int] = {}
    for e in compiled.internal:
        start, stop = offset[e], offset[e + 1]
        if start < stop:  # sums have weights, products none
            terms = [w + vals[kid] for w, kid in zip(log_list[start:stop], children[e])]
            choice[e] = terms.index(vals[e])
    return vals, choice


def _walk(
    compiled: _Compiled, evidence: Mapping[int, int], start: int, choice: Mapping[int, int]
) -> dict[int, int]:
    """Configuration of the tree that ``choice`` induces below table entry ``start``.

    Each leaf on the tree fixes its variable to the evidence or to its most
    probable category, unless a leaf visited earlier fixed it.
    """
    variable, best = compiled.variable, compiled.best
    config: dict[int, int] = {}
    for e in _below(compiled.children, start, choice):
        if (var := variable[e]) >= 0:
            config.setdefault(var, evidence.get(var, best[e]))
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
    compiled = network._compiled
    upward, choice = _max_pass(compiled, evidence)
    root = compiled.root
    bound = Probability(upward[root])
    if bound.is_zero:
        config = decode_configuration(network, evidence, 0)
        return MapResult(config, bound, Solver.MAX_PRODUCT, bound)
    config = {**evidence, **_walk(compiled, evidence, root, choice)}
    return MapResult(config, evaluate(network, config), Solver.MAX_PRODUCT, bound)


def argmax_product(
    network: Network, evidence: Mapping[int, int] | None = None
) -> MapResult:
    """Max-product's result, improved by choosing each sum's child by re-evaluation.

    Children first, each sum with several children evaluates itself at the
    configuration that each child's chosen tree induces, and chooses the first
    best child.  Choices are per sum, so a shared node contributes one
    consistent choice.  The configuration chosen from the root replaces
    max-product's unless it scores strictly lower, so the result is never
    worse.  Worst case quadratic in network size.
    """
    base = max_product(network, evidence)
    if base.pd_value.is_zero:
        return MapResult(base.configuration, base.value, Solver.ARGMAX_PRODUCT)
    evidence = dict(evidence or {})
    compiled = network._compiled
    offset = compiled.offset
    choice: dict[int, int] = {}
    for e in compiled.internal:  # children first, so their choices are made
        # A sum has one weight per child and a product none, so this skips
        # every node with no choice to make.
        if offset[e + 1] - offset[e] < 2:
            continue
        candidates = [_walk(compiled, evidence, kid, choice) for kid in compiled.children[e]]
        # Candidates of an incomplete sum (an invalid network) can miss scope
        # variables; those read category 0.
        scope = list(compiled.scopes[e])
        rows = np.array([[c.get(var, 0) for c in candidates] for var in scope], dtype=np.intp)
        choice[e] = int(np.argmax(_batch_upward(compiled, e, dict(zip(scope, rows)))))

    config = _walk(compiled, evidence, compiled.root, choice)
    value = base.value if config == base.configuration else evaluate(network, config)
    # With nested sums the candidate can score below max-product's configuration,
    # whose value feeds cross terms that the candidate pass never sees.
    if base.value.log > value.log:
        config, value = base.configuration, base.value
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


def approx_factor_bound(network: Network) -> DegreeBound:
    """Bound the worst-case max-product approximation factor by network size.

    The product of sum out-degrees satisfies
    ``log2(prod d_i) < 0.5284 * (nodes + arcs)``, where ``nodes + arcs`` is a
    lower bound on any reasonable encoding size; a network that breaks it
    raises ``RuntimeError``.
    """
    stats = network_stats(network)
    log2_product = sum(math.log2(d) for d in stats.sum_out_degrees)
    size = stats.node_count + network.arc_count
    bound = DEGREE_BOUND_EXPONENT * size
    if log2_product >= bound:
        raise RuntimeError(
            f"degree product 2**{log2_product} violates the size bound {bound}"
        )
    return DegreeBound(log2_product, size, bound)
