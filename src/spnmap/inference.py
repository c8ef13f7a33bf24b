"""Exact evaluation and marginal inference.

Every bottom-up pass is one loop, ``_upward``, over the compiled network.
Leaves whose variable is fixed contribute the probability of the fixed
category; leaves outside the evidence scope contribute 1, which turns the
same pass into marginal inference.  A batch form evaluates many total
assignments at once for exhaustive MAP and normalization checks.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .logspace import Probability, logsumexp, logsumexp_rows
from .network import Network, Variable, _below

#: Rows per batch when enumerating assignments.
_CHUNK_SIZE = 1 << 14

#: Enumeration refuses configuration spaces larger than this.
DEFAULT_ENUMERATION_CAP = 1 << 24


def check_evidence(network: Network, evidence: Mapping[int, int]) -> None:
    """Raise ``ValueError`` unless every pair names a variable and category."""
    n = len(network.variables)
    for var, cat in evidence.items():
        if not 0 <= var < n:
            raise ValueError(f"evidence names unknown variable {var}")
        if not 0 <= cat < network.cardinality(var):
            raise ValueError(
                f"evidence assigns category {cat} to variable {var} "
                f"of cardinality {network.cardinality(var)}"
            )


def check_assignment(network: Network, assignment: Mapping[int, int]) -> None:
    """Raise ``ValueError`` unless the assignment is total and in range."""
    check_evidence(network, assignment)
    for v in network.variables:
        if v.index not in assignment:
            raise ValueError(f"assignment is missing variable {v.index}")


def _upward(
    network: Network,
    vals: dict,
    reduce: Callable[[list], object],
    internal: Iterable[int] | None = None,
) -> dict:
    """Complete ``vals``, given leaf log values by compiled position.

    Visits the increasing positions ``internal`` (default: every sum and
    product).  A product adds its children's values; a sum passes its
    weighted child terms to ``reduce``: log-sum-exp to evaluate, ``max`` for
    max-product.  Values are floats for one assignment, rows for a batch.
    """
    compiled = network._compiled
    children, log_weights = compiled.children, compiled.log_weights
    for pos in compiled.internal if internal is None else internal:
        kids = children[pos]
        weights = log_weights[pos]
        if weights is None:
            acc = vals[kids[0]]
            for kid in kids[1:]:
                acc = acc + vals[kid]
            vals[pos] = acc
        else:
            vals[pos] = reduce([w + vals[kid] for w, kid in zip(weights, kids)])
    return vals


def _sum_pass(network: Network, evidence: Mapping[int, int]) -> dict[int, float]:
    """Log value at each position with unobserved leaves marginalized to 1."""
    compiled = network._compiled
    variable, offset, log_list = compiled.variable, compiled.offset, compiled.log_list
    vals = {
        pos: 0.0 if (cat := evidence.get(var)) is None else log_list[offset[pos] + cat]
        for pos, var in enumerate(variable)
        if var >= 0
    }
    return _upward(network, vals, logsumexp)


def log_evaluate(network: Network, assignment: Mapping[int, int]) -> float:
    check_assignment(network, assignment)
    return _sum_pass(network, assignment)[network._compiled.root]


def evaluate(network: Network, assignment: Mapping[int, int]) -> Probability:
    """Probability of a total assignment."""
    return Probability(log_evaluate(network, assignment))


def log_marginal(network: Network, evidence: Mapping[int, int] | None = None) -> float:
    evidence = evidence or {}
    check_evidence(network, evidence)
    return _sum_pass(network, evidence)[network._compiled.root]


def evaluate_marginal(
    network: Network, evidence: Mapping[int, int] | None = None
) -> Probability:
    """Probability of partial evidence; empty evidence gives 1."""
    return Probability(log_marginal(network, evidence))


def _batch_upward(network: Network, pos: int, columns) -> np.ndarray:
    """Log value of position ``pos`` for each row of a batch.

    ``columns[var]`` holds one category per row for each variable in the
    position's scope.  Only the position's sub-DAG is evaluated.
    """
    compiled = network._compiled
    variable, offset, log_table = compiled.variable, compiled.offset, compiled.log_table
    children = compiled.children
    sub_dag = _below(children, pos, {})
    vals = {
        p: log_table[offset[p] : offset[p + 1]][columns[variable[p]]]
        for p in sub_dag
        if not children[p]
    }
    internal = sorted(p for p in sub_dag if children[p])
    return _upward(network, vals, lambda terms: logsumexp_rows(np.stack(terms)), internal)[pos]


def batch_log_values(
    network: Network, node_id: int, categories: np.ndarray
) -> np.ndarray:
    """Log value of ``node_id`` for each row of a ``(k, n_vars)`` category matrix.

    Only columns for variables in the node's scope are read, and only the
    node's sub-DAG is evaluated.
    """
    categories = np.asarray(categories)
    if categories.ndim != 2 or categories.shape[1] != len(network.variables):
        raise ValueError("categories must have one column per network variable")
    columns = np.ascontiguousarray(categories.T)
    return _batch_upward(network, network._compiled.position[node_id], columns)


def free_variables(
    network: Network, evidence: Mapping[int, int] | None = None
) -> tuple[Variable, ...]:
    """Variables not fixed by the evidence, in index order."""
    evidence = evidence or {}
    return tuple(v for v in network.variables if v.index not in evidence)


def count_free_configurations(
    network: Network, evidence: Mapping[int, int] | None = None
) -> int:
    """Number of total assignments consistent with the evidence."""
    return math.prod(v.cardinality for v in free_variables(network, evidence))


def decode_configuration(
    network: Network, evidence: Mapping[int, int] | None, index: int
) -> dict[int, int]:
    """Total assignment at ``index`` in the lexicographic enumeration.

    Free variables are enumerated in ascending index order with the first
    free variable most significant, so index 0 is the lexicographically
    smallest assignment consistent with the evidence.
    """
    config = dict(evidence or {})
    stride = count_free_configurations(network, config)
    for var in free_variables(network, config):
        stride //= var.cardinality
        config[var.index] = (index // stride) % var.cardinality
    return config


def enumerate_log_values(
    network: Network, evidence: Mapping[int, int] | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start_index, log_values)`` over every assignment consistent with the evidence.

    Chunks follow ``decode_configuration``'s order; each builds one column of
    categories per variable.  Refuses more than ``DEFAULT_ENUMERATION_CAP``
    assignments.
    """
    evidence = dict(evidence or {})
    check_evidence(network, evidence)
    free = free_variables(network, evidence)
    total = count_free_configurations(network, evidence)
    if total > DEFAULT_ENUMERATION_CAP:
        raise ValueError(
            f"{total} configurations exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )
    root = network._compiled.root
    for start in range(0, total, _CHUNK_SIZE):
        idx = np.arange(start, min(start + _CHUNK_SIZE, total), dtype=np.int64)
        columns = {var: np.full(len(idx), cat, dtype=np.intp) for var, cat in evidence.items()}
        stride = total
        for var in free:
            stride //= var.cardinality
            columns[var.index] = (idx // stride) % var.cardinality
        yield start, _batch_upward(network, root, columns)


def log_partition(network: Network) -> float:
    """Log of the total mass summed over every total assignment.

    Refuses more assignments than ``DEFAULT_ENUMERATION_CAP``.
    """
    return logsumexp(
        float(logsumexp_rows(values[:, None])[0])
        for _, values in enumerate_log_values(network)
    )
