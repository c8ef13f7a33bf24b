"""Compile combinatorial problems into sum-product networks.

Maximum-independent-set instances become height-2 networks whose MAP value
is ``|largest independent set| / c`` for an exactly computed integer
normalizer ``c``; 3-CNF formulas become networks whose MAP value reaches a
rational threshold exactly when the formula is satisfiable.  ``amplify``
raises the MAP value to the q-th power by multiplying disjoint copies,
which widens the gap between exact and approximate solvers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .network import _LEAF, _PRODUCT, _SUM, Network, Variable, _ragged, _Tables


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) leaves the vertex range")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, frozenset(tuple(e) for e in edges))

    def neighbors(self, vertex: int) -> frozenset[int]:
        return frozenset(
            v if u == vertex else u for u, v in self.edges if vertex in (u, v)
        )


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF formula over variables ``1..n`` in signed-literal form."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("formula needs at least one variable")
        clauses = tuple(tuple(int(lit) for lit in clause) for clause in self.clauses)
        object.__setattr__(self, "clauses", clauses)
        for clause in clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} must have exactly 3 literals")
            variables = {abs(lit) for lit in clause}
            if 0 in variables:
                raise ValueError(f"clause {clause} contains literal 0")
            if len(variables) != 3:
                raise ValueError(f"clause {clause} repeats a variable")
            if max(variables) > self.n:
                raise ValueError(f"clause {clause} exceeds variable count {self.n}")


@dataclass(frozen=True)
class ReductionResult:
    """A compiled network with its exact rational normalizer and parameters."""

    network: Network
    normalizer: Fraction
    metadata: dict = field(default_factory=dict)


def _pinned_mixture(
    n: int, pins: list[dict[int, int]], weights: list[float]
) -> Network:
    """Root sum 0 mixing one product of ``n`` binary leaves per pin set.

    Each product takes the next free id and its leaves the ``n`` after it.
    Leaf ``j`` is certainly ``pins[k][j]`` where product ``k`` pins ``j``
    and uniform elsewhere.
    """
    k = len(pins)
    # Per pin set and variable, its leaf's row of ``rows``: pinned to 0 or 1, or uniform.
    rows = np.array([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)])
    codes = np.full((k, n), 2)
    product = np.repeat(np.arange(k), list(map(len, pins)))
    codes[product, [j for pin in pins for j in pin]] = [c for pin in pins for c in pin.values()]
    # Each node's entry in the tables is its id.  Row t of ``param_end`` is where
    # product t's parameters end (it has none), then where each of its leaves' do.
    param_end = k + 2 * n * np.arange(k)[:, None] + np.arange(0, 2 * n + 1, 2)
    variable = np.concatenate(([-1], np.tile(np.arange(-1, n), k)))
    tables = _Tables(
        list(range(len(variable))),
        np.concatenate(([_SUM], np.tile([_PRODUCT, *[_LEAF] * n], k)), dtype=np.int8),
        np.concatenate(([0, k], np.repeat(k + n * np.arange(1, k + 1), n + 1))),
        np.concatenate((np.arange(1, len(variable), n + 1), np.flatnonzero(variable >= 0))),
        variable,
        np.concatenate(([0, k], param_end.ravel())),
        np.concatenate((weights, rows[codes].ravel())),
    )
    return Network._from_tables(tables, 0, [Variable(j, 2) for j in range(n)])


def mis_to_spn(graph: Graph) -> ReductionResult:
    """Height-2 network whose MAP value is ``max independent set size / c``.

    Vertex ``i`` becomes a product of ``n`` binary leaves: certainly 1 at
    ``i``, certainly 0 at each neighbor, uniform elsewhere.  The root mixes
    the products with weights ``2**(n - deg(i) - 1) / c`` where ``c`` is the
    exact integer total.  Node count is ``n*n + n + 1``.
    """
    n = graph.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    pins = [{i: 1} for i in range(n)]
    for u, v in graph.edges:
        pins[u][v] = 0
        pins[v][u] = 0
    numerators = [2 ** (n - len(pin)) for pin in pins]
    c = sum(numerators)
    network = _pinned_mixture(n, pins, [numerator / c for numerator in numerators])
    return ReductionResult(network, Fraction(c), {"kind": "mis", "q": 1, "n": n})


def mis_decision_threshold(result: ReductionResult, v: int) -> Fraction:
    """Threshold whose reachability decides whether an independent set of size ``v`` exists.

    It is the exact ``Fraction`` ``v / c``: as a float it underflows to 0.0
    for large normalizers ``c``.  ``decision_map`` compares it in log space.
    """
    if v < 0:
        raise ValueError(f"set size must be nonnegative, got {v}")
    return Fraction(v) / result.normalizer


def cnf_to_spn(formula: CnfFormula) -> ReductionResult:
    """Network whose MAP value reaches ``2**(3 - n) / 7`` iff the formula is satisfiable.

    Each clause contributes seven products, one per satisfying assignment of
    its three variables; the products pin the clause variables and stay
    uniform elsewhere.  The root mixes all ``7 m`` products uniformly.  For
    an unsatisfiable formula the MAP value is at most ``(m - 1) / m`` times
    the threshold.
    """
    n = formula.n
    m = len(formula.clauses)
    if m < 1:
        raise ValueError("formula needs at least one clause")
    pins = []
    for clause in formula.clauses:
        literals = sorted(clause, key=abs)
        for bits in itertools.product((0, 1), repeat=3):
            if any(bit == (lit > 0) for lit, bit in zip(literals, bits)):
                pins.append({abs(lit) - 1: bit for lit, bit in zip(literals, bits)})
    network = _pinned_mixture(n, pins, [1.0 / (7 * m)] * len(pins))
    threshold = Fraction(8, 7 * 2**n)
    return ReductionResult(
        network, threshold, {"kind": "cnf", "q": 1, "m": m, "n": n}
    )


def amplification_q(m: int, s_prime: int, epsilon: float) -> int:
    """Number of copies needed to beat a ``2**(s**epsilon)`` approximation factor.

    ``m`` is the clause count, ``s_prime`` the size of a single-copy network,
    and ``epsilon`` the exponent in the target factor; the result is
    ``1 + floor((ln 2 * m * (s_prime + 2)**epsilon)**(1 / (1 - epsilon)))``.
    """
    if m < 1:
        raise ValueError(f"clause count must be positive, got {m}")
    if s_prime < 1:
        raise ValueError(f"single-copy size must be positive, got {s_prime}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    base = math.log(2.0) * m * (s_prime + 2) ** epsilon
    try:
        return 1 + math.floor(base ** (1.0 / (1.0 - epsilon)))
    except OverflowError:
        raise ValueError(f"epsilon {epsilon} needs more copies than a float can count")


def amplify(result: ReductionResult, q: int) -> ReductionResult:
    """Product of ``q`` disjoint copies; the MAP value becomes the q-th power.

    Copy ``t`` renames variable ``k`` to ``t * n + k``.  With ``q == 1`` the
    input is returned unchanged.
    """
    if q < 1:
        raise ValueError(f"copy count must be positive, got {q}")
    if q == 1:
        return result
    base = result.network
    tables, by_id = base._tables, base._by_id
    size, n = len(tables.ids), len(base.variables)
    rank = by_id.argsort()  # of each entry among the ids
    # One copy's rows in id order, with children as ranks.
    child_offset, param_offset = tables.child_offset, tables.param_offset
    fan = (child_offset[1:] - child_offset[:-1])[by_id]
    param_size = (param_offset[1:] - param_offset[:-1])[by_id]
    kids = rank[tables.child_index[_ragged(child_offset[by_id], fan)]]
    params = tables.params[_ragged(param_offset[by_id], param_size)]
    variable = tables.variable[by_id]
    # Entry 0 is the root product over the copies.  Copy t's entries follow
    # in id order from 1 + t * size, and each entry's id is its index.
    copy = np.arange(q)[:, None]
    first = 1 + copy * size
    amplified = _Tables(
        list(range(1 + q * size)),
        np.concatenate(([_PRODUCT], *[tables.kind[by_id]] * q), dtype=np.int8),
        np.concatenate(([0, q], (q + copy * len(kids) + fan.cumsum()).ravel())),
        np.concatenate((first[:, 0] + rank[tables.ids.index(base.root)], (first + kids).ravel())),
        np.concatenate(([-1], np.where(variable >= 0, variable + copy * n, -1).ravel())),
        np.concatenate(([0, 0], (copy * len(params) + param_size.cumsum()).ravel())),
        np.concatenate([params] * q),
    )
    variables = [
        Variable(t * n + v.index, v.cardinality)
        for t in range(q)
        for v in base.variables
    ]
    network = Network._from_tables(amplified, 0, variables)
    metadata = dict(result.metadata)
    metadata["q"] = metadata.get("q", 1) * q
    return ReductionResult(network, result.normalizer**q, metadata)
