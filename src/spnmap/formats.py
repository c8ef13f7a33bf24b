"""Line-oriented text formats.

Network documents::

    # comment
    spn <node-count>
    node <id> sum
    node <id> prod
    node <id> leaf <var> <p0> <p1> ...
    edge <parent> <child> [weight]
    root <id>

The ``spn`` header comes first and must match the number of ``node`` lines.
Edges carry a weight exactly when the parent is a sum node, children keep
their edge-line order, and ``root`` defaults to node 0.  Graphs use a
``graph <n>`` header with 1-indexed ``edge <u> <v>`` lines; formulas use
DIMACS CNF.  Every parser reports 1-based line numbers and rejects trailing
garbage.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import Iterator, Sequence

import numpy as np

from .network import _LEAF, _PRODUCT, _SUM, Network, Variable, _csr, _Tables
from .reductions import CnfFormula, Graph


class ParseError(ValueError):
    """A syntax or consistency error at a specific input line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if tokens := raw.split("#", 1)[0].split():
            yield lineno, tokens


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"{what} must be an integer, got {token!r}") from None


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(lineno, f"{what} must be a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(lineno, f"{what} must be finite, got {token!r}")
    return value


def parse_spn(text: str) -> Network:
    """Parse a network document; structural semantics are left to ``validate``."""
    header_line = None
    declared_count = None
    entry: dict[int, int] = {}  # each declared id's entry in the tables, in line order
    ids: list[int] = []
    kinds: list[int] = []
    lines: list[int] = []  # each entry's declaration line
    variables: list[int] = []
    params: list[Sequence[float]] = []  # a leaf's probabilities; a sum's weights, by edge
    cards: dict[int, tuple[int, int]] = {}  # each variable's cardinality and first line
    edges: list[tuple[int, int, float | None, int]] = []
    root_id: int | None = None
    root_line: int | None = None

    for lineno, tokens in _content_lines(text):
        directive = tokens[0]
        if directive == "spn":
            if header_line is not None:
                raise ParseError(lineno, "duplicate spn header")
            if len(tokens) != 2:
                raise ParseError(lineno, "expected: spn <node-count>")
            declared_count = _parse_int(tokens[1], lineno, "node count")
            header_line = lineno
        elif directive == "node":
            if header_line is None:
                raise ParseError(lineno, "missing spn header")
            if len(tokens) < 3:
                raise ParseError(lineno, "expected: node <id> <kind> ...")
            nid = _parse_int(tokens[1], lineno, "node id")
            if nid in entry:
                raise ParseError(lineno, f"duplicate node id {nid}")
            kind = tokens[2]
            if kind in ("sum", "prod"):
                if len(tokens) != 3:
                    raise ParseError(lineno, f"unexpected tokens after {kind} node")
                kinds.append(_SUM if kind == "sum" else _PRODUCT)
                variables.append(-1)
                params.append(())
            elif kind == "leaf":
                if len(tokens) < 6:
                    raise ParseError(
                        lineno, "leaf needs a variable and at least two probabilities"
                    )
                var = _parse_int(tokens[3], lineno, "variable index")
                if var < 0:
                    raise ParseError(lineno, f"variable index must be nonnegative, got {var}")
                # A tuple, which the garbage collector stops tracking.
                probs = tuple([_parse_float(tok, lineno, "probability") for tok in tokens[4:]])
                card, first_line = cards.setdefault(var, (len(probs), lineno))
                if card != len(probs):
                    raise ParseError(
                        lineno,
                        f"leaf disagrees on the cardinality of variable {var} "
                        f"(line {first_line} says {card})",
                    )
                kinds.append(_LEAF)
                variables.append(var)
                params.append(probs)
            else:
                raise ParseError(lineno, f"unknown node kind {kind!r}")
            entry[nid] = len(ids)
            ids.append(nid)
            lines.append(lineno)
        elif directive == "edge":
            if header_line is None:
                raise ParseError(lineno, "missing spn header")
            if len(tokens) not in (3, 4):
                raise ParseError(lineno, "expected: edge <parent> <child> [weight]")
            parent = _parse_int(tokens[1], lineno, "parent id")
            child = _parse_int(tokens[2], lineno, "child id")
            weight = _parse_float(tokens[3], lineno, "weight") if len(tokens) == 4 else None
            edges.append((parent, child, weight, lineno))
        elif directive == "root":
            if header_line is None:
                raise ParseError(lineno, "missing spn header")
            if root_id is not None:
                raise ParseError(lineno, "duplicate root directive")
            if len(tokens) != 2:
                raise ParseError(lineno, "expected: root <id>")
            root_id = _parse_int(tokens[1], lineno, "root id")
            root_line = lineno
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")

    if header_line is None:
        raise ParseError(1, "missing spn header")
    if declared_count != len(ids):
        raise ParseError(
            header_line,
            f"header declares {declared_count} nodes, found {len(ids)}",
        )

    parents: list[int] = []  # each edge's parent and child entries, and its weight
    children: list[int] = []
    weights: list[float | None] = []
    for parent, child, weight, lineno in edges:
        if (p := entry.get(parent)) is None:
            raise ParseError(lineno, f"edge from undeclared node {parent}")
        if (c := entry.get(child)) is None:
            raise ParseError(lineno, f"edge to undeclared node {child}")
        if kinds[p] == _LEAF:
            raise ParseError(lineno, "leaf nodes cannot have children")
        if kinds[p] == _SUM:
            if weight is None:
                raise ParseError(lineno, "edges under a sum node require a weight")
        elif weight is not None:
            raise ParseError(lineno, "edges under a product node must not carry a weight")
        parents.append(p)
        children.append(c)
        weights.append(weight)
    # Stable, so each parent's edges keep their line order.
    by_parent = sorted(range(len(parents)), key=parents.__getitem__)
    child_offset = [0] * (len(ids) + 1)
    for p in parents:
        child_offset[p + 1] += 1

    for e, kind in enumerate(kinds):
        if kind != _LEAF and not child_offset[e + 1]:
            name = "sum" if kind == _SUM else "product"
            raise ParseError(lines[e], f"{name} node {ids[e]} has no children")

    if root_id is None:
        root_id = 0
    if root_id not in entry:
        raise ParseError(root_line or header_line, f"root {root_id} is not a declared node")
    if not cards or sorted(cards) != list(range(len(cards))):
        raise ParseError(header_line, "leaf variables must cover 0..n-1 with no gaps")

    child_offset = list(itertools.accumulate(child_offset))
    weights = list(map(weights.__getitem__, by_parent))
    for e in itertools.compress(range(len(ids)), map(_SUM.__eq__, kinds)):
        params[e] = weights[child_offset[e] : child_offset[e + 1]]
    child_index = list(map(children.__getitem__, by_parent))
    tables = _Tables(ids, kinds, child_offset, child_index, variables, *_csr(params))
    return Network._from_tables(
        tables, root_id, [Variable(var, cards[var][0]) for var in sorted(cards)]
    )


def serialize_spn(network: Network) -> str:
    """Render a network document that parses back to an equivalent network."""
    ids, kind, child_offset, child_index, variable, param_offset, params = network._tables
    # Format each distinct parameter, told apart by its bits, once.
    bits, which = np.unique(np.array(params, dtype=float).view(np.int64), return_inverse=True)
    texts = [format(p, ".17g") for p in bits.view(float).tolist()]
    formatted = list(map(texts.__getitem__, which.tolist()))
    kids = list(map(ids.__getitem__, child_index))
    lines = [f"spn {len(ids)}"]
    edges: list[str] = []
    for e in network._by_id:
        nid, row = ids[e], formatted[param_offset[e] : param_offset[e + 1]]
        if kind[e] == _LEAF:
            lines.append(f"node {nid} leaf {variable[e]} {' '.join(row)}")
            continue
        children = kids[child_offset[e] : child_offset[e + 1]]
        if kind[e] == _SUM:
            lines.append(f"node {nid} sum")
            edges += [f"edge {nid} {child} {w}" for child, w in zip(children, row)]
        else:
            lines.append(f"node {nid} prod")
            edges += [f"edge {nid} {child}" for child in children]
    return "\n".join([*lines, *edges, f"root {network.root}"]) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse a ``graph <n>`` document with 1-indexed ``edge <u> <v>`` lines.

    Duplicate edges collapse with a warning; self loops are errors.
    """
    n: int | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, tokens in _content_lines(text):
        directive = tokens[0]
        if directive == "graph":
            if n is not None:
                raise ParseError(lineno, "duplicate graph header")
            if len(tokens) != 2:
                raise ParseError(lineno, "expected: graph <n>")
            n = _parse_int(tokens[1], lineno, "vertex count")
            if n < 0:
                raise ParseError(lineno, f"vertex count must be nonnegative, got {n}")
        elif directive == "edge":
            if n is None:
                raise ParseError(lineno, "missing graph header")
            if len(tokens) != 3:
                raise ParseError(lineno, "expected: edge <u> <v>")
            u = _parse_int(tokens[1], lineno, "vertex")
            v = _parse_int(tokens[2], lineno, "vertex")
            if u == v:
                raise ParseError(lineno, f"self loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(lineno, f"edge ({u}, {v}) leaves the range 1..{n}")
            edge = (min(u, v) - 1, max(u, v) - 1)
            if edge in edges:
                warnings.warn(
                    f"line {lineno}: duplicate edge ({u}, {v}) collapsed", stacklevel=2
                )
            edges.add(edge)
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    if n is None:
        raise ParseError(1, "missing graph header")
    return Graph.from_edges(n, edges)


def serialize_graph(graph: Graph) -> str:
    lines = [f"graph {graph.n}"]
    for u, v in sorted(graph.edges):
        lines.append(f"edge {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """Parse DIMACS CNF; clauses must hold exactly three distinct variables."""
    n = m = None
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    last_line = 1
    for lineno, tokens in _content_lines_dimacs(text):
        last_line = lineno
        if tokens[0] == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError(lineno, "expected: p cnf <variables> <clauses>")
            n = _parse_int(tokens[2], lineno, "variable count")
            m = _parse_int(tokens[3], lineno, "clause count")
            if n < 1 or m < 1:
                raise ParseError(lineno, "variable and clause counts must be positive")
            continue
        if n is None:
            raise ParseError(lineno, "clause before the problem line")
        for token in tokens:
            literal = _parse_int(token, lineno, "literal")
            if len(clauses) == m:
                raise ParseError(lineno, f"more clauses than the declared {m}")
            if literal == 0:
                if len(current) != 3:
                    raise ParseError(
                        lineno, f"clause must have exactly 3 literals, got {len(current)}"
                    )
                clauses.append(tuple(current))
                current = []
                continue
            if abs(literal) > n:
                raise ParseError(lineno, f"literal {literal} exceeds variable count {n}")
            current.append(literal)
    if n is None:
        raise ParseError(1, "missing problem line")
    if current:
        raise ParseError(last_line, "unterminated clause at end of input")
    if len(clauses) != m:
        raise ParseError(last_line, f"expected {m} clauses, found {len(clauses)}")
    try:
        return CnfFormula(n, tuple(clauses))
    except ValueError as exc:
        raise ParseError(last_line, str(exc)) from None


def _content_lines_dimacs(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line.split()


def parse_evidence(text: str) -> dict[int, int]:
    """Parse ``index=value`` pairs separated by commas; empty input is empty evidence."""
    text = text.strip()
    if not text:
        return {}
    evidence: dict[int, int] = {}
    for item in text.split(","):
        item = item.strip()
        if "=" not in item:
            raise ParseError(1, f"expected index=value, got {item!r}")
        left, right = item.split("=", 1)
        var = _parse_int(left.strip(), 1, "variable index")
        cat = _parse_int(right.strip(), 1, "category")
        if var < 0:
            raise ParseError(1, f"variable index must be nonnegative, got {var}")
        if cat < 0:
            raise ParseError(1, f"category must be nonnegative, got {cat}")
        if var in evidence:
            raise ParseError(1, f"duplicate variable {var} in evidence")
        evidence[var] = cat
    return evidence
