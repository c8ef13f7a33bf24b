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
their edge-line order, and ``root`` defaults to node 0.  Lines end where
``str.splitlines`` ends them (``\r\n`` is one break; so are ``\r``,
``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, ``\x85``, ``\u2028`` and ``\u2029``),
tokens are separated as by ``str.split`` (any Unicode whitespace), and a
``#`` starts a comment that runs to the end of its line.  Ids, variables and
counts are read as ``int`` reads them, parameters as ``float`` does.  Graphs
use a ``graph <n>`` header with 1-indexed ``edge <u> <v>`` lines; formulas
use DIMACS CNF.  Every parser reports 1-based line numbers and rejects
trailing garbage.

``parse_spn`` reads a document in blocks of about 256K characters.  In each
block it finds every line's first token and token count with numpy over the
code points, and converts each numeric column in one call; the checks that
span lines, and the tables, are then built from whole columns.  An error is
the first line that fails a check and, on that line, the check the format
makes first; only that line's tokens are read again, for the message.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import re
import warnings
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from .network import _LEAF, _PRODUCT, _SUM, Network, Variable, _Tables
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


#: ``str.split``'s whitespace past ASCII, and the part of it where ``str.splitlines``
#: also breaks lines.  In ASCII they are 9-13 and 28-32, and 10-13 and 28-30.
_WIDE_SPACES = np.r_[0x85, 0xA0, 0x1680, 0x2000:0x200B, 0x2028, 0x2029, 0x202F, 0x205F, 0x3000]
_WIDE_BREAKS = np.array([0x85, 0x2028, 0x2029])
#: A comment, from ``#`` to the end of its line.
_COMMENT = re.compile("#[^\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029]*")
#: Characters per block of a network document's scan; a block then runs to the next ``\n``.
_BLOCK = 1 << 18

_SPN, _NODE, _EDGE, _ROOT, _OTHER = range(5)
_DIRECTIVES = {"spn": _SPN, "node": _NODE, "edge": _EDGE, "root": _ROOT}
_KINDS = {"leaf": _LEAF, "sum": _SUM, "prod": _PRODUCT}


def _content_rows(block: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """``block``'s tokens; per content line, the index of its first token, its
    token count and its line in the block; and the block's number of line breaks.
    """
    words = np.array(block.split(), dtype=object)
    if block.isascii():
        code = np.frombuffer(block.encode("ascii"), np.uint8)
    else:
        code = np.frombuffer(block.encode("utf-32-le", "surrogatepass"), np.uint32)
    space = ((code >= 9) & (code <= 13)) | ((code >= 28) & (code <= 32))
    ends = ((code >= 10) & (code <= 13)) | ((code >= 28) & (code <= 30))
    if code.dtype == np.uint32:
        space |= np.isin(code, _WIDE_SPACES)
        ends |= np.isin(code, _WIDE_BREAKS)
    if "\r\n" in block:
        ends[:-1] &= (code[:-1] != 13) | (code[1:] != 10)  # one break, at the "\n"
    starts = np.flatnonzero(space[:-1] > space[1:]) + 1  # each token after a space
    if code.size and not space[0]:
        starts = np.concatenate(([0], starts))
    line = np.flatnonzero(ends).searchsorted(starts)  # each token's line: breaks before it
    first = np.flatnonzero(np.diff(line, prepend=-1))
    return words, first, np.diff(first, append=len(words)), line[first], np.count_nonzero(ends)


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i], starts[i] + 1, ...``, ``lengths[i]`` of them, for each ``i`` in turn."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _numbers(tokens: np.ndarray, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """``tokens`` converted as ``int`` or ``float`` would, and which ones do not
    convert; those read as 0.  Integers past int64 stay Python ints, in an
    object array.
    """
    refused = np.zeros(len(tokens), bool)
    try:
        return tokens.astype(dtype), refused
    except (ValueError, OverflowError):
        values = []
    convert = int if dtype is np.int64 else float
    for k, token in enumerate(tokens.tolist()):
        try:
            values.append(convert(token))
        except ValueError:
            values.append(0)
            refused[k] = True
    return np.array(values, dtype=object if convert is int else float), refused


def _scan(text: str) -> tuple[SimpleNamespace, list[tuple[int, int, int]]]:
    """A network document's columns, read in blocks of about ``_BLOCK``
    characters; and each block's count of lines before it, and its span.

    ``line``, ``directive`` and ``count`` (of tokens) cover every content line.
    Each other column covers the rows of one directive with a token count that
    the directive allows: ``spn_*`` and ``root_*`` lines with two tokens,
    ``node_*`` lines with at least three, ``leaf_*`` those of them that are
    leaves with at least six, ``prob_*`` their probabilities (``size`` per
    leaf), ``edge_*`` lines with three or four tokens and ``weight_*`` those
    with four.  ``*_refused`` marks the numbers that did not convert.
    """
    columns: dict[str, list[np.ndarray]] = collections.defaultdict(list)
    blocks = []
    start = before = 0
    while True:
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        block = text[start:end]
        if "#" in block:
            block = _COMMENT.sub("", block)
        words, first, count, at, breaks = _content_rows(block)
        line = at + (before + 1)
        heads = map(_DIRECTIVES.get, words[first].tolist(), itertools.repeat(_OTHER))
        directive = np.fromiter(heads, np.int8, len(first))
        node = (directive == _NODE) & (count >= 3)
        kinds = map(_KINDS.get, words[first[node] + 2].tolist(), itertools.repeat(-1))
        kind = np.fromiter(kinds, np.int8, np.count_nonzero(node))
        leaf = node.copy()
        leaf[node] = (kind == _LEAF) & (count[node] >= 6)
        size = count[leaf] - 4
        prob = _ragged(first[leaf] + 4, size)
        edge = (directive == _EDGE) & ((count == 3) | (count == 4))
        weighted = edge & (count == 4)
        spn = (directive == _SPN) & (count == 2)
        root = (directive == _ROOT) & (count == 2)
        for name, value in (
            ("line", line),
            ("directive", directive),
            ("count", count),
            ("node_line", line[node]),
            ("node_count", count[node]),
            ("kind", kind),
            ("leaf_line", line[leaf]),
            ("size", size),
            ("edge_line", line[edge]),
            ("weighted", count[edge] == 4),
            ("weight_line", line[weighted]),
            ("spn_line", line[spn]),
            ("root_line", line[root]),
        ):
            columns[name].append(value)
        for name, dtype, index in (
            ("spn", np.int64, first[spn] + 1),
            ("root", np.int64, first[root] + 1),
            ("node_id", np.int64, first[node] + 1),
            ("leaf_var", np.int64, first[leaf] + 3),
            ("prob", float, prob),
            ("parent", np.int64, first[edge] + 1),
            ("child", np.int64, first[edge] + 2),
            ("weight", float, first[weighted] + 3),
        ):
            values, refused = _numbers(words[index], dtype)
            columns[name].append(values)
            columns[f"{name}_refused"].append(refused)
        blocks.append((before, start, end))
        before += breaks
        if end == len(text):
            break
        start = end
    # One column at a time, so that each one's blocks are freed as it is joined.
    return SimpleNamespace(**{k: np.concatenate(columns.pop(k)) for k in list(columns)}), blocks


class _FirstError:
    """The error a parse reports: the first line that fails a check and, on that
    line, the check made first.

    A check on a line reads only that line and earlier ones.  So a number that
    read as 0, or a row kept after it failed a check, can make a check fail only
    after the first error, or later on its line.
    """

    def __init__(self, text: str, blocks: list[tuple[int, int, int]]) -> None:
        self._text, self._blocks = text, blocks
        self._line: float = math.inf
        self._message: Callable[[list[str]], str] | None = None

    def check(self, lines: np.ndarray, failing: np.ndarray, message: str | Callable) -> None:
        """Note the first of ``lines`` where ``failing`` holds.

        ``message`` is the error's text, or makes it from the row and the
        line's tokens.
        """
        rows = np.flatnonzero(failing)
        if rows.size and lines[rows[0]] < self._line:
            self._line = int(lines[rows[0]])
            if isinstance(message, str):
                self._message = lambda tokens: message
            else:
                self._message = functools.partial(message, int(rows[0]))

    def raise_noted(self) -> None:
        """Raise the error noted, if any, reading its line's tokens again."""
        if self._message is None:
            return
        before, start, end = self._blocks[bisect.bisect_left(self._blocks, (self._line,)) - 1]
        raw = self._text[start:end].splitlines()[self._line - before - 1]
        raise ParseError(self._line, self._message(raw.split("#", 1)[0].split()))


def _number_error(what: str, refused: np.ndarray, token: Callable[[int], int]) -> Callable:
    """The message for a number that did not convert or is not finite."""

    def message(row: int, tokens: list[str]) -> str:
        problem = "a number" if refused[row] else "finite"
        return f"{what} must be {problem}, got {tokens[token(row)]!r}"

    return message


def parse_spn(text: str) -> Network:
    """Parse a network document; structural semantics are left to ``validate``."""
    c = _checked_columns(text)
    n = len(c.ids)
    degree = np.bincount(c.parent, minlength=n)
    # Stable, so each parent's edges keep their line order.
    by_parent = np.argsort(c.parent, kind="stable")
    child_offset = np.concatenate(([0], np.cumsum(degree)))
    leaves, sums = np.flatnonzero(c.kind == _LEAF), c.kind == _SUM
    param_size = np.zeros(n, np.intp)
    param_size[leaves] = c.size
    param_size[sums] = degree[sums]
    param_offset = np.concatenate(([0], np.cumsum(param_size)))
    params = np.empty(param_offset[-1])
    params[_ragged(param_offset[leaves], c.size)] = c.prob
    owner = c.parent[by_parent]
    slot = param_offset[owner] - child_offset[owner] + np.arange(len(owner))
    under_sum = c.kind[owner] == _SUM
    params[slot[under_sum]] = c.weight[by_parent][under_sum]
    variable = np.full(n, -1)
    variable[leaves] = c.var
    tables = _Tables(
        c.ids.tolist(), c.kind, child_offset, c.child[by_parent], variable, param_offset, params
    )
    return Network._from_tables(tables, c.root, list(map(Variable, itertools.count(), c.cards)))


def _checked_columns(text: str) -> SimpleNamespace:
    """A network document's nodes, edges and root, after every check.

    ``ids``, ``kind`` and ``var``, ``size`` and ``prob`` (per leaf, its
    variable, its probability count and, concatenated, its probabilities)
    follow the node lines.  ``parent``, ``child`` (as node rows) and
    ``weight`` (0 where there is none) follow the edge lines.  ``cards`` are
    the variables' cardinalities.  A ``ParseError`` names the first error.
    """
    c, blocks = _scan(text)
    error = _FirstError(text, blocks)
    header = _check_lines(c, error)
    error.raise_noted()
    ids, kind = c.node_id, c.kind
    n = len(ids)
    if header is None:
        raise ParseError(1, "missing spn header")
    if c.spn[0] != n:
        raise ParseError(header, f"header declares {c.spn[0]} nodes, found {n}")

    sorted_ids, by_id = np.unique(ids, return_index=True)  # the ids are distinct

    def rows(keys: np.ndarray) -> np.ndarray:
        """The node row of each id in ``keys``; -1 for an undeclared one."""
        at = sorted_ids.searchsorted(keys)
        found = at < n
        found[found] = sorted_ids[at[found]] == keys[found]
        out = np.full(len(keys), -1)
        out[found] = by_id[at[found]]
        return out

    parent, child = rows(c.parent), rows(c.child)
    parent_kind = np.append(kind, -1)[parent]
    error.check(c.edge_line, parent < 0, lambda i, t: f"edge from undeclared node {c.parent[i]}")
    error.check(c.edge_line, child < 0, lambda i, t: f"edge to undeclared node {c.child[i]}")
    error.check(c.edge_line, parent_kind == _LEAF, "leaf nodes cannot have children")
    error.check(
        c.edge_line,
        (parent_kind == _SUM) & ~c.weighted,
        "edges under a sum node require a weight",
    )
    error.check(
        c.edge_line,
        (parent_kind == _PRODUCT) & c.weighted,
        "edges under a product node must not carry a weight",
    )
    error.raise_noted()

    childless = (kind != _LEAF) & (np.bincount(parent, minlength=n) == 0)
    error.check(
        c.node_line,
        childless,
        lambda i, t: f"{'sum' if kind[i] == _SUM else 'product'} node {ids[i]} has no children",
    )
    error.raise_noted()

    root_id = c.root[0] if c.root.size else 0
    if rows(np.array([root_id]))[0] < 0:
        root_line = int(c.root_line[0]) if c.root.size else header
        raise ParseError(root_line, f"root {root_id} is not a declared node")
    variables, first_leaf = np.unique(c.leaf_var, return_index=True)
    if not variables.size or (variables != np.arange(len(variables))).any():
        raise ParseError(header, "leaf variables must cover 0..n-1 with no gaps")
    weight = np.zeros(len(parent))
    weight[c.weighted] = c.weight
    return SimpleNamespace(
        ids=ids,
        kind=kind,
        var=c.leaf_var,
        size=c.size,
        prob=c.prob,
        parent=parent,
        child=child,
        weight=weight,
        root=int(root_id),
        cards=c.size[first_leaf].tolist(),
    )


def _check_lines(c: SimpleNamespace, error: _FirstError) -> int | None:
    """Note the first error of the checks that read one line and the lines
    before it, each directive's in the order a line meets them; return the
    header's line, if there is one.
    """
    ids, kind, var, size = c.node_id, c.kind, c.leaf_var, c.size
    spn_lines = c.line[c.directive == _SPN]
    root_lines = c.line[c.directive == _ROOT]
    header = int(spn_lines[0]) if spn_lines.size else math.inf

    headed = np.isin(c.directive, (_NODE, _EDGE, _ROOT))
    error.check(c.line, headed & (c.line < header), "missing spn header")
    error.check(spn_lines, spn_lines > header, "duplicate spn header")
    error.check(spn_lines, c.count[c.directive == _SPN] != 2, "expected: spn <node-count>")
    error.check(
        c.spn_line, c.spn_refused, lambda i, t: f"node count must be an integer, got {t[1]!r}"
    )

    error.check(
        c.line, (c.directive == _NODE) & (c.count < 3), "expected: node <id> <kind> ..."
    )
    error.check(
        c.node_line, c.node_id_refused, lambda i, t: f"node id must be an integer, got {t[1]!r}"
    )
    _, first_id, id_row = np.unique(ids, return_index=True, return_inverse=True)
    duplicate = first_id[id_row] != np.arange(len(ids))
    error.check(c.node_line, duplicate, lambda i, t: f"duplicate node id {ids[i]}")

    def bad_kind(row: int, tokens: list[str]) -> str:
        if kind[row] == _LEAF:
            return "leaf needs a variable and at least two probabilities"
        if kind[row] < 0:
            return f"unknown node kind {tokens[2]!r}"
        return f"unexpected tokens after {tokens[2]} node"

    short = np.where(kind == _LEAF, c.node_count < 6, c.node_count != 3)
    error.check(c.node_line, (kind < 0) | short, bad_kind)
    error.check(
        c.leaf_line,
        c.leaf_var_refused,
        lambda i, t: f"variable index must be an integer, got {t[3]!r}",
    )
    error.check(
        c.leaf_line, var < 0, lambda i, t: f"variable index must be nonnegative, got {var[i]}"
    )
    leaf_of = np.repeat(np.arange(len(size)), size)  # each probability's leaf row
    prob_offset = np.cumsum(size) - size
    error.check(
        c.leaf_line[leaf_of],
        c.prob_refused | ~np.isfinite(c.prob),
        _number_error("probability", c.prob_refused, lambda k: 4 + k - prob_offset[leaf_of[k]]),
    )
    _, first_var, var_row = np.unique(var, return_index=True, return_inverse=True)
    first = first_var[var_row]  # each leaf's first leaf with its variable
    error.check(
        c.leaf_line,
        size != size[first],
        lambda i, t: (
            f"leaf disagrees on the cardinality of variable {var[i]} "
            f"(line {c.leaf_line[first[i]]} says {size[first[i]]})"
        ),
    )

    error.check(
        c.line,
        (c.directive == _EDGE) & (c.count != 3) & (c.count != 4),
        "expected: edge <parent> <child> [weight]",
    )
    error.check(
        c.edge_line, c.parent_refused, lambda i, t: f"parent id must be an integer, got {t[1]!r}"
    )
    error.check(
        c.edge_line, c.child_refused, lambda i, t: f"child id must be an integer, got {t[2]!r}"
    )
    error.check(
        c.weight_line,
        c.weight_refused | ~np.isfinite(c.weight),
        _number_error("weight", c.weight_refused, lambda i: 3),
    )

    error.check(root_lines, root_lines > root_lines[:1], "duplicate root directive")
    error.check(root_lines, c.count[c.directive == _ROOT] != 2, "expected: root <id>")
    error.check(
        c.root_line, c.root_refused, lambda i, t: f"root id must be an integer, got {t[1]!r}"
    )
    error.check(c.line, c.directive == _OTHER, lambda i, t: f"unknown directive {t[0]!r}")
    return None if header == math.inf else header


def _filled(forms: np.ndarray, fields: np.ndarray) -> str:
    """The lines ``forms``, their ``%s`` filled in from ``fields`` in turn."""
    return "".join(forms.tolist()) % tuple(fields)


def serialize_spn(network: Network) -> str:
    """Render a network document that parses back to an equivalent network."""
    t = network._tables
    # Format each distinct parameter, told apart by its bits, once.
    bits, which = np.unique(t.params.view(np.int64), return_inverse=True)
    texts = np.array([format(p, ".17g") for p in bits.view(float).tolist()], dtype=object)[which]
    ids = np.array(t.ids, dtype=object)
    # A line per node in id order, then a line per edge, by parent in id order.
    # Each line is a format, and ``%`` fills in each part's fields at once.
    nodes = _node_lines(t, network._by_id, ids, texts)
    edges = _edge_lines(t, network._by_id, ids, texts)
    return f"spn {len(t.ids)}\n{nodes}{edges}root {network.root}\n"


def _node_lines(t: _Tables, entry: np.ndarray, ids: np.ndarray, texts: np.ndarray) -> str:
    """The node lines of ``entry``, the entries in id order."""
    kinds = t.kind[entry]
    leaf = kinds == _LEAF
    leaves = entry[leaf]
    size = np.diff(t.param_offset)[leaves]
    forms = np.empty(len(entry), dtype=object)
    forms[kinds == _SUM] = "node %s sum\n"
    forms[kinds == _PRODUCT] = "node %s prod\n"
    sizes = range(size.max(initial=0) + 1)
    forms[leaf] = np.array([f"node %s leaf %s{' %s' * k}\n" for k in sizes], dtype=object)[size]
    width = np.ones(len(entry), np.intp)
    width[leaf] += 1 + size
    at = np.cumsum(width) - width  # each line's first field
    fields = np.empty(width.sum(), dtype=object)
    fields[at] = ids[entry]
    fields[at[leaf] + 1] = t.variable[leaves]
    fields[_ragged(at[leaf] + 2, size)] = texts[_ragged(t.param_offset[leaves], size)]
    return _filled(forms, fields)


def _edge_lines(t: _Tables, entry: np.ndarray, ids: np.ndarray, texts: np.ndarray) -> str:
    """The edge lines of the parents ``entry``, in that order."""
    child_offset, param_offset = t.child_offset, t.param_offset
    degree = np.diff(child_offset)[entry]
    parent = np.repeat(entry, degree)
    slot = _ragged(child_offset[entry], degree)  # each edge's place in the child table
    weighted = t.kind[parent] == _SUM
    forms = np.array(["edge %s %s\n", "edge %s %s %s\n"], dtype=object)[weighted.view(np.int8)]
    at = 2 * np.arange(len(slot)) + np.cumsum(weighted) - weighted
    fields = np.empty(2 * len(slot) + np.count_nonzero(weighted), dtype=object)
    fields[at] = ids[parent]
    fields[at + 1] = ids[t.child_index[slot]]
    fields[at[weighted] + 2] = texts[(param_offset[parent] + slot - child_offset[parent])[weighted]]
    return _filled(forms, fields)


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
