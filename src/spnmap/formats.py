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

``parse_spn`` reads a document in blocks of about 256K characters, from each
block's code points: token bounds from the spaces, directives and node kinds
from their first bytes, and numbers by digit arithmetic on 8-byte windows
(``_values`` says which spellings).  Only the other numbers become strings,
converted by ``int`` or ``float`` in one call per column.  The checks that
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
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .network import _LEAF, _PRODUCT, _SUM, Network, Variable, _ragged, _Tables

if TYPE_CHECKING:  # imported by their parsers alone: parsing a network needs no reductions
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
#: Spaces around each block, so that the 8 characters from a token's start, or up to its
#: end, lie in the block.
_PAD = " " * 8

_SPN, _NODE, _EDGE, _ROOT, _OTHER = range(5)
_DIRECTIVES, _KINDS = ("spn", "node", "edge", "root"), ("leaf", "sum", "prod")  # in code order
_UNKNOWN_KIND = len(_KINDS)  # after _LEAF, _SUM and _PRODUCT
#: A token's key: its first characters, up to 5, as little-endian bytes, and their count in
#: bit 40 up.  Per count, the mask of those bytes and the count's bits.
_KEY_MASK = np.array([(1 << 8 * m) - 1 for m in range(6)], np.uint64)
_KEY_TAG = np.arange(6, dtype=np.uint64) << np.uint64(40)
#: Per count ``n`` of digits up to 8: the bytes of a window that hold them, and "0"s in the others.
_DIGIT_KEEP = np.array([(1 << 64) - (1 << 64 - 8 * n) for n in range(9)], np.uint64)
_DIGIT_FILL = np.array([0x3030303030303030 >> 8 * n for n in range(9)], np.uint64)
_HIGH = 0xF0F0F0F0F0F0F0F0
#: Powers of ten up to 10**19, and as floats, which hold them exactly, up to 10**18.
_POWERS = np.array([10**k for k in range(20)], np.uint64)
_POW10 = _POWERS[:19].astype(float)


def _tokens(
    block: str,
) -> tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """``block`` padded; its code points, past 255 read as 255; each token's start and end
    in it; per content line, its first token and its line in the block; and the block's
    number of line breaks.
    """
    padded = f"{_PAD}{block}{_PAD}"
    if padded.isascii():
        code = np.frombuffer(padded.encode("ascii"), np.uint8)
    else:
        code = np.frombuffer(padded.encode("utf-32-le", "surrogatepass"), np.uint32)
    space = ((code >= 9) & (code <= 13)) | ((code >= 28) & (code <= 32))
    ends = ((code >= 10) & (code <= 13)) | ((code >= 28) & (code <= 30))
    if code.dtype == np.uint32:
        space |= np.isin(code, _WIDE_SPACES)
        ends |= np.isin(code, _WIDE_BREAKS)
        code = np.minimum(code, 255).astype(np.uint8)
    if "\r\n" in block:
        ends[:-1] &= (code[:-1] != 13) | (code[1:] != 10)  # one break, at the "\n"
    bounds = (space[:-1] != space[1:]).nonzero()[0] + 1  # a start, then an end, per token
    starts, stops = bounds[::2], bounds[1::2]
    breaks = ends.nonzero()[0]
    after = starts.searchsorted(breaks)  # the token after each break
    first = np.zeros(len(starts) + 1, bool)
    first[after] = first[0] = True
    first = first[:-1].nonzero()[0]
    return padded, code, starts, stops, first, after.searchsorted(first, "right"), breaks.size


def _keywords(
    windows: np.ndarray, starts: np.ndarray, stops: np.ndarray, known: tuple[str, ...]
) -> np.ndarray:
    """Each token's place in ``known``, or ``len(known)``; ``windows`` as in ``_scan``."""
    width = np.minimum(stops - starts, 5)
    keys = windows[starts] & _KEY_MASK[width] | _KEY_TAG[width]
    place = np.full(len(keys), len(known), np.int8)
    for k, word in enumerate(known):
        place[keys == int.from_bytes(word.encode(), "little") | len(word) << 40] = k
    return place


def _digits(windows: np.ndarray, end: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, ...]:
    """The number that the ``length`` (0-19) characters before each ``end`` spell, and
    whether they are all decimal digits.  Eight at a time: their bytes as one ``uint64``,
    then three multiplies, each joining neighbouring groups of digits.
    """
    n = np.minimum(length, 8)
    w = windows[end - 8] & _DIGIT_KEEP[n] | _DIGIT_FILL[n]
    ok = (w & _HIGH | (w + 0x0606060606060606 & _HIGH) >> 4) == 0x3333333333333333
    w = (w & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    w = (w & 0x00FF00FF00FF00FF) * 6553601 >> 16
    w = (w & 0x0000FFFF0000FFFF) * 42949672960001 >> 32
    if (more := (length > 8).nonzero()[0]).size:
        high, high_ok = _digits(windows, end[more] - 8, length[more] - 8)
        w[more] += high * 100_000_000
        ok[more] &= high_ok
    return w, ok


def _values(
    code: np.ndarray,
    windows: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    index: np.ndarray,
    split: int,
) -> tuple[np.ndarray, ...]:
    """Tokens ``index`` as ``int`` and as ``float`` read them, where digit arithmetic can
    tell, and the places in ``index`` where it cannot, the first ``split`` read as ints
    and the others as floats.  An int is ``[+-]?[0-9]{1,18}``.  A float may also have
    one ``.``, and must be at most 2**53 without it: then one division by a power of ten,
    which a float holds exactly, rounds it as ``float`` does.
    """
    dots = (code == 46).nonzero()[0]
    holder = starts.searchsorted(dots, "right") - 1  # each dot's token
    point = np.bincount(holder, minlength=len(starts))[index]
    dot = np.zeros(len(starts), np.intp)
    dot[holder] = dots
    dot, starts, stops = dot[index], starts[index], stops[index]
    head = code[starts]
    negative = head == 45
    begin = starts + (negative | (head == 43))
    # The digits after a point, or all of them; then, in the same call, those before it.
    one = point == 1
    dotted = one.nonzero()[0]
    fraction = stops - np.where(one, dot + 1, begin)
    ends = np.concatenate((stops, dot[dotted]))
    lengths = np.minimum(np.concatenate((fraction, (dot - begin)[dotted])), 19)
    parts, parts_ok = _digits(windows, ends, lengths)
    mantissa, ok = parts[: len(index)], parts_ok[: len(index)]
    mantissa[dotted] += parts[len(index) :] * _POWERS[np.minimum(fraction[dotted], 19)]
    ok[dotted] &= parts_ok[len(index) :]
    ok &= (stops - begin - point >= 1) & (stops - begin - point <= 18)  # so within int64
    floats = mantissa / _POW10[np.where(ok & one, fraction, 0)]
    ok[:split] &= point[:split] == 0
    ok[split:] &= mantissa[split:] <= 1 << 53
    ints = mantissa.view(np.int64)
    np.negative(ints, out=ints, where=negative)
    np.negative(floats, out=floats, where=negative)
    return ints, floats, (~ok).nonzero()[0]


def _numbers(tokens: list[str], dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """``tokens`` converted as ``int`` or ``float`` would, and which ones do not
    convert; those read as 0.  Integers past int64 stay Python ints, in an
    object array.
    """
    refused = np.zeros(len(tokens), bool)
    try:
        return np.array(tokens, dtype=object).astype(dtype), refused
    except (ValueError, OverflowError):
        values = []
    convert = int if dtype is np.int64 else float
    for k, token in enumerate(tokens):
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
        padded, code, starts, stops, first, line, breaks = _tokens(block)
        count = np.concatenate((first[1:], [len(starts)])) - first
        line += before + 1
        windows = np.ndarray((code.size - 7,), np.uint64, code, 0, (1,))  # 8 bytes from each
        directive = _keywords(windows, starts[first], stops[first], _DIRECTIVES)
        node = (directive == _NODE) & (count >= 3)
        kind = _keywords(windows, starts[first[node] + 2], stops[first[node] + 2], _KINDS)
        leaf = node.copy()
        leaf[node] = (kind == _LEAF) & (count[node] >= 6)
        size = count[leaf] - 4
        edge = (directive == _EDGE) & ((count == 3) | (count == 4))
        weighted = edge & (count == 4)
        spn = (directive == _SPN) & (count == 2)
        root = (directive == _ROOT) & (count == 2)
        for name, value in dict(
            line=line, directive=directive, count=count, kind=kind, size=size,
            node_line=line[node], node_count=count[node], leaf_line=line[leaf],
            edge_line=line[edge], weighted=count[edge] == 4, weight_line=line[weighted],
            spn_line=line[spn], root_line=line[root],
        ).items():
            columns[name].append(value)
        # Every number in one pass: the integer columns, then the float ones.
        numbers = dict(
            spn=first[spn] + 1, root=first[root] + 1, node_id=first[node] + 1,
            leaf_var=first[leaf] + 3, parent=first[edge] + 1, child=first[edge] + 2,
            prob=_ragged(first[leaf] + 4, size), weight=first[weighted] + 3,
        )
        index = np.concatenate(list(numbers.values()))
        split = len(index) - len(numbers["prob"]) - len(numbers["weight"])
        ints, floats, slow = _values(code, windows, starts, stops, index, split)
        refused = np.zeros(len(index), bool)
        slow_at, at = slow.tolist(), 0
        for name, rows in numbers.items():
            stop = at + len(rows)
            values, dtype = (floats, float) if name in ("prob", "weight") else (ints, np.int64)
            values = values[at:stop].copy()  # a view would keep all the block's numbers
            # Only the tokens that digit arithmetic cannot read become strings.
            mine = slow[bisect.bisect_left(slow_at, at) : bisect.bisect_left(slow_at, stop)]
            if mine.size:
                bounds = zip(starts[index[mine]].tolist(), stops[index[mine]].tolist())
                converted, refused[mine] = _numbers([padded[i:j] for i, j in bounds], dtype)
                values = values.astype(converted.dtype, copy=False)
                values[mine - at] = converted
            columns[name].append(values)
            columns[f"{name}_refused"].append(refused[at:stop].copy())
            at = stop
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
        rows = failing.nonzero()[0]
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


def _number_error(
    what: str, token: int | Callable[[int], int], refused: np.ndarray | None = None
) -> Callable:
    """The message for an integer that did not convert, or, given which ones were
    ``refused``, for a float that did not convert or is not finite.
    """

    def message(row: int, tokens: list[str]) -> str:
        problem = "an integer" if refused is None else "a number" if refused[row] else "finite"
        at = token if isinstance(token, int) else token(row)
        return f"{what} must be {problem}, got {tokens[at]!r}"

    return message


def parse_spn(text: str) -> Network:
    """Parse a network document; structural semantics are left to ``validate``."""
    c = _checked_columns(text)
    n = len(c.ids)
    # Stable, so each parent's edges keep their line order.
    by_parent = c.parent.argsort(kind="stable")
    child_offset = np.concatenate(([0], c.degree.cumsum()))
    leaves, sums = (c.kind == _LEAF).nonzero()[0], c.kind == _SUM
    param_size = np.zeros(n, np.intp)
    param_size[leaves] = c.size
    param_size[sums] = c.degree[sums]
    param_offset = np.concatenate(([0], param_size.cumsum()))
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

    ``ids``, ``kind``, ``degree`` (child count) and ``var``, ``size`` and
    ``prob`` (per leaf, its variable, its probability count and,
    concatenated, its probabilities) follow the node lines.  ``parent``,
    ``child`` (as node rows) and ``weight`` (0 where there is none) follow
    the edge lines.  ``cards`` are the variables' cardinalities.  A
    ``ParseError`` names the first error.
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

    sorted_ids, by_id, _ = c.id_groups  # the ids are distinct
    keys = np.concatenate((c.parent, c.child))  # each edge's parent id, then each child id
    at = sorted_ids.searchsorted(keys)
    found = at < n
    found[found] = sorted_ids[at[found]] == keys[found]
    rows = np.full(len(keys), -1)  # the node row of each id; -1 for an undeclared one
    rows[found] = by_id[at[found]]
    parent, child = rows[: len(c.parent)], rows[len(c.parent) :]
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

    degree = np.bincount(parent, minlength=n)
    error.check(
        c.node_line,
        (kind != _LEAF) & (degree == 0),
        lambda i, t: f"{'sum' if kind[i] == _SUM else 'product'} node {ids[i]} has no children",
    )
    error.raise_noted()

    root_id = c.root[0] if c.root.size else 0
    at = sorted_ids.searchsorted(root_id)
    if at == n or sorted_ids[at] != root_id:
        root_line = int(c.root_line[0]) if c.root.size else header
        raise ParseError(root_line, f"root {root_id} is not a declared node")
    variables, first_leaf, _ = c.var_groups  # distinct, in order
    if not variables.size or variables[0] != 0 or variables[-1] != len(variables) - 1:
        raise ParseError(header, "leaf variables must cover 0..n-1 with no gaps")
    weight = np.zeros(len(parent))
    weight[c.weighted] = c.weight
    return SimpleNamespace(
        ids=ids,
        kind=kind,
        degree=degree,
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

    headed = (c.directive != _SPN) & (c.directive != _OTHER)
    error.check(c.line, headed & (c.line < header), "missing spn header")
    error.check(spn_lines, spn_lines > header, "duplicate spn header")
    error.check(spn_lines, c.count[c.directive == _SPN] != 2, "expected: spn <node-count>")
    error.check(c.spn_line, c.spn_refused, _number_error("node count", 1))

    error.check(
        c.line, (c.directive == _NODE) & (c.count < 3), "expected: node <id> <kind> ..."
    )
    error.check(c.node_line, c.node_id_refused, _number_error("node id", 1))
    c.id_groups = _, first_id, id_row = np.unique(ids, return_index=True, return_inverse=True)
    duplicate = first_id[id_row] != np.arange(len(ids))
    error.check(c.node_line, duplicate, lambda i, t: f"duplicate node id {ids[i]}")

    def bad_kind(row: int, tokens: list[str]) -> str:
        if kind[row] == _LEAF:
            return "leaf needs a variable and at least two probabilities"
        if kind[row] == _UNKNOWN_KIND:
            return f"unknown node kind {tokens[2]!r}"
        return f"unexpected tokens after {tokens[2]} node"

    short = np.where(kind == _LEAF, c.node_count < 6, c.node_count != 3)
    error.check(c.node_line, (kind == _UNKNOWN_KIND) | short, bad_kind)
    error.check(c.leaf_line, c.leaf_var_refused, _number_error("variable index", 3))
    error.check(
        c.leaf_line, var < 0, lambda i, t: f"variable index must be nonnegative, got {var[i]}"
    )
    ends = size.cumsum()  # past each leaf's probabilities

    def prob_token(k: int) -> int:
        leaf = ends.searchsorted(k, "right")
        return 4 + k - ends[leaf] + size[leaf]

    error.check(
        c.leaf_line.repeat(size),
        c.prob_refused | ~np.isfinite(c.prob),
        _number_error("probability", prob_token, c.prob_refused),
    )
    c.var_groups = _, first_var, var_row = np.unique(var, return_index=True, return_inverse=True)
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
    error.check(c.edge_line, c.parent_refused, _number_error("parent id", 1))
    error.check(c.edge_line, c.child_refused, _number_error("child id", 2))
    error.check(
        c.weight_line,
        c.weight_refused | ~np.isfinite(c.weight),
        _number_error("weight", 3, c.weight_refused),
    )

    error.check(root_lines, root_lines > root_lines[:1], "duplicate root directive")
    error.check(root_lines, c.count[c.directive == _ROOT] != 2, "expected: root <id>")
    error.check(c.root_line, c.root_refused, _number_error("root id", 1))
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
    from .reductions import Graph

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
    from .reductions import CnfFormula

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
