"""Sum-product network structure: node types, validation, statistics.

A network is a rooted DAG whose internal nodes are weighted sums or products
and whose leaves are categorical distributions over single variables.  The
``Network`` container is immutable after construction; structural defects
(cycles, scope violations, bad weight totals) are reported by ``validate``
rather than raised, so that files under inspection can still be loaded.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Union

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


#: Kinds of node in ``_Tables.kind``.
_LEAF, _SUM, _PRODUCT = 0, 1, 2


class _Tables(NamedTuple):
    """A network's nodes as flat tables, one entry per node in storage order.

    Entry ``i``'s children are the entries
    ``child_index[child_offset[i]:child_offset[i + 1]]`` in their stored
    order, and its parameters, a leaf's probabilities or a sum's weights,
    are ``params[param_offset[i]:param_offset[i + 1]]``.  Each column but
    ``ids`` is a numpy array of one dtype, which ``Network._adopt`` sets.
    """

    ids: list[int]  # node id of each entry, of any size
    kind: np.ndarray  # _LEAF, _SUM or _PRODUCT
    child_offset: np.ndarray
    child_index: np.ndarray
    variable: np.ndarray  # per leaf; -1 elsewhere
    param_offset: np.ndarray
    params: np.ndarray


class _Compiled(NamedTuple):
    """A network's parameter logs and leaf column, indexed by table entry: what every pass reads.

    Log tables follow one rule, ``log p if p > 0 else LOG_ZERO``.  Entry
    ``e``'s parameters, a leaf's categories or a sum's weights, have their
    logs at the tables' ``param_offset[e]:param_offset[e + 1]``; a product
    has none.  It is built with no walk, so it exists for a cyclic network.
    """

    root: int  # entry of the root
    best: np.ndarray  # per leaf: most probable category, lowest on ties; -1 elsewhere
    log_table: np.ndarray
    invalid: list[int]  # entries with a negative or non-finite parameter, once per parameter


class _Lists(NamedTuple):
    """The columns that per-entry Python code reads, as Python lists indexed by table entry."""

    child_offset: list[int]
    child_index: list[int]
    variable: list[int]
    param_offset: list[int]
    params: list[float]
    best: list[int]
    log_table: list[float]


class _Numbering(NamedTuple):
    """The entries in one depth-first walk, children first, with their child tuples and scopes.

    A cyclic network is numbered too, skipping edges back to a node on the
    walk's path; its scopes are partial.
    """

    order: tuple[int, ...]  # every entry, children first
    rank: tuple[int, ...]  # index of each entry in ``order``
    internal: tuple[int, ...]  # entries of sums and products, children first
    children: tuple[tuple[int, ...], ...]  # child entries; empty for leaves
    scopes: tuple[frozenset[int], ...]  # variables below each entry
    cycle: int | None  # id of the first node found on a cycle


class _Arrays(NamedTuple):
    """The heights and sharing of a network's entries, for the numpy checks and passes."""

    height: np.ndarray  # arcs on the longest path down to a leaf; -1 on or above a cycle
    shared: bool  # whether some entry is the child of two arcs


class _Plan(NamedTuple):
    """A network's entries in slots: the leaves in entry order, then the levels.

    A level, the sums or products of one height and fan-out, is one group
    of ``inference._groups_pass``, reading whole rows.
    """

    entries: np.ndarray  # per slot: its table entry
    leaves: int  # the leaf slots' count
    root: int  # the root's slot
    groups: Sequence[tuple]  # per level of one height, kind and fan-out, children first
    fan: np.ndarray  # per entry
    group: np.ndarray  # per entry: its level's key, 0 for leaves, higher for higher levels


class _Wave(NamedTuple):
    """Argmax-product's sums of one height and fan-out ``k``, with their sub-DAGs as pairs.

    Pair ``p`` is entry ``entry[p]`` below one of the sums, each pair once,
    with child pairs ``kid[kid_start[p]:kid_start[p] + fan]``.  Leaf pairs
    come first, each with its slot (a scope variable of its sum; slots are
    sorted by sum, then variable); then ``groups`` of one height, kind and
    fan-out, as ``inference._groups_pass`` takes them; the last group is the
    sums, in order.  A candidate's code is its categories on its sum's slots
    times ``digit``, on the ``coded`` sums.
    """

    sums: np.ndarray
    entry: np.ndarray
    kid: np.ndarray
    kid_start: np.ndarray
    slot: np.ndarray  # per leaf pair
    slot_sum: np.ndarray
    slot_var: np.ndarray
    slot_first: np.ndarray  # per sum and one more: its first slot
    digit: np.ndarray  # per slot
    coded: np.ndarray  # per sum
    groups: Sequence[tuple]


#: The most entries, in all, of the shapes whose records ``_SHAPES`` holds.  With no budget,
#: ``amplified_cnf`` kept its x400 network's records (90001 entries) between operations and
#: its peak RSS rose 14-16%; at 2**14 it read +0.4% (numpy 2.4.6, 2-core Xeon host).
_SHAPE_BUDGET = 1 << 14

#: The records of each shape held (``Network._shape``), the least recently used first.  A
#: shape is every table column but ``params``, the root and the cardinalities; ids by value.
_SHAPES: dict[tuple, dict[str, tuple]] = {}


def _per_shape(build: Callable[[Network], tuple]) -> functools.cached_property:
    """A cached property whose record ``build`` makes once per shape (``_SHAPES``), read-only."""
    def get(network: Network) -> tuple:
        if (record := network._shape.get(build.__name__)) is None:
            record = network._shape[build.__name__] = _read_only(build(network))
        return record
    return functools.cached_property(functools.update_wrapper(get, build))


def _read_only(record: tuple) -> tuple:
    """``record``, or each of a tuple of records, with lists as tuples and arrays read-only."""
    if not hasattr(record, "_fields"):
        return tuple(map(_read_only, record))
    fields = [tuple(value) if isinstance(value, list) else value for value in record]
    for array in itertools.chain(fields, *getattr(record, "groups", ())):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return type(record)(*fields)


def _weighed(record: _Plan | _Wave, log_table: np.ndarray) -> _Plan | _Wave:
    """A shape's plan or wave with its sums' weight positions replaced by their logs."""
    return record._replace(groups=[
        (lo, hi, kids, at if at is None else log_table[at], *rest)
        for lo, hi, kids, at, *rest in record.groups
    ])


class _NodeView(Mapping):
    """Read-only view of a network's nodes by id; each lookup builds its node."""

    __slots__ = ("_network",)

    def __init__(self, network: Network) -> None:
        self._network = network

    def __getitem__(self, node_id: int) -> Node:
        network = self._network
        e, lists = network._entry[node_id], network._lists
        params = lists.params[lists.param_offset[e] : lists.param_offset[e + 1]]
        if lists.variable[e] >= 0:  # a leaf has a variable, a sum parameters, a product neither
            return LeafNode(lists.variable[e], params)
        kids = lists.child_index[lists.child_offset[e] : lists.child_offset[e + 1]]
        kids = tuple(map(network._tables.ids.__getitem__, kids))
        return SumNode(kids, params) if params else ProductNode(kids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._network._tables.ids)

    def __len__(self) -> int:
        return len(self._network._tables.ids)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._network._entry


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

    The nodes are stored as flat tables (``_Tables``) of numpy columns, in
    the mapping's order.  Construction renormalizes sum weights that are
    within ``1e-6`` of a proper convex combination.  Records are built on
    first use.  Per network: the parameters' logs (``_compiled``), the
    columns as lists (``_lists``), the slot layout (``_plan``) and
    argmax-product's waves (``_waves``) with its log-weights, enumeration's
    plan (``_enumeration``) and max-product's last result (``_max_product``).
    Per shape (``_shape``), read-only and shared while ``_SHAPES`` holds it
    (``_SHAPE_BUDGET``): the heights (``_arrays``), the numbering
    (``_numbering``), and the layout and waves with weight positions
    (``_shape_plan``, ``_shape_waves``).  Cyclic graphs are constructible
    (so ``validate`` can report them) but refuse traversal-based queries.
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

        rows = []  # each node's kind, variable, children and parameters
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
                rows.append((_LEAF, node.variable, (), node.distribution))
            elif isinstance(node, SumNode):
                rows.append((_SUM, -1, node.children, node.weights))
            else:
                rows.append((_PRODUCT, -1, node.children, ()))
        kind, variable, children, params = zip(*rows)
        child_offset = np.fromiter(itertools.accumulate(map(len, children), initial=0), np.intp)
        param_offset = np.fromiter(itertools.accumulate(map(len, params), initial=0), np.intp)
        flat = np.fromiter(itertools.chain.from_iterable(params), np.float64, param_offset[-1])
        tables = _Tables(list(store), kind, child_offset, (), variable, param_offset, flat)
        self._adopt(tables, int(root), ordered_vars)
        # The children are named by id; ``_adopt`` gave each id its entry.
        child_ids = map(self._entry.__getitem__, itertools.chain.from_iterable(children))
        child_index = np.fromiter(child_ids, np.intp, child_offset[-1])
        self._tables = self._tables._replace(child_index=child_index)

    @classmethod
    def _from_tables(cls, tables: _Tables, root: int, variables: list[Variable]) -> Network:
        """A network that takes over ``tables`` unchecked; ``variables`` are in index order."""
        network = cls.__new__(cls)
        network._adopt(tables, root, tuple(variables))
        return network

    def _adopt(self, tables: _Tables, root: int, variables: tuple[Variable, ...]) -> None:
        """Keep ``tables`` as the nodes, each column in its dtype, renormalizing sum weights."""
        # The dtypes of ``kind`` and the columns after it; builders write arrays of these.
        dtypes = (np.int8, np.intp, np.intp, np.intp, np.intp, np.float64)
        tables = _Tables(tables.ids, *map(np.asarray, tables[1:], dtypes))
        offset, params = tables.param_offset, tables.params
        sums = (tables.kind == _SUM).nonzero()[0]
        for start, stop in zip(offset[sums].tolist(), offset[sums + 1].tolist()):
            weights = params[start:stop].tolist()
            total = math.fsum(weights)
            near_one = total != 1.0 and abs(total - 1.0) <= WEIGHT_TOLERANCE
            if near_one and all(w >= 0 for w in weights):
                weights = [w / total for w in weights]
                # Step the largest weight by ulps until the total is exactly 1,
                # so a network built from these weights (as by a serialize-parse
                # round trip) keeps them.  A step moves the total by at most
                # 2**-53, less than the span that rounds to 1, so it stops.
                j = weights.index(max(weights))
                while (total := math.fsum(weights)) != 1.0:
                    weights[j] = math.nextafter(weights[j], 2.0 if total < 1.0 else 0.0)
                params[start:stop] = weights
        self._tables = tables
        ids = tables.ids
        self._by_id = np.arange(len(ids))  # the entries in increasing id order; ids are distinct
        if ids != sorted(ids):
            self._by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__))
        self._root = root
        self._variables = variables
        self._cardinalities = {v.index: v.cardinality for v in variables}

    @property
    def nodes(self) -> Mapping[int, Node]:
        """Read-only view of the nodes by id.

        Each lookup builds its node from the tables, so bind a node once
        rather than looking it up again in a loop.
        """
        return _NodeView(self)

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
        if inference._levelled(self):  # a large network checks its heights, with no walk
            return bool(self._arrays.height.min() >= 0)
        return self._numbering.cycle is None

    @property
    def arc_count(self) -> int:
        return len(self._tables.child_index)

    def topological_order(self) -> tuple[int, ...]:
        """All node ids, children before parents."""
        self._compiled  # refuses cycles and invalid parameters
        return tuple(map(self._tables.ids.__getitem__, self._numbering.order))

    def scope(self, node_id: int) -> frozenset[int]:
        """Variable indices reachable below ``node_id``."""
        if node_id not in self._entry:
            raise KeyError(f"unknown node id {node_id}")
        self._compiled  # refuses cycles and invalid parameters
        return self._numbering.scopes[self._entry[node_id]]

    @functools.cached_property
    def _entry(self) -> dict[int, int]:
        """The entry of each node id, built on first use by lookups by id; the passes need none."""
        return dict(zip(self._tables.ids, range(len(self._tables.ids))))

    @functools.cached_property
    def _shape(self) -> dict[str, tuple]:
        """The records of this network's shape by name, kept in ``_SHAPES`` within its budget."""
        t, cards = self._tables, tuple(self._cardinalities.values())
        if len(t.ids) > _SHAPE_BUDGET:
            return {}  # kept nowhere
        key = (tuple(t.ids), self._root, cards, *(column.tobytes() for column in t[1:6]))
        if (records := _SHAPES.pop(key, None)) is None:
            records, held = {}, len(t.ids) + sum(len(shape[0]) for shape in _SHAPES)
            while held > _SHAPE_BUDGET:  # drop the least recently used first
                held -= len((oldest := next(iter(_SHAPES)))[0])
                del _SHAPES[oldest]
        _SHAPES[key] = records  # last, as the most recently used
        return records

    @_per_shape
    def _numbering(self) -> _Numbering:
        """Order the entries in one depth-first walk, children first.

        The walk starts from each id not yet numbered, in increasing order.
        It skips each edge back to a node on its path and records the first
        such node as ``cycle``.  Built on first use, by the per-entry passes
        and the cycle check of small networks, ``topological_order`` and
        ``scope``, and to name a node on a cycle or with an invalid
        parameter; large networks validate and solve without it.
        """
        ids, (child_offset, child_index, variable, *_) = self._tables.ids, self._lists
        n = len(ids)
        empty: frozenset[int] = frozenset()
        singletons = [frozenset((v.index,)) for v in self._variables]
        scopes = [singletons[var] if var >= 0 else empty for var in variable]
        children: list[tuple[int, ...]] = [()] * n
        shared: dict[frozenset[int], frozenset[int]] = {}  # one object per distinct scope
        # Per entry: -1 before the walk reaches it, -2 on its path, then its
        # index in ``order``.  Entry ``n`` is a bottom frame whose children are all entries.
        rank = [-1] * (n + 1)
        order: list[int] = []  # entries in numbering order
        internal: list[int] = []  # the sums and products among them
        cycle = None
        stack = [(n, iter(self._by_id.tolist()))]
        while stack:
            e, kids = stack[-1]
            for child in kids:
                if (seen := rank[child]) == -1:
                    if variable[child] >= 0:  # a leaf is numbered at once
                        rank[child] = len(order)
                        order.append(child)
                        continue
                    rank[child] = -2
                    children[child] = below = tuple(
                        child_index[child_offset[child] : child_offset[child + 1]]
                    )
                    stack.append((child, iter(below)))
                    break
                if seen == -2 and cycle is None:
                    cycle = ids[child]
            else:
                stack.pop()
                rank[e] = len(order)
                order.append(e)
                if stack:  # every frame but the bottom one is an entry
                    # A child still on the walk's path (a cycle) adds no variables yet.
                    scope = empty.union(*map(scopes.__getitem__, children[e]))
                    scopes[e] = shared.setdefault(scope, scope)
                    internal.append(e)
        order.pop()  # the bottom frame finishes last
        rank.pop()
        return _Numbering(order, rank, internal, children, scopes, cycle)

    @functools.cached_property
    def _unchecked(self) -> _Compiled:
        """Tabulate the parameters' logs and each leaf's most probable category, with no walk.

        Built on first use and kept; ``_compiled`` is this record once checked.
        """
        t = self._tables
        flat, n = t.params, len(t.ids)
        starts = t.param_offset[:-1]
        lengths = t.param_offset[1:] - starts
        owner = np.arange(n).repeat(lengths)  # entry of each parameter
        within = np.arange(len(flat)) - starts[owner]
        nonempty = lengths.nonzero()[0]
        peak = np.maximum.reduceat(flat, starts[nonempty]).repeat(lengths[nonempty])
        best = np.full(n, -1, dtype=np.intp)
        first = np.where(flat == peak, within, len(flat))  # a row's index of its peak
        best[nonempty] = np.minimum.reduceat(first, starts[nonempty])
        log_table = np.log(flat, out=np.full(flat.shape, LOG_ZERO), where=flat > 0)
        invalid = owner[(flat < 0) | ~np.isfinite(flat)].tolist()
        return _Compiled(
            t.ids.index(self._root), np.where(t.variable >= 0, best, -1), log_table, invalid
        )

    @functools.cached_property
    def _compiled(self) -> _Compiled:
        """The record that every pass reads; refuses cycles and invalid parameters.

        A refused network is numbered to name its node: the first one the
        walk finds on a cycle, or the first one it numbers with a negative or
        non-finite parameter.  A refusal is raised again on each access.
        """
        record = self._unchecked
        if not self.is_acyclic:
            raise ValueError(f"network contains a cycle through node {self._numbering.cycle}")
        if record.invalid:
            first = min(record.invalid, key=self._numbering.rank.__getitem__)
            raise ValueError(
                f"node {self._tables.ids[first]} has a negative or non-finite parameter"
            )
        return record

    @functools.cached_property
    def _lists(self) -> _Lists:
        """The columns of ``_Lists``, converted once with ``tolist``.

        Built on first use, by the per-entry passes of small networks, the
        walk and node lookups; large networks validate and solve without it.
        """
        t, record = self._tables, self._unchecked
        columns = (t.child_offset, t.child_index, t.variable, t.param_offset, t.params)
        return _Lists(*(c.tolist() for c in (*columns, record.best, record.log_table)))

    @_per_shape
    def _arrays(self) -> _Arrays:
        """Each entry's height, and whether an entry is shared.

        Built on first use, by ``validate``, by the cycle check of large
        networks and by the passes that work a level at a time.  The heights
        come from one sweep up from the leaves, a level per step, each step
        counting the arcs into every entry: an entry's height is the step at
        which its last child got one.  An entry on a cycle, or above one,
        never gets a height.
        """
        child_offset, child_index = self._tables.child_offset, self._tables.child_index
        n = len(self._tables.ids)
        fan = child_offset[1:] - child_offset[:-1]
        in_degree = np.bincount(child_index, minlength=n)
        parent_offset = in_degree.cumsum() - in_degree
        by_child = child_index.argsort(kind="stable")  # fast on nearly sorted indices
        parents = np.arange(n).repeat(fan)[by_child]  # one per arc, grouped by child
        height = np.full(n, -1, dtype=np.intp)
        waiting = fan.copy()  # per entry: its children not yet given a height
        level, done = 0, (fan == 0).nonzero()[0]
        while done.size:
            height[done] = level
            waiting[done] = -1
            arcs = parents[_ragged(parent_offset[done], in_degree[done])]  # into the next level
            waiting -= np.bincount(arcs, minlength=n)
            done = (waiting == 0).nonzero()[0]
            level += 1
        return _Arrays(height, bool(in_degree.max(initial=0) > 1))

    @functools.cached_property
    def _plan(self) -> _Plan:
        """``_shape_plan`` with this network's log-weights, built on first use."""
        return _weighed(self._shape_plan, self._compiled.log_table)

    @_per_shape
    def _shape_plan(self) -> _Plan:
        """The entries in slots: the leaves, then levels of one height, kind and fan-out.

        Every child of a level is a leaf or in an earlier level, and a sum
        level holds its weights' positions in the log table.  Kept per shape,
        read-only, for the levelled passes and enumeration on every size.
        """
        t, height, root = self._tables, self._arrays.height, self._compiled.root
        child_offset, offset = t.child_offset, t.param_offset
        fan = child_offset[1:] - child_offset[:-1]
        is_sum = (t.variable < 0) & (offset[1:] > offset[:-1])
        group = (height * 2 + is_sum) * (int(fan.max()) + 1) + fan
        leaves = (t.variable >= 0).nonzero()[0]
        inner = (t.variable < 0).nonzero()[0]
        inner = inner[group[inner].argsort(kind="stable")]
        entries = np.concatenate((leaves, inner))
        slot = np.empty_like(entries)
        slot[entries] = np.arange(len(entries))
        child_slot = slot[t.child_index]
        groups = []
        for lo, hi in _spans(group[inner]):
            lo, hi = lo + len(leaves), hi + len(leaves)
            ents, columns = entries[lo:hi], np.arange(fan[entries[lo]])
            at = offset[ents][:, None] + columns if is_sum[ents[0]] else None
            kids = child_slot[child_offset[ents][:, None] + columns]
            groups.append((lo, hi, kids, at, False, None, None))
        return _Plan(entries, len(leaves), int(slot[root]), groups, fan, group)

    @functools.cached_property
    def _waves(self) -> list[_Wave]:
        """``_shape_waves`` with this network's log-weights, built on first use."""
        return [_weighed(wave, self._compiled.log_table) for wave in self._shape_waves]

    @_per_shape
    def _shape_waves(self) -> tuple[_Wave, ...]:
        """Argmax-product's waves, kept per shape: the levels of sums with several children."""
        cards, plan = np.array([v.cardinality for v in self._variables]), self._shape_plan
        return tuple(
            _wave(self, cards, plan.entries[lo:hi])
            for lo, hi, kids, at, *_ in plan.groups
            if at is not None and kids.shape[1] >= 2
        )

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


def _spans(key: np.ndarray) -> list[tuple[int, int]]:
    """The bounds of each run of equal values in ``key``, in order."""
    bounds = [0, *((key[1:] != key[:-1]).nonzero()[0] + 1).tolist(), len(key)]
    return list(zip(bounds[:-1], bounds[1:])) if len(key) else []


def _wave(network: Network, cards: np.ndarray, sums: np.ndarray) -> _Wave:
    """The shape's ``_Wave`` of ``sums``, given each variable's cardinality."""
    tables, shared, plan = network._tables, network._arrays.shared, network._shape_plan
    offset, fan = tables.param_offset, plan.fan
    n, w = len(fan), len(sums)
    owner, entries = np.arange(w), sums
    owners, levels, kids = [], [], []
    size = 0
    while entries.size:
        if shared:  # a pair once per level
            keys, inverse = np.unique(owner * n + entries, return_inverse=True)
            owner, entries = np.divmod(keys, n)
            if kids:
                kids[-1] = size + inverse
        owners.append(owner)  # the sub-DAGs, a level down from the sums at a time
        levels.append(entries)
        size += len(entries)
        count = fan[entries]
        kids.append(np.arange(size, size + int(count.sum())))
        entries = tables.child_index[_ragged(tables.child_offset[entries], count)]
        owner = owner.repeat(count)
    owner, entry, kid = (np.concatenate(x) for x in (owners, levels, kids))
    kid_start = fan[entry].cumsum() - fan[entry]
    if shared:  # and once in all, in the order of their sums
        _, first, inverse = np.unique(owner * n + entry, return_index=True, return_inverse=True)
        owner, entry, kid_start, kid = owner[first], entry[first], kid_start[first], inverse[kid]

    # Into evaluation order.  The sums, of the largest key, keep their order as the last group.
    key = plan.group[entry]
    order = key.argsort(kind="stable")
    where = np.empty_like(order)
    where[order] = np.arange(len(order))
    owner, entry, kid_start, key = owner[order], entry[order], kid_start[order], key[order]
    kid = where[kid]
    (_, leaves), *spans = _spans(key)  # every sub-DAG ends in leaves, and they come first

    # The slots: each sum's scope variables, from its leaf pairs.
    nv = len(cards)
    slot_keys, slot = np.unique(
        owner[:leaves] * nv + tables.variable[entry[:leaves]], return_inverse=True
    )
    slot_sum, slot_var = np.divmod(slot_keys, nv)
    slot_first = slot_sum.searchsorted(np.arange(w + 1))
    radix = int(cards[slot_var].max())
    coded = (slot_first[1:] - slot_first[:-1]) * math.log2(radix) < 62
    place = np.arange(len(slot_keys)) - slot_first[slot_sum]
    digit = radix ** np.where(coded[slot_sum], place, 0)

    groups = []
    for lo, hi in spans:
        ents = entry[lo:hi]
        columns = np.arange(fan[ents[0]])
        below = kid[kid_start[lo:hi][:, None] + columns]
        at, reads = None, (None,) * len(columns)  # every row read whole
        if offset[ents[0] + 1] > offset[ents[0]]:  # a sum
            at, reads = offset[ents][:, None] + columns, None
        # Unmasked: a wave's rows are its distinct candidates, too few for masking to pay.
        groups.append((lo, hi, below, at, False, reads, None))
    slots = slot, slot_sum, slot_var, slot_first, digit, coded
    return _Wave(sums, entry, kid, kid_start, *slots, groups)


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i], starts[i] + 1, ...``, ``lengths[i]`` of them, for each ``i`` in turn."""
    first = (starts - lengths.cumsum() + lengths).repeat(lengths)
    return first + np.arange(len(first))


def _below(
    child_offset: Sequence[int], child_index: Sequence[int], start: int, choice: Mapping[int, int]
) -> dict[int, None]:
    """Entries reachable from ``start``, each once, in depth-first order.

    ``child_offset`` and ``child_index`` are the tables' child CSR, as lists
    or as arrays.  A sum in ``choice`` follows only its child of that index.
    """
    seen: dict[int, None] = {}
    stack = [start]
    while stack:
        e = stack.pop()
        if e not in seen:
            seen[e] = None
            if e in choice:
                stack.append(child_index[child_offset[e] + choice[e]])
            elif (first := child_offset[e]) != (stop := child_offset[e + 1]):  # not a leaf
                stack.extend(child_index[first:stop])
    return seen


def validate(network: Network) -> list[Violation]:
    """Report every structural defect; an empty list means the network is valid.

    Checks, in order: leaf distributions (nonnegative, unit total within
    ``1e-9``), sum weights (nonnegative, unit total within ``1e-6``),
    reachability from the root, acyclicity, completeness of sum nodes,
    decomposability of product nodes, and root scope coverage.  Within a
    check, the nodes are reported in increasing id order.  A cycle ends the
    report, naming the first node that a depth-first walk from the ids in
    increasing order finds on one.

    Each check is a numpy mask over the entries (``Network._arrays``), with
    no walk over them.  A parameter total is screened in numpy and confirmed
    with ``math.fsum`` when it fails or lies near the tolerance's edge, so
    every verdict and reported total is ``math.fsum``'s.  Scopes are compared
    by size: a sum is complete when each child's scope has the size of their
    union, and a product decomposable when its children's sizes add up to it.
    """
    violations: list[Violation] = []
    tables, height = network._tables, network._arrays.height
    ids, kind, param_offset, params = tables.ids, tables.kind, tables.param_offset, tables.params
    by_id = functools.partial(sorted, key=ids.__getitem__)
    # Per kind: the check, one parameter, several, and the tolerance on their total.
    rules = {
        _LEAF: ("distribution", "probability", "probabilities", LEAF_TOLERANCE),
        _SUM: ("normalization", "weight", "weights", WEIGHT_TOLERANCE),
    }
    for e in by_id(_unsettled_rows(tables).tolist()):
        check, one, several, tolerance = rules[kind[e]]
        row = params[param_offset[e] : param_offset[e + 1]].tolist()
        if any(p < 0 for p in row):
            violations.append(Violation(ids[e], check, f"negative {one}"))
            continue
        total = math.fsum(row)
        if not abs(total - 1.0) <= tolerance:  # NaN fails this test
            violations.append(Violation(ids[e], check, f"{several} sum to {total!r}"))

    root = ids.index(network.root)
    for e in by_id(np.flatnonzero(~_reached(tables, root)).tolist()):
        violations.append(Violation(ids[e], "unreachable", "not reachable from the root"))

    if height.min() < 0:
        cycle = network._numbering.cycle
        violations.append(Violation(cycle, "cycle", "node lies on a directed cycle"))
        return violations

    size, defect = _scope_checks(network)
    for e in by_id(np.flatnonzero(defect).tolist()):
        if kind[e] == _SUM:
            violations.append(Violation(ids[e], "completeness", "children have differing scopes"))
        else:
            violations.append(
                Violation(ids[e], "decomposability", "children share scope variables")
            )
    if size[root] != len(network.variables):
        violations.append(
            Violation(network.root, "scope", "root scope does not cover all variables")
        )
    return violations


def _unsettled_rows(tables: _Tables) -> np.ndarray:
    """The leaves and sums whose parameters the numpy screen cannot pass.

    A row passes when it has no negative and its float total lies within
    its tolerance of 1 by more than ``length * 2**-50``, which bounds the
    total's rounding error, since its terms are nonnegative and it is near 1.
    """
    offset, flat = tables.param_offset, tables.params
    rows = np.flatnonzero(np.diff(offset))
    if not rows.size:
        return rows
    starts, lengths = offset[rows], np.diff(offset)[rows]
    tolerance = np.where(tables.variable[rows] >= 0, LEAF_TOLERANCE, WEIGHT_TOLERANCE)
    with np.errstate(over="ignore", invalid="ignore"):  # such totals fail the screen
        distance = np.abs(np.add.reduceat(flat, starts) - 1.0)
    nonnegative = np.minimum.reduceat(flat, starts) >= 0  # NaN fails this test
    return rows[~(nonnegative & (distance <= tolerance - lengths * 2.0**-50))]


def _reached(tables: _Tables, root: int) -> np.ndarray:
    """Whether each entry is reachable from ``root``, by a sweep down a frontier at a time."""
    child_offset, n = tables.child_offset, len(tables.ids)
    reached = np.zeros(n, dtype=bool)
    reached[root] = True
    frontier = np.array([root])
    last = np.empty(n, dtype=np.intp)  # per entry: its last position in a frontier
    while frontier.size:
        fan = child_offset[frontier + 1] - child_offset[frontier]
        kids = tables.child_index[_ragged(child_offset[frontier], fan)]
        kids = kids[~reached[kids]]
        reached[kids] = True
        at = np.arange(len(kids))
        last[kids] = at
        frontier = kids[last[kids] == at]  # each entry once
    return reached


def _scope_checks(network: Network) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's scope size, and whether a sum is incomplete or a product not decomposable.

    The network must be acyclic.  Scopes are built a height at a time, up
    from the leaves, as runs of sorted variables kept in one buffer: an
    entry's run is the distinct variables of its children's runs, found by
    sorting ``(entry, variable)`` keys.
    """
    tables, height, n_vars = network._tables, network._arrays.height, len(network.variables)
    variable, child_offset, offset = tables.variable, tables.child_offset, tables.param_offset
    n = len(height)
    leaves = np.flatnonzero(variable >= 0)
    size = np.ones(n, dtype=np.intp)
    start = np.zeros(n, dtype=np.intp)
    start[leaves] = np.arange(len(leaves))
    buffer, used = variable[leaves], len(leaves)
    defect = np.zeros(n, dtype=bool)
    inner = np.flatnonzero(variable < 0)
    inner = inner[np.argsort(height[inner], kind="stable")]
    for lo, hi in _spans(height[inner]):
        entries = inner[lo:hi]
        fan = child_offset[entries + 1] - child_offset[entries]
        kids = tables.child_index[_ragged(child_offset[entries], fan)]
        kid_size = size[kids]
        owner = np.repeat(np.arange(len(entries)), fan)
        keys = np.repeat(owner * n_vars, kid_size) + buffer[_ragged(start[kids], kid_size)]
        keys.sort()
        distinct = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        union = np.bincount(distinct // n_vars, minlength=len(entries))
        row = np.cumsum(fan) - fan
        is_sum = offset[entries + 1] > offset[entries]
        defect[entries] = np.where(
            is_sum,
            np.logical_or.reduceat(kid_size != union[owner], row),
            np.add.reduceat(kid_size, row) != union,
        )
        size[entries] = union
        start[entries] = used + np.cumsum(union) - union
        if used + len(distinct) > len(buffer):  # grow by at least half, so copies stay linear
            grown = np.empty(max(used + len(distinct), len(buffer) * 3 // 2), dtype=np.intp)
            grown[:used] = buffer[:used]
            buffer = grown
        buffer[used : used + len(distinct)] = distinct % n_vars
        used += len(distinct)
    return size, defect


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
    t, by_id = network._tables, network._by_id
    degrees = np.diff(t.child_offset)[by_id][t.kind[by_id] == _SUM].tolist()
    compiled = network._compiled
    return NetworkStats(
        node_count=len(t.ids),
        sum_count=len(degrees),
        product_count=int(np.count_nonzero(t.kind == _PRODUCT)),
        leaf_count=int(np.count_nonzero(t.kind == _LEAF)),
        height=int(network._arrays.height[compiled.root]),
        sum_out_degrees=tuple(degrees),
    )


# Imported last: ``inference`` imports this module, and ``is_acyclic`` reads its threshold.
from . import inference  # noqa: E402
