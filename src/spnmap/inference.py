"""Exact evaluation and marginal inference.

A bottom-up pass over one assignment is one loop, ``_upward``, over the
compiled network; networks of ``_LEVELLED_MIN`` entries or more take it in
numpy instead, as one column of ``_groups_pass`` over the network's pass
plan (``Network._plan``), whose slots hold the leaves and then one level of
sums or products per group.  Leaves whose variable is fixed contribute the
probability of the fixed category; leaves outside the evidence scope
contribute 1, which turns the same pass into marginal inference.

Enumeration, behind exhaustive MAP and ``log_partition``, runs the same
groups on networks of every size over blocks of total assignments, one
column per assignment, and yields each block as one chunk.  A block runs
through the whole period of the last free variables, and each value is
computed once per assignment of the block variables in its own scope
(``_enumeration_plan``).  The per-entry batch form,
``_batch_upward``, is left to argmax-product's per-sum loop on small
networks and to ``batch_log_values``.

The loop's sums reduce with the scalar ``logsumexp``, which adds their
exponentials in order.  Every numpy pass reduces with ``logsumexp_stacked``,
so a value has the same bits whichever numpy pass computes it; the loop's
can differ from them in the last bits.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .logspace import LOG_ZERO, Probability, logsumexp, logsumexp_stacked
from .network import Network, Variable, _below, _spans

#: Most assignments per block of the enumeration pass, unless the last free
#: variable alone has more categories.  Its ``(slots, columns)`` value matrix
#: takes 8 bytes a cell, 11.2 MB at 343 slots, but a block writes only each
#: slot's cells: 0.05 MB of the sums and products on ``perfbench``'s
#: 343-entry ``exact_enum`` network, 0.5-0.6 MB on its 324-entry one and on
#: its independent-set networks.  Larger blocks make fewer numpy calls per
#: assignment.
_BLOCK_SIZE = 1 << 12

#: A group of sums more than this share of whose weighted terms are expected
#: to be ``LOG_ZERO`` (``_zero_shares``) exponentiates only its live terms in
#: the enumeration pass.  On its blocks (numpy 2.4.6, Xeon host) that saved
#: 11% of the log-sum-exp at a share of 0.61 and 62% at 0.99 of an
#: independent-set root's terms, and cost 9-33% at 0.12-0.42 on
#: ``mixed_spn``'s sums.
_SPARSE_SHARE = 0.5

#: Enumeration refuses configuration spaces larger than this.
DEFAULT_ENUMERATION_CAP = 1 << 24

#: Networks of this many entries or more take each single-assignment pass a
#: level at a time, and argmax-product's re-evaluation a wave of sums at a
#: time, over the network's pass plan.  The plan's few hundred numpy calls
#: cost more than the per-entry Python they save below about 150 entries
#: (independent-set networks) to 190 (``random_spn``'s deeper ones).
#: Without shared nodes, one wave's sub-DAGs hold each entry at most once, so
#: the entry count bounds the work of every wave.
_LEVELLED_MIN = 1 << 8


def check_evidence(network: Network, evidence: Mapping[int, int]) -> None:
    """Raise ``ValueError`` unless every pair names a variable and category.

    Both must be integers, ``int`` or ``np.integer``, and not ``bool``: a
    float or a bool would index one pass and not another.
    """
    n, cards = len(network.variables), network._cardinalities
    for var, cat in evidence.items():
        if not (type(var) is type(cat) is int or _integral(var) and _integral(cat)):
            raise ValueError(f"evidence pair {var!r}: {cat!r} is not a pair of integers")
        if not 0 <= var < n:
            raise ValueError(f"evidence names unknown variable {var}")
        if not 0 <= cat < cards[var]:
            raise ValueError(
                f"evidence assigns category {cat} to variable {var} of cardinality {cards[var]}"
            )


def _integral(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _upward(
    network: Network,
    vals: dict,
    reduce: Callable[[list], object],
    internal: Iterable[int] | None = None,
) -> dict:
    """Complete ``vals``, given leaf log values by table entry.

    Visits the entries ``internal``, children first (default: every sum and
    product).  A product adds its children's values; a sum passes its
    weighted child terms to ``reduce``: log-sum-exp to evaluate, ``max`` for
    max-product.  Values are floats for one assignment, rows for a batch.
    """
    offset, log_list = network._lists.param_offset, network._lists.log_table
    children, every = network._numbering.children, network._numbering.internal
    for e in every if internal is None else internal:
        kids = children[e]
        start, stop = offset[e], offset[e + 1]
        if start == stop:  # a product has no weights
            acc = vals[kids[0]]
            for kid in kids[1:]:
                acc = acc + vals[kid]
            vals[e] = acc
        else:
            vals[e] = reduce([w + vals[kid] for w, kid in zip(log_list[start:stop], kids)])
    return vals


def _levelled(network: Network) -> bool:
    """Whether the network's passes, and its cycle check, work a level at a time."""
    return len(network._tables.ids) >= _LEVELLED_MIN


def _leaf_logs(network: Network, evidence: Mapping[int, int], free):
    """Each plan leaf slot's log at its evidence, else ``free``: one value, or one per leaf."""
    if not evidence:
        return free
    t, leaves = network._tables, network._plan.entries[: network._plan.leaves]
    fixed = np.full(len(network.variables), -1)
    fixed[list(evidence)] = list(evidence.values())
    cats = fixed[t.variable[leaves]]
    return np.where(cats >= 0, network._compiled.log_table[t.param_offset[leaves] + cats], free)


def _sum_pass(network: Network, evidence: Mapping[int, int]) -> float:
    """Log value of the root with unobserved leaves marginalized to 1."""
    compiled = network._compiled
    if _levelled(network):
        plan = network._plan
        vals = np.empty((len(plan.entries), 1))
        vals[: plan.leaves, 0] = _leaf_logs(network, evidence, 0.0)  # a free leaf is 1
        _groups_pass(plan.groups, vals)
        return float(vals[plan.root, 0])
    _, _, variable, offset, _, _, log_list = network._lists
    vals = {
        e: 0.0 if (cat := evidence.get(var)) is None else log_list[offset[e] + cat]
        for e, var in enumerate(variable)
        if var >= 0
    }
    return _upward(network, vals, logsumexp)[compiled.root]


def evaluate(network: Network, assignment: Mapping[int, int]) -> Probability:
    """Probability of a total assignment; ``ValueError`` unless it is total and in range."""
    check_evidence(network, assignment)
    return _evaluate(network, assignment)


def _evaluate(network: Network, assignment: Mapping[int, int]) -> Probability:
    """``evaluate`` of an assignment whose pairs are in range, as a solver's own are."""
    n = len(network.variables)
    if len(assignment) < n:  # every key names a variable, so some variable is missing
        missing = min(set(range(n)).difference(assignment))
        raise ValueError(f"assignment is missing variable {missing}")
    return Probability(_sum_pass(network, assignment))


def evaluate_marginal(
    network: Network, evidence: Mapping[int, int] | None = None
) -> Probability:
    """Probability of partial evidence; empty evidence gives 1."""
    evidence = evidence or {}
    check_evidence(network, evidence)
    return Probability(_sum_pass(network, evidence))


def _batch_upward(network: Network, entry: int, columns) -> np.ndarray:
    """Log value of table entry ``entry`` for each row of a batch.

    ``columns[var]`` holds one category per row for each variable in the
    entry's scope.  Only the entry's sub-DAG is evaluated.
    """
    log_table, rank = network._compiled.log_table, network._numbering.rank
    child_offset, child_index, variable, offset, *_ = network._lists
    sub_dag = _below(child_offset, child_index, entry, {})
    vals = {
        e: log_table[offset[e] : offset[e + 1]][columns[variable[e]]]
        for e in sub_dag
        if variable[e] >= 0
    }
    internal = sorted((e for e in sub_dag if variable[e] < 0), key=rank.__getitem__)
    return _upward(
        network, vals, lambda terms: logsumexp_stacked(np.stack(terms)[None])[0], internal
    )[entry]


def batch_log_values(
    network: Network, node_id: int, categories: np.ndarray
) -> np.ndarray:
    """Log value of ``node_id`` for each row of a ``(k, n_vars)`` integer category matrix.

    Only columns for variables in the node's scope are read, and must hold
    categories of their variable; only the node's sub-DAG is evaluated.
    """
    categories = np.asarray(categories)
    if categories.ndim != 2 or categories.shape[1] != len(network.variables):
        raise ValueError("categories must have one column per network variable")
    if not np.issubdtype(categories.dtype, np.integer):
        raise ValueError(f"categories must be integers, got {categories.dtype}")
    columns = np.ascontiguousarray(categories.T)
    scope = network.scope(node_id)
    if len(categories):  # the extremes of each scope column must be categories
        for var in sorted(scope):
            for cat in (columns[var].min(), columns[var].max()):
                check_evidence(network, {var: int(cat)})
    return _batch_upward(network, network._entry[node_id], columns)


def free_variables(
    network: Network, evidence: Mapping[int, int] | None = None
) -> tuple[Variable, ...]:
    """Variables not fixed by the evidence, in index order; checks it as ``check_evidence`` does."""
    evidence = evidence or {}
    check_evidence(network, evidence)
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
    smallest assignment consistent with the evidence.  Raises ``ValueError``
    for evidence that ``check_evidence`` refuses and for an index outside
    ``0..count_free_configurations - 1``.
    """
    config = dict(evidence or {})
    stride = count_free_configurations(network, config)
    if not 0 <= index < stride:
        raise ValueError(f"index {index} is outside the {stride} configurations")
    for var in free_variables(network, config):
        stride //= var.cardinality
        config[var.index] = (index // stride) % var.cardinality
    return config


def _enumeration_plan(
    network: Network, evidence: Mapping[int, int]
) -> tuple[int, list, list, int, np.ndarray]:
    """The shape of the enumeration pass's ``(slots, columns)`` matrix, and how to fill it.

    A block runs through the whole period of the last free variables: the
    longest run of them, and at least one, whose cardinalities multiply to
    at most ``_BLOCK_SIZE``.  The first of them changes fastest in its
    columns.  The slots are the distinct leaf rows, then the sums and
    products of ``network._plan``'s groups, in its order.

    A slot holds one cell per assignment of the block variables in its
    layout, the first of them changing fastest, from column 0 of its row.
    A leaf of the block's ``i``-th variable is laid out over the first
    ``i + 1`` of them, through its period; a sum or product over the block
    variables of its own scope.  A group whose entries' scopes and
    children's layouts all start at the first block variable (``_sliced``)
    reads each child through the columns of the widest period among its
    children, as slices, and repeats a running product where that widens;
    its entries take that widest period, and a slot that such a group reads
    is repeated through the widest read.  Every other group reads each child
    through a map from each of its cells to the child's.

    Returns the matrix's slot count; per variable, its leaf rows ``(first
    slot, stop, columns, (rows, cardinality) logs, pick)``: each column's
    category, the fixed one, or outside the block the blocks per category;
    ``_groups_pass``'s groups; the root's slot; and, per column of a block
    in ``decode_configuration``'s order, the root's cell.
    """
    t, log_table, plan = network._tables, network._compiled.log_table, network._plan
    free = free_variables(network, evidence)
    cut, width = len(free), 1  # the block holds the free variables from ``cut`` on
    while cut and (cut == len(free) or width * free[cut - 1].cardinality <= _BLOCK_SIZE):
        cut -= 1
        width *= free[cut].cardinality
    block = np.array([v.cardinality for v in free[cut:]], dtype=np.intp)
    through = np.concatenate(([1], np.cumprod(block)))  # the columns of the first ``i`` of them
    period = np.ones(len(network.variables), dtype=np.intp)
    bit = np.zeros_like(period)
    period[[v.index for v in free[cut:]]] = through[1:]
    bit[[v.index for v in free[cut:]]] = 1 << np.arange(len(block))
    stride, strides = 1, {}
    for var in reversed(free[:cut]):
        strides[var.index], stride = stride, stride * var.cardinality

    def first(columns):  # the mask of the block variables laid out through ``columns``
        return (1 << through[:-1].searchsorted(columns)) - 1

    leaves = plan.entries[: plan.leaves]
    cards = np.diff(t.param_offset)[leaves]
    columns = np.arange(int(cards.max()))
    inside = columns < cards[:, None]
    keyed = np.zeros((len(leaves), len(columns) + 1))  # the variable, then its logs
    keyed[:, 0] = t.variable[leaves]
    keyed[:, 1:][inside] = log_table[(t.param_offset[leaves][:, None] + columns)[inside]]
    distinct, leaf_slot = np.unique(keyed, axis=0, return_inverse=True)
    owner, rows = distinct[:, 0].astype(np.intp), len(distinct)
    shift = rows - plan.leaves  # a plan slot's sum or product lies past the distinct leaf rows
    slot = np.concatenate((leaf_slot.ravel(), np.arange(plan.leaves, len(plan.entries)) + shift))
    size = len(slot) + shift
    span = np.ones(size, dtype=np.intp)  # each slot's period
    span[:rows] = period[owner]
    scope = np.zeros_like(span)  # each slot's block variables, as bits
    scope[:rows] = bit[owner]
    layout = np.zeros_like(span)  # the block variables that each slot's cells run over
    layout[:rows] = first(span[:rows])
    fill = np.zeros_like(span)  # the widest slice read of each slot
    shares, groups = _zero_shares(network, evidence), []
    for lo, hi, kids, weights, *_ in plan.groups:
        masked = weights is not None and bool(shares[lo:hi].mean() > _SPARSE_SHARE)
        lo, hi, kids = lo + shift, hi + shift, slot[kids]
        scope[lo:hi] = np.bitwise_or.reduce(scope[kids], axis=1)
        if not _sliced(scope[lo:hi], layout[kids]):
            # Each over its own scope; a run of the first ``k``, ``2**k - 1``, spans ``through[k]``.
            layout[lo:hi] = scope[lo:hi]
            span[lo:hi] = through[(1 << np.arange(len(through))).searchsorted(scope[lo:hi] + 1)]
            groups.append((lo, hi, kids, weights, masked, None))
            continue
        if weights is None:  # a product's running sum widens along its children
            reads = np.maximum.accumulate(span[kids].max(axis=0))
        else:
            reads = span[kids].max()
        # Broadcast in full: numpy 2.4.6's ``at`` writes wrong values where it broadcasts.
        np.maximum.at(fill, kids, np.broadcast_to(reads, kids.shape))
        span[lo:hi] = reads.max()
        layout[lo:hi] = first(span[lo:hi])
        groups.append((lo, hi, kids, weights, masked, reads.tolist()))
    np.maximum(fill, span, out=fill)
    sliced = (layout & (layout + 1)) == 0  # runs of first block variables, repeated to ``fill``
    layout[sliced] = first(fill[sliced])
    root = int(slot[plan.root])
    cell = np.arange(width) % fill[root]  # the root's cell of each column, if it lies in the first
    groups = [(*group, int(fill[group[0] : group[1]].max())) for group in groups]
    if any(group[5] is None for group in groups):
        cell = _gather_maps(groups, layout, block, root)

    leaf_rows = []
    for lo, hi in _spans(owner):  # the rows of one variable
        var, card = int(owner[lo]), network.cardinality(int(owner[lo]))
        columns, table = int(fill[lo:hi].max()), distinct[lo:hi, 1 : 1 + card]
        pick = [evidence[var]] if var in evidence else strides.get(var)
        if pick is None:  # column ``c`` holds category ``c // (period / card) % card``
            pick = np.arange(columns) // (period[var] // card) % card
        leaf_rows.append((lo, hi, columns, table, pick))
    order = np.arange(width).reshape(block[::-1]).transpose().ravel()
    return size, leaf_rows, groups, root, cell[order]


def _gather_maps(groups: list, layout: np.ndarray, block: np.ndarray, root: int) -> np.ndarray:
    """Give the groups whose reads are ``None`` their maps; return the root's cell of each column.

    ``layout`` holds each slot's block variables, as bits, and ``block``
    their cardinalities.  A group ``(first slot, stop, kids' slots, a sum's
    log-weights or None, sparse, None, fill)`` becomes ``(first slot, stop,
    maps, log-weights per cell or None, sparse, cells, None)``: per cell of
    its entries, in order, each child's cell in ``vals`` flattened and its
    own, as ``_groups_pass`` reads them.
    """
    width = int(np.prod(block))
    read = [np.r_[kids.ravel(), lo:hi] for lo, hi, kids, _, _, reads, _ in groups if reads is None]
    masks = np.unique(layout[np.concatenate([[root], *read])])
    which = masks.searchsorted(layout)
    # Per layout: the cell of each column, and the column of each cell in
    # order.  A block has at most DEFAULT_ENUMERATION_CAP = 2**24 columns,
    # so a cell fits float32, where numpy's matmul is fast and exact, and a
    # layout fits 24 bits.
    step, count = _cells(masks, block)
    digits = np.indices(block[::-1], dtype=np.float32).reshape(len(block), width)[::-1]
    cell = (step.astype(np.float32) @ digits).astype(np.int32)
    held = np.bitwise_or.reduce((digits > 0) << np.arange(len(block), dtype=np.uint32)[:, None])
    column = np.nonzero((held & ~masks.astype(np.uint32)[:, None]) == 0)[1]  # off 0 only in it
    start = count.cumsum() - count
    for g, (lo, hi, kids, weights, masked, reads, _) in enumerate(groups):
        if reads is None:
            cells = count[which[lo:hi]]
            entry = np.repeat(np.arange(lo, hi), cells)
            at = np.arange(len(entry)) - (cells.cumsum() - cells).repeat(cells)  # its entry's cell
            kid = kids[entry - lo].T
            maps = cell[which[kid], column[start[which[entry]] + at]] + kid * width
            if weights is not None:
                weights = np.ascontiguousarray(weights[entry - lo].T)
            groups[g] = (lo, hi, maps, weights, masked, entry * width + at, None)
    return cell[which[root]]


def _sliced(scopes: np.ndarray, layouts: np.ndarray) -> bool:
    """Whether a group of these entries' scopes and children's layouts reads its children as slices.

    It does when each is a run of the first block variables, as bits, as
    every group of an independent-set network is: then each value lies
    in the first columns of its row, through its period.
    """
    return not (scopes & (scopes + 1)).any() and not (layouts & (layouts + 1)).any()


def _cells(layouts: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each layout's stride per block variable, 0 outside it, and its cell count.

    A layout is a set of block variables, as bits; ``block`` holds their
    cardinalities.  The first variable changes fastest in the cells.
    """
    held = (layouts[:, None] >> np.arange(len(block))) & 1
    factors = np.where(held == 1, block, 1)
    return np.cumprod(factors, axis=1) // factors * held, factors.prod(axis=1)


def _zero_shares(network: Network, evidence: Mapping[int, int]) -> np.ndarray:
    """Per slot of ``Network._plan``, a sum's share of weighted terms expected to be ``LOG_ZERO``.

    Other slots hold 0.  Over the assignments consistent with the evidence,
    a leaf is ``LOG_ZERO`` at its zero categories, a product where a child
    is, and a sum where all its terms are, with children taken as
    independent: exactly so for a product's, whose scopes are disjoint.
    """
    t, log_table, plan = network._tables, network._compiled.log_table, network._plan
    leaves, offset = plan.entries[: plan.leaves], t.param_offset
    zeros = np.concatenate(([0], (log_table == LOG_ZERO).cumsum()))
    share = np.empty(len(plan.entries))  # each slot's share of LOG_ZERO values
    start, stop = offset[leaves], offset[leaves + 1]
    share[: plan.leaves] = (zeros[stop] - zeros[start]) / (stop - start)
    if evidence:  # a fixed leaf is LOG_ZERO at every assignment or at none
        held = np.isin(t.variable[leaves], list(evidence))
        share[: plan.leaves][held] = _leaf_logs(network, evidence, 0.0)[held] == LOG_ZERO
    terms = np.zeros(len(plan.entries))
    for lo, hi, kids, weights, *_ in plan.groups:
        below = share[kids]
        if weights is None:
            share[lo:hi] = 1.0 - (1.0 - below).prod(axis=1)
        else:
            below[weights == LOG_ZERO] = 1.0
            share[lo:hi] = below.prod(axis=1)
            terms[lo:hi] = below.mean(axis=1)
    return terms


def enumerate_log_values(
    network: Network, evidence: Mapping[int, int] | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start_index, log_values)`` over every assignment consistent with the evidence.

    Chunks follow ``decode_configuration``'s order, one per block of
    ``_enumeration_plan``, which the network keeps for the last evidence it
    enumerated: the whole period of the last free variables, so
    all have one length and each starts at a multiple of it.  A chunk's
    values come from one levelled pass over the plan's matrix, which computes
    each value once per assignment of the block variables in its scope.
    Products add their children in order and sums reduce with
    ``logsumexp_stacked``, as every numpy pass does.  Refuses more than
    ``DEFAULT_ENUMERATION_CAP`` assignments.
    """
    evidence = dict(evidence or {})
    total = count_free_configurations(network, evidence)
    if total > DEFAULT_ENUMERATION_CAP:
        raise ValueError(
            f"{total} configurations exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )
    kept = getattr(network, "_enumeration", None)  # the last evidence and its plan
    if kept is None or kept[0] != evidence:
        kept = network._enumeration = (evidence, _enumeration_plan(network, evidence))
    size, leaf_rows, groups, root, order = kept[1]
    width = len(order)  # a suffix of the free variables, so it divides ``total``
    vals = np.empty((size, width))  # a new matrix per call; only its plan is kept
    for k in range(total // width):
        for lo, hi, columns, table, pick in leaf_rows:
            if isinstance(pick, int):  # a variable outside the block: one category per block
                vals[lo:hi, :columns] = table[:, k // pick % table.shape[1], None]
            elif not k:
                vals[lo:hi, :columns] = table[:, pick]
        _groups_pass(groups, vals)
        yield k * width, vals[root].take(order)


def _groups_pass(groups: list, vals: np.ndarray, reduce=logsumexp_stacked) -> None:
    """Fill ``vals``, a row per slot and a column per assignment, one group of slots at a time.

    A group is ``(first slot, stop, kids' slots, a sum's log-weights or None,
    sparse, reads, fill)``.  Products add their children in order; a sum
    passes its ``(slots, fan-out, columns)`` weighted child terms and
    ``sparse`` to ``reduce``, which reduces along the children:
    ``logsumexp_stacked`` (``sparse`` exponentiates only the live terms,
    ``_SPARSE_SHARE``) or a max for max-product.  ``reads`` of ``None`` reads
    whole rows, a product's in one ``np.add.accumulate``, as the passes over
    ``Network._plan`` do.  A tuple reads a product's child ``j`` through
    ``reads[j]`` columns (``None``: whole), child by child, widening the
    running sum by broadcasting where that grows: faster on short, wide
    groups, as argmax-product's waves are.  A number reads a sum's children
    through that many columns; these groups' rows are then repeated through
    ``fill`` columns.  An array gathers instead (``_gather_maps``): ``kids``
    holds, per child and per cell of its entries, the child's cell in
    ``vals`` flattened, a sum's log-weights are per cell too, and ``reads``
    holds each cell's own place.
    """
    def rows(at, read):  # numpy's ``take`` copies whole rows faster than indexing does
        return vals.take(at, axis=0) if read is None else vals[at, :read]

    flat = vals.reshape(-1)
    for lo, hi, kids, weights, sparse, reads, fill in groups:
        if isinstance(reads, np.ndarray):
            acc = flat.take(kids)
            if weights is None:
                for term in acc[1:]:
                    acc[0] += term
                acc = acc[0]
            else:
                acc += weights
                acc = reduce(acc[None], sparse)[0]
            flat[reads] = acc
            continue
        out = vals[lo:hi]
        if weights is not None:
            read, acc = reads, rows(kids, reads)
            acc += weights[:, :, None]
            acc = reduce(acc, sparse)
        elif reads is None:  # child by child along the first axis, so each add spans a group
            read, acc = None, np.add.accumulate(vals.take(kids.T, axis=0), axis=0)[-1]
        else:
            read = reads[0]
            acc = rows(kids[:, 0], read)
            for j in range(1, kids.shape[1]):
                term = rows(kids[:, j], reads[j])
                if reads[j] == read:
                    acc += term
                else:  # the running sum repeats every ``read`` columns
                    folds = term.reshape(len(term), -1, read)
                    folds += acc[:, None, :]
                    acc, read = term, reads[j]
        out[:, :read] = acc
        while fill and read < fill:  # repeat the period, doubling the copy
            step = min(read, fill - read)
            out[:, read : read + step] = out[:, :step]
            read += step


def log_partition(network: Network) -> float:
    """Log of the total mass summed over every total assignment.

    Each block of ``enumerate_log_values`` is reduced to its peak and the
    sum of its exponentials against that peak; the sums are added against
    the largest peak, exactly, and the log is taken once, with its rounding
    corrected to first order.  Refuses more assignments than
    ``DEFAULT_ENUMERATION_CAP``.
    """
    peaks, sums = [], []
    for _, values in enumerate_log_values(network):
        peak = values.max()
        peaks.append(peak)
        sums.append(np.exp(values - peak).sum() if peak > LOG_ZERO else 0.0)
    top = max(peaks)
    if top == LOG_ZERO:
        return LOG_ZERO
    terms = [total * math.exp(peak - top) for peak, total in zip(peaks, sums)]
    log = math.log(math.fsum(terms))  # of at least 1, the top block's peak term
    near = math.exp(log)  # log(sum) - log is about (sum - near) / near
    return float(top + log + math.fsum([*terms, -near]) / near)
