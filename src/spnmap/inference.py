"""Exact evaluation and marginal inference.

A bottom-up pass over one assignment is one loop, ``_upward``, over the
compiled network; networks of ``_LEVELLED_MIN`` entries or more take it a
level at a time in numpy instead (``_levelled_upward``), over the leaves and
levels of the network's pass plan (``Network._plan``).
Leaves whose variable is fixed contribute the probability of the fixed
category; leaves outside the evidence scope contribute 1, which turns the
same pass into marginal inference.

Enumeration, behind exhaustive MAP and ``log_partition``, evaluates blocks
of total assignments a level at a time on networks of every size, one
column per assignment.  A block runs through the whole period of the last
free variables, and each value is computed once per period of the block's
variables it depends on (``_enumeration_plan``).  The per-entry batch form,
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
from .network import Network, Variable, _below, _Level, _spans

#: Rows per chunk that ``enumerate_log_values`` yields.  ``log_partition``
#: reduces each chunk on its own, so its bits depend on this size.
_CHUNK_SIZE = 1 << 14

#: Most assignments per block of the enumeration pass, unless the last free
#: variable alone has more categories.  Its ``(slots, columns)`` value matrix
#: takes 8 bytes a cell, 11.2 MB at 343 slots: far more than a cache holds.
#: Larger blocks make fewer numpy calls per assignment.
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
    """Raise ``ValueError`` unless every pair names a variable and category."""
    n, cards = len(network.variables), network._cardinalities
    for var, cat in evidence.items():
        if not 0 <= var < n:
            raise ValueError(f"evidence names unknown variable {var}")
        if not 0 <= cat < cards[var]:
            raise ValueError(
                f"evidence assigns category {cat} to variable {var} of cardinality {cards[var]}"
            )


def check_assignment(network: Network, assignment: Mapping[int, int]) -> None:
    """Raise ``ValueError`` unless the assignment is total and in range."""
    check_evidence(network, assignment)
    n = len(network.variables)
    if len(assignment) < n:  # every key names a variable, so some variable is missing
        missing = min(set(range(n)).difference(assignment))
        raise ValueError(f"assignment is missing variable {missing}")


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


def _levelled_upward(
    levels: list[_Level], vals: np.ndarray, reduce: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``_upward`` over every sum and product, one group of ``levels`` at a time.

    ``vals`` holds each leaf's log value by entry.  A product adds its
    children's values in order; a sum passes its ``(entries, fan-out)``
    matrix of weighted child terms to ``reduce``, which reduces each row.
    """
    for level in levels:
        below = vals[level.kids]
        if level.weights is None:
            vals[level.entries] = np.add.accumulate(below, axis=1)[:, -1]
        else:
            vals[level.entries] = reduce(level.weights + below)
    return vals


def _leaf_logs(network: Network, evidence: Mapping[int, int], free):
    """Each plan leaf's log at its evidence, else ``free``: one value, or one per leaf."""
    if not evidence:
        return free
    leaves, t = network._plan.leaves, network._tables
    fixed = np.full(len(network.variables), -1)
    fixed[list(evidence)] = list(evidence.values())
    cats = fixed[t.variable[leaves]]
    return np.where(cats >= 0, network._compiled.log_table[t.param_offset[leaves] + cats], free)


def _sum_pass(network: Network, evidence: Mapping[int, int]) -> float:
    """Log value of the root with unobserved leaves marginalized to 1."""
    compiled = network._compiled
    if _levelled(network):
        plan = network._plan
        vals = np.empty(len(network._tables.ids))
        vals[plan.leaves] = _leaf_logs(network, evidence, 0.0)  # a free leaf is 1
        vals = _levelled_upward(
            plan.levels, vals, lambda terms: logsumexp_stacked(terms[:, :, None])[:, 0]
        )
        return float(vals[compiled.root])
    _, _, variable, offset, _, _, log_list = network._lists
    vals = {
        e: 0.0 if (cat := evidence.get(var)) is None else log_list[offset[e] + cat]
        for e, var in enumerate(variable)
        if var >= 0
    }
    return _upward(network, vals, logsumexp)[compiled.root]


def evaluate(network: Network, assignment: Mapping[int, int]) -> Probability:
    """Probability of a total assignment."""
    check_assignment(network, assignment)
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
) -> tuple[np.ndarray, list, list, int, np.ndarray]:
    """The enumeration pass's ``(slots, columns)`` matrix, with its fixed leaf rows filled.

    A block runs through the whole period of the last free variables: the
    longest run of them, and at least one, whose cardinalities multiply to
    at most ``_BLOCK_SIZE``.  The first of them changes fastest in its
    columns, so a leaf row of the block's variable ``v`` repeats with the
    product of their cardinalities up to ``v``'s, and other leaf rows with
    period 1.  The slots are the distinct leaf rows, then the sums and
    products of ``network._plan``'s levels.  Each is computed through its
    period, the largest among its children's, then repeated through the
    widest read that a parent or the root's output makes of it.

    Returns the matrix; per free variable outside the block, its leaf rows,
    their ``(rows, cardinality)`` logs and the blocks per category;
    ``_groups_pass``'s groups; the root's slot; and the permutation that
    puts a block's columns in ``decode_configuration``'s order.
    """
    t, log_table = network._tables, network._compiled.log_table
    free = free_variables(network, evidence)
    cut, width = len(free), 1  # the block holds the free variables from ``cut`` on
    while cut and (cut == len(free) or width * free[cut - 1].cardinality <= _BLOCK_SIZE):
        cut -= 1
        width *= free[cut].cardinality
    block = [v.cardinality for v in free[cut:]]
    period = np.ones(len(network.variables), dtype=np.intp)
    period[[v.index for v in free[cut:]]] = np.cumprod(block)
    stride, strides = 1, {}
    for var in reversed(free[:cut]):
        strides[var.index], stride = stride, stride * var.cardinality

    leaves = np.flatnonzero(t.variable >= 0)
    cards = np.diff(t.param_offset)[leaves]
    columns = np.arange(int(cards.max()))
    inside = columns < cards[:, None]
    keyed = np.zeros((len(leaves), len(columns) + 1))  # the variable, then its logs
    keyed[:, 0] = t.variable[leaves]
    keyed[:, 1:][inside] = log_table[(t.param_offset[leaves][:, None] + columns)[inside]]
    distinct, leaf_slot = np.unique(keyed, axis=0, return_inverse=True)
    owner = distinct[:, 0].astype(np.intp)
    slot = np.empty(len(t.ids), dtype=np.intp)
    slot[leaves] = leaf_slot.ravel()
    size = len(distinct)
    span = np.ones(len(t.ids), dtype=np.intp)  # each slot's period; no more slots than entries
    span[:size] = period[owner]
    fill = np.zeros_like(span)  # the widest read of each slot
    shares, groups = _zero_shares(network, evidence), []
    for level in network._plan.levels:
        lo, hi = size, size + len(level.entries)
        slot[level.entries] = np.arange(lo, hi)
        kids = slot[level.kids]
        masked = False
        if level.weights is None:  # a product's running sum widens along its children
            reads = np.maximum.accumulate(span[kids].max(axis=0))
        else:
            reads = span[kids].max()
            masked = bool(shares[level.entries].mean() > _SPARSE_SHARE)
        # Broadcast in full: numpy 2.4.6's ``at`` writes wrong values where it broadcasts.
        np.maximum.at(fill, kids, np.broadcast_to(reads, kids.shape))
        span[lo:hi] = reads.max()
        groups.append((lo, hi, kids, level.weights, masked, reads.tolist()))
        size = hi
    root = int(slot[network._compiled.root])
    fill[root] = width
    np.maximum(fill, span, out=fill)
    groups = [(*group, int(fill[group[0] : group[1]].max())) for group in groups]

    vals, outer = np.empty((size, width)), []
    for lo, hi in _spans(owner):  # the rows of one variable
        var, card = int(owner[lo]), network.cardinality(int(owner[lo]))
        rows, table = vals[lo:hi, : fill[lo:hi].max()], distinct[lo:hi, 1 : 1 + card]
        if var in evidence:
            rows[:] = table[:, evidence[var], None]
        elif var in strides:
            outer.append((rows, table, strides[var]))
        else:  # column ``c`` holds category ``c // (period / card) % card``
            rows[:] = table[:, np.arange(rows.shape[1]) // (period[var] // card) % card]
    order = np.arange(width).reshape(block[::-1]).transpose().ravel()
    return vals, outer, groups, root, order


def _zero_shares(network: Network, evidence: Mapping[int, int]) -> np.ndarray:
    """Per sum entry, the share of its weighted terms expected to be ``LOG_ZERO``; 0 elsewhere.

    Over the assignments consistent with the evidence, a leaf is ``LOG_ZERO``
    at its zero categories, a product where a child is, and a sum where all
    its terms are, with children taken as independent: exactly so for a
    product's, whose scopes are disjoint.
    """
    t, log_table, plan = network._tables, network._compiled.log_table, network._plan
    leaves, offset = plan.leaves, t.param_offset
    zeros = np.concatenate(([0], (log_table == LOG_ZERO).cumsum()))
    share = np.empty(len(t.ids))  # each entry's share of LOG_ZERO values
    start, stop = offset[leaves], offset[leaves + 1]
    share[leaves] = (zeros[stop] - zeros[start]) / (stop - start)
    if evidence:  # a fixed leaf is LOG_ZERO at every assignment or at none
        held = np.isin(t.variable[leaves], list(evidence))
        share[leaves[held]] = _leaf_logs(network, evidence, 0.0)[held] == LOG_ZERO
    terms = np.zeros(len(t.ids))
    for level in plan.levels:
        below = share[level.kids]
        if level.weights is None:
            share[level.entries] = 1.0 - (1.0 - below).prod(axis=1)
        else:
            below[level.weights == LOG_ZERO] = 1.0
            share[level.entries] = below.prod(axis=1)
            terms[level.entries] = below.mean(axis=1)
    return terms


def enumerate_log_values(
    network: Network, evidence: Mapping[int, int] | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start_index, log_values)`` over every assignment consistent with the evidence.

    Chunks follow ``decode_configuration``'s order and hold ``_CHUNK_SIZE``
    rows but the last.  The values come from one levelled pass per block
    over the matrix of ``_enumeration_plan``, which computes each value once
    per period of the block's variables it depends on.  Products add their
    children in order and sums reduce with ``logsumexp_stacked``, as every
    numpy pass does.  Refuses more than
    ``DEFAULT_ENUMERATION_CAP`` assignments.
    """
    evidence = dict(evidence or {})
    total = count_free_configurations(network, evidence)
    if total > DEFAULT_ENUMERATION_CAP:
        raise ValueError(
            f"{total} configurations exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )
    vals, outer, groups, root, order = _enumeration_plan(network, evidence)
    width, done = len(order), -1  # the block whose values ``row`` holds
    for start in range(0, total, _CHUNK_SIZE):
        stop = min(start + _CHUNK_SIZE, total)
        values = np.empty(stop - start)
        for k in range(start // width, (stop - 1) // width + 1):
            if k != done:
                for rows, table, stride in outer:
                    rows[:] = table[:, k // stride % table.shape[1], None]
                _groups_pass(groups, vals)
                row, done = vals[root].take(order), k
            lo, hi = max(start, k * width), min(stop, (k + 1) * width)
            values[lo - start : hi - start] = row[lo - k * width : hi - k * width]
        yield start, values


def _groups_pass(groups: list, vals: np.ndarray) -> None:
    """Fill ``vals``, a row per slot and a column per assignment, one group of slots at a time.

    A group is ``(first slot, stop, kids' slots, a sum's log-weights or None,
    sparse, reads, fill)``.  A sum reads its children through ``reads``
    columns; a product reads child ``j`` through ``reads[j]`` and widens its
    running sum by broadcasting where that grows.  The group's rows are then
    repeated through ``fill`` columns.  ``None`` reads every row whole, as
    argmax-product's waves do.  Products add their children in order and
    sums reduce with ``logsumexp_stacked``.  ``sparse``, chosen when the
    plan is built (``_SPARSE_SHARE``), has it exponentiate only the live
    terms.
    """
    for lo, hi, kids, weights, sparse, reads, fill in groups:
        out = vals[lo:hi]
        if weights is None:
            read = reads[0]
            acc = vals[kids[:, 0], :read]
            for j in range(1, kids.shape[1]):
                term = vals[kids[:, j], : reads[j]]
                if reads[j] == read:
                    acc += term
                else:  # the running sum repeats every ``read`` columns
                    folds = term.reshape(len(term), -1, read)
                    folds += acc[:, None, :]
                    acc, read = term, reads[j]
        else:
            read, acc = reads, vals[kids, :reads]
            acc += weights[:, :, None]
            acc = logsumexp_stacked(acc, sparse)
        out[:, :read] = acc
        while fill and read < fill:  # repeat the period, doubling the copy
            step = min(read, fill - read)
            out[:, read : read + step] = out[:, :step]
            read += step


def log_partition(network: Network) -> float:
    """Log of the total mass summed over every total assignment.

    Refuses more assignments than ``DEFAULT_ENUMERATION_CAP``.
    """
    return logsumexp(
        float(logsumexp_stacked(values[None, :, None])[0, 0])
        for _, values in enumerate_log_values(network)
    )
