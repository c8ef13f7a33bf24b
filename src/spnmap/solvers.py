"""MAP solvers: max-product, argmax-product, and exhaustive search.

All three return a total configuration together with its exact probability,
so results are directly comparable.  A network keeps its last max-product
result by checked evidence, for argmax-product, ``decision_map`` and the ratio
study; each call gets a copy of its configuration.  Argmax-product re-evaluates
every sum at its children's candidates; on larger networks it does so a wave of
sums at a time in numpy (``Network._waves``), scoring candidates that agree on a
sum's scope once, with the same bits as one re-evaluation per sum.

Ties are broken deterministically: sum nodes prefer the lowest child index,
leaves the lowest category index, and the exhaustive solver the first
assignment in lexicographic order whose computed log value is largest.
Assignments that tie exactly can differ in the last bits of their computed
values, so that is not always the smallest exact maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .inference import (
    _batch_upward,
    _groups_pass,
    _leaf_logs,
    _levelled,
    _evaluate,
    _upward,
    check_evidence,
    decode_configuration,
    enumerate_log_values,
)
from .logspace import LOG_ZERO, Probability
from .network import Network, _below, _ragged, _Wave, network_stats

if TYPE_CHECKING:
    from fractions import Fraction

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


def _max_pass(network: Network, evidence: Mapping[int, int]) -> tuple[float, dict]:
    """Max-product's upward pass: each sum keeps its best weighted child value.

    Free leaves take their most probable category.  Returns the root value,
    ``LOG_ZERO`` exactly when the evidence has zero mass, and each sum's
    choice, by table entry: the index of its first child reaching the max.
    """
    compiled = network._compiled
    choice: dict[int, int] = {}
    if _levelled(network):
        plan = network._plan
        leaves = plan.entries[: plan.leaves]
        best = compiled.log_table[network._tables.param_offset[leaves] + compiled.best[leaves]]
        vals = np.empty((len(plan.entries), 1))
        vals[: plan.leaves, 0] = _leaf_logs(network, evidence, best)
        _groups_pass(plan.groups, vals, lambda terms, sparse: terms.max(axis=1))
        vals = vals[:, 0]
        for lo, hi, kids, weights, *_ in plan.groups:
            if weights is not None:
                picks = (weights + vals[kids]).argmax(axis=1)  # the first best
                choice.update(zip(plan.entries[lo:hi].tolist(), picks.tolist()))
        return float(vals[plan.root]), choice
    _, _, variable, offset, _, best, log_list = network._lists
    vals = {
        e: log_list[offset[e] + evidence.get(var, best[e])]
        for e, var in enumerate(variable)
        if var >= 0
    }
    vals = _upward(network, vals, max)
    numbering = network._numbering
    children = numbering.children
    for e in numbering.internal:
        start, stop = offset[e], offset[e + 1]
        if start < stop:  # sums have weights, products none
            terms = [w + vals[kid] for w, kid in zip(log_list[start:stop], children[e])]
            choice[e] = terms.index(vals[e])
    return vals[compiled.root], choice


def _walk(
    network: Network, evidence: Mapping[int, int], start: int, choice: Mapping[int, int]
) -> dict[int, int]:
    """Configuration of the tree that ``choice`` induces below table entry ``start``.

    Each leaf on the tree fixes its variable to the evidence or to its most
    probable category, unless a leaf visited earlier fixed it.  Large
    networks walk the tables' arrays, and small ones the list record.
    """
    if _levelled(network):  # memoryviews read the arrays' items as Python ints
        child_offset, child_index, variable = map(memoryview, network._tables[2:5])
        best = memoryview(network._compiled.best)
    else:
        child_offset, child_index, variable, _, _, best, _ = network._lists
    config: dict[int, int] = {}
    for e in _below(child_offset, child_index, start, choice):
        if (var := variable[e]) >= 0:
            config.setdefault(var, evidence.get(var, best[e]))
    return config


def max_product(network: Network, evidence: Mapping[int, int] | None = None) -> MapResult:
    """Upward max-propagation followed by downward argmax selection.

    ``pd_value`` carries the upward value, the best single induced tree's
    weight.  It is a lower bound on the value of the selected configuration;
    times the product of sum out-degrees it bounds the optimum from above.
    Runs in time linear in the network size.  Networks of ``_LEVELLED_MIN``
    entries or more run the upward pass, a max at each sum, and the
    evaluation at the selected configuration as one column of
    ``inference._groups_pass`` over ``Network._plan``; the upward pass has
    the values and choices of the per-entry loop that smaller networks run.
    The network keeps the last result (``Network._max_product``), keyed by
    the evidence pairs once checked; equal pairs get it with a fresh copy of
    its configuration.
    """
    evidence = dict(evidence or {})
    check_evidence(network, evidence)
    key, kept = tuple(evidence.items()), getattr(network, "_max_product", None)
    if kept is None or kept[0] != key:
        upward, choice = _max_pass(network, evidence)
        bound = value = Probability(upward)
        if bound.is_zero:
            config = decode_configuration(network, evidence, 0)
        else:
            config = {**evidence, **_walk(network, evidence, network._compiled.root, choice)}
            value = _evaluate(network, config)
        kept = network._max_product = (key, MapResult(config, value, Solver.MAX_PRODUCT, bound))
    # A copy, with the caller's evidence values: numpy integers may equal the kept ones.
    return replace(kept[1], configuration={**kept[1].configuration, **evidence})


def argmax_product(network: Network, evidence: Mapping[int, int] | None = None) -> MapResult:
    """Max-product's result, improved by choosing each sum's child by re-evaluation.

    Starts from ``max_product``'s kept result.  Each sum with several children
    evaluates its sub-DAG at the configuration that each child's chosen tree
    induces, and chooses the first best child.  Choices are per sum, so a
    shared node contributes one consistent choice.
    Networks of ``_LEVELLED_MIN`` entries or more choose in waves: a wave
    holds the sums of one height and one out-degree, so every sum below it
    has chosen.  One numpy pass per wave walks its candidates' chosen trees,
    scores the candidates that agree on a sum's scope once, and evaluates all
    its sums' sub-DAGs level by level.  Its choices are bit for bit those of
    the per-sum loop that smaller networks run.  The configuration chosen
    from the root replaces max-product's unless it scores strictly lower, so
    the result is never worse.  A root sum of a wave, over every variable,
    takes its chosen candidate and its score, the bits of ``evaluate``, from
    that wave; otherwise the chosen tree is walked and evaluated as
    ``max_product`` evaluates.  Worst case quadratic in network size.
    """
    base = max_product(network, evidence)
    if base.pd_value.is_zero:
        return MapResult(base.configuration, base.value, Solver.ARGMAX_PRODUCT)
    evidence = dict(evidence or {})
    choice, top = (_choose_by_wave if _levelled(network) else _choose_by_sum)(network, evidence)
    if top is None:
        config = _walk(network, evidence, network._compiled.root, choice)
        top = config, base.value if config == base.configuration else _evaluate(network, config)
    config, value = top
    # With nested sums the candidate can score below max-product's configuration,
    # whose value feeds cross terms that the candidate pass never sees.
    if base.value.log > value.log:
        config, value = base.configuration, base.value
    return MapResult(config, value, Solver.ARGMAX_PRODUCT)


#: The levelled pass takes a wave's candidate rows in blocks of about this
#: many (pair, candidate row) values, and at least one row.
_CHUNK_VALUES = 1 << 17


def _choose_by_sum(network: Network, evidence: Mapping[int, int]) -> tuple[dict, None]:
    """Each sum's choice by child index, one ``_batch_upward`` per sum, children first; ``None``."""
    offset, numbering = network._lists.param_offset, network._numbering
    choice: dict[int, int] = {}
    for e in numbering.internal:  # children first, so their choices are made
        # A sum has one weight per child and a product none, so this skips
        # every node with no choice to make.
        if offset[e + 1] - offset[e] < 2:
            continue
        candidates = [_walk(network, evidence, kid, choice) for kid in numbering.children[e]]
        # Candidates of an incomplete sum (an invalid network) can miss scope
        # variables; those read category 0.
        scope = list(numbering.scopes[e])
        rows = np.array([[c.get(var, 0) for c in candidates] for var in scope], dtype=np.intp)
        choice[e] = int(np.argmax(_batch_upward(network, e, dict(zip(scope, rows)))))
    return choice, None


def _choose_by_wave(network: Network, evidence: Mapping[int, int]) -> tuple[dict, tuple | None]:
    """``_choose_by_sum``'s choices, made one wave of ``Network._waves`` at a time.

    Also the root's chosen candidate and its score, if the root is a sum of
    a wave over every variable and the candidate's tree reaches each of them.
    """
    # Each entry's chosen tree follows ``count`` children from child index
    # ``skip``: all of them, or the one its sum chose.
    follow = np.zeros_like(network._plan.fan), network._plan.fan.copy()
    choice: dict[int, int] = {}
    root, top = network._compiled.root, None
    for wave in network._waves:
        scores, (cat_rows, row, reached) = _score_wave(network, follow, evidence, choice, wave)
        picks = scores.argmax(axis=1)  # the first best child
        follow[0][wave.sums] = picks
        follow[1][wave.sums] = 1
        choice.update(zip(wave.sums.tolist(), picks.tolist()))
        for i in (wave.sums == root).nonzero()[0].tolist():
            j, slots = picks[i], slice(wave.slot_first[i], wave.slot_first[i + 1])
            if slots.stop - slots.start == len(network.variables) and reached[slots, j].all():
                slot_var, cats = wave.slot_var[slots].tolist(), cat_rows[slots, row[i, j]].tolist()
                top = dict(zip(slot_var, cats)), Probability(float(scores[i, j]))
    return choice, top


def _score_wave(
    network: Network,
    follow: tuple[np.ndarray, np.ndarray],
    evidence: Mapping[int, int],
    choice: Mapping[int, int],
    wave: _Wave,
) -> tuple[np.ndarray, tuple]:
    """Each sum's log value at each child's candidate, one row per sum, and ``_candidate_rows``."""
    candidates = cat_rows, row, _ = _candidate_rows(network, follow, evidence, choice, wave)
    top_values = _levelled_pass(network, wave, cat_rows)
    return top_values[np.arange(len(row))[:, None], row], candidates


def _candidate_rows(
    network: Network,
    follow: tuple[np.ndarray, np.ndarray],
    evidence: Mapping[int, int],
    choice: Mapping[int, int],
    wave: _Wave,
) -> tuple[np.ndarray, np.ndarray]:
    """The candidates' categories, one row per sum and distinct candidate.

    Returns the categories by slot and row (a variable a candidate misses
    reads 0), each candidate's row, by sum and child, and by slot and child
    the count of leaves that the candidate's tree reaches there.
    """
    variable, shared = network._tables.variable, network._arrays.shared
    entry, kid, kid_start = wave.entry, wave.kid, wave.kid_start
    (w, k), leaves = wave.groups[-1][2].shape, len(wave.slot)
    roots = wave.groups[-1][2].ravel()  # candidate ``i * k + j`` is child ``j`` of sum ``i``

    # The leaf pairs of each candidate's chosen tree.
    skip, count = follow
    at, by = roots, np.arange(w * k)
    hit_pair, hit_by, walked = [], [], []
    while at.size:
        if shared:  # a tree that reaches an entry twice is walked in Python
            keys, counts = np.unique(by * len(entry) + at, return_counts=True)
            walked.append(keys[counts > 1] // len(entry))
            by, at = np.divmod(keys, len(entry))
        leaf = at < leaves
        hit_pair.append(at[leaf])
        hit_by.append(by[leaf])
        inner = ~leaf
        at = at[inner]
        e = entry[at]
        by, at = by[inner].repeat(count[e]), kid[_ragged(kid_start[at] + skip[e], count[e])]
    hit_pair, hit_by = np.concatenate(hit_pair), np.concatenate(hit_by)

    # Each candidate's category on each slot: the evidence, else its leaf's best.
    hit_ent = entry[hit_pair]
    cat = network._compiled.best[hit_ent]
    if evidence:
        fixed = np.full(len(network.variables), -1)
        fixed[list(evidence)] = list(evidence.values())
        cat = np.where((given := fixed[variable[hit_ent]]) >= 0, given, cat)
    cell = wave.slot[hit_pair] * k + hit_by % k
    slot_sum, slot_first = wave.slot_sum, wave.slot_first
    table = np.zeros((len(slot_sum), k), dtype=np.intp)
    table.flat[cell] = cat
    reached = np.bincount(cell, minlength=table.size)
    clash = (reached > 1).nonzero()[0]
    walked.append(slot_sum[clash // k] * k + clash % k)
    for c in sorted(set(np.concatenate(walked).tolist())):  # its first-visited leaf wins
        i, j = divmod(c, k)
        config = _walk(network, evidence, int(entry[roots[c]]), choice)
        slots = slice(slot_first[i], slot_first[i + 1])
        table[slots, j] = [config.get(v, 0) for v in wave.slot_var[slots].tolist()]

    # Candidates equal on the sum's scope share a row: code each in base ``radix``.
    # A sum whose codes could pass 2**62 scores each candidate on its own row.
    code = np.add.reduceat(table * wave.digit[:, None], slot_first[:-1], axis=0)
    code[~wave.coded] = np.arange(k)
    by_code = code.argsort(axis=1)
    sums = np.arange(w)[:, None]
    ranked = code[sums, by_code]
    rank = np.zeros((w, k), dtype=np.intp)
    (ranked[:, 1:] != ranked[:, :-1]).cumsum(axis=1, out=rank[:, 1:])
    row = np.empty_like(rank)
    row[sums, by_code] = rank
    rep = by_code[:, :1].repeat(int(rank[:, -1].max()) + 1, axis=1)  # padding repeats row 0
    rep[sums, rank] = by_code
    return table[np.arange(len(slot_sum))[:, None], rep[slot_sum]], row, reached.reshape(-1, k)


def _levelled_pass(network: Network, wave: _Wave, cat_rows: np.ndarray) -> np.ndarray:
    """Each sum's log value at each of its candidate rows.

    The pass takes the rows in blocks of about ``_CHUNK_VALUES`` values over
    all the wave's pairs, and at least one row, as enumeration takes its blocks.
    """
    log_table = network._compiled.log_table
    leaves, size, rows = len(wave.slot), len(wave.entry), cat_rows.shape[1]
    start = network._tables.param_offset[wave.entry[:leaves]][:, None]
    block = min(rows, max(1, _CHUNK_VALUES // size))
    top_vals = np.empty((len(wave.sums), rows))
    for r0 in range(0, rows, block):
        cats = cat_rows[:, r0 : r0 + block]
        vals = np.empty((size, cats.shape[1]))
        at = cats[wave.slot]
        at += start
        np.take(log_table, at, out=vals[:leaves], mode="clip")  # in range; "clip" spares a copy
        _groups_pass(wave.groups, vals)
        top_vals[:, r0 : r0 + block] = vals[size - len(wave.sums) :]
    return top_vals


def exact_map(network: Network, evidence: Mapping[int, int] | None = None) -> MapResult:
    """Exhaustive search over every assignment consistent with the evidence."""
    best_index, best_value = 0, LOG_ZERO
    for start, values in enumerate_log_values(network, evidence):
        j = int(np.argmax(values))
        if values[j] > best_value:
            best_index, best_value = start + j, float(values[j])
    config = decode_configuration(network, evidence, best_index)
    return MapResult(config, _evaluate(network, config), Solver.EXACT)


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
    from fractions import Fraction  # here, so that a process that never decides skips it

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
