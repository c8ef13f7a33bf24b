"""Random instances and the approximation-ratio study.

The harness compiles random graphs into independent-set networks, runs both
approximate MAP solvers on each, and aggregates the per-instance value
ratio.  Seeds are derived with a stable 64-bit hash so runs are
reproducible bit for bit across processes.  ``random_spn`` produces valid
networks by construction for property tests, and ``gap_network`` builds the
family on which argmax-product beats max-product by a factor of ``2.2**m``.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .logspace import LOG_ZERO
from .network import _LEAF, _PRODUCT, _SUM, Network, Variable, _Tables
from .reductions import Graph, ReductionResult, amplify, mis_to_spn
from .solvers import argmax_product, max_product


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid of graph sizes and densities for the ratio study."""

    vertex_counts: tuple[int, ...]
    edge_percentages: tuple[float, ...]
    repetitions: int = 100
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        if any(n < 2 for n in self.vertex_counts):
            raise ValueError("vertex counts must be at least 2")
        if any(not 0 < pct <= 100 for pct in self.edge_percentages):
            raise ValueError("edge percentages must lie in (0, 100]")


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregated results for one (vertices, edge percentage) cell."""

    vertices: int
    edge_pct: float
    node_count: int
    mean_ratio: float
    stddev_ratio: float
    mean_seconds_max_product: float
    mean_seconds_argmax_product: float


def derive_seed(base_seed: int, *parts: object) -> int:
    """Stable 64-bit seed mixed from the base seed and any hashable parts."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(repr(int(base_seed)).encode())
    for part in parts:
        digest.update(b"|")
        digest.update(repr(part).encode())
    return int.from_bytes(digest.digest(), "big")


def random_graph(n: int, edge_pct: float, seed: int) -> Graph:
    """Uniform random graph with ``round(edge_pct% of n(n-1)/2)`` edges, at least one.

    Rounding is half-up.  Edges are drawn without replacement, so the edge
    count is exact.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if not 0 < edge_pct <= 100:
        raise ValueError(f"edge percentage must lie in (0, 100], got {edge_pct}")
    possible = n * (n - 1) // 2
    count = max(1, math.floor(edge_pct / 100.0 * possible + 0.5))
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rng.sample(pairs, count))


def _ratio_from_logs(argmax_log: float, maxprod_log: float) -> float:
    if argmax_log == LOG_ZERO and maxprod_log == LOG_ZERO:
        return 1.0
    if maxprod_log == LOG_ZERO:
        return math.inf
    try:
        return math.exp(argmax_log - maxprod_log)
    except OverflowError:  # the ratio exceeds the largest float
        return math.inf


def ratio(network: Network, evidence: Mapping[int, int] | None = None) -> float:
    """Value of the argmax-product configuration over the max-product one.

    Both zero gives 1.  A zero denominator with a nonzero numerator gives
    ``inf``, and so does a ratio beyond the largest float.
    """
    base = max_product(network, evidence)  # kept by the network for argmax-product
    return _ratio_from_logs(argmax_product(network, evidence).value.log, base.value.log)


def run_mis_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Run the ratio study over the full grid; rows follow the config order."""
    rows = []
    for n in config.vertex_counts:
        for pct in config.edge_percentages:
            ratios: list[float] = []
            times_mp: list[float] = []
            times_am: list[float] = []
            node_count = 0
            for rep in range(config.repetitions):
                seed = derive_seed(config.base_seed, n, pct, rep)
                graph = random_graph(n, pct, seed)
                network = mis_to_spn(graph).network
                node_count = len(network.nodes)
                t0 = time.perf_counter()
                mp = max_product(network)
                t1 = time.perf_counter()
                am = argmax_product(network)  # from max-product's result, which the network kept
                t2 = time.perf_counter()
                times_mp.append(t1 - t0)
                times_am.append(t2 - t0)
                ratios.append(_ratio_from_logs(am.value.log, mp.value.log))
            mean = math.fsum(ratios) / len(ratios)
            stddev = statistics.stdev(ratios) if len(ratios) > 1 else 0.0
            rows.append(
                ExperimentRow(
                    vertices=n,
                    edge_pct=pct,
                    node_count=node_count,
                    mean_ratio=mean,
                    stddev_ratio=stddev,
                    mean_seconds_max_product=math.fsum(times_mp) / len(times_mp),
                    mean_seconds_argmax_product=math.fsum(times_am) / len(times_am),
                )
            )
    return rows


def random_spn(variable_count: int, max_height: int, seed: int = 0) -> Network:
    """Generate a valid network over binary variables, deterministic in the seed.

    Sum nodes mix two or three children over the same scope; product nodes
    split the scope into two or three random disjoint parts.  When the
    height budget runs out on a multi-variable scope, a product splits it
    into single-variable leaves, which may be more than three.  Each node
    is written to flat tables as it is made, children first, so its id is
    its creation index and the root is the last node.
    """
    if variable_count < 1:
        raise ValueError("need at least one variable")
    if max_height < 0:
        raise ValueError("max height must be nonnegative")
    if variable_count > 1 and max_height < 1:
        raise ValueError(f"{variable_count} variables cannot fit under a height-0 network")
    rng = random.Random(seed)
    kind, variable, child_index, params = [], [], [], []
    child_offset, param_offset = [0], [0]

    def add(node_kind: int, var: int, children, weights) -> int:
        kind.append(node_kind)
        variable.append(var)
        child_index.extend(children)
        child_offset.append(len(child_index))
        params.extend(weights)
        param_offset.append(len(params))
        return len(kind) - 1

    def leaf(var: int) -> int:
        p = rng.random()
        return add(_LEAF, var, (), (1.0 - p, p))

    def mixture(scope: list[int], height: int) -> int:
        children = [generate(scope, height - 1) for _ in range(rng.randint(2, 3))]
        raw = [rng.random() + 0.05 for _ in children]
        total = sum(raw)
        return add(_SUM, -1, children, [w / total for w in raw])

    def generate(scope: list[int], height: int) -> int:
        if len(scope) == 1:
            if height < 1 or rng.random() < 0.5:
                return leaf(scope[0])
            return mixture(scope, height)
        if height == 1:
            return add(_PRODUCT, -1, [leaf(v) for v in scope], ())
        if rng.random() < 0.5:  # a product over two or three random disjoint parts
            items = list(scope)  # a copy to shuffle: a sum's children share its scope
            rng.shuffle(items)
            cuts = sorted(rng.sample(range(1, len(items)), rng.randint(2, min(3, len(items))) - 1))
            parts = zip([0, *cuts], [*cuts, len(items)])
            return add(_PRODUCT, -1, [generate(items[a:b], height - 1) for a, b in parts], ())
        return mixture(scope, height)

    root = generate(list(range(variable_count)), max_height)
    tables = _Tables(
        list(range(len(kind))), kind, child_offset, child_index, variable, param_offset, params
    )
    return Network._from_tables(tables, root, [Variable(i, 2) for i in range(variable_count)])


def gap_fragment() -> ReductionResult:
    """One-variable mixture on which re-evaluation beats max-propagation by 2.2.

    The deterministic-1 leaf carries the single largest weight (5/16), so
    max-product commits to it for a value of 5/16, while the three
    deterministic-0 leaves jointly hold 11/16, which argmax-product finds by
    re-evaluating each candidate.
    """
    # Sum 0 mixes leaves 1-4 of variable 0: leaf 1 is certainly 1, the others certainly 0.
    weights = [5 / 16, 11 / 48, 11 / 48, 11 / 48]
    tables = _Tables(
        [0, 1, 2, 3, 4], [_SUM, *[_LEAF] * 4], [0, *[4] * 5], [1, 2, 3, 4], [-1, 0, 0, 0, 0],
        [0, 4, 6, 8, 10, 12], [*weights, 0.0, 1.0, *[1.0, 0.0] * 3],
    )
    network = Network._from_tables(tables, 0, [Variable(0, 2)])
    return ReductionResult(network, Fraction(1), {"kind": "gap", "q": 1, "n": 1})


def gap_network(copies: int) -> Network:
    """Product of ``copies`` gap fragments; the solver ratio grows as ``2.2**copies``."""
    return amplify(gap_fragment(), copies).network
