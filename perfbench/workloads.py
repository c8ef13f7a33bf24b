"""The benchmark's four workloads: inputs made from the seed, operations, oracles.

Each workload class turns ``(seed, small)`` into inputs (``generate``, the
timed part of set-up), computes the expected answers with oracles that share
no code with the solvers under test (``prepare``), and returns its
operations.  An operation's ``check`` returns the failed checks by name and
the counts that must repeat exactly on every pass and every run of the same
code with the same seed.  ``small`` shrinks every input for the smoke test.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from spnmap import experiments, formats, inference, network, reductions, solvers
from spnmap.logspace import LOG_ZERO
from spnmap.network import LeafNode, Network, ProductNode, SumNode

#: Failed checks that the library is known to get wrong at this benchmark's
#: inputs, as ``(operation label, check name)``.  They count in ``failed``
#: (and so in the error rate) but do not make the run incorrect.
KNOWN_DEFECTS = {
    # decision_map compares linear values, and float((1/7)**400) is 0.0.
    ("unsat400", "decision_verdict"),
}

#: Relative tolerance of log-space comparisons against the oracles.
LOG_TOL = 1e-9


def log_leq(a: float, b: float) -> bool:
    """``a <= b`` in log space, allowing ``LOG_TOL`` relative slack."""
    return a <= b + LOG_TOL * max(1.0, abs(b))


def log_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=LOG_TOL, abs_tol=LOG_TOL)


@dataclass
class Op:
    """One operation of a workload, timed as a whole."""

    label: str
    #: Called with ``pause``, which a long operation may call between stages.
    run: Callable[[Callable[[], None]], object]
    check: Callable[[object], tuple[list[str], dict]]
    work: float = 1.0
    headline: bool = False
    #: Extra calls made after the operation in traced passes only.
    probe: Callable[[object], None] | None = None
    #: Replaces ``run`` in traced passes; gets the tracer and the op span.
    run_traced: Callable[[object, int], object] | None = None


def mis_oracle_log(graph) -> float:
    """Log of the independent-set network's MAP value, ``|MIS| / c``.

    The set size is a maximum clique of the complement graph (networkx);
    ``c`` is the exact integer normalizer recomputed from the degrees.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    size = len(nx.max_weight_clique(nx.complement(g), weight=None)[0])
    c = sum(2 ** (graph.n - degree - 1) for _, degree in g.degree())
    return math.log(size) - math.log(c)


def postorder(net: Network) -> list[int]:
    """Children-before-parents order of the nodes below the root."""
    order: list[int] = []
    seen = {net.root}
    stack = [(net.root, iter(net.nodes[net.root].children))]
    while stack:
        nid, children = stack[-1]
        child = next(children, None)
        if child is None:
            order.append(nid)
            stack.pop()
        elif child not in seen:
            seen.add(child)
            stack.append((child, iter(net.nodes[child].children)))
    return order


def linear_values(net: Network, order: list[int], columns: dict[int, np.ndarray]) -> np.ndarray:
    """Root value in the linear domain for each row of per-variable category columns."""
    vals: dict[int, np.ndarray] = {}
    for nid in order:
        node = net.nodes[nid]
        if isinstance(node, LeafNode):
            vals[nid] = np.asarray(node.distribution)[columns[node.variable]]
        elif isinstance(node, ProductNode):
            vals[nid] = np.prod([vals[c] for c in node.children], axis=0)
        else:
            vals[nid] = sum(w * vals[c] for w, c in zip(node.weights, node.children))
    return vals[net.root]


def brute_max_log(net: Network, evidence: dict[int, int], chunk: int = 1 << 12) -> float:
    """Log of the largest value over every assignment consistent with the evidence."""
    order = postorder(net)
    free = [v for v in net.variables if v.index not in evidence]
    total = math.prod(v.cardinality for v in free)
    best = 0.0
    for start in range(0, total, chunk):
        rest = np.arange(start, min(start + chunk, total))
        columns = {var: np.full(len(rest), cat) for var, cat in evidence.items()}
        for v in reversed(free):
            columns[v.index] = rest % v.cardinality
            rest = rest // v.cardinality
        best = max(best, float(linear_values(net, order, columns).max()))
    return math.log(best) if best > 0 else LOG_ZERO


def reparameterized(net: Network, rng: random.Random) -> Network:
    """The same structure with leaf and sum parameters redrawn as ``random_spn`` draws them."""
    nodes = {}
    for nid, node in net.nodes.items():
        if isinstance(node, LeafNode):
            p = rng.random()
            nodes[nid] = LeafNode(node.variable, (1.0 - p, p))
        elif isinstance(node, SumNode):
            raw = [rng.random() + 0.05 for _ in node.children]
            nodes[nid] = SumNode(node.children, tuple(w / sum(raw) for w in raw))
        else:
            nodes[nid] = node
    return Network(nodes, net.root, net.variables)


def sized_spn(variables: int, height: int, band: tuple[int, int]) -> Network:
    """First ``random_spn`` structure, in a fixed seed sequence, whose node count lies in ``band``."""
    for k in itertools.count():
        net = experiments.random_spn(variables, height, seed=experiments.derive_seed(0, "structure", variables, k))
        if band[0] <= len(net.nodes) <= band[1]:
            return net


def sandwich(mp, am, exact_log: float | None) -> list[str]:
    """Failed checks of ``pd <= max-product <= argmax-product (<= exact)`` in log space.

    ``pd_value`` is only required to stay below the max-product value; it is
    not an upper bound on the optimum.
    """
    failed = []
    if not log_leq(mp.pd_value.log, mp.value.log):
        failed.append("pd_le_max_product")
    if not log_leq(mp.value.log, am.value.log):
        failed.append("max_product_le_argmax_product")
    if exact_log is not None and not log_leq(am.value.log, exact_log):
        failed.append("argmax_product_le_exact")
    return failed


def ratio_of_logs(argmax_log: float, maxprod_log: float) -> float:
    """The ratio study's per-instance value ratio, computed as the harness does."""
    if argmax_log == LOG_ZERO and maxprod_log == LOG_ZERO:
        return 1.0
    if maxprod_log == LOG_ZERO:
        return math.inf
    return math.exp(argmax_log - maxprod_log)


def percentile_with_tail(values: list[float]) -> tuple[int, float] | None:
    """Highest of p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def timing(name: str, values: list[float], unit: str, scale: float) -> dict:
    """A median and its high percentile, with the sample count."""
    out = {f"{name}_p50": {"value": statistics.median(values) * scale, "unit": unit, "samples": len(values)}}
    tail = percentile_with_tail(values)
    if tail is not None:
        out[f"{name}_p{tail[0]}"] = {"value": tail[1] * scale, "unit": unit, "samples": len(values)}
    return out


class RatioStudy:
    """The paper's argmax-product / max-product ratio study (acceptance criterion 07)."""

    name = "ratio_study"

    def __init__(self, seed: int, small: bool) -> None:
        self.seed = seed
        self.vertices = (5, 8) if small else (5, 10, 20)
        self.percentages = (10.0, 40.0) if small else (10.0, 20.0, 40.0, 60.0)
        self.repetitions = 3 if small else 100

    def generate(self):
        # Repetition-major, so each size is spread over the whole pass and its
        # timings see the same machine speed as the others.
        return [
            (n, pct, experiments.derive_seed(self.seed, n, pct, rep))
            for rep in range(self.repetitions)
            for n in self.vertices
            for pct in self.percentages
        ]

    def prepare(self, instances) -> list[Op]:
        largest = max(self.vertices)
        self.cells = [(n, pct) for n, pct, _ in instances]
        ops = []
        for n, pct, graph_seed in instances:
            graph = experiments.random_graph(n, pct, graph_seed)
            ops.append(
                Op(
                    f"n{n}",
                    lambda pause, n=n, pct=pct, s=graph_seed: self._solve(n, pct, s),
                    lambda out, n=n, e=len(graph.edges), x=mis_oracle_log(graph): self._check(out, n, e, x),
                    headline=n == largest,
                    probe=lambda out: inference.evaluate_marginal(out[1]),
                )
            )
        return ops

    @staticmethod
    def _solve(n, pct, graph_seed):
        graph = experiments.random_graph(n, pct, graph_seed)
        net = reductions.mis_to_spn(graph).network
        return graph, net, solvers.max_product(net), solvers.argmax_product(net)

    @staticmethod
    def _check(out, n, edges, exact_log):
        graph, net, mp, am = out
        failed = sandwich(mp, am, exact_log)
        if len(graph.edges) != edges:
            failed.append("edge_count")
        if len(net.nodes) != n * n + n + 1:
            failed.append("node_count")
        counts = {
            "nodes": len(net.nodes),
            "arcs": net.arc_count,
            "amap_gain": int(am.value.log > mp.value.log),
            "ratio": ratio_of_logs(am.value.log, mp.value.log),
        }
        return failed, counts

    def finish(self, pass_counts: list[dict], pass_seconds: float, speed) -> tuple[list[str], dict]:
        """Cell means must equal ``run_mis_experiment``'s bit for bit."""
        config = experiments.ExperimentConfig(self.vertices, self.percentages, self.repetitions, self.seed)
        t0 = perf_counter()
        rows = experiments.run_mis_experiment(config)
        harness_s = perf_counter() - t0
        speed.sample()
        harness_s = speed.scale([(t0, harness_s)])
        cells: dict[tuple, list[dict]] = {}
        for cell, counts in zip(self.cells, pass_counts):
            cells.setdefault(cell, []).append(counts)
        failed = [] if len(rows) == len(cells) else ["cell_count"]
        for row in rows:
            cell = cells.get((row.vertices, row.edge_pct), [{}])
            mean = math.fsum(c.get("ratio", math.nan) for c in cell) / len(cell)
            if row.mean_ratio != mean or row.node_count != cell[-1].get("nodes"):
                failed.append(f"cell_mean n={row.vertices} pct={row.edge_pct}")
        layers = {
            "experiments.run_mis_experiment_s": harness_s,
            "experiments.harness_overhead": harness_s / pass_seconds,
        }
        return failed, layers

    def named(self, samples) -> dict:
        durations = [d for _, d, _ in samples]
        largest = [d for label, d, _ in samples if label == f"n{max(self.vertices)}"]
        out = {"ratio_instances_per_s": {"value": len(durations) / sum(durations), "unit": "1/s", "samples": len(durations)}}
        out.update(timing(f"ratio_n{max(self.vertices)}_ms", largest, "ms", 1e3))
        return out


#: The unsatisfiable 3-variable formula with all eight sign patterns.
UNSAT = reductions.CnfFormula(3, tuple(tuple(s * v for s, v in zip(signs, (1, 2, 3))) for signs in itertools.product((1, -1), repeat=3)))
#: The satisfiable two-clause formula of acceptance criterion 06.
SAT = reductions.CnfFormula(4, ((-1, 2, -3), (-1, 3, 4)))


def satisfiable(formula) -> bool:
    return any(
        all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause) for clause in formula.clauses)
        for bits in itertools.product((False, True), repeat=formula.n)
    )


class AmplifiedCnf:
    """Amplified 3-CNF hardness instances through the whole pipeline."""

    name = "amplified_cnf"

    def __init__(self, seed: int, small: bool) -> None:
        self.copies = {"unsat": 8 if small else 400, "sat": 6 if small else 300}

    def generate(self):
        return [(f"{kind}{q}", formula, q) for (kind, q), formula in zip(self.copies.items(), (UNSAT, SAT))]

    def prepare(self, instances) -> list[Op]:
        ops = []
        for label, formula, q in instances:
            threshold = Fraction(8, 7 * 2**formula.n) ** q
            ops.append(
                Op(
                    label,
                    lambda pause, f=formula, q=q: self._pipeline(f, q, pause),
                    lambda out, f=formula, q=q, t=threshold: self._check(out, f, q, t),
                    headline=label.startswith("unsat"),
                )
            )
        return ops

    @staticmethod
    def _pipeline(formula, q, pause):
        amplified = reductions.amplify(reductions.cnf_to_spn(formula), q)
        pause()
        text = formats.serialize_spn(amplified.network)
        pause()
        net = formats.parse_spn(text)
        pause()
        violations = network.validate(net)
        mass = inference.evaluate_marginal(net)
        mp = solvers.max_product(net)
        pause()
        am = solvers.argmax_product(net)
        pause()
        verdict = solvers.decision_map(net, None, float(amplified.normalizer), solvers.Solver.MAX_PRODUCT)
        return amplified, text, net, violations, mass, mp, am, verdict

    @staticmethod
    def _check(out, formula, q, threshold):
        amplified, text, net, violations, mass, mp, am, verdict = out
        m, n = len(formula.clauses), formula.n
        # Exact log of the rational threshold, from its integer parts.
        log_threshold = math.log(threshold.numerator) - math.log(threshold.denominator)
        sat = satisfiable(formula)
        failed = sandwich(mp, am, None)
        if amplified.normalizer != threshold:
            failed.append("threshold")
        if not len(amplified.network.nodes) == len(net.nodes) == 1 + q * (1 + 7 * m * (1 + n)):
            failed.append("node_count")
        if violations:
            failed.append("validate")
        if not log_close(mass.log, 0.0):
            failed.append("total_mass")
        if sat and not log_close(am.value.log, log_threshold):
            failed.append("satisfiable_value")
        if not sat and not log_leq(am.value.log, log_threshold + q * math.log((m - 1) / m)):
            failed.append("unsatisfiable_gap")
        if verdict != sat:
            failed.append("decision_verdict")
        counts = {
            "nodes": len(net.nodes),
            "arcs": net.arc_count,
            "chars": len(text),
            "amap_gain": int(am.value.log > mp.value.log),
        }
        return failed, counts

    def finish(self, pass_counts, pass_seconds, speed):
        return [], {}

    def named(self, samples) -> dict:
        out = {}
        for kind, q in self.copies.items():
            values = [d for label, d, _ in samples if label == f"{kind}{q}"]
            out[f"cnf_{kind}{q}_s"] = {"value": statistics.median(values), "unit": "s", "samples": len(values)}
        return out


class ExactEnum:
    """Exhaustive MAP and the partition function over 2^18 configurations each."""

    name = "exact_enum"

    def __init__(self, seed: int, small: bool) -> None:
        self.seed = seed
        self.mis_n = 8 if small else 18
        # (variables, height, node-count band) of the two random structures.
        self.map_shape = (10, 4, (20, 200)) if small else (20, 6, (300, 360))
        self.sum_shape = (8, 4, (20, 200)) if small else (18, 6, (300, 360))

    def generate(self):
        rng = random.Random(experiments.derive_seed(self.seed, "exact"))
        inputs = []
        for pct in (10.0, 40.0):
            graph = experiments.random_graph(self.mis_n, pct, experiments.derive_seed(self.seed, "exact", pct))
            inputs.append((f"mis{pct:g}_map", graph, reductions.mis_to_spn(graph).network, {}))
        map_net = reparameterized(sized_spn(*self.map_shape), rng)
        evidence = {var: rng.randrange(2) for var in sorted(rng.sample(range(self.map_shape[0]), 2))}
        inputs.append(("spn_map", None, map_net, evidence))
        inputs.append(("spn_partition", None, reparameterized(sized_spn(*self.sum_shape), rng), None))
        return inputs

    def prepare(self, inputs) -> list[Op]:
        ops = []
        for label, graph, net, evidence in inputs:
            configs = math.prod(v.cardinality for v in net.variables if v.index not in (evidence or {}))
            if evidence is None:
                ops.append(Op(label, lambda pause, net=net: inference.log_partition(net), self._check_partition(net), work=configs))
                continue
            exact_log = mis_oracle_log(graph) if graph is not None else brute_max_log(net, evidence)
            mp = solvers.max_product(net, evidence)
            am = solvers.argmax_product(net, evidence)
            ops.append(
                Op(
                    label,
                    lambda pause, net=net, ev=evidence: solvers.exact_map(net, ev),
                    lambda out, net=net, ev=evidence, x=exact_log, mp=mp, am=am: self._check_map(out, net, ev, x, mp, am),
                    work=configs,
                    headline=graph is not None,
                    probe=lambda out, net=net: inference.evaluate_marginal(net),
                )
            )
        return ops

    @staticmethod
    def _check_map(result, net, evidence, exact_log, mp, am):
        failed = sandwich(mp, am, result.value.log)
        if not log_close(result.value.log, exact_log):
            failed.append("exact_value")
        if any(result.configuration.get(var) != cat for var, cat in evidence.items()):
            failed.append("evidence")
        counts = {"nodes": len(net.nodes), "arcs": net.arc_count, "amap_gain": int(am.value.log > mp.value.log)}
        return failed, counts

    @staticmethod
    def _check_partition(net):
        def check(log_z):
            failed = [] if abs(log_z) <= LOG_TOL else ["log_partition"]
            return failed, {"nodes": len(net.nodes), "arcs": net.arc_count}

        return check

    def finish(self, pass_counts, pass_seconds, speed):
        return [], {}

    def named(self, samples) -> dict:
        durations = [d for _, d, _ in samples]
        configs = sum(w for _, _, w in samples)
        return {"exact_configs_per_s": {"value": configs / sum(durations), "unit": "1/s", "samples": len(durations)}}


def parse_cli_output(stdout: str) -> tuple[float, str]:
    """``(logvalue, config line)`` from the output of ``spnmap map``."""
    lines = stdout.splitlines()
    tokens = lines[0].split()
    if len(lines) != 2 or tokens[0] != "value" or tokens[2] != "logvalue" or not lines[1].startswith("config "):
        raise ValueError(f"unexpected output {stdout[:200]!r}")
    return float(tokens[3]), lines[1]


class CliMap:
    """Cold ``spnmap map --algo amap`` processes on the criterion 08 document.

    The processes are started through ``spawner`` (``spawner.Spawner``),
    which also reports their peak resident memory.
    """

    name = "cli_map"

    def __init__(self, seed: int, small: bool, root: Path, out_dir: Path, spawner) -> None:
        self.seed = seed
        self.n = 12 if small else 80
        self.root = root
        self.doc = out_dir / f"cli_map-{self.n}-{seed}.spn"
        self.spawner = spawner

    def generate(self):
        graph = experiments.random_graph(self.n, 10.0, experiments.derive_seed(self.seed, "scale"))
        text = formats.serialize_spn(reductions.mis_to_spn(graph).network)
        self.doc.write_text(text, encoding="utf-8")
        return text

    def prepare(self, text) -> list[Op]:
        net = formats.parse_spn(text)
        valid = not network.validate(net)
        expected = solvers.argmax_product(net)
        pairs = " ".join(f"{var}={cat}" for var, cat in sorted(expected.configuration.items()))

        def check(done):
            failed, counts = self._check(done, net, expected.value.log, f"config {pairs}")
            return failed + ([] if valid else ["validate"]), counts

        return [Op("call", self._call, check, headline=True, run_traced=self._call_traced)]

    def _argv(self):
        return ["map", "--algo", "amap", str(self.doc)]

    def _call(self, pause):
        return self.spawner.run(["-m", "spnmap.cli", *self._argv()])

    def _call_traced(self, tracer, parent: int):
        spans_file = self.doc.with_suffix(".spans.json")
        done = self.spawner.run([str(self.root / "perfbench" / "cli_child.py"), str(spans_file), *self._argv()])
        if done.returncode == 0:
            tracer.adopt(json.loads(spans_file.read_text(encoding="utf-8")), parent)
        return done

    @staticmethod
    def _check(done, net, expected_log, expected_config):
        if done.returncode != 0:
            return [f"exit_code {done.returncode}: {done.stderr.strip()[-200:]}"], {}
        logvalue, config = parse_cli_output(done.stdout)
        failed = []
        if logvalue != expected_log:
            failed.append("logvalue")
        if config != expected_config:
            failed.append("configuration")
        return failed, {"nodes": len(net.nodes), "arcs": net.arc_count}

    def finish(self, pass_counts, pass_seconds, speed):
        return [], {}

    def named(self, samples) -> dict:
        return timing("cli_map_ms", [d for _, d, _ in samples], "ms", 1e3)


WORKLOADS = {cls.name: cls for cls in (RatioStudy, AmplifiedCnf, ExactEnum, CliMap)}
