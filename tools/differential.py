"""Compare what two checkouts of spnmap compute on one fixed corpus.

Usage::

    python tools/differential.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout runs this script again in its own subprocess, with
``PYTHONPATH=<checkout>/src``, and prints one line per output: solver
configurations with their values' logs in hex (so bit for bit), each
network's max-product, argmax-product, ``decision_map`` with max-product and
max-product again, in that order on one network object, marginals,
``log_partition``, ordered ``validate`` reports, topological orders, scopes,
``network_stats``, ``approx_factor_bound``, ``serialize_spn`` text, the
sha256 of each ``random_spn`` network's tables (so a draw that moves is
named, not only seen through the solvers), and the type and message of
every exception raised, ``ParseError`` included.  Long
outputs are replaced by their sha256.  The script prints each tree's output
count and digest.  When the trees disagree it lists every differing output
by label and kind, with the distance in units in the last place (of 1, for
floats below 1) of each float that differs where nothing else does, and
exits 1.

The corpus:

- criterion 07's ratio-study grid at base seed 0 (both approximate solvers,
  and ``exact_map`` for n <= 10)
- ``random_spn(1 + s % 8, 1 + s % 5, seed=s)`` for s < 300, with and without
  evidence ``{0: s % 2}``
- ``random_spn(4 + s % 5, 6 + s % 3, seed=1000 + s)`` for s < 60, networks
  of several waves of sums, with and without evidence ``{0: s % 2}``
- ``gap_network(1..10)``
- enumeration over several blocks, each one chunk: ``exact_map`` on the
  independent-set networks of ``random_graph(16, pct, derive_seed(0,
  "enumeration", pct))`` for pct 10 and 40, with evidence ``{}``, ``{0: 1}``
  and ``{15: 1}`` (a variable of the last block), ``exact_map`` and
  ``log_partition`` on ``random_spn(17, height, seed)`` for heights 5 and
  6 at seed 0 and 4 and 5 at seed 1, ``exact_map`` on ``random_spn(17, 6,
  seed=0)`` with evidence ``{1: 0, 14: 1}`` (a variable outside the block
  and one inside it), and both on ``mixed_spn`` networks over 9 variables
  of cardinality 2, 3 and 4 (11664 assignments), without evidence and with
  ``{7: 2}``
- wide sums: ``exact_map`` and ``log_partition`` on ``wide_sum(1)`` and
  ``wide_sum(6)``, sums of 130 leaves of one ternary variable and of 130
  products over six (729 assignments), most leaves 0 at two categories of
  three; and both approximate solvers on the independent-set network of
  ``random_graph(130, 10.0, derive_seed(0, "wide", 10.0))`` (17031
  entries), whose root wave sums 130 children
- the unsatisfiable 3-variable formula amplified 400 times and the
  satisfiable 4-variable one amplified 300 times, each serialized and parsed,
  and solved with evidence ``{}``, ``{0: 0}`` and ``{0: 1}``
- ``cli_map``'s document: the independent-set network of
  ``random_graph(80, 10.0, derive_seed(1, "scale"))``, solved with the same
  three evidences and with every vertex set to 0, which has no mass
- small random node dicts, many of them cyclic or with invalid parameters,
  and the first 100 that build, each amplified to at least 1024 entries
- three ``random_spn`` networks amplified to at least 1024 entries, each with
  one defect put in at a time: negative, NaN and infinite parameters, totals
  just inside and outside the tolerances, an unreachable leaf, cycles that the
  root reaches and that it does not, an incomplete sum, a non-decomposable
  product and a variable that no leaf covers
- malformed documents, each parsed and serialized again: every single-line
  edit (delete, duplicate, replace a token) of criterion 06's document (the
  satisfiable formula amplified once), and such edits of six lines of the
  satisfiable x300 document, which the parser reads in several blocks (two
  of the lines meet at the first block boundary)
- the satisfiable x300 document respelled, each parsed and serialized again:
  its probabilities written ``1.0``, ``1e0`` or ``+1`` for 1 and ``0.50`` for
  0.5, and its ids written with ``_`` or with Arabic-Indic digits; the parser
  reads some of these spellings by digit arithmetic and the others as
  ``float`` and ``int`` do
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

#: Outputs longer than this are printed as their sha256.
_LONGEST = 2000

#: ``exact_map`` and ``log_partition`` run only up to this many configurations.
_ENUMERATED = 1 << 12

_RANDOM_DICTS = 400

#: The random dicts, among the first that build, that are also amplified.
_AMPLIFIED_DICTS = 100

#: Tokens that the edited documents put in place of one token; "" drops it.
_EDIT_TOKENS = (
    "-1", "0", "1", "2", "7", "1_0", "0.5", "-0.0", "1e-300", "inf", "nan", "1e999",
    "100000000000000000000", "sum", "prod", "leaf", "node", "edge", "x", "", "0.2 0.3 0.5",
)
#: The lines of the x300 document that are edited, and the tokens put in.
_LARGE_EDITS = ((1, 3090, 11905, 11906, 30000, 42603), ("x", "-1", "0.5", "1e999", "99999", ""))

#: Spellings of the x300 document's probabilities and of its ids.
_PROBABILITIES = {"1.0": {"1": "1.0", "0.5": "0.50"}, "1e0": {"1": "1e0"}, "+1": {"1": "+1"}}
_IDS = {
    "underscore": lambda t: f"{t[0]}_{t[1:]}" if len(t) > 1 else t,
    "Arabic-Indic": lambda t: "".join(chr(0x660 + int(d)) for d in t),
}


def _render(value) -> str:
    """A stable text form; float logs in hex, so equal text means equal bits."""
    from spnmap import DegreeBound, MapResult, Probability, Violation

    if isinstance(value, MapResult):
        pd = None if value.pd_value is None else value.pd_value.log.hex()
        config = sorted(value.configuration.items())
        return f"{value.solver.value} {config} {value.value.log.hex()} {pd}"
    if isinstance(value, Probability):
        return value.log.hex()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, DegreeBound):
        bound = value.log2_degree_product.hex(), value.exponent_bound.hex()
        return f"DegreeBound {bound[0]} {value.size_lower_bound} {bound[1]}"
    if isinstance(value, list) and value and isinstance(value[0], Violation):
        return repr([(v.node_id, v.kind, v.message) for v in value])
    return repr(value)


def _emit(label: str, kind: str, call, *args) -> None:
    try:
        text = _render(call(*args))
    except Exception as exc:  # every failure is an output to compare
        text = f"raises {type(exc).__name__}: {exc}"
    if len(text) > _LONGEST:
        text = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    print(f"{label}\t{kind}\t{text}")


def _structure(label: str, net) -> None:
    import spnmap

    _emit(label, "nodes", lambda: [(i, net.nodes[i]) for i in net.nodes])
    _emit(label, "validate", spnmap.validate, net)
    _emit(label, "acyclic", lambda: net.is_acyclic)
    _emit(label, "order", net.topological_order)
    _emit(label, "scopes", lambda: [sorted(net.scope(i)) for i in net.nodes])
    _emit(label, "stats", spnmap.network_stats, net)
    _emit(label, "degree bound", spnmap.approx_factor_bound, net)
    _emit(label, "serialized", spnmap.serialize_spn, net)


def _tables(net) -> str:
    """sha256 of a network's tables: ids, root, variables, and each column's dtype and bytes."""
    t = net._tables
    variables = [(v.index, v.cardinality) for v in net.variables]
    digest = hashlib.sha256(repr((t.ids, net.root, variables)).encode())
    for column in t[1:]:
        digest.update(column.dtype.str.encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def _solve(label: str, net, evidence: dict, exact: bool) -> None:
    """The solvers' outputs on one network object, which may keep max-product's result."""
    import spnmap

    _emit(label, "max_product", spnmap.max_product, net, evidence)
    _emit(label, "argmax_product", spnmap.argmax_product, net, evidence)
    _emit(label, "decision after argmax", _decision, net, evidence)
    _emit(label, "max_product again", spnmap.max_product, net, evidence)
    _emit(label, "marginal", spnmap.evaluate_marginal, net, evidence)
    if exact:
        _emit(label, "exact_map", spnmap.exact_map, net, evidence)


def _decision(net, evidence: dict) -> bool:
    """``decision_map`` with max-product at argmax-product's value: whether it did not improve."""
    import spnmap

    gamma = math.exp(spnmap.argmax_product(net, evidence).value.log)
    return spnmap.decision_map(net, evidence, gamma, spnmap.Solver.MAX_PRODUCT)


def _small(net) -> bool:
    import spnmap

    return spnmap.count_free_configurations(net) <= _ENUMERATED


def mixed_spn(cards: list[int], seed: int):
    """A valid network over variables of cardinalities ``cards``, random in ``seed``.

    Sums mix two or three children over one scope and products split theirs
    in two or three, alternating from the root down; a product at the
    bottom splits its scope into leaves.  A leaf category is 0 at random.
    """
    from spnmap import LeafNode, Network, ProductNode, SumNode, Variable

    rng = random.Random(seed)
    nodes: dict = {}

    def build(scope: list[int], height: int) -> int:
        nid = len(nodes)
        nodes[nid] = None  # its children take the next ids
        if len(scope) == 1:
            odds = [0.0 if rng.random() < 0.2 else rng.random() for _ in range(cards[scope[0]])]
            odds[rng.randrange(len(odds))] += 0.5
            nodes[nid] = LeafNode(scope[0], tuple(p / sum(odds) for p in odds))
        elif height % 2 == 0:
            rng.shuffle(scope)
            cuts = sorted(rng.sample(range(1, len(scope)), min(2, len(scope) - 1)))
            if height <= 0:
                cuts = list(range(1, len(scope)))
            parts = [scope[a:b] for a, b in zip([0, *cuts], [*cuts, len(scope)])]
            nodes[nid] = ProductNode(tuple(build(part, height - 1) for part in parts))
        else:
            kids = tuple(build(list(scope), height - 1) for _ in range(rng.randint(2, 3)))
            weights = [rng.random() + 0.05 for _ in kids]
            nodes[nid] = SumNode(kids, tuple(w / sum(weights) for w in weights))
        return nid

    build(list(range(len(cards))), 5)
    return Network(nodes, 0, [Variable(i, c) for i, c in enumerate(cards)])


def wide_sum(variables: int):
    """A sum of 130 children over ``variables`` ternary variables.

    With one variable the children are its leaves; with more, each child is
    a product of one leaf per variable.  Four leaves in five are 0 at two
    categories of three, and the others at one.
    """
    from spnmap import LeafNode, Network, ProductNode, SumNode

    children, nodes = [], {}
    for i in range(130):
        first = 1 + len(nodes)
        for var in range(variables):
            nodes[first + var] = LeafNode(var, (0.0, 0.0, 1.0) if (i + var) % 5 else (0.25, 0.0, 0.75))
        if variables > 1:
            nodes[first + variables] = ProductNode(tuple(range(first, first + variables)))
        children.append(len(nodes))
    weights = [i % 7 + 1 for i in range(130)]
    nodes[0] = SumNode(tuple(children), tuple(w / sum(weights) for w in weights))
    return Network.from_nodes(nodes, 0)


def _random_nodes(rng: random.Random) -> tuple[dict, int]:
    """Up to 8 nodes with random children, parameters and ids in random order."""
    from spnmap import LeafNode, ProductNode, SumNode

    ids = rng.sample(range(12), rng.randint(1, 8))
    odd = (-0.1, -math.inf, math.inf, math.nan, 0.0)
    nodes = {}
    for nid in ids:
        roll = rng.random()
        if roll < 0.45:
            p = rng.choice((0.5, 0.25, 0.9, 1.0, rng.random()))
            dist = [1.0 - p, p]
            if rng.random() < 0.15:
                dist[rng.randrange(2)] = rng.choice(odd)
            nodes[nid] = LeafNode(rng.randrange(3), dist)
            continue
        kids = tuple(rng.choice(ids) for _ in range(rng.randint(1, 3)))
        if roll < 0.75:
            weights = [1.0 / len(kids)] * len(kids)
            if rng.random() < 0.2:
                weights[rng.randrange(len(kids))] = rng.choice((*odd, 0.7))
            nodes[nid] = SumNode(kids, weights)
        else:
            nodes[nid] = ProductNode(kids)
    return nodes, rng.choice(ids)


def _defects(net) -> list[tuple[str, dict, int, list]]:
    """``net``'s nodes with one defect each, as ``(defect, nodes, root, variables)``."""
    from spnmap import LeafNode, ProductNode, SumNode, Variable

    nodes, root, variables = dict(net.nodes), net.root, list(net.variables)
    kinds = {kind: [i for i in sorted(nodes) if isinstance(nodes[i], kind)]
             for kind in (LeafNode, SumNode, ProductNode)}
    leaf, other_leaf = kinds[LeafNode][len(kinds[LeafNode]) // 2], kinds[LeafNode][-1]
    mix, product = kinds[SumNode][len(kinds[SumNode]) // 2], kinds[ProductNode][-1]
    top = max(nodes) + 1
    stray = min(v.index for v in variables if v.index not in net.scope(mix))

    def scaled(node, factor):
        if isinstance(node, LeafNode):
            return LeafNode(node.variable, [p * factor for p in node.distribution])
        return SumNode(node.children, [w * factor for w in node.weights])

    def point(var):  # a leaf with all its mass on category 0
        return LeafNode(var, (1.0,) + (0.0,) * (variables[var].cardinality - 1))

    def first(node, value):
        if isinstance(node, LeafNode):
            return LeafNode(node.variable, (value, *node.distribution[1:]))
        return SumNode(node.children, (value, *node.weights[1:]))

    edits = {
        "negative probability": {leaf: first(nodes[leaf], -0.25)},
        "negative infinite weight": {mix: first(nodes[mix], -math.inf)},
        "NaN weight": {mix: first(nodes[mix], math.nan)},
        "infinite probability": {other_leaf: first(nodes[other_leaf], math.inf)},
        "leaf total inside 1e-9": {leaf: scaled(nodes[leaf], 1 + 0.9e-9)},
        "leaf total outside 1e-9": {leaf: scaled(nodes[leaf], 1 + 1.1e-9)},
        "weight total outside 1e-6": {mix: scaled(nodes[mix], 1 - 1.1e-6)},
        "unreachable leaf": {top: point(0)},
        "reachable cycle": {product: ProductNode((*nodes[product].children, root))},
        "unreachable cycle": {top: ProductNode((top + 1, leaf)), top + 1: ProductNode((top,))},
        "incomplete sum": {
            top: point(stray),
            mix: SumNode((*nodes[mix].children, top), (*nodes[mix].weights, 0.0)),
        },
        "non-decomposable product": {
            product: ProductNode((*nodes[product].children, nodes[product].children[0]))
        },
    }
    cases = [(defect, {**nodes, **edit}, root, variables) for defect, edit in edits.items()]
    cases.append(("uncovered variable", nodes, root, [*variables, Variable(len(variables), 2)]))
    return cases


def _edits(lines: list[str], k: int, tokens) -> list[list[str]]:
    """``lines`` with line ``k`` deleted, duplicated, or with one token replaced."""
    edited = [lines[:k] + lines[k + 1 :], lines[: k + 1] + lines[k:]]
    words = lines[k].split()
    for i, token in itertools.product(range(len(words)), tokens):
        edited.append(lines[:k] + [" ".join([*words[:i], token, *words[i + 1 :]])] + lines[k + 1 :])
    return edited


def _respelled(lines: list[str], probability, ident) -> list[str]:
    """``lines`` with each leaf's probabilities and each id respelled."""
    out = []
    for line in lines:
        words = line.split()
        ids = {"node": 1, "edge": 2, "root": 1}.get(words[0], 0)
        words[1 : 1 + ids] = map(ident, words[1 : 1 + ids])
        if words[0] == "node" and words[2] == "leaf":
            words[4:] = map(probability, words[4:])
        out.append(" ".join(words))
    return out


def _reparsed(lines: list[str]) -> str:
    import spnmap

    return spnmap.serialize_spn(spnmap.parse_spn("\n".join(lines) + "\n"))


def _corpus() -> None:
    import spnmap
    from spnmap.reductions import CnfFormula, amplify, cnf_to_spn

    for n, pct in itertools.product((5, 10, 20), (10.0, 20.0, 40.0, 60.0)):
        for rep in range(100):
            seed = spnmap.derive_seed(0, n, pct, rep)
            net = spnmap.mis_to_spn(spnmap.random_graph(n, pct, seed)).network
            label = f"mis {n} {pct} {rep}"
            _structure(label, net)
            _solve(label, net, {}, n <= 10)

    for s in range(300):
        label = f"random_spn {s}"
        net = spnmap.random_spn(1 + s % 8, 1 + s % 5, seed=s)
        _emit(label, "tables", _tables, net)
        _structure(label, net)
        for evidence in ({}, {0: s % 2}):
            _solve(f"{label} {evidence}", net, evidence, _small(net))
        _emit(label, "log_partition", spnmap.log_partition, net)

    for s in range(60):
        label = f"random_spn deep {s}"
        net = spnmap.random_spn(4 + s % 5, 6 + s % 3, seed=1000 + s)
        _emit(label, "tables", _tables, net)
        _structure(label, net)
        for evidence in ({}, {0: s % 2}):
            _solve(f"{label} {evidence}", net, evidence, _small(net))

    for copies in range(1, 11):
        net = spnmap.gap_network(copies)
        _structure(f"gap {copies}", net)
        _solve(f"gap {copies}", net, {}, _small(net))

    for pct in (10.0, 40.0):
        graph = spnmap.random_graph(16, pct, spnmap.derive_seed(0, "enumeration", pct))
        net = spnmap.mis_to_spn(graph).network
        for evidence in ({}, {0: 1}, {15: 1}):
            _emit(f"mis16 {pct} {evidence}", "exact_map", spnmap.exact_map, net, evidence)
    for seed, height in ((0, 5), (0, 6), (1, 4), (1, 5)):
        net = spnmap.random_spn(17, height, seed=seed)
        label = f"random_spn 17 {height}" + (f" seed {seed}" if seed else "")
        _emit(label, "tables", _tables, net)
        _emit(label, "exact_map", spnmap.exact_map, net, {})
        _emit(label, "log_partition", spnmap.log_partition, net)
        if (seed, height) == (0, 6):
            _emit(f"{label} {{1: 0, 14: 1}}", "exact_map", spnmap.exact_map, net, {1: 0, 14: 1})
    for seed in range(3):
        net = mixed_spn([3, 2, 3, 3, 4, 3, 2, 3, 3], seed)
        label = f"mixed_spn {seed}"
        _structure(label, net)
        _emit(label, "log_partition", spnmap.log_partition, net)
        for evidence in ({}, {7: 2}):
            _emit(f"{label} {evidence}", "exact_map", spnmap.exact_map, net, evidence)
    for variables in (1, 6):
        net = wide_sum(variables)
        _emit(f"wide sum {variables}", "exact_map", spnmap.exact_map, net, {})
        _emit(f"wide sum {variables}", "log_partition", spnmap.log_partition, net)
    graph = spnmap.random_graph(130, 10.0, spnmap.derive_seed(0, "wide", 10.0))
    net = spnmap.mis_to_spn(graph).network
    _emit("mis130", "max_product", spnmap.max_product, net, {})
    _emit("mis130", "argmax_product", spnmap.argmax_product, net, {})

    unsat = CnfFormula(
        3,
        tuple(
            tuple(s * v for s, v in zip(signs, (1, 2, 3)))
            for signs in itertools.product((1, -1), repeat=3)
        ),
    )
    sat = CnfFormula(4, ((-1, 2, -3), (-1, 3, 4)))
    for name, formula, q in (("unsat", unsat, 400), ("sat", sat, 300)):
        built = amplify(cnf_to_spn(formula), q).network
        parsed = spnmap.parse_spn(spnmap.serialize_spn(built))
        for label, net in ((f"{name}{q} built", built), (f"{name}{q} parsed", parsed)):
            _structure(label, net)
            for evidence in ({}, {0: 0}, {0: 1}):
                _solve(f"{label} {evidence}", net, evidence, False)

    graph = spnmap.random_graph(80, 10.0, spnmap.derive_seed(1, "scale"))
    net = spnmap.mis_to_spn(graph).network
    _structure("mis80", net)
    for evidence in ({}, {0: 0}, {0: 1}):
        _solve(f"mis80 {evidence}", net, evidence, False)
    _solve("mis80 every vertex 0", net, dict.fromkeys(range(graph.n), 0), False)

    small = spnmap.serialize_spn(amplify(cnf_to_spn(sat), 1).network).splitlines()
    for k in range(len(small)):
        for e, lines in enumerate(_edits(small, k, _EDIT_TOKENS)):
            _emit(f"sat1 line {k + 1} edit {e}", "parse", _reparsed, lines)
    large = spnmap.serialize_spn(amplify(cnf_to_spn(sat), 300).network).splitlines()
    rows, tokens = _LARGE_EDITS
    for k in rows:
        for e, lines in enumerate(_edits(large, k - 1, tokens)):
            _emit(f"sat300 line {k} edit {e}", "parse", _reparsed, lines)
    for name, spelling in _PROBABILITIES.items():
        lines = _respelled(large, lambda t: spelling.get(t, t), str)
        _emit(f"sat300 probabilities as {name}", "parse", _reparsed, lines)
    for name, ident in _IDS.items():
        _emit(f"sat300 ids with {name}", "parse", _reparsed, _respelled(large, str, ident))

    rng = random.Random(0)
    built = []
    for k in range(_RANDOM_DICTS):
        nodes, root = _random_nodes(rng)
        label = f"dict {k}"
        try:
            net = spnmap.Network.from_nodes(nodes, root)
        except Exception as exc:
            print(f"{label}\tbuild\traises {type(exc).__name__}: {exc}")
            continue
        built.append((label, net))
        _structure(label, net)
        _solve(label, net, {}, _small(net))
        _emit(label, "log_partition", spnmap.log_partition, net)

    # Copies of a dict make waves of many sums over shared nodes.
    for label, net in built[:_AMPLIFIED_DICTS]:
        q = 1 + 1024 // len(net.nodes)
        copies = amplify(spnmap.ReductionResult(net, Fraction(1), {}), q).network
        _structure(f"{label} x{q}", copies)
        _solve(f"{label} x{q}", copies, {}, False)

    for s in range(3):
        base = spnmap.random_spn(3 + s, 3 + s, seed=2000 + s)
        _emit(f"random_spn {2000 + s}", "tables", _tables, base)
        q = 1 + 1024 // len(base.nodes)
        copies = amplify(spnmap.ReductionResult(base, Fraction(1), {}), q).network
        for defect, nodes, root, variables in _defects(copies):
            label = f"random_spn {2000 + s} x{q} {defect}"
            net = spnmap.Network(nodes, root, variables)
            _structure(label, net)
            _solve(label, net, {}, False)


def _ulps(old: str, new: str) -> list[float] | None:
    """Per hex float that differs between two output texts, how far apart they lie.

    In units in the last place of the larger, or of 1 below 1, where logs
    of total masses lie.  ``None`` when anything else differs.
    """
    old_words, new_words = old.split(" "), new.split(" ")
    if len(old_words) != len(new_words):
        return None
    distances = []
    for a, b in zip(old_words, new_words):
        if a == b:
            continue
        if "0x" not in a or "0x" not in b:
            return None
        x, y = float.fromhex(a), float.fromhex(b)
        distances.append(abs(x - y) / math.ulp(max(abs(x), abs(y), 1.0)))
    return distances


def _run(tree: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    return subprocess.Popen(
        [sys.executable, __file__, "--emit"], env=env, stdout=subprocess.PIPE, text=True
    )


def main(argv: list[str]) -> int:
    if argv == ["--emit"]:
        import spnmap

        print(f"# spnmap from {Path(spnmap.__file__).parent}", file=sys.stderr)
        _corpus()
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    children = [_run(tree) for tree in argv]
    outputs = []
    for tree, child in zip(argv, children):
        out, _ = child.communicate()
        if child.returncode:
            print(f"{tree}: the corpus run exited with {child.returncode}", file=sys.stderr)
            return 2
        lines = out.splitlines()
        digest = hashlib.sha256(out.encode()).hexdigest()
        print(f"{tree}: {len(lines)} outputs, sha256 {digest}")
        outputs.append(lines)
    old, new = outputs
    if old == new:
        print("identical")
        return 0
    if len(old) != len(new):
        print(f"the trees give {len(old)} and {len(new)} outputs")
        return 1
    differing = [(a, b) for a, b in zip(old, new) if a != b]
    kinds = collections.Counter(a.split("\t")[1] for a, _ in differing)
    print(f"{len(differing)} outputs differ, by kind: {dict(sorted(kinds.items()))}")
    for a, b in differing:
        (label, kind, text), (*where, other) = a.split("\t", 2), b.split("\t", 2)
        ulps = _ulps(text, other) if where == [label, kind] else None
        if ulps is None:
            print(f"  {label}\t{kind}\n    old: {a}\n    new: {b}")
        else:
            print(f"  {label}\t{kind}\tulps {' '.join(f'{d:g}' for d in ulps)}")
    return 1

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
