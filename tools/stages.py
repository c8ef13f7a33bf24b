"""Time each stage of spnmap's amplified-CNF pipeline, MIS solve and enumeration in two checkouts.

Usage::

    python tools/stages.py OLD_CHECKOUT NEW_CHECKOUT [ROUNDS]

Each round runs this script again once per checkout, in its own subprocess
with ``PYTHONPATH=<checkout>/src``; the checkout that goes first alternates
from round to round (default 10 rounds; at least 2, for the quartiles).  A
run first passes once through small instances, so imports and numpy's
dispatch are warm, then times each stage once on fresh networks and prints
the seconds as one JSON line:

- the ``amplified_cnf`` pipeline on the unsatisfiable 3-variable formula
  with all eight sign patterns amplified 400 times and on the satisfiable
  ``(-1 2 -3)(-1 3 4)`` amplified 300 times: build (``cnf_to_spn`` and
  ``amplify``), ``serialize_spn``, ``parse_spn``, ``validate``, ``validate``
  again on the same network (its own checks alone), the first build of the
  heights (``Network._arrays``), of the compiled record
  (``Network._compiled``) and of the pass plan (``Network._plan``), each
  about 0 where an earlier stage built it, ``evaluate_marginal`` (its pass
  alone, on the built plan), ``max_product``, ``argmax_product``, ``evaluate`` at
  argmax-product's configuration and ``decision_map`` with max-product, each
  stage on the last one's output, and the three solver stages together,
  which reuse max-product's result where the network keeps it; the pipeline
  total leaves out the second ``validate``, the ``evaluate`` and that sum,
  which the ``amplified_cnf`` workload does not run
- ``spnmap map --algo amap``'s work on the serialized MIS network of
  ``random_graph(80, 10.0, derive_seed(1, "scale"))``: ``parse_spn``,
  ``validate`` and ``argmax_product``
- two more parses: a 6-line document (the median of 300 parses), and
  ``random_spn(18, 6, seed=3)`` amplified 50 times and serialized, whose
  parameters mostly have 17 significant digits, too many for the parser's
  digit arithmetic
- small-network paths, each over 20 networks: the ratio study's three
  sizes, ``mis_to_spn``, ``max_product`` and ``argmax_product`` on
  ``random_graph(n, 50.0, derive_seed(0, n, 50.0, rep))`` for n = 5, 10 and
  20 (31, 111 and 421 entries); ``max_product`` then ``argmax_product`` alone
  on the n = 20 networks, built untimed; and ``random_spn(20, 6,
  seed=rep)``, the generator that ``perfbench``'s ``exact_enum`` draws its
  random networks with
- the first build of the pass plan (``Network._plan`` and ``_waves``) on the
  first 421-entry network, fresh and compiled, in a checkout that has one;
  where the checkout keeps a table of network shapes (``network._SHAPES``),
  it is emptied before that network is built, so the row times the plan's
  and the waves' records of its shape as well; then the same on the second
  421-entry network, of the shape just built, which in such a checkout
  takes its shape's records from the table
- enumeration over 2**18 assignments: ``exact_map`` on the independent-set
  networks of ``random_graph(18, pct, derive_seed(1, "exact", pct))`` for
  pct 10 and 40, ``perfbench``'s two ``exact_enum`` headline operations,
  ``log_partition`` on ``random_spn(18, 6, seed=3)`` (323 nodes), and
  ``exact_map`` with evidence ``{2: 1, 15: 0}`` on the structure of
  ``perfbench``'s ``exact_enum`` random network, ``random_spn(20, 6,
  seed=derive_seed(0, "structure", 20, 24))`` (343 nodes); and ``exact_map``
  over 3**11 assignments on ``differential.mixed_spn([3] * 11, 0)``

Each round also times two cold rows per checkout, in fresh processes over
a temporary copy of the checkout's ``src/spnmap/*.py`` with no
``__pycache__``, run under ``PYTHONDONTWRITEBYTECODE=1``, so every module a
process imports is compiled from source, as in ``perfbench``'s cold
processes: ``import spnmap, spnmap.cli``, timed inside the process as
``perfbench``'s set-up probe times it, and a whole ``python -m spnmap.cli map
--algo amap`` process on the MIS n = 80 document above.  Each time is scaled
to a nominal machine by ``0.1 s`` over the seconds of a ``python -c "import
numpy"`` process run just before it, as ``perfbench`` scales ``cli_map``, and
a row takes the median of 5 such times per round.  (``PYTHONPYCACHEPREFIX``
would keep the copy out, but it makes numpy compile from source as well.)

The script prints a Markdown table: per stage, each tree's median and
quartiles in milliseconds, the change of the medians, and the rounds in
which the new tree was faster.  The runs also check that both trees give the
same argmax-product, ``exact_map`` and ``log_partition`` results, compared in
hex, the same output of the cold map, and the same 17-digit network, compared
by the sha256 of its serialization; the script exits 1 when they do not.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from differential import mixed_spn

#: Copies of each formula, the MIS graph's size, the count of each kind of
#: small network, the enumerated variables, the copies of the 17-digit network and
#: the small document's parses, in the timed pass and in the warm-up.
_SIZES = {"timed": (400, 300, 80, 20, 18, 50, 300), "warm": (8, 6, 12, 2, 8, 2, 10)}

#: Seconds of a ``python -c "import numpy"`` process on the nominal machine.
_NOMINAL_PROCESS_S = 0.1

#: Each cold row is the median of this many scaled processes per round.
_COLD_REPEATS = 5

#: ``perfbench``'s set-up probe: prints the seconds that the import takes.
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import spnmap, spnmap.cli; "
    "print(time.perf_counter() - t)"
)

#: The small document that ``parse_spn`` reads again and again.
_SMALL = (
    "spn 3\nnode 0 sum\nnode 1 leaf 0 0.5 0.5\nnode 2 leaf 0 0.1 0.9\nedge 0 1 0.5\nedge 0 2 0.5\n"
)


def _mis_document(n: int) -> str:
    """The serialized MIS network that ``perfbench``'s ``cli_map`` maps, for n vertices."""
    import spnmap

    graph = spnmap.random_graph(n, 10.0, spnmap.derive_seed(1, "scale"))
    return spnmap.serialize_spn(spnmap.mis_to_spn(graph).network)


def _pass(sizes: tuple[int, ...]) -> tuple[dict[str, float], dict[str, str]]:
    """Seconds per stage, and each solver's and ``log_partition``'s result in hex, for one pass."""
    from fractions import Fraction

    import spnmap
    from spnmap.reductions import CnfFormula, amplify, cnf_to_spn

    unsat = CnfFormula(
        3,
        tuple(
            tuple(s * v for s, v in zip(signs, (1, 2, 3)))
            for signs in itertools.product((1, -1), repeat=3)
        ),
    )
    sat = CnfFormula(4, ((-1, 2, -3), (-1, 3, 4)))
    seconds: dict[str, float] = {}
    results: dict[str, str] = {}

    def timed(label: str, call, *args):
        start = time.perf_counter()
        out = call(*args)
        seconds[label] = time.perf_counter() - start
        return out

    unsat_q, sat_q, mis_n, small, enumerated, digits_q, parses = sizes
    for name, formula, q in (("unsat", unsat, unsat_q), ("sat", sat, sat_q)):
        amplified = timed(f"{name} build", lambda f=formula, q=q: amplify(cnf_to_spn(f), q))
        text = timed(f"{name} serialize_spn", spnmap.serialize_spn, amplified.network)
        net = timed(f"{name} parse_spn", spnmap.parse_spn, text)
        timed(f"{name} validate", spnmap.validate, net)
        timed(f"{name} validate again", spnmap.validate, net)
        timed(f"{name} first _arrays", lambda: net._arrays)
        timed(f"{name} first _compiled", lambda: net._compiled)
        timed(f"{name} first _plan", lambda: net._plan)
        timed(f"{name} evaluate_marginal", spnmap.evaluate_marginal, net)
        timed(f"{name} max_product", spnmap.max_product, net)
        am = timed(f"{name} argmax_product", spnmap.argmax_product, net)
        timed(f"{name} evaluate at argmax", spnmap.evaluate, net, am.configuration)
        threshold = float(amplified.normalizer)
        mp = spnmap.Solver.MAX_PRODUCT
        timed(f"{name} decision_map", spnmap.decision_map, net, None, threshold, mp)
        stages = ("max_product", "argmax_product", "decision_map")
        solves = f"{name} {', '.join(stages)}"
        seconds[solves] = sum(seconds[f"{name} {stage}"] for stage in stages)
        extra = (f"{name} validate again", f"{name} evaluate at argmax", solves)
        seconds[f"{name} pipeline"] = sum(
            v for k, v in seconds.items() if k.startswith(f"{name} ") and k not in extra
        )
        results[name] = f"{sorted(am.configuration.items())} {am.value.log.hex()}"

    net = timed("mis parse_spn", spnmap.parse_spn, _mis_document(mis_n))
    timed("mis validate", spnmap.validate, net)
    am = timed("mis argmax_product", spnmap.argmax_product, net)
    seconds["mis solve"] = sum(v for k, v in seconds.items() if k.startswith("mis "))
    results["mis"] = f"{sorted(am.configuration.items())} {am.value.log.hex()}"

    each = []
    for _ in range(parses):
        timed("small parse_spn", spnmap.parse_spn, _SMALL)
        each.append(seconds["small parse_spn"])
    seconds["small parse_spn"] = statistics.median(each)
    base = spnmap.ReductionResult(spnmap.random_spn(18, 6, seed=3), Fraction(1), {})
    text = spnmap.serialize_spn(amplify(base, digits_q).network)
    net = timed("17-digit parse_spn", spnmap.parse_spn, text)
    results["17-digit"] = hashlib.sha256(spnmap.serialize_spn(net).encode()).hexdigest()

    def ratio_cell(graphs) -> list[str]:
        solved = []
        for graph in graphs:
            net = spnmap.mis_to_spn(graph).network
            mp, am = spnmap.max_product(net), spnmap.argmax_product(net)
            solved.append(f"{mp.value.log.hex()} {am.value.log.hex()}")
        return solved

    for n in (5, 10, 20):
        graphs = [
            spnmap.random_graph(n, 50.0, spnmap.derive_seed(0, n, 50.0, r)) for r in range(small)
        ]
        solved = timed(f"ratio n={n} build and solve", ratio_cell, graphs)
        results[f"ratio n={n}"] = " ".join(solved)
    nets = [spnmap.mis_to_spn(graph).network for graph in graphs]
    timed(
        "ratio n=20 max_product then argmax_product",
        lambda: [(spnmap.max_product(net), spnmap.argmax_product(net)) for net in nets],
    )
    if hasattr(spnmap.Network, "_plan"):
        from spnmap import network

        if hasattr(network, "_SHAPES"):
            network._SHAPES.clear()
        for label, graph in zip(("first pass plan", "pass plan of a seen shape"), graphs):
            net = spnmap.mis_to_spn(graph).network
            net._compiled
            timed(f"ratio n=20 {label}", lambda: (net._plan, net._waves))
    timed("random_spn(20, 6)", lambda: [spnmap.random_spn(20, 6, seed=r) for r in range(small)])

    graph = spnmap.random_graph(enumerated, 10.0, spnmap.derive_seed(1, "exact", 10.0))
    net = spnmap.mis_to_spn(graph).network
    exact = timed("enumeration exact_map (MIS)", spnmap.exact_map, net)
    results["exact_map"] = f"{sorted(exact.configuration.items())} {exact.value.log.hex()}"
    graph = spnmap.random_graph(enumerated, 40.0, spnmap.derive_seed(1, "exact", 40.0))
    net = spnmap.mis_to_spn(graph).network
    exact = timed("enumeration exact_map (MIS 40%)", spnmap.exact_map, net)
    results["exact_map 40%"] = f"{sorted(exact.configuration.items())} {exact.value.log.hex()}"
    net = spnmap.random_spn(enumerated, 6, seed=3)
    results["log_partition"] = timed("enumeration log_partition", spnmap.log_partition, net).hex()
    net = spnmap.random_spn(enumerated + 2, 6, seed=spnmap.derive_seed(0, "structure", 20, 24))
    exact = timed("enumeration exact_map (evidence)", spnmap.exact_map, net, {2: 1, enumerated - 3: 0})
    results["exact_map evidence"] = f"{sorted(exact.configuration.items())} {exact.value.log.hex()}"
    net = mixed_spn([3] * round(enumerated / math.log2(3)), 0)
    exact = timed("enumeration exact_map (ternary)", spnmap.exact_map, net)
    results["exact_map ternary"] = f"{sorted(exact.configuration.items())} {exact.value.log.hex()}"
    return seconds, results


def _run(tree: str, doc: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    done = subprocess.run(
        [sys.executable, __file__, "--emit"], env=env, capture_output=True, text=True, check=True
    )
    run = json.loads(done.stdout)
    cold_seconds, run["results"]["cold map"] = _cold(tree, doc)
    run["seconds"].update(cold_seconds)
    return run


def _cold(tree: str, doc: str) -> tuple[dict[str, float], str]:
    """Scaled seconds of the two cold rows in ``tree``, and the map's output."""
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp, "spnmap")
        package.mkdir()
        for source in Path(tree, "src", "spnmap").glob("*.py"):
            shutil.copy(source, package)
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")

        def process(*args: str) -> tuple[float, str]:
            start = time.perf_counter()
            out = subprocess.check_output([sys.executable, *args], cwd=tmp, env=env, text=True)
            return time.perf_counter() - start, out

        def scaled(*args: str) -> tuple[float, float, str]:
            """A reference process's scale, then ``python ARGS``'s seconds and output."""
            scale = _NOMINAL_PROCESS_S / process("-c", "import numpy")[0]
            return (scale, *process(*args))

        imports = [scaled("-c", _IMPORT_PROBE) for _ in range(_COLD_REPEATS)]
        map_argv = ("-m", "spnmap.cli", "map", "--algo", "amap", doc)
        maps = [scaled(*map_argv) for _ in range(_COLD_REPEATS)]
    seconds = {
        "cold import spnmap, spnmap.cli": statistics.median(k * float(o) for k, _, o in imports),
        "cold spnmap map --algo amap": statistics.median(k * wall for k, wall, _ in maps),
    }
    return seconds, maps[0][2]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if argv == ["--emit"]:
        _pass(_SIZES["warm"])
        seconds, results = _pass(_SIZES["timed"])
        print(json.dumps({"seconds": seconds, "results": results}))
        return 0
    if argv[:1] == ["--document"]:
        Path(argv[1]).write_text(_mis_document(_SIZES["timed"][2]), encoding="utf-8")
        return 0
    if len(argv) not in (2, 3) or len(argv) == 3 and int(argv[2]) < 2:  # quartiles need 2
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    trees = argv[:2]
    rounds = int(argv[2]) if len(argv) == 3 else 10
    runs: dict[str, list[dict]] = {tree: [] for tree in trees}
    with tempfile.TemporaryDirectory() as tmp:
        doc = str(Path(tmp, "mis.spn"))
        env = dict(os.environ, PYTHONPATH=str(Path(trees[1], "src").resolve()))
        subprocess.run([sys.executable, __file__, "--document", doc], env=env, check=True)
        for r in range(rounds):
            for tree in trees if r % 2 == 0 else trees[::-1]:
                runs[tree].append(_run(tree, doc))
    old, new = (runs[tree] for tree in trees)
    print(f"old: {trees[0]}\nnew: {trees[1]}\n{rounds} rounds, alternating\n")
    print("| stage | old ms, median [quartiles] | new ms, median [quartiles] | change | new wins |")
    print("|---|---|---|---|---|")
    for stage in dict.fromkeys([*old[0]["seconds"], *new[0]["seconds"]]):
        if any(stage not in runs[tree][0]["seconds"] for tree in trees):  # one tree lacks it
            for run in old + new:
                run["seconds"].setdefault(stage, float("nan"))
        a = [run["seconds"][stage] * 1e3 for run in old]
        b = [run["seconds"][stage] * 1e3 for run in new]
        (a1, a2, a3), (b1, b2, b3) = _quartiles(a), _quartiles(b)
        wins = sum(y < x for x, y in zip(a, b))
        digits = 1 if min(a1, b1) >= 1 else 3  # sub-millisecond stages get three decimals
        print(
            f"| {stage} | {a2:.{digits}f} [{a1:.{digits}f}, {a3:.{digits}f}] "
            f"| {b2:.{digits}f} [{b1:.{digits}f}, {b3:.{digits}f}] "
            f"| {(b2 - a2) / a2:+.0%} | {wins}/{rounds} |"
        )
    differing = {k for k in old[0]["results"] if old[0]["results"][k] != new[0]["results"][k]}
    if differing:
        print(f"\nresults differ on: {', '.join(sorted(differing))}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
