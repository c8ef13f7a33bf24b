"""Interleaved in-process A/B of two spnmap checkouts, row by row and stage by stage.

Usage::

    python tools/ab.py OLD_CHECKOUT NEW_CHECKOUT [ROUNDS]

Copies each checkout's ``src/spnmap`` into one temporary directory as the
packages ``spnmap_old`` and ``spnmap_new``, and imports both into this
process, so both sides run on one interpreter and numpy, in the same phase
of the machine.  The rows:

- ``ratio n=5``, ``n=10`` and ``n=20``: the ratio study's operation as
  ``perfbench``'s ``ratio_study`` runs it (``random_graph``, ``mis_to_spn``,
  ``max_product`` and ``argmax_product``) on ``_RATIO_GRAPHS`` graphs of n
  vertices at 10, 20, 40 and 60% edges, whose shapes the check pass below
  has already built; ``ratio sum`` adds the three rows' times of each
  round
- ``criterion 02 body``: ``tests/test_acceptance.py``'s timed body,
  ``ratio(amplify(gap_fragment(), m).network)`` for m = 1..10
- ``criterion 03 body``: ``tests/test_acceptance.py``'s body on 1000 fresh
  networks, ``random_spn(1 + s % 8, 1 + s % 5, seed=s)`` for s < 1000, each
  built and solved by ``max_product``, ``argmax_product`` and ``exact_map``,
  with evidence on every fourth as the test draws it
- the ``amplified_cnf`` pipeline, each stage a row, on the unsatisfiable
  3-variable formula with all eight sign patterns amplified 400 times
  (``unsat``) and on the satisfiable ``(-1 2 -3)(-1 3 4)`` amplified 300
  times (``sat``): build (``cnf_to_spn`` and ``amplify``), ``serialize_spn``,
  ``parse_spn``, ``validate``, ``validate again`` on the same network (its
  own checks alone), the first build of the heights (``first _arrays``), of
  the compiled record (``first _compiled``) and of the pass plan (``first
  _plan``), each about 0 where an earlier stage built it,
  ``evaluate_marginal`` (its pass alone), ``max_product``,
  ``argmax_product``, ``evaluate at argmax`` and ``decision_map`` with
  max-product, each stage on the last one's output; the three solver
  stages together, which reuse max-product's result where the network
  keeps it; and the ``pipeline`` total, without the second ``validate``,
  the ``evaluate`` and that sum, which the workload does not run
- ``mis parse_spn``, ``validate`` and ``argmax_product``, and their sum
  ``mis solve``: ``spnmap map --algo amap``'s work on the serialized MIS
  network of ``random_graph(80, 10.0, derive_seed(1, "scale"))`` (6481
  entries), ``perfbench``'s ``cli_map`` document
- ``small parse_spn``, the median of 300 parses of a 6-line document, and
  ``17-digit parse_spn`` of ``random_spn(18, 6, seed=3)`` amplified 50 times
  and serialized, whose parameters mostly have 17 significant digits, too
  many for the parser's digit arithmetic
- ``ratio n=5``, ``10`` and ``20 build and solve``: ``mis_to_spn``,
  ``max_product`` and ``argmax_product`` on the 20 graphs
  ``random_graph(n, 50.0, derive_seed(0, n, 50.0, rep))`` (31, 111 and 421
  entries); ``ratio n=20 max_product then argmax_product`` on those
  networks built again, untimed; ``ratio n=20 first pass plan``, the first
  ``Network._plan`` and ``_waves`` of the first 421-entry network, fresh and
  compiled, with the shape table emptied again before it is built, and
  ``ratio n=20 pass plan of a seen shape``, the same on the second network,
  whose shape's records the table then holds
- ``random_spn(20, 6)``, 20 networks, the generator that ``perfbench``'s
  ``exact_enum`` draws its random networks with
- enumeration over 2**18 assignments: ``enumeration exact_map (MIS)`` and
  ``(MIS 40%)`` on the independent-set networks of ``random_graph(18, pct,
  derive_seed(1, "exact", pct))``, ``perfbench``'s two ``exact_enum``
  headline operations; ``enumeration log_partition`` on ``random_spn(18, 6,
  seed=3)``; ``enumeration exact_map (evidence)``, with ``{2: 1, 15: 0}`` on
  ``random_spn(20, 6, seed=derive_seed(0, "structure", 20, 24))``, the
  structure of ``exact_enum``'s random network; and ``enumeration exact_map
  (ternary)`` over 3**11 assignments on ``differential.mixed_spn``'s network
  for ``[3] * 11`` and seed 0, built with the side's package
- ``cold import spnmap, spnmap.cli`` and ``cold spnmap map --algo amap``:
  fresh processes over a temporary copy of the side's ``*.py`` with no
  ``__pycache__``, run under ``PYTHONDONTWRITEBYTECODE=1``, so every module
  a process imports is compiled from source, as in ``perfbench``'s cold
  processes.  The first is ``perfbench``'s set-up probe, timed inside the
  process; the second is a whole ``python -m spnmap.cli map --algo amap``
  process on the new side's MIS n = 80 document.  Each time is scaled to a
  nominal machine by 0.1 s over the seconds of a ``python -c "import
  numpy"`` process run just before it, as ``perfbench`` scales ``cli_map``,
  and a row takes the median of 5 such times per round.

Criterion 03, the pipelines, the MIS rows, the 50%-edge rows and the
enumeration rows run with each side's table of network shapes
(``network._SHAPES``, where the checkout has one) emptied first and restored
after, so their networks' records are built as in a fresh process.  A side
whose ``Network`` lacks a private record that a row times reads NaN there.

A check pass first runs each row once per side.  The script refuses to
time, and exits 1, if any configuration, the 17-digit network's serialized
text, a decision or the cold map's output differs between the sides, after
solving every network that a row returns with both solvers; it counts, per
row, the values whose bits differ (max-product's value and bound, the other
solvers' values, ``log_partition``'s).  Each row then runs its rounds, one
after another: a round runs the row once per side, with ``gc.collect()``
before each, and alternates which side goes first from round to round
(default 20 rounds; at least 2, for the quartiles).  A row's rounds run
together because the criterion 03 row, which builds 1000 networks per side,
slowed the short rows after it: with every row in each round, the n = 5 row
read +45% and +31% in two runs where it read +21% and +19% alone, and +20%
with rounds by row.  The script prints per row each side's median
milliseconds with its quartiles, the ratio of the medians, new over old,
and the rounds in which the new side was faster.

Band: a checkout against a copy of itself, in two runs of 20 rounds on a
2-core Xeon host (Python 3.11, numpy 2.4.6), read these ratios per kind of
row: 0.92-1.05 on the small-network rows (the ratio rows, ``ratio sum`` and
the two criterion bodies), 0.95-1.07 on the pipeline rows (the ``unsat``,
``sat``, ``mis``, parse, 50%-edge and ``random_spn`` rows), 0.98-1.02 on
the enumeration rows and 0.99-1.03 on the cold rows; every row's wins were
within 5-15 of 20.  Outside 0.96-1.06 were ``ratio n=20`` (0.922) and
``mis argmax_product`` (0.955) in one run, and ``ratio n=5`` (0.925),
``criterion 03 body`` (0.959) and ``sat first _arrays`` (1.065, a 2 us
row) in the other.  Read a move inside its row's band as no move.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import itertools
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from differential import mixed_spn

#: Graphs per ratio row and size, over the four edge percentages in turn.
_RATIO_GRAPHS = 100

_PERCENTAGES = (10.0, 20.0, 40.0, 60.0)

#: Networks of each kind in the 50%-edge rows and the ``random_spn(20, 6)`` row.
_SMALL_NETWORKS = 20

#: The unsatisfiable formula of every sign pattern over 3 variables, and a satisfiable one.
_UNSAT = (
    3,
    tuple(
        tuple(s * v for s, v in zip(signs, (1, 2, 3)))
        for signs in itertools.product((1, -1), repeat=3)
    ),
)
_SAT = (4, ((-1, 2, -3), (-1, 3, 4)))

#: The small document that ``parse_spn`` reads again and again.
_SMALL = (
    "spn 3\nnode 0 sum\nnode 1 leaf 0 0.5 0.5\nnode 2 leaf 0 0.1 0.9\nedge 0 1 0.5\nedge 0 2 0.5\n"
)

#: Seconds of a ``python -c "import numpy"`` process on the nominal machine.
_NOMINAL_PROCESS_S = 0.1

#: Each cold row is the median of this many scaled processes per round.
_COLD_REPEATS = 5

#: ``perfbench``'s set-up probe: prints the seconds that the import takes.
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import spnmap, spnmap.cli; "
    "print(time.perf_counter() - t)"
)


def _load(checkout: Path, name: str, into: Path):
    """``checkout``'s ``spnmap`` package, copied into ``into`` and imported as ``name``."""
    shutil.copytree(
        checkout / "src" / "spnmap", into / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    package = importlib.import_module(name)
    package.experiments = importlib.import_module(f"{name}.experiments")
    package.network = importlib.import_module(f"{name}.network")
    return package


def _timed(ms: dict[str, float], stage: str, call, *args):
    """``call(*args)``, with its milliseconds under ``stage`` in ``ms``."""
    start = time.perf_counter()
    out = call(*args)
    ms[stage] = (time.perf_counter() - start) * 1e3
    return out


def _first(ms: dict[str, float], stage: str, net, *records: str) -> None:
    """Times the first build of ``net``'s private ``records``; NaN where its class lacks one."""
    if all(hasattr(type(net), record) for record in records):
        _timed(ms, stage, lambda: [getattr(net, record) for record in records])
    else:
        ms[stage] = math.nan


@contextlib.contextmanager
def _no_shapes(spn):
    """Empties ``spn``'s table of network shapes, where it has one, and restores it after."""
    table = getattr(spn.network, "_SHAPES", {})
    kept = dict(table)
    table.clear()
    try:
        yield table
    finally:
        table.clear()
        table.update(kept)


def _whole(name: str, body):
    """The row ``name`` that times ``body(spn)`` whole, as one stage."""
    return name, lambda spn, ms: _timed(ms, name, body, spn)


def _ratio_row(n: int):
    def row(spn) -> list:
        results = []
        for rep in range(_RATIO_GRAPHS):
            pct = _PERCENTAGES[rep % len(_PERCENTAGES)]
            graph = spn.random_graph(n, pct, spn.derive_seed(0, n, pct, rep // 4))
            net = spn.mis_to_spn(graph).network
            results += (spn.max_product(net), spn.argmax_product(net))
        return results

    return row


def _gap_row(spn) -> list:
    nets = []
    fragment = spn.experiments.gap_fragment()
    for m in range(1, 11):
        net = spn.amplify(fragment, m).network
        spn.ratio(net)
        nets.append(net)
    return nets


def _fresh_row(spn) -> list:
    results = []
    with _no_shapes(spn):
        for s in range(1000):
            net = spn.random_spn(1 + s % 8, 1 + s % 5, seed=s)
            evidence: dict[int, int] = {}
            if s % 4 == 0:
                rng = random.Random(spn.derive_seed(1, "evidence", s))
                evidence = {
                    v.index: rng.randrange(v.cardinality)
                    for v in net.variables
                    if rng.random() < 0.5
                }
                evidence = evidence or {0: rng.randrange(net.cardinality(0))}
            results += (
                spn.max_product(net, evidence),
                spn.argmax_product(net, evidence),
                spn.exact_map(net, evidence),
            )
    return results


def _pipeline(name: str, formula: tuple, copies: int):
    """The ``amplified_cnf`` pipeline on ``formula`` amplified ``copies`` times, stage by stage."""

    def row(spn, ms: dict[str, float]) -> list:
        def timed(stage: str, call, *args):
            return _timed(ms, f"{name} {stage}", call, *args)

        def build():
            return spn.amplify(spn.cnf_to_spn(spn.CnfFormula(*formula)), copies)

        with _no_shapes(spn):
            amplified = timed("build", build)
            text = timed("serialize_spn", spn.serialize_spn, amplified.network)
            net = timed("parse_spn", spn.parse_spn, text)
            timed("validate", spn.validate, net)
            timed("validate again", spn.validate, net)
            for record in ("_arrays", "_compiled", "_plan"):
                _first(ms, f"{name} first {record}", net, record)
            timed("evaluate_marginal", spn.evaluate_marginal, net)
            mp = timed("max_product", spn.max_product, net)
            am = timed("argmax_product", spn.argmax_product, net)
            timed("evaluate at argmax", spn.evaluate, net, am.configuration)
            threshold = float(amplified.normalizer)
            decision = timed(
                "decision_map", spn.decision_map, net, None, threshold, spn.Solver.MAX_PRODUCT
            )
        extra = (f"{name} validate again", f"{name} evaluate at argmax")
        # a stage that reads NaN did not run on that side
        total = sum(v for k, v in ms.items() if k not in extra and not math.isnan(v))
        solves = ("max_product", "argmax_product", "decision_map")
        ms[f"{name} {', '.join(solves)}"] = sum(ms[f"{name} {s}"] for s in solves)
        ms[f"{name} pipeline"] = total
        return [mp, am, decision]

    return row


def _mis_document(spn) -> str:
    """``perfbench``'s ``cli_map`` document: the MIS network of 80 vertices at 10% edges."""
    graph = spn.random_graph(80, 10.0, spn.derive_seed(1, "scale"))
    return spn.serialize_spn(spn.mis_to_spn(graph).network)


def _mis_row(spn, ms: dict[str, float]) -> list:
    text = _mis_document(spn)
    with _no_shapes(spn):
        net = _timed(ms, "mis parse_spn", spn.parse_spn, text)
        _timed(ms, "mis validate", spn.validate, net)
        am = _timed(ms, "mis argmax_product", spn.argmax_product, net)
    ms["mis solve"] = sum(ms.values())
    return [am]


def _parse_row(spn, ms: dict[str, float]) -> list:
    each = []
    for _ in range(300):
        small = _timed(ms, "small parse_spn", spn.parse_spn, _SMALL)
        each.append(ms["small parse_spn"])
    ms["small parse_spn"] = statistics.median(each)
    base = spn.ReductionResult(spn.random_spn(18, 6, seed=3), Fraction(1), {})
    text = spn.serialize_spn(spn.amplify(base, 50).network)
    net = _timed(ms, "17-digit parse_spn", spn.parse_spn, text)
    return [spn.serialize_spn(small), spn.serialize_spn(net)]


def _half_row(spn, ms: dict[str, float]) -> list:
    def build_and_solve(graphs) -> list:
        results = []
        for graph in graphs:
            net = spn.mis_to_spn(graph).network
            results += (spn.max_product(net), spn.argmax_product(net))
        return results

    results = []
    with _no_shapes(spn) as shapes:
        for n in (5, 10, 20):
            graphs = [
                spn.random_graph(n, 50.0, spn.derive_seed(0, n, 50.0, rep))
                for rep in range(_SMALL_NETWORKS)
            ]
            results += _timed(ms, f"ratio n={n} build and solve", build_and_solve, graphs)
        nets = [spn.mis_to_spn(graph).network for graph in graphs]
        _timed(
            ms,
            "ratio n=20 max_product then argmax_product",
            lambda: [(spn.max_product(net), spn.argmax_product(net)) for net in nets],
        )
        shapes.clear()
        for label, graph in zip(("first pass plan", "pass plan of a seen shape"), graphs):
            net = spn.mis_to_spn(graph).network
            net._compiled
            _first(ms, f"ratio n=20 {label}", net, "_plan", "_waves")
    return results


def _random_row(spn) -> list:
    return [spn.random_spn(20, 6, seed=rep) for rep in range(_SMALL_NETWORKS)]


def _enumeration_row(spn, ms: dict[str, float]) -> list:
    def timed(stage: str, call, *args):
        return _timed(ms, f"enumeration {stage}", call, *args)

    results = []
    with _no_shapes(spn):
        for pct, label in ((10.0, "MIS"), (40.0, "MIS 40%")):
            graph = spn.random_graph(18, pct, spn.derive_seed(1, "exact", pct))
            net = spn.mis_to_spn(graph).network
            results.append(timed(f"exact_map ({label})", spn.exact_map, net))
        net = spn.random_spn(18, 6, seed=3)
        results.append(timed("log_partition", spn.log_partition, net))
        net = spn.random_spn(20, 6, seed=spn.derive_seed(0, "structure", 20, 24))
        results.append(timed("exact_map (evidence)", spn.exact_map, net, {2: 1, 15: 0}))
        net = mixed_spn(spn, [3] * 11, 0)
        results.append(timed("exact_map (ternary)", spn.exact_map, net))
    return results


def _cold_row(document: Path):
    """The two cold rows, each process reading the side's sources, and the map's output."""

    def row(spn, ms: dict[str, float]) -> list:
        with tempfile.TemporaryDirectory() as tmp:
            package = Path(tmp, "spnmap")
            package.mkdir()
            for source in Path(spn.__file__).parent.glob("*.py"):
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
            map_argv = ("-m", "spnmap.cli", "map", "--algo", "amap", str(document))
            maps = [scaled(*map_argv) for _ in range(_COLD_REPEATS)]
        ms["cold import spnmap, spnmap.cli"] = statistics.median(
            k * float(out) * 1e3 for k, _, out in imports
        )
        ms["cold spnmap map --algo amap"] = statistics.median(
            k * wall * 1e3 for k, wall, _ in maps
        )
        return [maps[0][2]]

    return row


ROWS = dict(
    [
        _whole("ratio n=5", _ratio_row(5)),
        _whole("ratio n=10", _ratio_row(10)),
        _whole("ratio n=20", _ratio_row(20)),
        _whole("criterion 02 body", _gap_row),
        _whole("criterion 03 body", _fresh_row),
        ("unsat x400 pipeline", _pipeline("unsat", _UNSAT, 400)),
        ("sat x300 pipeline", _pipeline("sat", _SAT, 300)),
        ("mis n=80", _mis_row),
        ("parses", _parse_row),
        ("ratio at 50% edges", _half_row),
        _whole("random_spn(20, 6)", _random_row),
        ("enumeration", _enumeration_row),
    ]
)


def _outputs(spn, results: list) -> list[tuple[tuple, tuple]]:
    """Per result, what must agree between the sides and the bits of its values.

    A network is first solved by max-product and argmax-product; a solver's
    result gives its configuration and values, a float its bits, and
    anything else must agree as it is.
    """
    out = []
    for result in results:
        if isinstance(result, spn.Network):
            out += _outputs(spn, [spn.max_product(result), spn.argmax_product(result)])
        elif isinstance(result, spn.MapResult):
            values = (result.value, result.pd_value)
            bits = tuple(v.log.hex() for v in values if v is not None)
            out.append((tuple(sorted(result.configuration.items())), bits))
        elif isinstance(result, float):
            out.append(((), (result.hex(),)))
        else:
            out.append(((result,), ()))
    return out


def _check(old, new, rows: dict) -> bool:
    """Whether every output agrees; prints the values whose bits differ, per row."""
    agree = True
    for name, row in rows.items():
        a, b = (_outputs(spn, row(spn, {})) for spn in (old, new))
        differ = sum(x[0] != y[0] for x, y in zip(a, b))
        moved = sum(u != v for x, y in zip(a, b) for u, v in zip(x[1], y[1]))
        print(f"{name}: {len(a)} outputs, {differ} differ and {moved} values' bits differ")
        agree = agree and differ == 0 and len(a) == len(b)
    return agree


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    usage = "\n\n".join(__doc__.split("\n\n")[1:3])
    rounds = argv[2] if len(argv) == 3 else "20"
    if len(argv) not in (2, 3) or not rounds.isdecimal() or int(rounds) < 2:
        print(f"{usage}\n\nROUNDS is a whole number, at least 2 (the quartiles).", file=sys.stderr)
        return 2
    rounds = int(rounds)
    checkouts = [Path(arg) for arg in argv[:2]]
    for checkout in checkouts:
        if not (checkout / "src" / "spnmap").is_dir():
            print(f"{checkout}: no src/spnmap there\n\n{usage}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        old = _load(checkouts[0], "spnmap_old", Path(tmp))
        new = _load(checkouts[1], "spnmap_new", Path(tmp))
        document = Path(tmp, "mis.spn")
        document.write_text(_mis_document(new), encoding="utf-8")
        rows = {**ROWS, "cold": _cold_row(document)}
        if not _check(old, new, rows):
            print("outputs differ: refusing to time", file=sys.stderr)
            return 1
        times: dict[str, tuple[list, list]] = {}
        for row in rows.values():  # a row's rounds together, so no other row runs between
            for r in range(rounds):
                sides = [(0, old), (1, new)] if r % 2 == 0 else [(1, new), (0, old)]
                for side, spn in sides:
                    ms: dict[str, float] = {}
                    gc.collect()
                    row(spn, ms)
                    for stage, value in ms.items():
                        times.setdefault(stage, ([], []))[side].append(value)
        times["ratio sum"] = tuple(
            [sum(times[f"ratio n={n}"][side][r] for n in (5, 10, 20)) for r in range(rounds)]
            for side in (0, 1)
        )
    print("\n| row | old ms | new ms | new/old | new faster |\n|---|---|---|---|---|")
    for name, (a, b) in times.items():
        (a1, a2, a3), (b1, b2, b3) = _quartiles(a), _quartiles(b)
        wins = sum(y < x for x, y in zip(a, b))
        d = 2 if min(a1, b1) >= 1 else 4  # sub-millisecond rows get four decimals
        print(
            f"| {name} | {a2:.{d}f} [{a1:.{d}f}, {a3:.{d}f}] | {b2:.{d}f} [{b1:.{d}f}, {b3:.{d}f}] "
            f"| {b2 / a2:.3f} | {wins}/{rounds} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
