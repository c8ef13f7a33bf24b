"""Interleaved in-process A/B of two spnmap checkouts on the small-network rows.

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
  with evidence on every fourth as the test draws it; each side's table of
  network shapes (``network._SHAPES``, where the checkout has one) is
  emptied before the row and restored after it, so every shape is new

A check pass first runs each row once per side and solves every network it
built with both solvers.  The script refuses to time, and exits 1, if any
configuration differs between the sides; it counts, per row, the values
(max-product's value and bound, argmax-product's value) whose bits differ.
Each row then runs its rounds, one after another: a round times the row
once per side, with ``gc.collect()`` before each timing, and alternates
which side goes first from round to round (default 20 rounds; at least 2,
for the quartiles).  A row's rounds run together because the criterion 03
row, which builds 1000 networks per side, slowed the short rows after it:
with every row in each round, the n = 5 row read +45% and +31% in two runs
where it read +21% and +19% alone, and +20% with rounds by row.  The
script prints per row each side's median milliseconds with its quartiles,
the ratio of the medians, new over old, and the rounds in which the new
side was faster.

Band: a checkout against a copy of itself, in two runs of 20 rounds on a
2-core Xeon host (Python 3.11, numpy 2.4.6), read every row's ratio within
0.96-1.06, and every row's wins within 8-15 of 20.  Read a move inside that
band as no move.
"""

from __future__ import annotations

import gc
import importlib
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: Graphs per ratio row and size, over the four edge percentages in turn.
_RATIO_GRAPHS = 100

_PERCENTAGES = (10.0, 20.0, 40.0, 60.0)


def _load(checkout: Path, name: str, into: Path):
    """``checkout``'s ``spnmap`` package, copied into ``into`` and imported as ``name``."""
    shutil.copytree(
        checkout / "src" / "spnmap", into / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    package = importlib.import_module(name)
    package.experiments = importlib.import_module(f"{name}.experiments")
    package.network = importlib.import_module(f"{name}.network")
    return package


def _ratio_row(n: int):
    def row(spn) -> list:
        nets = []
        for rep in range(_RATIO_GRAPHS):
            pct = _PERCENTAGES[rep % len(_PERCENTAGES)]
            graph = spn.random_graph(n, pct, spn.derive_seed(0, n, pct, rep // 4))
            net = spn.mis_to_spn(graph).network
            spn.max_product(net)
            spn.argmax_product(net)
            nets.append((net, {}))
        return nets

    return row


def _gap_row(spn) -> list:
    nets = []
    fragment = spn.experiments.gap_fragment()
    for m in range(1, 11):
        net = spn.amplify(fragment, m).network
        spn.ratio(net)
        nets.append((net, {}))
    return nets


def _fresh_row(spn) -> list:
    table = getattr(spn.network, "_SHAPES", {})
    kept = dict(table)
    table.clear()
    nets = []
    for s in range(1000):
        net = spn.random_spn(1 + s % 8, 1 + s % 5, seed=s)
        evidence: dict[int, int] = {}
        if s % 4 == 0:
            rng = random.Random(spn.derive_seed(1, "evidence", s))
            evidence = {
                v.index: rng.randrange(v.cardinality) for v in net.variables if rng.random() < 0.5
            }
            evidence = evidence or {0: rng.randrange(net.cardinality(0))}
        spn.max_product(net, evidence)
        spn.argmax_product(net, evidence)
        spn.exact_map(net, evidence)
        nets.append((net, evidence))
    table.clear()
    table.update(kept)
    return nets


ROWS = {
    "ratio n=5": _ratio_row(5),
    "ratio n=10": _ratio_row(10),
    "ratio n=20": _ratio_row(20),
    "criterion 02 body": _gap_row,
    "criterion 03 body": _fresh_row,
}


def _solved(spn, nets: list) -> list[tuple]:
    """Per network: both configurations, and the value bits of both solvers."""
    out = []
    for net, evidence in nets:
        mp, am = spn.max_product(net, evidence), spn.argmax_product(net, evidence)
        values = (mp.value.log.hex(), mp.pd_value.log.hex(), am.value.log.hex())
        out.append(((sorted(mp.configuration.items()), sorted(am.configuration.items())), values))
    return out


def _check(old, new) -> bool:
    """Whether every configuration agrees; prints the values whose bits differ, per row."""
    agree = True
    for name, row in ROWS.items():
        a, b = _solved(old, row(old)), _solved(new, row(new))
        configs = sum(x[0] != y[0] for x, y in zip(a, b))
        moved = sum(u != v for x, y in zip(a, b) for u, v in zip(x[1], y[1]))
        print(f"{name}: {len(a)} networks, {configs} configurations and {moved} values differ")
        agree = agree and configs == 0 and len(a) == len(b)
    return agree


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    rounds = int(argv[2]) if len(argv) == 3 else 20
    if rounds < 2:
        print("ROUNDS must be at least 2, for the quartiles", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        old = _load(Path(argv[0]), "spnmap_old", Path(tmp))
        new = _load(Path(argv[1]), "spnmap_new", Path(tmp))
        if not _check(old, new):
            print("configurations differ: refusing to time", file=sys.stderr)
            return 1
        times = {name: ([], []) for name in ROWS}
        for name, row in ROWS.items():  # a row's rounds together, so no other row runs between
            for r in range(rounds):
                sides = [(0, old), (1, new)] if r % 2 == 0 else [(1, new), (0, old)]
                for side, spn in sides:
                    gc.collect()
                    t0 = time.perf_counter()
                    row(spn)
                    times[name][side].append((time.perf_counter() - t0) * 1e3)
        times["ratio sum"] = tuple(
            [sum(times[f"ratio n={n}"][side][r] for n in (5, 10, 20)) for r in range(rounds)]
            for side in (0, 1)
        )
    print("\n| row | old ms | new ms | new/old | new faster |\n|---|---|---|---|---|")
    for name, (a, b) in times.items():
        (a1, a2, a3), (b1, b2, b3) = _quartiles(a), _quartiles(b)
        wins = sum(y < x for x, y in zip(a, b))
        print(
            f"| {name} | {a2:.2f} [{a1:.2f}, {a3:.2f}] | {b2:.2f} [{b1:.2f}, {b3:.2f}] "
            f"| {b2 / a2:.3f} | {wins}/{rounds} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
