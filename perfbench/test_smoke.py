"""Smoke test of the benchmark itself, at small input sizes.

Run with ``python3 -m pytest perfbench``.  It checks that every metric named
in ``BENCHMARK.json`` is printed with its unit, and that a deliberately
corrupted answer is counted as a failed operation.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, workload: str, trace: int, seed: int = 5) -> tuple[dict, dict]:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, small=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    report, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["seed"] == 5 and report["python"] and report["numpy"] and report["nproc"] >= 1
    assert report["named_metrics"]["error_rate"]["value"] == 0.0


def test_corrupted_answer_counts_in_the_error_rate(monkeypatch, capsys):
    run.load_library()
    from spnmap import solvers
    from spnmap.logspace import Probability

    real = solvers.argmax_product

    def corrupted(network, evidence=None):
        # A value of e, above any probability.
        return dataclasses.replace(real(network, evidence), value=Probability(1.0))

    monkeypatch.setattr(solvers, "argmax_product", corrupted)
    report, result = bench(capsys, "ratio_study", trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert report["named_metrics"]["error_rate"]["value"] == 1.0
    assert any("argmax_product_le_exact" in error for error in report["errors"])
