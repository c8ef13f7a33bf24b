"""The package's surface: its public names, read lazily, and its submodules."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spnmap

#: ``spnmap.__all__`` when the package imported every submodule eagerly.
PUBLIC_NAMES = [
    "Assignment", "CnfFormula", "DegreeBound", "Evidence", "ExperimentConfig",
    "ExperimentRow", "Graph", "LOG_ZERO", "LeafNode", "MapResult", "Network",
    "NetworkStats", "Node", "ParseError", "Probability", "ProductNode",
    "ReductionResult", "Solver", "SumNode", "Variable", "Violation",
    "amplification_q", "amplify", "approx_factor_bound", "argmax_product",
    "batch_log_values", "cnf_to_spn", "count_free_configurations", "decision_map",
    "decode_configuration", "derive_seed", "enumerate_log_values", "evaluate",
    "evaluate_marginal", "exact_map", "gap_fragment", "gap_network", "log_partition",
    "max_product", "mis_decision_threshold", "mis_to_spn", "network_stats",
    "parse_dimacs_cnf", "parse_evidence", "parse_graph", "parse_spn", "random_graph",
    "random_spn", "ratio", "run_mis_experiment", "serialize_graph", "serialize_spn",
    "solve", "validate",
]  # fmt: skip

SUBMODULES = (
    "cli", "experiments", "formats", "inference", "logspace", "network", "reductions", "solvers",
)  # fmt: skip


def run_fresh(script: str) -> str:
    """What ``python -c SCRIPT`` prints in a fresh process that finds this package."""
    env = dict(os.environ)
    package_parent = str(Path(spnmap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_parent, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 54
    assert spnmap.__all__ == PUBLIC_NAMES


#: The defining submodule of the public names that do not record it in ``__module__``.
DEFINED_IN = {
    "Assignment": "network", "Evidence": "network", "LOG_ZERO": "logspace", "Node": "network",
}  # fmt: skip


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_a_public_name_is_its_defining_modules_object(name):
    value = getattr(spnmap, name)
    module = f"spnmap.{DEFINED_IN[name]}" if name in DEFINED_IN else value.__module__
    assert module.startswith("spnmap.")
    assert value is getattr(importlib.import_module(module), name)
    assert vars(spnmap)[name] is value  # bound in the package by the first read


def test_star_import_binds_every_name():
    namespace: dict[str, object] = {}
    exec("from spnmap import *", namespace)
    assert {name: namespace[name] for name in PUBLIC_NAMES} == {
        name: getattr(spnmap, name) for name in PUBLIC_NAMES
    }


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(spnmap))
    assert "__version__" in dir(spnmap)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        spnmap.nope
    assert not hasattr(spnmap, "nope")
    assert "nope" not in vars(spnmap)


def test_import_loads_a_submodule_only_when_a_name_is_read():
    script = (
        "import sys, spnmap\n"
        "print(sorted(m for m in sys.modules if m.startswith('spnmap.')))\n"
        "spnmap.parse_spn\n"
        "print(sorted(m for m in sys.modules if m.startswith('spnmap.')))\n"
    )
    before, after = run_fresh(script).splitlines()
    assert before == "[]"
    assert after == str(["spnmap.formats", "spnmap.inference", "spnmap.logspace", "spnmap.network"])


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_imports_first(module):
    """A submodule imported before any other works; ``network`` and
    ``inference`` import each other."""
    script = (
        f"import spnmap.{module} as m\n"
        "import spnmap\n"
        "print(all(getattr(spnmap, name) is not None for name in spnmap.__all__), m.__name__)\n"
    )
    assert run_fresh(script) == f"True spnmap.{module}"
