"""The benchmark's tracer names only functions that the package defines.

``perfbench/tracing.py``'s ``Tracer.install`` looks each ``(module, name)``
of ``TRACED`` up in ``spnmap.<module>`` with no default, so a traced
function that is renamed or deleted makes every traced benchmark run fail.
The file is parsed, not imported: nothing of it runs and nothing is written
beside it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names() -> tuple[tuple[str, str], ...]:
    """The ``TRACED`` tuple of ``perfbench/tracing.py``, read as a literal."""
    for statement in ast.parse(TRACING.read_text()).body:
        if isinstance(statement, ast.Assign) and ast.unparse(statement.targets[0]) == "TRACED":
            return ast.literal_eval(statement.value)
    raise AssertionError(f"{TRACING} assigns no TRACED")


def test_every_traced_function_is_defined():
    names = traced_names()
    assert names
    missing = [
        f"spnmap.{module}.{name}"
        for module, name in names
        if not callable(getattr(importlib.import_module(f"spnmap.{module}"), name, None))
    ]
    assert not missing
