"""``tools/ab.py``'s command line, run as a subprocess.

Each bad command line exits 2 with the usage before the tool copies or
imports a checkout, so these cases cost a few interpreter starts.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "args",
    [[], ["REPO", "REPO", "1"], ["REPO", "REPO", "x"], ["REPO", "MISSING"]],
    ids=["no arguments", "one round", "rounds not a number", "missing checkout"],
)
def test_ab_refuses_a_bad_command_line_before_any_work(args, tmp_path):
    missing = tmp_path / "missing"
    argv = [{"REPO": str(_REPO), "MISSING": str(missing)}.get(arg, arg) for arg in args]
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    done = subprocess.run(
        [sys.executable, "-X", "importtime", str(_REPO / "tools" / "ab.py"), *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, TMPDIR=str(scratch)),
        timeout=60,
    )
    assert done.returncode == 2
    assert "python tools/ab.py OLD_CHECKOUT NEW_CHECKOUT [ROUNDS]" in done.stderr
    assert "Traceback" not in done.stderr
    if "MISSING" in args:
        assert f"{missing}: no src/spnmap" in done.stderr
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert imported and not [name for name in imported if name.startswith(("numpy", "spnmap"))]
    assert not list(scratch.iterdir())
