"""Start the benchmark's child processes from a small helper process.

A child's peak resident memory counts its parent's resident memory at the
moment the child was started, so children are started by a helper running
this file rather than by the benchmark itself.  ``Spawner`` is the
benchmark's side.  Each line the helper reads is a JSON request
``{"argv", "cwd", "env"}``; it answers each with one JSON line
``{"returncode", "stdout", "stderr", "peak_rss_kb"}``, where ``peak_rss_kb``
is the largest peak of any child so far.  End of input ends the helper.
"""

import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace


class Spawner:
    """Runs commands of the current interpreter in the helper, one at a time."""

    def __init__(self, cwd: Path, env: dict[str, str]) -> None:
        self.cwd = str(cwd)
        self.env = env
        self.peak_rss_kb = 0
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, args: list[str]) -> SimpleNamespace:
        """Run ``python ARGS...``; returns its returncode, stdout and stderr."""
        request = {"argv": [sys.executable, *args], "cwd": self.cwd, "env": self.env}
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("the helper process ended")
        done = SimpleNamespace(**json.loads(reply))
        self.peak_rss_kb = max(self.peak_rss_kb, done.peak_rss_kb)
        return done

    def reference_process(self) -> float:
        """Seconds of a process that starts Python and imports numpy, without the library."""
        t0 = perf_counter()
        done = self.run(["-c", "import numpy"])
        seconds = perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"the reference process failed: {done.stderr[-200:]}")
        return seconds

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=150)
        self._helper.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        done = subprocess.run(
            request["argv"], cwd=request["cwd"], env=request["env"], capture_output=True, text=True, timeout=120
        )
        reply = {
            "returncode": done.returncode,
            "stdout": done.stdout,
            "stderr": done.stderr,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
