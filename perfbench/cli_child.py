"""Run one ``spnmap`` CLI command under the tracer and write its spans as JSON.

Usage: ``python3 perfbench/cli_child.py SPANS_FILE CLI_ARG...`` with the
library's ``src`` directory on ``PYTHONPATH``.  The command's own output and
exit code pass through unchanged; the import of ``spnmap.cli`` is recorded
as a ``cli.import`` span.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import spnmap.cli
    with tracer.install():
        code = spnmap.cli.main(argv)
    Path(spans_file).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
