"""Traced server child: ``repro serve`` with the layer shims installed.

Usage (from the repository root)::

    python3 perfbench/server_child.py serve --port 0 --grids 4

Runs ``repro.cli.main`` with the given arguments after installing the
:mod:`layers` shims.  When the server stops (SIGINT) it prints the recorded
spans as one line prefixed with ``PERFBENCH_TRACE``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import TRACE_PREFIX  # noqa: E402
from layers import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    tracer = Tracer().install()
    try:
        code = repro_main(argv)
    finally:
        tracer.uninstall()
        print(TRACE_PREFIX + json.dumps(tracer.dump()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
