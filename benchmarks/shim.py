"""Run one `hstrata` CLI command under the tracer.

Usage: python shim.py TRACE_STEM -- ARGS...

Installs the same wrappers as the in-process workers, calls
hstrata.cli.main(ARGS) and exits with its code.  The spans go to
TRACE_STEM.spans (with a TRACE_STEM.json header) and the per-name totals to
TRACE_STEM.summary.json.
"""

import json
import sys
from pathlib import Path

import hstrata.cli

from tracing import Tracer  # sys.path[0] is this file's directory


def run(stem: Path, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = hstrata.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(stem)
        summary = tracer.summary()
        (stem.parent / f"{stem.name}.summary.json").write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: shim.py TRACE_STEM -- ARGS...")
    sys.exit(run(Path(sys.argv[1]), sys.argv[3:]))
