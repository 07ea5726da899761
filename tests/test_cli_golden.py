"""Byte-for-byte replay of recorded CLI output.

Each case runs `hstrata.cli.main` in-process and compares stdout and the exit
code with `data/cli_golden.json`.  Arguments starting with '@' name files in
`data/`.  To record the file again (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hstrata.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

_COMMANDS = [
    ["dim", "@example_3x4.txt"],
    ["dim", "@non_cauchon_2x2.txt"],
    ["count", "3", "3", "--method", "enum"],
    ["count", "3", "3", "--method", "formula"],
    ["count", "3", "3", "--method", "series"],
    ["count", "2", "3", "--method", "formula", "--method", "enum", "--method", "series"],
    ["verify", "--max-cells", "6"],
    ["verify", "--max-cells", "4", "--inject-fault"],
    ["coeffs", "3", "1"],
    ["asymptotics", "2", "0", "--n-max", "10"],
    ["lookup", "[3,4,1,2]", "2", "2"],
    ["lookup", "[4,3,2,1]", "2", "2"],
    ["count", "0", "2"],
]
CASES = [cmd + ["--format", fmt] for cmd in _COMMANDS for fmt in ("text", "json", "csv")]


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI invocation, with no tally cache."""
    args = [str(DATA / a[1:]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue()


def _recorded() -> dict[str, dict]:
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_recording(argv):
    expected = _recorded()[" ".join(argv)]
    code, stdout = run_case(argv)
    assert stdout == expected["stdout"]
    assert code == expected["exit"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    cases = []
    for argv in CASES:
        code, stdout = run_case(argv)
        cases.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
