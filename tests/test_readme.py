"""The README's Library example runs as written against the public API."""

from __future__ import annotations

import re
from pathlib import Path

import hstrata

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_imports_only_public_names():
    names = re.search(r"from hstrata import \((.*?)\)", library_example(), re.S).group(1)
    imported = {name.strip() for name in names.split(",") if name.strip()}
    assert imported <= set(hstrata.__all__)


def test_library_example_runs():
    exec(compile(library_example(), str(README), "exec"), {})
