from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hstrata import Diagram, pipedreams
from hstrata.verify import run_verify

SRC = Path(__file__).resolve().parent.parent / "src" / "hstrata"
# each module imports only from modules before it; the package entry points
# (__init__, __main__) sit above all of them
LAYERS = ("diagrams", "pipedreams", "exactlinalg", "genfunc", "enumeration", "verify", "cli")


def relative_imports(path: Path) -> list[str]:
    """The sibling modules a file imports, at any depth in its body."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.append(node.module.split(".")[0])
            else:  # from . import x
                found.extend(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_follow_the_layers(module):
    below = LAYERS[: LAYERS.index(module)]
    imported = relative_imports(SRC / f"{module}.py")
    assert [m for m in imported if m not in below] == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every command pays for what `import hstrata.cli` loads; dataclasses
    # brings inspect and about a dozen more stdlib modules with it
    probe = "import sys, hstrata.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# the eliminations and back-substitution behind every rank and kernel
ENGINE = {"_integer_rows", "_pivot_rows", "_kernel_vectors", "_pair_rank"}


def names_used(path: Path) -> set[str]:
    """Every name a file imports, reads or looks up as an attribute."""
    return names_in(ast.parse(path.read_text()))


def names_in(tree: ast.AST) -> set[str]:
    """Every name a syntax tree imports, reads or looks up as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Name):
            found.add(node.id)
    return found


def test_the_kernel_oracle_shares_no_elimination():
    # kernel_basis_by_fractions checks kernel_basis only while it runs an
    # elimination of its own
    defined = {
        node.name
        for node in ast.parse((SRC / "exactlinalg.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert ENGINE <= defined
    assert names_used(Path(__file__).resolve().parent / "conftest.py") & ENGINE == set()


def callers(name: str) -> set[tuple[str, str]]:
    """(module, top-level function) for every call of name in src/."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and name in names_in(call.func):
                    found.add((path.stem, getattr(node, "name", None)))
    return found


def test_one_pipe_pass():
    # _trace folds the row rule over a diagram and verify's sweep steps it
    # per row prefix; any other reader of the pipes goes through _trace
    assert callers("_pipe_row") == {("pipedreams", "_trace"), ("verify", "_verify_sweep")}


def test_one_cycle_walk():
    # cycle_decomposition and verify's cycle-side vectors read one walk of a
    # permutation's cycles; conftest's oracle walks them on its own
    assert callers("_cycle_walk") == {
        ("pipedreams", "cycle_decomposition"),
        ("exactlinalg", "_even_cycle_vectors"),
    }
    assert "_cycle_walk" not in names_used(Path(__file__).resolve().parent / "conftest.py")


# what only the cross-check suite composes: the kernel maps, the boundary
# kernel test, the cycle-side vectors and the white-matrix basis
SUITE_HELPERS = (
    "_square_image",
    "_boundary_image",
    "_in_boundary_kernel",
    "_even_cycle_vectors",
    "kernel_basis",
)


def test_one_module_knows_the_suite():
    # verify composes the suite's helpers; beside it only exactlinalg's
    # public wrappers call them, and cli imports from exactlinalg just the
    # two dimensions dim reads
    for name in SUITE_HELPERS:
        found = callers(name)
        assert ("verify", "run_verify") in found
        others = {(module, fn) for module, fn in found if module != "verify"}
        assert all(module == "exactlinalg" and not fn.startswith("_") for module, fn in others), others
    imported = {
        alias.name
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "exactlinalg"
        for alias in node.names
    }
    assert imported == {"_boundary_kernel_dim", "_white_kernel_dim"}


def test_one_two_term_engine():
    # the boundary matrix P_p + P_q and the transfer matrix I + phi are the
    # only two-term matrices; every other rank goes through _pivot_rows
    assert callers("_pair_rank") == {
        ("exactlinalg", "_boundary_kernel_dim"),
        ("exactlinalg", "_transfer_kernel_dim"),
    }


# the integer closed-form table (its difference table and Horner sums
# live in _closed_table itself) and its one exact division, the surjection
# rows behind poly_bernoulli, single_cycle_count and stirling2, and the
# series recurrences, convolution and mirror square
COUNTING_ENGINE = {
    "_closed_table",
    "_exact",
    "_surjections",
    "_add_product",
    "_recurrence",
    "_integer_grid",
    "_product_coeff",
    "_grid_product",
    "_mirror_square",
}


def test_the_counting_oracles_share_no_engine():
    # stratum_poly_by_triple_sum, the Stirling double sums and the power-sum
    # series oracles check genfunc only while they run arithmetic of their own
    defined = {
        node.name
        for node in ast.walk(ast.parse((SRC / "genfunc.py").read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert COUNTING_ENGINE <= defined
    assert names_used(Path(__file__).resolve().parent / "conftest.py") & COUNTING_ENGINE == set()


def test_verify_builds_no_permutation_or_endpoint_objects(monkeypatch):
    # run_verify reads sigma, tau and their cycles as plain int tuples, and
    # the white-square endpoints are plain pairs everywhere; the counter is
    # first seen to count what the public wrapper builds
    built: Counter = Counter()
    init = pipedreams.Permutation.__init__

    def counted_init(self, images):
        built["Permutation"] += 1
        init(self, images)

    monkeypatch.setattr(pipedreams.Permutation, "__init__", counted_init)
    pipedreams.trace_permutation(Diagram.all_white(2, 2))
    assert built == Counter(Permutation=1)
    built.clear()
    assert run_verify(6)["diagrams"] == 356
    assert built == Counter()


# the closed form and the double-factorial limit run on ints and divide once;
# Fraction is built only where a public function returns one
INTEGER_ONLY = {
    "_odd_rising",
    "stratum_poly",
    "stratum_count",
    "evaluate",
    "double_factorial_poly",
    "double_factorial_coeff",
}


def test_the_closed_form_evaluates_without_fractions():
    bodies = {
        node.name: node
        for node in ast.walk(ast.parse((SRC / "genfunc.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in INTEGER_ONLY
    }
    assert set(bodies) == INTEGER_ONLY
    assert {name for name, node in bodies.items() if "Fraction" in names_in(node)} == set()
