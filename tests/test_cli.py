from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstrata import Diagram, RatPoly
from hstrata import cli, genfunc, verify
from hstrata.cli import main
from hstrata.enumeration import cauchon_diagrams
from hstrata.exactlinalg import _identity, _phi_step, white_adjacency_matrix
from hstrata.pipedreams import _trace
from hstrata.verify import run_verify

from conftest import SHAPES_UP_TO_9, SHAPES_UP_TO_12, phi_dense, transfer_matrix_dense

SRC = Path(__file__).resolve().parent.parent / "src"


def checkout_env() -> dict[str, str]:
    """The environment with src on PYTHONPATH, so a subprocess imports the checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


@pytest.fixture
def diagram_file(tmp_path):
    def write(text, name="diagram.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestDim:
    def test_all_black(self, capsys, diagram_file):
        path = diagram_file("##\n##")
        code, out, _ = run_cli(capsys, "dim", path)
        assert code == 0
        assert "dimension: 0" in out
        assert "tau: [1,2,3,4]" in out
        assert "agree: True" in out

    def test_white_over_black(self, capsys, diagram_file):
        path = diagram_file(".\n#")
        code, out, _ = run_cli(capsys, "dim", path)
        assert code == 0
        assert "dimension: 1" in out
        assert "kernel_dim: 1" in out

    def test_all_white_2x2_json(self, capsys, diagram_file):
        path = diagram_file("..\n..")
        code, out, _ = run_cli(capsys, "dim", path, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 2
        assert report["kernel_dim"] == 2
        assert report["boundary_kernel_dim"] == 2
        assert report["agree"] is True
        assert report["status"] == "ok"
        assert report["cauchon"] is True

    def test_non_cauchon_warns_but_succeeds(self, capsys, diagram_file):
        path = diagram_file("..\n.#")
        code, out, _ = run_cli(capsys, "dim", path)
        assert code == 0
        assert "warning:" in out
        assert "not Cauchon" in out

    def test_parse_failure_exits_nonzero(self, capsys, diagram_file):
        path = diagram_file("..\n.")
        code, out, err = run_cli(capsys, "dim", path)
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "dim", "/nonexistent/diagram.txt")
        assert code == 2
        assert "error" in err

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("#\n."))
        code, out, _ = run_cli(capsys, "dim", "-")
        assert code == 0
        assert "dimension: 1" in out

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_stdin_with_trailing_blank_lines(self, capsys, monkeypatch, eol):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(f"..{eol}..{eol}{eol}"))
        code, out, _ = run_cli(capsys, "dim", "-")
        assert code == 0
        assert "dimension: 2" in out

    def test_white_square_cap(self, capsys, diagram_file, monkeypatch):
        cap = cli.DIM_MAX_WHITE
        assert cap >= 256  # a 16x16 grid stays allowed
        path = diagram_file("." * (cap + 1))
        code, out, err = run_cli(capsys, "dim", path)
        assert code == 2
        assert out == ""
        assert f"capped at {cap} white squares, got {cap + 1}" in err
        # only white squares count, and the cap itself is allowed
        monkeypatch.setattr(cli, "DIM_MAX_WHITE", 3)
        code, out, _ = run_cli(capsys, "dim", diagram_file("#.\n.."))
        assert code == 0
        assert "white_squares: 3" in out
        code, _, err = run_cli(capsys, "dim", diagram_file("..\n.."))
        assert code == 2
        assert "capped at 3 white squares, got 4" in err

    def test_traces_its_diagram_once(self, capsys, diagram_file, monkeypatch):
        from hstrata import pipedreams

        pipe_row = pipedreams._pipe_row
        passed = []

        def counted(above, row, left):
            passed.append(row)
            return pipe_row(above, row, left)

        monkeypatch.setattr(pipedreams, "_pipe_row", counted)
        code, _, _ = run_cli(capsys, "dim", diagram_file("..#\n.##"))
        assert code == 0
        assert passed == [(False, False, True), (False, True, True)]  # one pass per row

    def test_csv_has_header_row(self, capsys, diagram_file):
        path = diagram_file("..\n..")
        code, out, _ = run_cli(capsys, "dim", path, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert "kernel_dim" in lines[0].split(",")


class TestCount:
    def test_formula_default(self, capsys):
        code, out, _ = run_cli(capsys, "count", "2", "2")
        assert code == 0
        assert "agree: True" in out

    def test_all_methods_agree(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count", "2", "2",
            "--method", "formula", "--method", "enum", "--method", "series",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["agree"] is True
        for meth in ("formula", "enum", "series"):
            assert report["counts"][meth] == {"0": "5", "1": "7", "2": "2"}
            assert report["totals"][meth] == "14"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_total_past_the_int_digit_limit(self, capsys):
        # 2**14500 has 4,365 digits, past CPython's default limit of 4300
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "count", "1", "14500", "--format", "json")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        total = json.loads(out)["totals"]["formula"]
        sys.set_int_max_str_digits(0)
        try:
            assert total == str(2**14500)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_formula_on_the_longer_side_first(self, capsys):
        # the closed-form table is built on the shorter side whichever comes first
        counts = {}
        for argv in (("300", "3"), ("3", "300")):
            code, out, _ = run_cli(capsys, "count", *argv, "--method", "formula", "--format", "json")
            assert code == 0
            counts[argv] = json.loads(out)["counts"]["formula"]
        assert counts[("300", "3")] == counts[("3", "300")]
        assert len(counts[("3", "300")]) == 4

    def test_formula_3x3(self, capsys):
        code, out, _ = run_cli(capsys, "count", "3", "3", "--format", "json")
        report = json.loads(out)
        assert report["counts"]["formula"]["0"] == "70"
        assert report["totals"]["formula"] == "230"

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "count", "2", "1", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "dimension,formula"
        assert lines[1] == "0,2"
        assert lines[2] == "1,2"
        assert lines[3] == "total,4"

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "7", "8", "--method", "enum"],
            ["count", "8", "7", "--method", "formula", "--method", "enum"],
            ["count", "7", "7", "--method", "series", "--method", "enum"],
        ],
    )
    def test_enum_side_cap(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"min(m, n) <= {cli.ENUM_MAX_SIDE}" in err
        assert "--method formula" in err

    def test_enum_past_the_old_cell_cap(self, capsys):
        # only the shorter side is capped, so 30 and 120 cells pass; the
        # formula route has no cap at all
        for argv in (["6", "5"], ["40", "3"], ["3", "40"]):
            code, out, _ = run_cli(capsys, "count", *argv, "--method", "enum", "--method", "formula")
            assert code == 0
            assert "agree: True" in out
        code, out, _ = run_cli(capsys, "count", "6", "6", "--method", "formula")
        assert code == 0

    def test_repeated_method_is_computed_once(self, capsys, monkeypatch):
        calls = []
        tally_dimensions = cli.tally_dimensions

        def counted(*args, **kwargs):
            calls.append(args)
            return tally_dimensions(*args, **kwargs)

        monkeypatch.setattr(cli, "tally_dimensions", counted)
        code, out, _ = run_cli(
            capsys, "count", "2", "2", "--method", "enum", "--method", "formula",
            "--method", "enum", "--format", "json",
        )
        assert code == 0
        assert calls == [(2, 2)]
        report = json.loads(out)
        assert report["methods"] == ["enum", "formula"]
        assert list(report["counts"]) == ["enum", "formula"]
        code, out, _ = run_cli(capsys, "count", "2", "2", "--method", "enum", "--method", "enum")
        assert out.splitlines()[1].split() == ["dimension", "enum"]

    def test_series_order_cap(self, capsys):
        cap = cli.SERIES_MAX_ORDER
        for m, n in ((cap + 1, 1), (1, cap + 1)):
            code, out, err = run_cli(capsys, "count", str(m), str(n), "--method", "series")
            assert code == 2
            assert out == ""
            assert f"max(m, n) <= {cap}" in err
        # the formula route has no such cap, and the cap itself is allowed
        code, out, _ = run_cli(capsys, "count", str(cap + 1), "1", "--format", "json")
        assert code == 0
        code, out, _ = run_cli(
            capsys, "count", str(cap), "1", "--method", "series", "--method", "formula"
        )
        assert code == 0
        assert "agree: True" in out

    @pytest.mark.parametrize("m, n", [(4, 4), (2, 5)])
    def test_series_convolves_one_coefficient(self, capsys, monkeypatch, m, n):
        # one power recurrence H = F^alpha, H's and F's integer grids taken
        # once each, and one full product of the two grids, whose coefficient
        # (i, j) meets only F's i + j + 1 nonzero terms; of G^alpha F^(alpha+1)
        # only the (m, n) coefficient is convolved, and no series is multiplied
        series = genfunc.TruncatedSeries3
        powers, gridded, products, coefficients, added = [], [], [], [], []
        recurrence, integer_grid, mul = series._recurrence, series._integer_grid, series.__mul__
        product_coeff, add_product = genfunc._product_coeff, genfunc._add_product

        def counted_recurrence(self, p, q):
            powers.append(recurrence(self, p, q))
            return powers[-1]

        def counted_grid(self):
            gridded.append(self)
            return integer_grid(self)

        def counted_mul(self, other):
            products.append(other)
            return mul(self, other)

        def counted_coeff(a, b, i, j):
            before = len(added)
            out = product_coeff(a, b, i, j)
            coefficients.append((i, j, len(added) - before))
            return out

        def counted_add(*args):
            added.append(args)
            return add_product(*args)

        monkeypatch.setattr(series, "_recurrence", counted_recurrence)
        monkeypatch.setattr(series, "_integer_grid", counted_grid)
        monkeypatch.setattr(series, "__mul__", counted_mul)
        monkeypatch.setattr(genfunc, "_product_coeff", counted_coeff)
        monkeypatch.setattr(genfunc, "_add_product", counted_add)
        argv = ("count", str(m), str(n), "--method", "series", "--method", "formula")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "agree: True" in out
        assert len(powers) == 1
        f = series.exponential(m, n, 1, 0) + series.exponential(m, n, 0, 1) - 1
        assert len(gridded) == 2
        assert gridded[0] is powers[0] and gridded[1] == f
        assert products == []
        *h_times_f, last = coefficients
        assert len(h_times_f) == (m + 1) * (n + 1)
        assert all(calls <= i + j + 1 for i, j, calls in h_times_f)
        assert last[:2] == (m, n)

    def test_rejects_nonpositive(self, capsys):
        code, _, err = run_cli(capsys, "count", "0", "2")
        assert code == 2

    @pytest.mark.parametrize("m, n", [("99999999999999999999", "2"), ("2", "99999999999999999999")])
    def test_longer_side_is_bounded_before_any_method(self, capsys, monkeypatch, m, n):
        def ran(*args, **kwargs):
            raise AssertionError("a method ran past the digit bound")

        for name in ("tally_dimensions", "stratum_poly", "_stratum_series_coeff", "poly_bernoulli"):
            monkeypatch.setattr(cli, name, ran)
        for method in ("formula", "series", "enum"):
            code, out, err = run_cli(capsys, "count", m, n, "--method", method)
            assert code == 2
            assert out == ""
            assert err.startswith("error: count is capped at 20000 digits") and err.count("\n") == 1

    def test_digit_bound_edge(self, capsys, monkeypatch):
        # 2 x 25 prints about 25 log10(3) = 11.9 digits, 2 x 26 about 12.4
        monkeypatch.setattr(cli, "COUNT_MAX_DIGITS", 12)
        code, _, _ = run_cli(capsys, "count", "2", "25")
        assert code == 0
        code, out, err = run_cli(capsys, "count", "2", "26")
        assert code == 2
        assert out == ""
        assert "the longer side is at most 25" in err

    def test_formula_table_is_capped_on_the_shorter_side(self, capsys, monkeypatch):
        cap = cli.FORMULA_MAX_SIDE
        monkeypatch.setattr(cli, "stratum_poly", lambda m, n: pytest.fail("the table was built"))
        code, out, err = run_cli(capsys, "count", str(cap + 1), str(cap + 1))
        assert code == 2
        assert out == ""
        assert err == f"error: --method formula is capped at min(m, n) <= {cap}\n"
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "count", str(cap + 1), "2")
        assert code == 0
        assert "status: ok" in out

    @pytest.mark.parametrize("method", ["formula", "series"])
    def test_non_integral_coefficient_is_an_error(self, capsys, monkeypatch, method):
        # a fractional count must be reported, not truncated to 0 by int()
        poly = RatPoly([Fraction(1, 2), 7, 2])
        monkeypatch.setattr(cli, "stratum_poly", lambda m, n: poly)
        monkeypatch.setattr(cli, "_stratum_series_coeff", lambda m, n: poly)
        code, out, err = run_cli(capsys, "count", "2", "2", "--method", method)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "1/2" in err

    def test_changed_closed_form_fails_the_total(self, capsys, monkeypatch):
        # 2^m added to one coefficient of the m = 2 table keeps every count an
        # integer, so only the check against poly_bernoulli can see it
        closed_table = genfunc._closed_table

        def changed(m):
            (k, c), *rest = closed_table(m)
            return ((k, (c[0] + (1 << m if m == 2 else 0), *c[1:])), *rest)

        monkeypatch.setattr(genfunc, "_closed_table", changed)
        code, out, _ = run_cli(capsys, "count", "2", "2", "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["agree"] is True
        assert report["status"] == "fail"
        code, out, _ = run_cli(capsys, "count", "3", "3")  # the m = 3 table is unchanged
        assert code == 0
        assert out.endswith("status: ok")

    def test_cache_hit_at_a_long_side(self, capsys, tmp_path):
        # the hit checks the cached total against poly_bernoulli(1, 900),
        # which once recursed 900 deep and crashed
        argv = ("count", "1", "900", "--method", "enum", "--cache-dir", str(tmp_path))
        first = run_cli(capsys, *argv)
        assert first[0] == 0
        assert run_cli(capsys, *argv) == first

    def test_transposed_shape_is_a_cache_hit(self, capsys, tmp_path, monkeypatch):
        # m x n and n x m tally the same diagrams, transposed, so they share one file
        from hstrata import enumeration

        assert run_cli(capsys, "count", "5", "3", "--method", "enum", "--cache-dir", str(tmp_path))[0] == 0
        expected = run_cli(capsys, "count", "3", "5", "--method", "enum")

        def no_sweep(m, n):
            raise AssertionError("the tally was computed again")

        monkeypatch.setattr(enumeration, "_frontier", no_sweep)
        assert run_cli(capsys, "count", "3", "5", "--method", "enum", "--cache-dir", str(tmp_path)) == expected
        assert [p.name for p in tmp_path.iterdir()] == ["tally-v1-3x5-cycles.json"]
        assert json.loads((tmp_path / "tally-v1-3x5-cycles.json").read_text())["m"] == 3

    def test_truncated_cache_file_is_recomputed(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "count", "2", "2", "--method", "enum", "--cache-dir", str(tmp_path)
        )
        path = next(tmp_path.iterdir())
        path.write_text(path.read_text()[:10])
        again = run_cli(
            capsys, "count", "2", "2", "--method", "enum", "--cache-dir", str(tmp_path)
        )
        assert again == (0, out, "")
        assert json.loads(path.read_text())["total"] == "14"


class TestVerify:
    def test_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-cells", "1")
        assert code == 0
        assert "verified 2 diagrams" in out
        assert "status: ok" in out

    def test_default_scale_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"
        assert report["failures"] == 0
        assert report["max_cells"] == 9
        for check in report["checks"].values():
            assert check["failures"] == 0
            assert check["checked"] > 0

    def test_injected_fault_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-cells", "4", "--inject-fault", "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "fail"
        assert report["failures"] >= 1

    def test_injected_fault_needs_two_cells(self, capsys):
        # no 1-cell diagram has two white squares, so the fault would never
        # be placed and the run would pass
        with pytest.raises(ValueError, match="at least 2"):
            run_verify(1, inject_fault=True)
        code, out, err = run_cli(capsys, "verify", "--max-cells", "1", "--inject-fault")
        assert (code, out) == (2, "")
        assert "inject_fault needs max_cells of at least 2" in err

    @pytest.mark.parametrize(
        "cells,shapes,diagrams,formula_checks", [(4, 8, 72, 8), (9, 23, 2670, 23)]
    )
    def test_injected_fault_report(self, cells, shapes, diagrams, formula_checks):
        # the flipped sign fails skew symmetry on one diagram and nothing else:
        # the kernel bases are shared between diagrams with equal white
        # matrices, which must neither hide the fault nor spread it
        report = run_verify(cells, inject_fault=True)
        per_diagram = {"checked": diagrams, "failures": 0}
        assert report == {
            "command": "verify",
            "max_cells": cells,
            "shapes": shapes,
            "diagrams": diagrams,
            "checks": {
                "skew_symmetry": {"checked": diagrams, "failures": 1},
                "dimension_equality": per_diagram,
                "gluing_identity": per_diagram,
                "iso_maps": per_diagram,
                "tally_vs_formula": {"checked": formula_checks, "failures": 0},
            },
            "failures": 1,
            "status": "fail",
        }

    def test_one_kernel_basis_per_distinct_white_matrix(self, monkeypatch):
        # the faulted matrix is not skew, so it is a key of its own and takes
        # no other diagram's basis; each solved matrix is built once, not
        # once per diagram
        kernel_basis, white_adjacency_matrix = verify.kernel_basis, verify.white_adjacency_matrix
        solved, built = [], []

        def recorded(mat):
            solved.append(tuple(map(tuple, mat)))
            return kernel_basis(mat)

        def counted(d):
            built.append(d)
            return white_adjacency_matrix(d)

        monkeypatch.setattr(verify, "kernel_basis", recorded)
        monkeypatch.setattr(verify, "white_adjacency_matrix", counted)
        for inject_fault, distinct in ((False, 152), (True, 153)):
            solved.clear()
            built.clear()
            assert run_verify(9, inject_fault=inject_fault)["diagrams"] == 2670
            assert len(solved) == len(set(solved)) == len(built) == distinct

    def test_each_diagram_reads_its_own_transfer_dimension(self, monkeypatch):
        # no memo stands between a diagram and its transfer read: one read
        # per diagram, of the phi folded over that diagram's own rows
        transfer_kernel_dim, read = verify._transfer_kernel_dim, []

        def counted(phi):
            read.append(phi)
            return transfer_kernel_dim(phi)

        monkeypatch.setattr(verify, "_transfer_kernel_dim", counted)
        assert run_verify(9)["diagrams"] == 2670
        assert len(read) == 2670
        assert read == [
            reduce(_phi_step, d.rows, _identity(n))
            for m in range(1, 10)
            for n in range(1, 9 // m + 1)
            for d in cauchon_diagrams(m, n)
        ]

    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_12)
    def test_sweep_state_matches_the_diagram_objects(self, m, n):
        # each prefix's state is shared by every diagram below it, so a step
        # that changed its parent's state would show here; all states are
        # kept before any is compared
        swept = list(verify._verify_sweep(m, n))
        diagrams = list(cauchon_diagrams(m, n))
        assert [rows for rows, _ in swept] == [d.rows for d in diagrams]
        for d, (_, state) in zip(diagrams, swept):
            bottom, rights, squares, lines, col_bits, phi, endpoints, glued = state
            sigma, _, traced_endpoints = _trace(d)
            assert (*bottom, *rights[::-1]) == sigma
            assert squares == d.white_squares()
            assert endpoints == traced_endpoints
            assert glued is True
            # bit j of lines[i]: the white matrix is nonzero at (i, j), j < i
            mat = white_adjacency_matrix(d)
            assert lines == tuple(
                sum(1 << j for j in range(i) if mat[i][j]) for i in range(len(mat))
            )
            assert col_bits == tuple(
                sum(1 << i for i, (_, c) in enumerate(squares) if c == col)
                for col in range(1, n + 1)
            )
            assert phi_dense(phi) == transfer_matrix_dense(d.rows)

    def test_equal_lines_mean_equal_white_matrices(self):
        # run_verify solves one white matrix per distinct lines, so lines must
        # tell the matrices apart exactly: no two matrices under one key, and
        # no matrix under two keys
        matrices: dict[tuple, set] = {}
        for m, n in SHAPES_UP_TO_9:
            for rows, (_, _, _, lines, *_) in verify._verify_sweep(m, n):
                mat = white_adjacency_matrix(Diagram(rows))
                matrices.setdefault(lines, set()).add(tuple(map(tuple, mat)))
        assert all(len(mats) == 1 for mats in matrices.values())
        distinct = set().union(*matrices.values())
        assert len(matrices) == len(distinct) == 152

    def test_white_matrix_off_its_line_pattern_fails_skew_symmetry(self, monkeypatch):
        # both signs of one pair negated: the matrix is still skew, but it is
        # no longer the matrix the sweep's line pattern gives
        def negated(d):
            mat = white_adjacency_matrix(d)
            if len(mat) >= 2:
                mat[0][1], mat[1][0] = -mat[0][1], -mat[1][0]
            return mat

        monkeypatch.setattr(verify, "white_adjacency_matrix", negated)
        report = run_verify(4)
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"skew_symmetry": 39, "dimension_equality": 1, "iso_maps": 12}
        assert report["status"] == "fail"

    def test_broken_transfer_matrix_fails_dimension_equality(self, monkeypatch):
        # the swept phi is still checked against the other routes on every diagram
        phi_step = verify._phi_step

        def flipped(phi, cells):
            out = phi_step(phi, cells)
            return (out[0] ^ 1, *out[1:])  # row 0 of phi negated

        monkeypatch.setattr(verify, "_phi_step", flipped)
        report = run_verify(6)
        failed = {name for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"dimension_equality"}
        assert report["status"] == "fail"

    def test_broken_transfer_read_fails_dimension_equality(self, monkeypatch):
        # the first read, of the 1x1 white square's phi (1,), is off by one;
        # every other diagram reads its own phi, so that one diagram alone
        # fails
        transfer_kernel_dim = verify._transfer_kernel_dim
        pending = [True]

        def off_by_one(phi):
            dim = transfer_kernel_dim(phi)
            if pending:
                pending.clear()
                return dim + 1
            return dim

        monkeypatch.setattr(verify, "_transfer_kernel_dim", off_by_one)
        report = run_verify(4)
        assert not pending
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"dimension_equality": 1}
        assert report["status"] == "fail"

    def test_the_command_runs_the_library_suite(self):
        # callers that look the suite up as hstrata.cli.run_verify (the
        # benchmark worker, its trace span) get the library's own function
        assert cli.run_verify is verify.run_verify

    def test_run_verify_counts(self):
        report = run_verify(2)
        # shapes 1x1, 1x2, 2x1: 2 + 4 + 4 diagrams
        assert report["diagrams"] == 10
        assert report["shapes"] == 3
        assert report["status"] == "ok"

    @pytest.mark.parametrize("cells", [0, -5])
    def test_run_verify_needs_a_cell(self, cells):
        # an empty sweep would pass vacuously, whoever calls it
        with pytest.raises(ValueError, match="at least 1"):
            run_verify(cells)

    def test_cap_enforced(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-cells", "30")
        assert code == 2
        for cells in (cli.VERIFY_MAX_CELLS + 1, 25):
            code, out, err = run_cli(capsys, "verify", "--max-cells", str(cells))
            assert code == 2
            assert out == ""
            assert f"capped at {cli.VERIFY_MAX_CELLS}" in err
        # an empty sweep would pass vacuously
        for cells in ("0", "-3"):
            code, out, err = run_cli(capsys, "verify", "--max-cells", cells)
            assert code == 2
            assert "at least 1" in err

    def test_enumeration_cap_itself_is_accepted(self, capsys):
        cap = str(cli.ENUM_MAX_SIDE)
        code, out, _ = run_cli(capsys, "count", cap, cap, "--method", "enum", "--method", "formula")
        assert code == 0
        assert "agree: True" in out

    def test_broken_kernel_map_fails_iso_maps(self, monkeypatch):
        square_image = verify._square_image
        doubled = lambda endpoints, v: tuple(2 * x for x in square_image(endpoints, v))
        monkeypatch.setattr(verify, "_square_image", doubled)
        report = run_verify(4)
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"iso_maps": 38}
        assert report["status"] == "fail"

    def test_bad_kernel_vector_fails_iso_maps(self, monkeypatch):
        # scaled basis vectors pass by design; a vector off by one in one
        # entry is outside the kernel and must not (a vector of length 1
        # would only be scaled, so the first longer one is changed)
        kernel_basis = verify.kernel_basis
        pending = [True]

        def off_by_one(mat):
            basis = list(kernel_basis(mat))
            if basis and len(basis[0]) >= 2 and pending:
                basis[0] = (basis[0][0] + 1,) + basis[0][1:]
                pending.clear()
            return tuple(basis)

        monkeypatch.setattr(verify, "kernel_basis", off_by_one)
        report = run_verify(4)
        assert not pending
        # the bad basis and its white-kernel verdict are kept for their white
        # matrix, so iso_maps, and nothing else, fails on each of the 10
        # diagrams with that matrix
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"iso_maps": 10}
        assert report["status"] == "fail"

    def test_flipped_cycle_vector_fails_iso_maps(self, monkeypatch):
        # one entry of one cycle vector negated, its -2v to match, on the
        # first diagram with an even cycle: the vector leaves the boundary
        # kernel, and that diagram fails its cycle side alone
        even_cycle_vectors = verify._even_cycle_vectors
        pending = [True]

        def flipped(tau):
            pairs = even_cycle_vectors(tau)
            if pairs and pending:
                pending.clear()
                v = list(pairs[0][0])
                i = next(i for i, x in enumerate(v) if x)
                v[i] = -v[i]
                pairs[0] = (tuple(v), tuple(-2 * x for x in v))
            return pairs

        monkeypatch.setattr(verify, "_even_cycle_vectors", flipped)
        report = run_verify(4)
        assert not pending
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"iso_maps": 1}
        assert report["status"] == "fail"

    def test_dropped_cycle_vector_fails_dimension_equality(self, monkeypatch):
        # the walk's length is the odd-cycle count: one vector dropped on one
        # diagram moves that diagram's count, and so its shape's tally; the
        # walk runs once per diagram
        even_cycle_vectors = verify._even_cycle_vectors
        pending, walked = [True], []

        def dropped(tau):
            walked.append(tau)
            pairs = even_cycle_vectors(tau)
            if pairs and pending:
                pending.clear()
                pairs.pop()
            return pairs

        monkeypatch.setattr(verify, "_even_cycle_vectors", dropped)
        report = run_verify(4)
        assert not pending
        assert len(walked) == report["diagrams"] == 72
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"dimension_equality": 1, "tally_vs_formula": 1}
        assert report["status"] == "fail"

    def test_boundary_side_is_checked_per_diagram(self, monkeypatch):
        # diagrams sharing a white matrix share its basis, but each maps it
        # to its own boundary and checks that image in its own kernel.  A
        # basis-side check is the one whose vector _boundary_image has just
        # returned (the cycle side checks cycle basis vectors instead).
        boundary_image, in_boundary_kernel = verify._boundary_image, verify._in_boundary_kernel
        last, basis_side = [None], []

        def recorded(m, n, squares, w):
            last[0] = boundary_image(m, n, squares, w)
            return last[0]

        def wrong_once(p, q, v):
            if v is last[0]:
                basis_side.append(v)
                if len(basis_side) == 1:
                    return False
            return in_boundary_kernel(p, q, v)

        monkeypatch.setattr(verify, "_boundary_image", recorded)
        monkeypatch.setattr(verify, "_in_boundary_kernel", wrong_once)
        report = run_verify(4)
        # one check per basis vector of every diagram, the white kernel
        # dimension being the stratum's
        shapes = [(m, n) for m in range(1, 5) for n in range(1, 4 // m + 1)]
        dims = sum(d * c for m, n in shapes for d, c in enumerate(genfunc.stratum_poly(m, n).coeffs))
        assert len(basis_side) == dims
        # so one wrong verdict fails that one diagram
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"iso_maps": 1}

    def test_broken_boundary_kernel_fails_dimension_equality(self, monkeypatch):
        # the elimination of P_sigma + P_omega is one of the compared routes
        boundary_kernel_dim = verify._boundary_kernel_dim
        pending = [True]

        def off_by_one(p, q):
            dim = boundary_kernel_dim(p, q)
            if pending:
                pending.clear()
                return dim + 1
            return dim

        monkeypatch.setattr(verify, "_boundary_kernel_dim", off_by_one)
        report = run_verify(4)
        assert not pending
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"dimension_equality": 1}
        assert report["status"] == "fail"

    def test_dropped_pivot_in_the_two_term_elimination_fails_dimension_equality(self, monkeypatch):
        # the boundary and transfer dimensions both come from _pair_rank, so
        # losing one pivot row on one diagram's boundary rows is seen there
        from hstrata import exactlinalg
        from hstrata.pipedreams import _all_black_images

        pair_rank, seen = exactlinalg._pair_rank, []
        sigma = _trace(Diagram.all_white(2, 2))[0]
        chosen = list(zip(sigma, _all_black_images(2, 2), [1] * 4))

        def one_pivot_dropped(rows):
            rows = list(rows)
            if rows == chosen:
                seen.append(rows)
                return pair_rank(rows) - 1
            return pair_rank(rows)

        monkeypatch.setattr(exactlinalg, "_pair_rank", one_pivot_dropped)
        report = run_verify(4)
        assert len(seen) == 1
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"dimension_equality": 1}
        assert report["status"] == "fail"

    def test_swapped_toric_entries_fail(self, monkeypatch):
        # trading two images of tau splits one cycle or merges two, which
        # changes the number of even-length cycles by one
        permutations = verify._permutations
        pending = [True]

        def swapped(m, n, bottom, rights):
            sigma, tau = permutations(m, n, bottom, rights)
            if pending:
                pending.clear()
                tau = (tau[1], tau[0], *tau[2:])
            return sigma, tau

        monkeypatch.setattr(verify, "_permutations", swapped)
        report = run_verify(4)
        assert not pending
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"dimension_equality": 1, "tally_vs_formula": 1}
        assert report["status"] == "fail"

    def test_swapped_endpoints_fail_gluing(self, monkeypatch):
        # the sweep reads each row's endpoints once for every diagram below it
        pipe_row = verify._pipe_row

        def swapped(above, row, left):
            up, right, ends = pipe_row(above, row, left)
            ends[:2] = ends[1::-1]  # the row's first two entries trade places
            return up, right, ends

        monkeypatch.setattr(verify, "_pipe_row", swapped)
        report = run_verify(4)
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"gluing_identity": 22, "iso_maps": 9}
        assert report["status"] == "fail"

    def test_changed_closed_form_fails_tally_vs_formula(self, monkeypatch):
        # 2^m added to one coefficient of the table at m = 2 moves h(2, n, 0)
        # by k^n and keeps it an integer, so stratum_poly does not raise and
        # only the comparison with the tally can see it
        closed_table = genfunc._closed_table

        def changed(m):
            (k, c), *rest = closed_table(m)
            return ((k, (c[0] + (1 << m if m == 2 else 0), *c[1:])), *rest)

        monkeypatch.setattr(genfunc, "_closed_table", changed)
        report = run_verify(4)
        failed = {name: c["failures"] for name, c in report["checks"].items() if c["failures"]}
        assert failed == {"tally_vs_formula": 2}  # the shapes 2x1 and 2x2
        assert report["status"] == "fail"


class TestAsymptotics:
    def test_limit_and_gap(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotics", "2", "0", "--n-max", "10", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["limit"] == "3/8"
        last = report["rows"][-1]
        assert last["n"] == 10
        assert abs(Fraction(last["ratio"]) - Fraction(3, 8)) < Fraction(1, 100)

    def test_limit_values(self, capsys):
        for m, d, limit in [("1", "0", "1/2"), ("2", "1", "1/2")]:
            code, out, _ = run_cli(capsys, "asymptotics", m, d, "--format", "json")
            assert json.loads(out)["limit"] == limit

    def test_gap_eventually_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotics", "2", "0", "--n-max", "20", "--format", "json"
        )
        rows = json.loads(out)["rows"]
        gaps = [Fraction(row["gap"]) for row in rows]
        assert all(gaps[i + 1] < gaps[i] for i in range(3, len(gaps) - 1))

    def test_domain_checks(self, capsys):
        code, _, err = run_cli(capsys, "asymptotics", "2", "3")
        assert code == 2
        code, _, err = run_cli(capsys, "asymptotics", "2", "1", "--n-max", "0")
        assert code == 2

    def test_table_cap(self, capsys, monkeypatch):
        cap = cli.FORMULA_MAX_SIDE
        monkeypatch.setattr(cli, "closed_form_coeffs", lambda m, d: pytest.fail("the table was built"))
        monkeypatch.setattr(cli, "asymptotic_proportion", lambda m, d: pytest.fail("the limit was built"))
        code, out, err = run_cli(capsys, "asymptotics", str(cap + 1), "1")
        assert code == 2
        assert out == ""
        assert err == f"error: asymptotics is capped at m <= {cap}\n"

    def test_n_max_cap(self, capsys):
        cap = cli.ASYMPTOTICS_MAX_N
        code, out, err = run_cli(capsys, "asymptotics", "1", "0", "--n-max", str(cap + 1))
        assert code == 2
        assert out == ""
        assert f"capped at {cap}" in err
        code, out, _ = run_cli(
            capsys, "asymptotics", "1", "0", "--n-max", str(cap), "--format", "csv"
        )
        assert code == 0
        assert len(out.splitlines()) == cap + 1


class TestLookup:
    def test_rotation_is_all_black(self, capsys):
        code, out, _ = run_cli(capsys, "lookup", "[3,4,1,2]", "2", "2")
        assert code == 0
        assert "##\n##" in out

    def test_identity_is_all_white(self, capsys):
        code, out, _ = run_cli(capsys, "lookup", "[1,2,3,4]", "2", "2")
        assert code == 0
        assert "..\n.." in out

    def test_not_found(self, capsys):
        code, out, _ = run_cli(capsys, "lookup", "[4,3,2,1]", "2", "2")
        assert code == 0
        assert "not-found" in out

    def test_malformed_permutation(self, capsys):
        code, _, err = run_cli(capsys, "lookup", "[1,1,2]", "2", "1")
        assert code == 2
        assert "error" in err

    def test_rotation_past_the_old_cap(self, capsys):
        # the all-black 30x30 diagram traces to the rotation i -> m + i
        rotation = list(range(31, 61)) + list(range(1, 31))
        code, out, _ = run_cli(capsys, "lookup", str(rotation).replace(" ", ""), "30", "30")
        assert code == 0
        assert out == "\n".join(["#" * 30] * 30) + "\nstatus: ok"

    def test_positive_sizes_required(self, capsys):
        code, out, err = run_cli(capsys, "lookup", "[1]", "0", "1")
        assert code == 2
        assert out == ""
        assert "m and n must be positive" in err


class TestCoeffs:
    def test_golden_row(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "2", "0", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["coeffs"] == {"3": "3/4", "2": "-1/2", "1": "1/2", "-1": "-1/4"}

    def test_text_formula(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "2", "2")
        assert code == 0
        assert "1/4*3^n" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "3", "3", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "k,coefficient"
        assert "4,1/8" in lines

    @pytest.mark.parametrize("d", ["1", "5000"])
    def test_table_cap(self, capsys, monkeypatch, d):
        monkeypatch.setattr(cli, "closed_form_coeffs", lambda m, d: pytest.fail("the table was built"))
        code, out, err = run_cli(capsys, "coeffs", "3000", d)
        assert code == 2
        assert out == ""
        assert err == f"error: coeffs is capped at m <= {cli.FORMULA_MAX_SIDE}\n"


class TestFormatConsistency:
    def test_count_renders_identical_numbers(self, capsys):
        code, text_out, _ = run_cli(capsys, "count", "2", "2", "--method", "enum")
        code, json_out, _ = run_cli(
            capsys, "count", "2", "2", "--method", "enum", "--format", "json"
        )
        code, csv_out, _ = run_cli(
            capsys, "count", "2", "2", "--method", "enum", "--format", "csv"
        )
        report = json.loads(json_out)
        counts = report["counts"]["enum"]
        for d, c in counts.items():
            assert f"{d},{c}" in csv_out.splitlines()
        for c in counts.values():
            assert c in text_out
        assert report["totals"]["enum"] == "14"
        assert "total,14" in csv_out
        assert "14" in text_out

    def test_dim_renders_identical_numbers(self, capsys, tmp_path):
        import csv
        import io

        path = tmp_path / "d.txt"
        path.write_text("#.##\n...#\n#..#")
        _, text_out, _ = run_cli(capsys, "dim", str(path))
        _, json_out, _ = run_cli(capsys, "dim", str(path), "--format", "json")
        _, csv_out, _ = run_cli(capsys, "dim", str(path), "--format", "csv")
        report = json.loads(json_out)
        header, values = csv.reader(io.StringIO(csv_out))
        record = dict(zip(header, values))
        for key in ("sigma", "tau", "odd_cycles", "kernel_dim", "dimension"):
            assert str(report[key]) == record[key]
            assert f"{key}: {report[key]}" in text_out


class TestOptionScope:
    # each option is declared only on the subcommands that read it
    @pytest.mark.parametrize(
        "argv",
        [
            ["dim", "-", "--cache-dir", "x"],
            ["dim", "-", "--max-cells", "3"],
            ["asymptotics", "2", "0", "--cache-dir", "x"],
            ["asymptotics", "2", "0", "--max-cells", "3"],
            ["coeffs", "2", "0", "--cache-dir", "x"],
            ["coeffs", "2", "0", "--max-cells", "3"],
            ["verify", "--cache-dir", "x"],
            ["lookup", "[1,2]", "1", "1", "--cache-dir", "x"],
            ["lookup", "[1,2]", "1", "1", "--max-cells", "3"],
            ["count", "2", "2", "--method", "enum", "--max-cells", "3"],
        ],
    )
    def test_unread_option_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_read_options_are_accepted(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "count", "2", "2", "--method", "enum", "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert "agree: True" in out
        code, _, _ = run_cli(capsys, "verify", "--max-cells", "2")
        assert code == 0

    @pytest.mark.parametrize(
        "command,cap",
        [
            ("dim", "DIM_MAX_WHITE"),
            ("asymptotics", "ASYMPTOTICS_MAX_N"),
            ("verify", "VERIFY_MAX_CELLS"),
            ("count", "SERIES_MAX_ORDER"),
            ("count", "ENUM_MAX_SIDE"),
            ("count", "FORMULA_MAX_SIDE"),
            ("count", "COUNT_MAX_DIGITS"),
            ("coeffs", "FORMULA_MAX_SIDE"),
            ("asymptotics", "FORMULA_MAX_SIDE"),
        ],
    )
    def test_help_states_the_cap(self, capsys, command, cap):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert str(getattr(cli, cap)) in capsys.readouterr().out


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "hstrata", "count", "2", "2", "--format", "json"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["totals"]["formula"] == "14"


def test_closed_pipe_is_an_error_without_traceback():
    # about 2.2 MB of JSON, more than any pipe buffer holds, so the write
    # meets the closed pipe while the report is still going out
    proc = subprocess.Popen(
        [sys.executable, "-m", "hstrata", "asymptotics", "4", "2", "--n-max", "1000", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=checkout_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


# every cap patched small, so that each fuzzed command is cheap; asymptotics
# keeps its default --n-max of 10 inside the cap
SMALL_CAPS = {
    "VERIFY_MAX_CELLS": 4,
    "SERIES_MAX_ORDER": 3,
    "DIM_MAX_WHITE": 6,
    "ASYMPTOTICS_MAX_N": 10,
    "ENUM_MAX_SIDE": 2,
    "FORMULA_MAX_SIDE": 4,
    "COUNT_MAX_DIGITS": 12,
}

# half small sizes, then 0, negatives and values on both sides of every small
# cap, then values past every real cap and words that are no integer
numbers = st.integers(0, 9).flatmap(
    lambda r: st.integers(1, 4).map(str)
    if r < 5
    else st.integers(-3, 14).map(str)
    if r < 8
    else st.sampled_from(["99999999999999999999", "-99999999999999999999", "401", "x", "1.5", ""])
)
formats = st.lists(st.sampled_from(["text", "json", "json", "csv", "xml"]).map("--format={}".format), max_size=1)
# '.', '#', other characters, ragged rows, blank lines and empty input
diagram_texts = st.one_of(
    st.text(alphabet=".#x \r\n", max_size=24),
    st.lists(st.text(alphabet=".#", min_size=1, max_size=4), min_size=1, max_size=4).map("\n".join),
    st.integers(1, 4).flatmap(
        lambda width: st.lists(st.text(alphabet=".#", min_size=width, max_size=width), min_size=1, max_size=4)
    ).map("\n".join),
)


@st.composite
def command_lines(draw, cache_dir):
    """An argv over the parser's grammar, and the stdin dim - reads."""
    command = draw(st.sampled_from(["count", "verify", "asymptotics", "coeffs", "lookup", "dim"]))
    if command == "count":
        args = [draw(numbers), draw(numbers)]
        for method in draw(st.lists(st.sampled_from(["enum", "formula", "series", "all"]), max_size=3)):
            args += ["--method", method]
        if draw(st.booleans()):
            args += ["--cache-dir", draw(st.sampled_from([cache_dir, str(Path(cache_dir) / "file")]))]
    elif command == "verify":
        args = draw(st.lists(st.sampled_from(["--inject-fault", "--max-cells"]), unique=True))
        if "--max-cells" in args:
            args.append(draw(numbers))
    elif command in ("asymptotics", "coeffs"):
        args = [draw(numbers), draw(numbers)]
        if command == "asymptotics" and draw(st.booleans()):
            args += ["--n-max", draw(numbers)]
    elif command == "lookup":
        m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        images = draw(st.permutations(range(1, m + n + 1)))
        args = ["[" + ",".join(map(str, images)) + "]", str(m), str(n)]
        if draw(st.booleans()):  # a permutation, m or n that does not fit
            args[draw(st.integers(0, 2))] = draw(numbers)
    else:
        args = [draw(st.sampled_from(["-", str(Path(cache_dir) / "missing.txt")]))]
    return [command, *args, *draw(formats)], draw(diagram_texts)


@pytest.fixture(scope="module")
def fuzz_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("fuzz_cache")
    (cache / "file").write_text("not a directory")
    return str(cache)


def run_fuzzed(argv, stdin):
    """(exit code, whether argparse accepted argv, stdout, stderr) of main under the small caps."""
    out, err = io.StringIO(), io.StringIO()
    with patch.multiple(cli, **SMALL_CAPS), patch.object(sys, "stdin", io.StringIO(stdin)):
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code, parsed = main(argv), True
            except SystemExit as exc:  # argparse: a usage error, or --help
                code, parsed = exc.code, False
    return code, parsed, out.getvalue(), err.getvalue()


@given(data=st.data())
@settings(max_examples=300)
def test_fuzzed_command_lines(fuzz_cache, data):
    argv, stdin = data.draw(command_lines(fuzz_cache), label="argv, stdin")
    code, parsed, out, err = run_fuzzed(argv, stdin)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if parsed and code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if parsed and code != 2 and "--format=json" in argv:
        json.loads(out)
