from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hstrata import RatPoly
from hstrata import cli
from hstrata.cli import main, run_verify


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

        exit_tables = pipedreams._exit_tables
        traced = []

        def counted(d):
            traced.append(d)
            return exit_tables(d)

        monkeypatch.setattr(pipedreams, "_exit_tables", counted)
        code, _, _ = run_cli(capsys, "dim", diagram_file("..#\n.##"))
        assert code == 0
        assert len(traced) == 1

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

    def test_enum_respects_cell_limit(self, capsys):
        code, _, err = run_cli(capsys, "count", "6", "5", "--method", "enum")
        assert code == 2
        assert "closed-form" in err

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

    def test_rejects_nonpositive(self, capsys):
        code, _, err = run_cli(capsys, "count", "0", "2")
        assert code == 2

    @pytest.mark.parametrize("method", ["formula", "series"])
    def test_non_integral_coefficient_is_an_error(self, capsys, monkeypatch, method):
        # a fractional count must be reported, not truncated to 0 by int()
        poly = RatPoly([Fraction(1, 2), 7, 2])
        monkeypatch.setattr(cli, "stratum_poly", lambda m, n: poly)
        series = SimpleNamespace(egf_coeff=lambda i, j: poly)
        monkeypatch.setattr(cli, "stratum_series", lambda max_x, max_y: series)
        code, out, err = run_cli(capsys, "count", "2", "2", "--method", method)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "1/2" in err

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

    def test_run_verify_counts(self):
        report = run_verify(2)
        # shapes 1x1, 1x2, 2x1: 2 + 4 + 4 diagrams
        assert report["diagrams"] == 10
        assert report["shapes"] == 3
        assert report["status"] == "ok"

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "6", "6", "--method", "enum", "--max-cells", "36"],
            ["count", "2", "2", "--max-cells", "26"],
            ["lookup", "[2,1]", "1", "1", "--max-cells", "26"],
        ],
    )
    def test_enumeration_cap_on_count_and_lookup(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"capped at {cli.DEFAULT_CELL_LIMIT} for {argv[0]}" in err

    def test_enumeration_cap_itself_is_accepted(self, capsys):
        cap = str(cli.DEFAULT_CELL_LIMIT)
        assert run_cli(capsys, "count", "2", "2", "--method", "enum", "--max-cells", cap)[0] == 0
        assert run_cli(capsys, "lookup", "[2,1]", "1", "1", "--max-cells", cap)[0] == 0

    def test_broken_kernel_map_fails_iso_maps(self, monkeypatch):
        square_image = cli._square_image
        doubled = lambda endpoints, v: tuple(2 * x for x in square_image(endpoints, v))
        monkeypatch.setattr(cli, "_square_image", doubled)
        report = run_verify(4)
        assert report["checks"]["iso_maps"]["failures"] > 0
        assert report["status"] == "fail"

    def test_swapped_endpoints_fail_gluing(self, monkeypatch):
        endpoints_from_exits = cli._endpoints_from_exits

        def swapped(squares, ups):
            table = list(endpoints_from_exits(squares, ups))
            table[:2] = table[1::-1]  # the first two entries trade places
            return tuple(table)

        monkeypatch.setattr(cli, "_endpoints_from_exits", swapped)
        report = run_verify(4)
        assert report["checks"]["gluing_identity"]["failures"] > 0
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
        ],
    )
    def test_unread_option_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_read_options_are_accepted(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "count", "2", "2", "--method", "enum", "--max-cells", "4",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert "agree: True" in out
        code, _, _ = run_cli(capsys, "verify", "--max-cells", "2")
        assert code == 0
        code, out, _ = run_cli(capsys, "lookup", "[3,4,1,2]", "2", "2", "--max-cells", "4")
        assert code == 0
        assert "##\n##" in out

    @pytest.mark.parametrize(
        "command,cap",
        [
            ("dim", "DIM_MAX_WHITE"),
            ("asymptotics", "ASYMPTOTICS_MAX_N"),
            ("verify", "VERIFY_MAX_CELLS"),
            ("count", "SERIES_MAX_ORDER"),
            ("count", "DEFAULT_CELL_LIMIT"),
            ("lookup", "DEFAULT_CELL_LIMIT"),
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
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["totals"]["formula"] == "14"
