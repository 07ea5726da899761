"""Command-line front end: per-diagram analysis, counting, verification.

Subcommands: dim, count, verify, asymptotics, lookup, coeffs.  Every command
builds one report dictionary and renders it as text, JSON (a single document)
or CSV (with a header row), so the three formats always carry the same
numbers.  Counts are printed as decimal strings since they outgrow fixed
width integers quickly.  The exit code is 0 exactly when no internal
cross-check failed; the JSON "status" field mirrors it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Iterator

from .diagrams import Diagram
from .enumeration import _sweep, diagram_from_permutation, tally_dimensions
from .exactlinalg import (
    _boundary_image,
    _boundary_kernel_dim,
    _identity,
    _in_boundary_kernel,
    _in_white_kernel,
    _phi_step,
    _square_image,
    _transfer_kernel_dim,
    _white_kernel_dim,
    cycle_kernel_basis,
    kernel_basis,
    white_adjacency_matrix,
)
from .genfunc import (
    asymptotic_proportion,
    closed_form_coeffs,
    poly_bernoulli,
    stratum_poly,
    stratum_series,
)
from .pipedreams import (
    Permutation,
    _all_black_images,
    _cycles,
    _endpoints_from_exits,
    _permutations,
    _pipe_row,
    _trace,
    all_black_permutation,
    cycle_decomposition,
    odd_cycle_count,
)

VERIFY_DEFAULT_CELLS = 9
# run_verify grows about 2x per extra cell: the whole command took 6.8 to
# 7.9 s at 14 cells and 27.2 to 32.8 s at 16 (3 runs each; 15.1 s at 15 in
# 1 run) on a shared 2-CPU box (Python 3.11), so 16, which covers the
# acceptance sweep, is the largest under a minute.
VERIFY_MAX_CELLS = 16
# stratum_series(k, k) took 45 s at k = 28 on the same box (20 s at 24).
SERIES_MAX_ORDER = 28
# dim reads the white kernel off the min(m, n)-square column transfer matrix,
# not the N x N white matrix, and eliminates the boundary matrix on sparse
# rows.  On the same box the whole command took, for all-white grids at
# N = 900, about 0.1 s at 30x30, 1x900, 3x300 and 10x90 (31 s, 28 s, 17 s
# and 40 s with the full elimination of the white matrix); the slowest
# diagrams found, 900 white squares on the diagonal or in one row of a
# 900x900 grid, took 0.33 to 0.48 s, most of it parsing and tracing the
# 810,000 cells.  The cap bounds outside input, so it stays.
DIM_MAX_WHITE = 900
# asymptotics output grows as n_max^2 and m is not capped: at n_max = 1000 the
# JSON report took 0.3 s (2.2 MB) at m = 4 and 4.8 to 5.3 s (8.4 MB) at m = 150.
ASYMPTOTICS_MAX_N = 1000
# count --method enum tallies on a frontier whose cost is exponential only
# in min(m, n) and polynomial in the longer side, so only the shorter side
# is capped.  On the same box (shared, medians of 5 runs) the whole command
# took 0.13 s at 5x5, 0.14 s at 300x3, 0.33 s at 100x4, 1.0 s at 25x5 and
# 5.1 s at 100x5; at 6, 20x6 took 16 s and 100x6 98 s (1 run), so 5 stays.
ENUM_MAX_SIDE = 5

FORMATS = ("text", "json", "csv")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # counts pass CPython's limit on int-to-str digits (4300 by default) at
    # count 1 14500; the arguments were parsed under it, the report is built
    # and rendered without it (the limit exists from Python 3.10.7 on)
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def _run(args) -> int:
    try:
        report = args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_render(report, args.format))
    return 0 if report["status"] == "ok" else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text", help="output format")

    parser = argparse.ArgumentParser(
        prog="hstrata",
        description="Exact stratum dimensions of Cauchon diagrams, three ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "dim",
        parents=[common],
        help="analyze one diagram file",
        description=(
            f"Analyze one diagram. It may have at most {DIM_MAX_WHITE} white squares "
            "(under 0.5 s at the cap on a 2-CPU box)."
        ),
    )
    p.add_argument("diagram", help="path to a '.'/'#' diagram file, or - for stdin")
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser(
        "count",
        parents=[common],
        help="count strata by dimension",
        description=(
            "Count strata by dimension. --method formula takes any m and n and builds its "
            "table on the shorter side (about 1 s at 150x150 and 15 s at 300x300 on a 2-CPU "
            f"box). --method series needs max(m, n) <= {SERIES_MAX_ORDER} (about 45 s at the "
            f"cap). --method enum needs min(m, n) <= {ENUM_MAX_SIDE} and takes any longer "
            "side (1 s at 25x5 and about 5 s at 100x5); past it use --method formula."
        ),
    )
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument(
        "--method",
        action="append",
        choices=("enum", "formula", "series"),
        help="counting method; may be repeated, each runs once and all are cross-checked",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="directory caching --method enum tallies (default: no cache)",
    )
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="run the cross-check suite",
        description=(
            f"Run the cross-check suite on every Cauchon diagram with at most --max-cells "
            f"cells (default {VERIFY_DEFAULT_CELLS}, at most {VERIFY_MAX_CELLS}: about 30 s "
            "at the cap on a 2-CPU box)."
        ),
    )
    p.add_argument("--max-cells", type=int, default=VERIFY_DEFAULT_CELLS, help="largest m*n swept")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "asymptotics",
        parents=[common],
        help="ratio table against the limit",
        description=(
            f"Exact ratios against the limiting share for n = 1..--n-max (default 10, at "
            f"most {ASYMPTOTICS_MAX_N}: 2.2 MB of JSON in 0.3 s at the cap for m = 4 and "
            "8.4 MB in about 5 s for m = 150 on a 2-CPU box; m takes any value)."
        ),
    )
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(handler=_cmd_asymptotics)

    p = sub.add_parser("lookup", parents=[common], help="diagram for a restricted permutation")
    p.add_argument("permutation", help="one-line images, e.g. '[3,4,1,2]'")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_lookup)

    p = sub.add_parser(
        "coeffs",
        parents=[common],
        help="closed-form coefficients c_k",
        description=(
            "Closed-form coefficients c_k with h(m, n, d) = sum_k c_k k^n for all n >= 1. "
            "m takes any value (about 1.4 s at m = 150 and 12 s at m = 300 on a 2-CPU box)."
        ),
    )
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(handler=_cmd_coeffs)

    return parser


# ---------------------------------------------------------------- commands


def _cmd_dim(args) -> dict:
    if args.diagram == "-":
        text = sys.stdin.read()
    else:
        with open(args.diagram) as handle:
            text = handle.read()
    d = Diagram.parse(text)
    white = sum(row.count(False) for row in d.rows)
    if white > DIM_MAX_WHITE:
        raise ValueError(f"dim is capped at {DIM_MAX_WHITE} white squares, got {white}")
    sigma, tau, _ = _trace(d)
    cycles = cycle_decomposition(tau)
    odd = odd_cycle_count(cycles)
    kdim = _white_kernel_dim(d.rows)
    pp_dim = _boundary_kernel_dim(sigma.images, all_black_permutation(d.m, d.n).images)
    agree = odd == kdim == pp_dim
    cauchon = d.is_cauchon()
    report = {
        "command": "dim",
        "m": d.m,
        "n": d.n,
        "cauchon": cauchon,
        "white_squares": white,
        "sigma": sigma.one_line(),
        "sigma_cycles": sigma.cycle_string(),
        "tau": tau.one_line(),
        "tau_cycles": tau.cycle_string(),
        "cycle_lengths": [len(c) for c in cycles],
        "odd_cycles": odd,
        "kernel_dim": kdim,
        "boundary_kernel_dim": pp_dim,
        "dimension": odd,
        "agree": agree,
        "warning": "" if cauchon else "diagram is not Cauchon; the value is not a stratum dimension",
        "status": "ok" if agree else "fail",
    }
    return report


def _method_counts(m: int, n: int, method: str, cache_dir) -> dict[int, int]:
    if method == "enum":
        return dict(tally_dimensions(m, n, cache_dir=cache_dir).counts)
    if method == "formula":
        poly = stratum_poly(min(m, n), max(m, n))  # the table is built on the shorter side
    else:
        poly = stratum_series(m, n).egf_coeff(m, n)
    counts = {}
    for d, c in enumerate(poly.coeffs):
        if c.denominator != 1 or c < 0:
            raise ArithmeticError(f"{method} gave a non-count {c} at ({m},{n},{d})")
        if c:
            counts[d] = int(c)
    return counts


def _cmd_count(args) -> dict:
    methods = list(dict.fromkeys(args.method or ["formula"]))
    if args.m < 1 or args.n < 1:
        raise ValueError("m and n must be positive")
    if "series" in methods and max(args.m, args.n) > SERIES_MAX_ORDER:
        raise ValueError(f"--method series is capped at max(m, n) <= {SERIES_MAX_ORDER}")
    if "enum" in methods and min(args.m, args.n) > ENUM_MAX_SIDE:
        raise ValueError(
            f"--method enum is capped at min(m, n) <= {ENUM_MAX_SIDE}; "
            "use --method formula for larger grids"
        )
    counts = {meth: _method_counts(args.m, args.n, meth, args.cache_dir) for meth in methods}
    first = counts[methods[0]]
    agree = all(counts[meth] == first for meth in methods)
    total_ok = sum(first.values()) == poly_bernoulli(args.m, args.n)
    return {
        "command": "count",
        "m": args.m,
        "n": args.n,
        "methods": methods,
        "counts": {meth: {str(d): str(c) for d, c in sorted(cs.items())} for meth, cs in counts.items()},
        "totals": {meth: str(sum(cs.values())) for meth, cs in counts.items()},
        "agree": agree,
        "status": "ok" if agree and total_ok else "fail",
    }


def run_verify(max_cells: int, inject_fault: bool = False) -> dict:
    """Cross-check suite over every Cauchon diagram with m*n <= max_cells.

    Checks, per diagram: the white matrix built from the diagram equals the
    skew matrix its sweep's line pattern gives (skew_symmetry); the odd-cycle
    count equals both kernel dimensions, the white one taken both by full
    elimination and through the column transfer matrix; the endpoint gluing
    identity for consecutive white squares; the two kernel maps compose to
    -2 times the identity on both kernel bases and land in the asserted
    kernels.  Per shape: the enumerated tally matches the closed form and
    its total the poly-Bernoulli value.  Everything per diagram is int
    tuples and linear checks, with no Fraction arithmetic.  The diagrams
    come from one depth-first sweep (_verify_sweep) whose row prefixes build
    their pipe exits, line pattern and transfer matrix once for every
    diagram below; the white matrix of each distinct pattern is built,
    compared and solved once per run.  inject_fault flips one sign in one
    diagram's own matrix to demonstrate the suite's sensitivity.  An empty
    sweep would pass vacuously, so max_cells < 1 is a ValueError.
    """
    if max_cells < 1:
        raise ValueError("max_cells must be at least 1 for verify")
    checks = {
        name: {"checked": 0, "failures": 0}
        for name in (
            "skew_symmetry",
            "dimension_equality",
            "gluing_identity",
            "iso_maps",
            "tally_vs_formula",
        )
    }

    def record(name: str, ok: bool) -> None:
        checks[name]["checked"] += 1
        if not ok:
            checks[name]["failures"] += 1

    shapes = [
        (m, n)
        for m in range(1, max_cells + 1)
        for n in range(1, max_cells // m + 1)
    ]
    fault_pending = inject_fault
    diagrams = 0
    # the line pattern fixes the white matrix and few patterns are distinct
    # (152 among the 2,670 diagrams of 9 cells), so each matrix is built,
    # compared with the pattern's and solved once per run; every diagram still
    # records both and puts the basis through every check below
    solved: dict[tuple[int, ...], tuple[bool, tuple]] = {}
    for m, n in shapes:
        omega = _all_black_images(m, n)
        tally: dict[int, int] = {}
        for rows, (ups, rights, squares, lines, _, phi) in _verify_sweep(m, n):
            diagrams += 1
            entry = solved.get(lines)
            fault = fault_pending and len(squares) >= 2
            if entry is None or fault:
                mat = white_adjacency_matrix(Diagram._of_cells(rows))
                if fault:  # one sign flipped in this diagram's own matrix, kept out of the memo
                    mat[0][1], fault_pending = -mat[0][1], False
                span = range(len(lines))
                implied = [[(b >> j & 1) - (lines[j] >> i & 1) for j in span] for i, b in enumerate(lines)]
                entry = mat == implied, kernel_basis(mat)
                if not fault:
                    solved[lines] = entry
            skew, basis = entry
            record("skew_symmetry", skew)

            # the permutation, its toric form and the endpoint table are all
            # read off the same exit tables
            sigma, tau = _permutations(m, n, ups, rights)
            cycles = _cycles(tau)
            odd = odd_cycle_count(cycles)
            # the column transfer matrix against the full elimination
            transfer_dim = _transfer_kernel_dim(phi)
            record(
                "dimension_equality",
                odd == len(basis) == _boundary_kernel_dim(sigma, omega) == transfer_dim,
            )
            tally[odd] = tally.get(odd, 0) + 1

            # squares come row-major from the top, so square i-1 is the next
            # white square left of i when they share a row, and above[c] the
            # next one above i in its column
            endpoints = _endpoints_from_exits(squares, ups)
            above: dict[int, int] = {}
            glue_ok = True
            for i, (r, c) in enumerate(squares):
                if i and squares[i - 1][0] == r:
                    glue_ok &= endpoints[i - 1][1] == endpoints[i][0]
                if c in above:
                    glue_ok &= endpoints[i][1] == endpoints[above[c]][0]
                above[c] = i
            record("gluing_identity", glue_ok)

            # the two kernel maps: each basis vector lies in its source kernel,
            # its image in the other kernel, and mapping back gives -2 times it
            iso_ok = True
            for v in cycle_kernel_basis(cycles):
                w = _square_image(endpoints, v)
                iso_ok &= (
                    _in_boundary_kernel(sigma, omega, v)
                    and _in_white_kernel(squares, w)
                    and _boundary_image(m, n, squares, w) == tuple(-2 * e for e in v)
                )
            for w in basis:
                v = _boundary_image(m, n, squares, w)
                iso_ok &= (
                    _in_white_kernel(squares, w)
                    and _in_boundary_kernel(sigma, omega, v)
                    and _square_image(endpoints, v) == tuple(-2 * e for e in w)
                )
            record("iso_maps", iso_ok)

        formula_tally = {dd: c for dd, c in enumerate(stratum_poly(m, n).coeffs) if c}
        record(
            "tally_vs_formula",
            tally == formula_tally and sum(tally.values()) == poly_bernoulli(m, n),
        )

    failures = sum(c["failures"] for c in checks.values())
    return {
        "command": "verify",
        "max_cells": max_cells,
        "shapes": len(shapes),
        "diagrams": diagrams,
        "checks": checks,
        "failures": failures,
        "status": "ok" if failures == 0 else "fail",
    }


def _verify_sweep(m: int, n: int) -> Iterator[tuple[tuple, tuple]]:
    """(rows, state) for each m x n Cauchon diagram, in cauchon_diagrams order.

    The state holds what the per-diagram objects give: (ups, rights) as
    pipedreams._exit_tables, the white squares, their lines, col_bits and
    phi.  Entry i of lines has bit j set when square j < i shares a row or a
    column with square i, which is where the white matrix is +1 below its
    diagonal, so equal lines mean equal white matrices; col_bits[c] has the
    bits of the squares so far in column c.  Each prefix builds its share
    once.
    """

    def step(state: tuple, cells: tuple[bool, ...]) -> tuple:
        ups, rights, squares, lines, col_bits, phi = state
        r = len(ups)
        up, right = _pipe_row(ups[-1], cells, m + 1 - r)
        new = tuple((r, c) for c, black in enumerate(cells, start=1) if not black)
        first, col_bits, new_lines = 1 << len(squares), list(col_bits), []
        for i, (_, c) in enumerate(new):
            bit = first << i  # bit - first: the squares left of it in its row
            new_lines.append(col_bits[c - 1] | (bit - first))
            col_bits[c - 1] |= bit
        phi = _phi_step(phi, cells)
        lines += tuple(new_lines)
        return ups + [up], rights + [right], squares + new, lines, tuple(col_bits), phi

    root = ([list(range(m + 1, m + n + 1))], [], (), (), (0,) * n, _identity(n))
    return _sweep(m, n, root, step)


def _cmd_verify(args) -> dict:
    if args.max_cells > VERIFY_MAX_CELLS:
        raise ValueError(f"--max-cells capped at {VERIFY_MAX_CELLS} for verify")
    return run_verify(args.max_cells, inject_fault=args.inject_fault)


def _cmd_asymptotics(args) -> dict:
    m, d = args.m, args.d
    if not 0 <= d <= m:
        raise ValueError("need 0 <= d <= m")
    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    if args.n_max > ASYMPTOTICS_MAX_N:
        raise ValueError(f"--n-max capped at {ASYMPTOTICS_MAX_N} for asymptotics")
    limit = asymptotic_proportion(m, d)
    cf = closed_form_coeffs(m, d)
    rows = []
    for n in range(1, args.n_max + 1):
        count = cf.evaluate(n)
        total = poly_bernoulli(m, n)
        ratio = Fraction(count, total)
        gap = abs(ratio - limit)
        rows.append(
            {
                "n": n,
                "count": str(count),
                "total": str(total),
                "ratio": str(ratio),
                "ratio_approx": float(ratio),
                "gap": str(gap),
                "gap_approx": float(gap),
            }
        )
    return {
        "command": "asymptotics",
        "m": m,
        "d": d,
        "n_max": args.n_max,
        "limit": str(limit),
        "limit_approx": float(limit),
        "rows": rows,
        "status": "ok",
    }


def _cmd_lookup(args) -> dict:
    perm = Permutation.from_one_line(args.permutation)
    found = diagram_from_permutation(perm, args.m, args.n)
    return {
        "command": "lookup",
        "m": args.m,
        "n": args.n,
        "permutation": perm.one_line(),
        "found": found is not None,
        "diagram": found.serialize() if found is not None else None,
        "status": "ok",
    }


def _cmd_coeffs(args) -> dict:
    cf = closed_form_coeffs(args.m, args.d)
    return {"command": "coeffs", **cf.to_json_dict(), "formula": str(cf), "status": "ok"}


# ---------------------------------------------------------------- rendering


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2)
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


def _csv_string(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _render_csv(report: dict) -> str:
    cmd = report["command"]
    if cmd == "count":
        methods = report["methods"]
        dims = sorted({int(k) for cs in report["counts"].values() for k in cs})
        rows = [["dimension"] + methods]
        for dd in dims:
            rows.append([dd] + [report["counts"][meth].get(str(dd), "0") for meth in methods])
        rows.append(["total"] + [report["totals"][meth] for meth in methods])
        return _csv_string(rows)
    if cmd == "verify":
        rows = [["check", "checked", "failures"]]
        for name, c in report["checks"].items():
            rows.append([name, c["checked"], c["failures"]])
        rows.append(["total", report["diagrams"], report["failures"]])
        return _csv_string(rows)
    if cmd == "asymptotics":
        cols = ["n", "count", "total", "ratio", "ratio_approx", "gap", "gap_approx"]
        rows = [cols] + [[row[c] for c in cols] for row in report["rows"]]
        return _csv_string(rows)
    if cmd == "coeffs":
        rows = [["k", "coefficient"]]
        for k, c in report["coeffs"].items():
            rows.append([k, c])
        return _csv_string(rows)
    # dim, lookup: one record
    keys = [k for k in report if k != "command"]
    values = []
    for k in keys:
        v = report[k]
        if isinstance(v, list):
            v = ";".join(str(x) for x in v)
        values.append(v)
    return _csv_string([keys, values])


def _render_text(report: dict) -> str:
    cmd = report["command"]
    lines = []
    if cmd == "dim":
        for k, v in report.items():
            if k in ("command", "warning", "status"):
                continue
            if isinstance(v, list):
                v = " ".join(str(x) for x in v)
            lines.append(f"{k}: {v}")
        if report["warning"]:
            lines.append(f"warning: {report['warning']}")
        lines.append(f"status: {report['status']}")
    elif cmd == "count":
        methods = report["methods"]
        lines.append(f"strata of a {report['m']}x{report['n']} grid by dimension")
        lines.append("dimension  " + "  ".join(f"{meth:>12}" for meth in methods))
        dims = sorted({int(k) for cs in report["counts"].values() for k in cs})
        for dd in dims:
            cells = "  ".join(f"{report['counts'][meth].get(str(dd), '0'):>12}" for meth in methods)
            lines.append(f"{dd:>9}  {cells}")
        lines.append(
            "    total  " + "  ".join(f"{report['totals'][meth]:>12}" for meth in methods)
        )
        lines.append(f"agree: {report['agree']}")
        lines.append(f"status: {report['status']}")
    elif cmd == "verify":
        lines.append(
            f"verified {report['diagrams']} diagrams across {report['shapes']} shapes "
            f"(cells <= {report['max_cells']})"
        )
        for name, c in report["checks"].items():
            lines.append(f"{name}: {c['checked']} checked, {c['failures']} failures")
        lines.append(f"status: {report['status']}")
    elif cmd == "asymptotics":
        lines.append(
            f"m={report['m']} d={report['d']}  limit {report['limit']} "
            f"(~{report['limit_approx']:.6f})"
        )
        lines.append(f"{'n':>4}  {'count':>14}  {'total':>14}  {'ratio':>10}  {'gap':>12}")
        for row in report["rows"]:
            lines.append(
                f"{row['n']:>4}  {row['count']:>14}  {row['total']:>14}  "
                f"{row['ratio_approx']:>10.6f}  {row['gap_approx']:>12.3e}"
            )
        lines.append(f"status: {report['status']}")
    elif cmd == "lookup":
        lines.append(report["diagram"] if report["found"] else "not-found")
        lines.append(f"status: {report['status']}")
    elif cmd == "coeffs":
        lines.append(report["formula"])
        for k, c in report["coeffs"].items():
            lines.append(f"c[{k}] = {c}")
        lines.append(f"status: {report['status']}")
    else:  # pragma: no cover
        lines.append(json.dumps(report))
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
