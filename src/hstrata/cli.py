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

from .diagrams import Diagram
from .enumeration import (
    DEFAULT_CELL_LIMIT,
    cauchon_diagrams,
    diagram_from_permutation,
    poly_bernoulli,
    tally_dimensions,
)
from .exactlinalg import (
    _boundary_image,
    _in_white_kernel,
    _square_image,
    cycle_kernel_basis,
    is_skew_symmetric,
    kernel_basis,
    kernel_dim,
    matvec,
    perm_matrix_sum,
    white_adjacency_matrix,
)
from .genfunc import (
    asymptotic_proportion,
    closed_form_coeffs,
    stratum_poly,
    stratum_series,
)
from .pipedreams import (
    Permutation,
    _endpoints_from_exits,
    _trace,
    all_black_permutation,
    cycle_decomposition,
    odd_cycle_count,
)

VERIFY_DEFAULT_CELLS = 9
# run_verify grows about 2x per extra cell: 12 cells took 9.8 s, 13 took
# 17 s and 14 took 38 s on a 2-CPU box (Python 3.11), so 14 is the largest
# run that finishes in under a minute.
VERIFY_MAX_CELLS = 14
# stratum_series(k, k) took 45 s at k = 28 on the same box (20 s at 24).
SERIES_MAX_ORDER = 28
# dim's exact elimination is cubic in the white squares N: an all-white grid
# took 0.65 s at N = 256, 6.8 s at 576 and 31 s at 900 (30x30) on the same
# box, so the cap keeps dim well under a minute.
DIM_MAX_WHITE = 900
# asymptotics output grows as n_max^2: at m = 4 the JSON report took 0.3 s
# and 2.2 MB at n_max = 1000, 0.6 s and 8.6 MB at 2000.
ASYMPTOTICS_MAX_N = 1000
# count and lookup take --max-cells up to DEFAULT_CELL_LIMIT (25).  The
# slowest shapes it admits, 1x25 and 25x1 (33,554,432 diagrams each), took
# 283 s and 392 s for count --method enum, and 743 s and 1992 s for a
# lookup that walks the whole stream, on the same box.

FORMATS = ("text", "json", "csv")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    cells = argparse.ArgumentParser(add_help=False)
    cells.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="enumeration cell limit (defaults per command)",
    )

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
            "(about 30 s at the cap on a 2-CPU box)."
        ),
    )
    p.add_argument("diagram", help="path to a '.'/'#' diagram file, or - for stdin")
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser(
        "count",
        parents=[common, cells],
        help="count strata by dimension",
        description=(
            f"Count strata by dimension. --method series needs max(m, n) <= {SERIES_MAX_ORDER} "
            "(about 45 s at the cap on a 2-CPU box). --max-cells is at most "
            f"{DEFAULT_CELL_LIMIT}: --method enum took about 6.5 min at 25x1 "
            "(33,554,432 diagrams) on the same box."
        ),
    )
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument(
        "--method",
        action="append",
        choices=("enum", "formula", "series"),
        help="counting method; may be repeated, methods are cross-checked",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="directory caching --method enum tallies (default: no cache)",
    )
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser(
        "verify",
        parents=[common, cells],
        help="run the cross-check suite",
        description=(
            f"Run the cross-check suite on every Cauchon diagram with at most --max-cells "
            f"cells (default {VERIFY_DEFAULT_CELLS}, at most {VERIFY_MAX_CELLS}: about 40 s "
            "at the cap on a 2-CPU box)."
        ),
    )
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "asymptotics",
        parents=[common],
        help="ratio table against the limit",
        description=(
            f"Exact ratios against the limiting share for n = 1..--n-max (default 10, at "
            f"most {ASYMPTOTICS_MAX_N}: 2.2 MB of JSON in 0.3 s at the cap for m = 4 on a "
            "2-CPU box)."
        ),
    )
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(handler=_cmd_asymptotics)

    p = sub.add_parser(
        "lookup",
        parents=[common, cells],
        help="diagram for a restricted permutation",
        description=(
            "Find the Cauchon diagram whose pipes trace the permutation by walking the "
            f"enumeration. --max-cells is at most {DEFAULT_CELL_LIMIT}: a lookup that walks "
            "the whole 25x1 stream (33,554,432 diagrams) took about 33 min on a 2-CPU box."
        ),
    )
    p.add_argument("permutation", help="one-line images, e.g. '[3,4,1,2]'")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_lookup)

    p = sub.add_parser("coeffs", parents=[common], help="closed-form coefficients c_k")
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
    white = len(d.white_squares())
    if white > DIM_MAX_WHITE:
        raise ValueError(f"dim is capped at {DIM_MAX_WHITE} white squares, got {white}")
    sigma, tau, _ = _trace(d)
    cycles = cycle_decomposition(tau)
    odd = odd_cycle_count(cycles)
    kdim = kernel_dim(white_adjacency_matrix(d))
    pp_dim = kernel_dim(perm_matrix_sum(sigma, all_black_permutation(d.m, d.n)))
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


def _enum_cell_limit(args) -> int:
    """--max-cells of count and lookup: at most DEFAULT_CELL_LIMIT, the default."""
    if args.max_cells is None:
        return DEFAULT_CELL_LIMIT
    if args.max_cells > DEFAULT_CELL_LIMIT:
        raise ValueError(f"--max-cells capped at {DEFAULT_CELL_LIMIT} for {args.command}")
    return args.max_cells


def _method_counts(m: int, n: int, method: str, limit: int, cache_dir) -> dict[int, int]:
    if method == "enum":
        return dict(tally_dimensions(m, n, max_cells=limit, cache_dir=cache_dir).counts)
    if method == "formula":
        poly = stratum_poly(m, n)
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
    methods = args.method or ["formula"]
    if args.m < 1 or args.n < 1:
        raise ValueError("m and n must be positive")
    if "series" in methods and max(args.m, args.n) > SERIES_MAX_ORDER:
        raise ValueError(f"--method series is capped at max(m, n) <= {SERIES_MAX_ORDER}")
    limit = _enum_cell_limit(args)
    counts = {
        meth: _method_counts(args.m, args.n, meth, limit, args.cache_dir) for meth in methods
    }
    first = counts[methods[0]]
    agree = all(counts[meth] == first for meth in methods)
    return {
        "command": "count",
        "m": args.m,
        "n": args.n,
        "methods": methods,
        "counts": {meth: {str(d): str(c) for d, c in sorted(cs.items())} for meth, cs in counts.items()},
        "totals": {meth: str(sum(cs.values())) for meth, cs in counts.items()},
        "agree": agree,
        "status": "ok" if agree else "fail",
    }


def run_verify(max_cells: int, inject_fault: bool = False) -> dict:
    """Cross-check suite over every Cauchon diagram with m*n <= max_cells.

    Checks, per diagram: the white matrix is skew-symmetric; the odd-cycle
    count equals both kernel dimensions; the endpoint gluing identity for
    consecutive white squares; the two kernel maps compose to -2 times the
    identity on both kernel bases and land in the asserted kernels.  Per
    shape: the enumerated tally matches the closed form and the total count
    matches the poly-Bernoulli value.  inject_fault flips one sign in one
    matrix to demonstrate the suite's sensitivity.
    """
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
    for m, n in shapes:
        omega = all_black_permutation(m, n)
        tally: dict[int, int] = {}
        for d in cauchon_diagrams(m, n, max_cells=max_cells):
            diagrams += 1
            squares = d.white_squares()
            mat = white_adjacency_matrix(d)
            if fault_pending and len(squares) >= 2:
                mat[0][1] = -mat[0][1]
                fault_pending = False
            record("skew_symmetry", is_skew_symmetric(mat))

            # the pipes are traced once; the permutation, its toric form and
            # the endpoint table are all read off the same exit tables
            sigma, tau, ups = _trace(d)
            cycles = cycle_decomposition(tau)
            odd = odd_cycle_count(cycles)
            basis = kernel_basis(mat)
            pp = perm_matrix_sum(sigma, omega)
            record("dimension_equality", odd == len(basis) == kernel_dim(pp))
            tally[odd] = tally.get(odd, 0) + 1

            # squares come row-major from the top, so square i-1 is the next
            # white square left of i when they share a row, and above[c] the
            # next one above i in its column
            endpoints = _endpoints_from_exits(squares, ups)
            above: dict[int, int] = {}
            glue_ok = True
            for i, (r, c) in enumerate(squares):
                if i and squares[i - 1][0] == r:
                    glue_ok &= endpoints[i - 1].top == endpoints[i].left
                if c in above:
                    glue_ok &= endpoints[i].top == endpoints[above[c]].left
                above[c] = i
            record("gluing_identity", glue_ok)

            # the two kernel maps, on data derived once per diagram; every
            # vector is checked in its source kernel before it is mapped
            in_boundary = lambda v: all(x == 0 for x in matvec(pp, v))
            in_white = lambda w: _in_white_kernel(squares, w)
            to_square = lambda v: _square_image(endpoints, v)
            to_boundary = lambda w: _boundary_image(m, n, squares, w)
            record(
                "iso_maps",
                all(
                    _round_trip(v, in_boundary, to_square, in_white, to_boundary)
                    for v in cycle_kernel_basis(cycles)
                )
                and all(
                    _round_trip(w, in_white, to_boundary, in_boundary, to_square)
                    for w in basis
                ),
            )

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


def _round_trip(x, in_source, forward, in_target, back) -> bool:
    """x and its image lie in their kernels, and mapping back gives -2 x."""
    if not in_source(x):
        return False
    y = forward(x)
    return in_target(y) and back(y) == tuple(-2 * e for e in x)


def _cmd_verify(args) -> dict:
    limit = args.max_cells if args.max_cells is not None else VERIFY_DEFAULT_CELLS
    if limit < 1:
        raise ValueError("--max-cells must be at least 1 for verify")
    if limit > VERIFY_MAX_CELLS:
        raise ValueError(f"--max-cells capped at {VERIFY_MAX_CELLS} for verify")
    return run_verify(limit, inject_fault=args.inject_fault)


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
    found = diagram_from_permutation(perm, args.m, args.n, max_cells=_enum_cell_limit(args))
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
    data = cf.to_json_dict()
    return {
        "command": "coeffs",
        "m": data["m"],
        "d": data["d"],
        "coeffs": data["coeffs"],
        "formula": str(cf),
        "status": "ok",
    }


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
        order = (
            "m",
            "n",
            "cauchon",
            "white_squares",
            "sigma",
            "sigma_cycles",
            "tau",
            "tau_cycles",
            "cycle_lengths",
            "odd_cycles",
            "kernel_dim",
            "boundary_kernel_dim",
            "dimension",
            "agree",
        )
        for k in order:
            v = report[k]
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
        if report["found"]:
            lines.append(report["diagram"])
        else:
            lines.append("not-found")
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
