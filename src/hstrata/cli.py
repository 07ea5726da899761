"""Command-line front end: parsing, caps, dispatch and rendering.

Subcommands: dim, count, verify, asymptotics, lookup, coeffs.  Each command
checks its arguments against its cap and calls the library (verify calls
the cross-check suite in hstrata.verify).  Every command builds one report
dictionary and renders it as text, JSON (a single document) or CSV (with a
header row), so the three formats always carry the same numbers.  Counts are printed as decimal strings since they outgrow fixed
width integers quickly.  The exit code is 0 exactly when no internal
cross-check failed; the JSON "status" field mirrors it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from math import log10

from .diagrams import Diagram
from .enumeration import diagram_from_permutation, tally_dimensions
from .exactlinalg import _boundary_kernel_dim, _white_kernel_dim
from .genfunc import (
    _stratum_series_coeff,
    asymptotic_proportion,
    closed_form_coeffs,
    poly_bernoulli,
    stratum_poly,
)
from .pipedreams import (
    Permutation,
    _all_black_images,
    _trace,
    cycle_decomposition,
    odd_cycle_count,
)
from .verify import run_verify

VERIFY_DEFAULT_CELLS = 9
# run_verify grows about 2x per extra cell: the whole command took 2.8 to
# 3.1 s at 14 cells, 5.2 to 6.4 s at 15 and 10.7 to 11.4 s at 16, at peak
# RSS 22, 24 and 25 MB (3 runs each) on a shared 2-CPU box (Python 3.11),
# so 16, which covers the acceptance sweep, is the largest under a minute.
VERIFY_MAX_CELLS = 16
# count --method series solves one power recurrence H = F^alpha and convolves
# only the (m, n) coefficient of G^alpha (H F), where H F meets only F's
# nonzero terms, on integer grids.  On the same box the whole command took
# 5.0 to 6.8 s at 28x28 (26 MB peak RSS), 8.7 to 10.1 s at 32x32 (33 MB) and
# 14.6 to 16.7 s at 36x36, 3 runs each, most of it in the recurrence: 36
# stays inside the 24.5 to 27.4 s that set the earlier cap of 28.  At 36x36
# the peak RSS is 28 MB (3 runs, 21.6 to 26.3 s on a loaded box).
SERIES_MAX_ORDER = 36
# dim reads the white kernel off the n x n column transfer matrix, not the
# N x N white matrix, and eliminates the boundary matrix on its two-term
# rows.  On the same box the whole command took, for all-white grids at
# N = 900, 0.06 to 0.09 s at 30x30, 1x900, 900x1, 3x300 and 10x90 (31 s,
# 28 s, 17 s and 40 s with the full elimination of the white matrix at
# 30x30, 1x900, 3x300 and 10x90); the slowest diagrams found, 900 white
# squares on the diagonal or in one row of a 900x900 grid, took 0.25 to
# 0.35 s and 0.15 to 0.21 s at 24 MB peak RSS, most of it parsing and
# tracing the 810,000 cells.  The cap bounds the kernel routes, not the
# grid: time and memory grow linearly in m*n.  900 white squares on the
# diagonal of a 900x2000 grid took 0.59 to 0.62 s at 35 MB, and an
# all-black 2000x2000 grid 0.51 to 0.73 s at 58 MB (3 runs each).
DIM_MAX_WHITE = 900
# asymptotics output grows as n_max^2, and m has FORMULA_MAX_SIDE: at n_max = 1000
# the JSON report took 0.3 s (2.2 MB) at m = 4 and 4.8 to 5.3 s (8.4 MB) at m = 150.
ASYMPTOTICS_MAX_N = 1000
# count --method enum tallies on a frontier whose cost is exponential only
# in min(m, n) and polynomial in the longer side, so only the shorter side
# has a cap of its own (the longer one has COUNT_MAX_DIGITS).  On the same
# box (shared, 3 runs each) the whole command took 0.06 to 0.15 s at 5x5,
# 300x3 and 100x4, 0.16 to 0.26 s at 25x5, 0.4 to 0.65 s at 100x5, 0.45 to
# 0.8 s at 6x6, 1.9 s at 20x6 and 6.5 to 8.3 s at 100x6 (75,973 frontier
# keys, each stepped once).
ENUM_MAX_SIDE = 6
# coeffs, asymptotics and count --method formula build the closed-form table
# _closed_table(m), O(m^2) integers of about m log m bits in O(m^3) steps,
# about 15x the time per doubling of m.  On the same box (single runs under a
# 3 GB address-space limit) coeffs 400 1 took 47 s, count 400 400 45 s and
# asymptotics 400 200 37 s (55 s at --n-max 1000, 158 MB), each at 149 MB
# peak RSS; coeffs 3000 1 ran out of memory under a 1.5 GB limit.  For count
# the side is min(m, n), since the table is built on it.
FORMULA_MAX_SIDE = 400
# count prints counts of about max(m, n) * log10(min(m, n) + 1) digits, one
# per dimension, and CPython's int-to-str conversion is quadratic in the
# digits, while the table's evaluation grows with min(m, n)^2 times the
# digits.  At 20,000 digits the whole command took 3.3 s at 150x9180 (33 MB)
# and 69 s at 400x7680 (156 MB), against 45 s at 400x400; at 100,000 digits
# it took 0.8 s at 2x209590, 7 s at 36x63770, 22 s at 100x49890 and 273 s at
# 400x38420 (263 MB), single runs on the same box.
COUNT_MAX_DIGITS = 20_000

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
        print(_render(report, args.format), flush=True)
    except (ValueError, ArithmeticError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # the reader left; keep the exit flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
            "(about 0.3 s and 24 MB at the cap on a 2-CPU box); time and memory grow "
            "linearly in the m*n cells (0.6 s and 35 MB for a 900x2000 grid with a white "
            "diagonal, 0.6 s and 58 MB for an all-black 2000x2000 grid)."
        ),
    )
    p.add_argument("diagram", help="path to a '.'/'#' diagram file, or - for stdin")
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser(
        "count",
        parents=[common],
        help="count strata by dimension",
        description=(
            "Count strata by dimension. The counts have about max(m, n) * log10(min(m, n) + 1) "
            f"digits, at most {COUNT_MAX_DIGITS} (3.3 s at 150x9180 and 69 s and 156 MB at "
            f"400x7680 on a 2-CPU box). --method formula needs min(m, n) <= {FORMULA_MAX_SIDE} "
            "and builds its table on the shorter side (about 1 s at 150x150, 12 to 14 s at "
            "300x300 and 45 s and 149 MB at 400x400). --method series needs max(m, n) <= "
            f"{SERIES_MAX_ORDER} (15 to 17 s and 28 MB at the cap). --method enum needs "
            f"min(m, n) <= {ENUM_MAX_SIDE} and takes any longer side within the digit bound "
            "(under 1 s at 100x5 and 6x6, 2 s at 20x6 and 6.5 to 8.3 s at 100x6); past it use "
            "--method formula."
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
            f"cells (default {VERIFY_DEFAULT_CELLS}, at most {VERIFY_MAX_CELLS}: 11 s "
            "and 25 MB peak RSS at the cap on a 2-CPU box)."
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
            f"8.4 MB in about 5 s for m = 150 on a 2-CPU box). m is at most {FORMULA_MAX_SIDE} "
            "(37 s at the default --n-max and 55 s at --n-max 1000, both at 158 MB, for m = 400)."
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
            f"m is at most {FORMULA_MAX_SIDE} (0.8 to 0.95 s at m = 150, 12 s at m = 300 and "
            "47 s and 149 MB at the cap on a 2-CPU box)."
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
    pp_dim = _boundary_kernel_dim(sigma, _all_black_images(d.m, d.n))
    sigma, tau = Permutation(sigma), Permutation(tau)
    cycles = cycle_decomposition(tau)
    odd = odd_cycle_count(cycles)
    kdim = _white_kernel_dim(d.rows)
    agree = odd == kdim == pp_dim
    cauchon = d.is_cauchon()
    return {
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


def _method_counts(m: int, n: int, method: str, cache_dir) -> dict[int, int]:
    if method == "enum":
        return dict(tally_dimensions(m, n, cache_dir=cache_dir).counts)
    if method == "formula":
        poly = stratum_poly(min(m, n), max(m, n))  # the table is built on the shorter side
    else:
        poly = _stratum_series_coeff(m, n)  # the one coefficient, not the whole grid
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
    short, longer = min(args.m, args.n), max(args.m, args.n)
    longest = int(COUNT_MAX_DIGITS / log10(short + 1))
    if longer > longest:
        raise ValueError(
            f"count is capped at {COUNT_MAX_DIGITS} digits, max(m, n) * log10(min(m, n) + 1); "
            f"with min(m, n) = {short} the longer side is at most {longest}"
        )
    if "series" in methods and longer > SERIES_MAX_ORDER:
        raise ValueError(f"--method series is capped at max(m, n) <= {SERIES_MAX_ORDER}")
    if "enum" in methods and short > ENUM_MAX_SIDE:
        raise ValueError(
            f"--method enum is capped at min(m, n) <= {ENUM_MAX_SIDE}; "
            "use --method formula for larger grids"
        )
    if "formula" in methods and short > FORMULA_MAX_SIDE:
        raise ValueError(f"--method formula is capped at min(m, n) <= {FORMULA_MAX_SIDE}")
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
    if m > FORMULA_MAX_SIDE:
        raise ValueError(f"asymptotics is capped at m <= {FORMULA_MAX_SIDE}")
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
    if args.m > FORMULA_MAX_SIDE:
        raise ValueError(f"coeffs is capped at m <= {FORMULA_MAX_SIDE}")
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
