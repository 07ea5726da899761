"""Answer checks, run after the timed region of a pass.

Each check takes an op and what the program answered, and returns a list of
problems (empty when the answer is right).  Every expected value comes from
a route other than the one the op exercised: the benchmark's own enumerator
and pipe walker (inputs.py), its own poly-Bernoulli count, or a different
hstrata engine (closed form against enumeration or series).
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import inputs
from inputs import poly_bernoulli

# Shapes up to this many cells are small enough to enumerate as an oracle.
ORACLE_CELLS = 12


def diagram_dimension(rows: list[str]) -> int:
    """Stratum dimension from the walked permutation: compose with the
    inverse of the all-black permutation, count even-length cycles."""
    m, n = len(rows), len(rows[0])
    sigma = inputs.walk_permutation(rows)
    omega_inv = [i - m if i > m else i + n for i in range(1, m + n + 1)]
    tau = [sigma[omega_inv[i] - 1] for i in range(m + n)]
    seen = [False] * (m + n)
    even = 0
    for start in range(m + n):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = tau[x] - 1
            length += 1
        if length and length % 2 == 0:
            even += 1
    return even


@lru_cache(maxsize=None)
def oracle_tally(m: int, n: int) -> dict[int, int]:
    """Diagrams per dimension, by enumeration and pipe walking."""
    if m * n > ORACLE_CELLS:
        raise ValueError(f"{m}x{n} is too large for the enumeration oracle")
    return dict(Counter(diagram_dimension(inputs.to_text(cells, n)) for cells in inputs.cauchon_cells(m, n)))


def verify_diagrams(cells: int) -> int:
    """Diagrams a verify run over every shape with m*n <= cells must cover."""
    return sum(poly_bernoulli(m, n) for m in range(1, cells + 1) for n in range(1, cells // m + 1))


def poly_counts(poly) -> dict[int, Fraction]:
    """Nonzero t^d coefficients of an hstrata RatPoly."""
    return {d: c for d, c in enumerate(poly.coeffs) if c}


def _counts_problems(counts: dict[int, Fraction], m: int, n: int) -> list[str]:
    problems = [f"non-count coefficient {c} at t^{d}" for d, c in counts.items() if c < 0 or c != int(c)]
    total = sum(counts.values())
    if total != poly_bernoulli(m, n):
        problems.append(f"{m}x{n} total {total} != poly_bernoulli {poly_bernoulli(m, n)}")
    return problems


# ------------------------------------------------------------ in-process ops


def check_tally(op: dict, counts: dict[int, int], expected: dict[int, Fraction]) -> list[str]:
    """A tally against the closed-form coefficients `expected`."""
    problems = _counts_problems({d: Fraction(c) for d, c in counts.items()}, op["m"], op["n"])
    if counts != expected:
        problems.append(f"tally {counts} != stratum_poly coefficients {expected}")
    return problems


def check_in_process(op: dict, result, hstrata) -> list[str]:
    kind = op["kind"]
    if kind == "tally":
        expected = poly_counts(hstrata.genfunc.stratum_poly(op["m"], op["n"]))
        return check_tally(op, dict(result.counts), expected)
    if kind == "verify":
        problems = []
        if result["status"] != "ok" or result["failures"]:
            problems.append(f"run_verify reported {result['failures']} failures")
        if result["diagrams"] != verify_diagrams(op["cells"]):
            problems.append(f"run_verify covered {result['diagrams']} diagrams, expected {verify_diagrams(op['cells'])}")
        return problems
    if kind == "stratum_poly":
        return _counts_problems(poly_counts(result), op["m"], op["n"])
    if kind == "closed_form_coeffs":
        m, d = op["m"], op["d"]
        got = result.evaluate(1)
        want = oracle_tally(m, 1).get(d, 0)
        return [] if got == want else [f"h({m},1,{d}) = {got}, enumeration gives {want}"]
    if kind == "stratum_series":
        problems = []
        k = op["order"]
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                counts = poly_counts(result.egf_coeff(i, j))
                problems += _counts_problems(counts, i, j)
                if counts != poly_counts(hstrata.genfunc.stratum_poly(i, j)):
                    problems.append(f"series coefficient ({i},{j}) != stratum_poly({i},{j})")
        return problems
    if kind == "series_pipeline_check":
        return [] if result is True else [f"series_pipeline_check returned {result!r}"]
    raise ValueError(f"unknown op kind {kind!r}")


# ------------------------------------------------------------ cli ops


def parse_cli(sub: str, fmt: str, out: str) -> dict:
    """The fields the checks need, from any of the three output formats."""
    if fmt == "json":
        report = json.loads(out)
        if sub == "count":
            report["counts"] = {
                meth: {int(d): int(c) for d, c in cs.items()} for meth, cs in report["counts"].items()
            }
        if sub == "asymptotics":
            report["rows"] = [(r["n"], int(r["count"]), int(r["total"])) for r in report["rows"]]
        if sub == "coeffs":
            report["coeffs"] = {int(k): Fraction(v) for k, v in report["coeffs"].items()}
        if sub == "lookup" and not report["found"]:
            report["diagram"] = None
        return report
    lines = out.rstrip("\n").split("\n")
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if sub in ("dim", "lookup"):
            report = dict(zip(rows[0], rows[1]))
            report["agree"] = report.get("agree") == "True"
            if sub == "lookup":
                report["diagram"] = report["diagram"] if report["found"] == "True" else None
            return report
        if sub == "count":
            methods = rows[0][1:]
            body = rows[1:-1]
            return {"counts": {meth: {int(r[0]): int(r[1 + i]) for r in body if int(r[1 + i])} for i, meth in enumerate(methods)}}
        if sub == "verify":
            return {"diagrams": int(rows[-1][1]), "failures": int(rows[-1][2])}
        if sub == "asymptotics":
            return {"rows": [(int(r[0]), int(r[1]), int(r[2])) for r in rows[1:]]}
        if sub == "coeffs":
            return {"coeffs": {int(r[0]): Fraction(r[1]) for r in rows[1:]}}
    report = {"status": lines[-1].removeprefix("status: ")}
    body = lines[:-1]
    if sub == "dim":
        fields = dict(line.split(": ", 1) for line in body)
        report["agree"] = fields.get("agree") == "True"
    elif sub == "count":
        methods = body[1].split()[1:]
        counts = {meth: {} for meth in methods}
        for line in body[2:]:
            if line.split()[0] == "total":
                break
            dim, *values = line.split()
            for meth, value in zip(methods, values):
                if int(value):
                    counts[meth][int(dim)] = int(value)
        report["counts"] = counts
        report["agree"] = body[-1] == "agree: True"
    elif sub == "verify":
        report["diagrams"] = int(body[0].split()[1])
        report["failures"] = sum(int(line.split(", ")[1].split()[0]) for line in body[1:])
    elif sub == "asymptotics":
        report["rows"] = [tuple(int(x) for x in line.split()[:3]) for line in body[2:]]
    elif sub == "lookup":
        report["diagram"] = None if body == ["not-found"] else "\n".join(body)
    elif sub == "coeffs":
        coeffs = {}
        for line in body[1:]:
            key, value = line.split(" = ")
            coeffs[int(key[2:-1])] = Fraction(value)
        report["coeffs"] = coeffs
    return report


def check_cli(op: dict, exit_code: int, out: str) -> list[str]:
    """Exit status, reported status and the answer of one CLI command."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    sub, fmt = op["argv"][0], op["argv"][op["argv"].index("--format") + 1]
    report = parse_cli(sub, fmt, out)
    problems = []
    if report.get("status", "ok") != "ok":
        problems.append(f"status {report['status']!r}")
    if sub == "dim" and not report["agree"]:
        problems.append("dim routes disagree")
    elif sub == "count":
        counts = list(report["counts"].values())
        if any(c != counts[0] for c in counts):
            problems.append(f"methods disagree: {report['counts']}")
        for c in counts:
            problems += _counts_problems(c, op["m"], op["n"])
    elif sub == "verify":
        if report["failures"]:
            problems.append(f"verify reported {report['failures']} failures")
        if report["diagrams"] != verify_diagrams(op["cells"]):
            problems.append(f"verify covered {report['diagrams']} diagrams")
    elif sub == "asymptotics":
        m, d = op["m"], op["d"]
        for n, count, total in report["rows"]:
            if total != poly_bernoulli(m, n):
                problems.append(f"total at n={n} is {total}")
            if m * n <= ORACLE_CELLS and count != oracle_tally(m, n).get(d, 0):
                problems.append(f"count at n={n} is {count}")
    elif sub == "coeffs":
        m, d = op["m"], op["d"]
        for n in range(1, ORACLE_CELLS // m + 1):
            value = sum(c * k**n for k, c in report["coeffs"].items())
            if value != oracle_tally(m, n).get(d, 0):
                problems.append(f"coefficients give h({m},{n},{d}) = {value}")
    elif sub == "lookup":
        problems += check_lookup(op, report["diagram"])
    return problems


def check_lookup(op: dict, diagram: str | None) -> list[str]:
    """A found diagram must be Cauchon and trace to the permutation;
    not-found is right only for a non-restricted permutation."""
    m, n, perm = op["m"], op["n"], op["perm"]
    if diagram is None:
        return [] if not inputs.is_restricted(perm, m, n) else ["restricted permutation reported not-found"]
    rows = diagram.split("\n")
    if len(rows) != m or any(len(r) != n for r in rows):
        return [f"diagram has the wrong shape: {rows}"]
    if not inputs.is_cauchon(rows):
        return ["diagram is not Cauchon"]
    if inputs.walk_permutation(rows) != perm:
        return ["diagram does not trace to the permutation"]
    return []
