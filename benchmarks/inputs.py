"""Seeded op lists for the three workloads, plus the benchmark's own oracles.

Everything here is independent of the hstrata package: the Cauchon
enumerator, the pipe walker and the poly-Bernoulli count are re-implemented
from their definitions, so the inputs do not depend on the code under test
and the checks built on them are a separate route.

An op is a JSON-serialisable dict with a "cls" (its op class, used for the
per-class medians) and the arguments the worker needs.  The seed picks the
diagrams of `dim`, the targets of `lookup`, the n of `stratum_poly` and the
order of the ops; it never changes the number of ops, their classes or the
grid shapes.
"""

from __future__ import annotations

import random
from math import comb, factorial

ENUM_SHAPES = ((4, 4), (3, 5), (5, 3), (2, 7), (4, 5))
ENUM_VERIFY_CELLS = 9
FORMULA_MS = (8, 12, 16, 20)
FORMULA_CF_M = 12
FORMULA_SERIES = (6, 7)
FORMULA_PIPELINE = 5

CLI_FORMATS = ("text", "json", "csv")
CLI_COUNT_FORMULA = ((1, 1), (2, 3), (3, 2), (3, 3), (2, 6), (6, 2), (4, 4), (4, 5), (5, 5), (6, 6))
CLI_COUNT_SERIES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (3, 3), (2, 2))
CLI_DIM_SMALL = tuple((m, n) for m in range(2, 6) for n in range(2, 6)) + ((3, 3), (4, 4), (2, 3), (3, 2))
CLI_LOOKUP_SMALL = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4))
CLI_LOOKUP_SHAPE = (4, 5)
CLI_LOOKUP_TARGETS = 4
CLI_BIG_DIM = (16, 16, 10)  # rows, columns, black squares (246 white)
CLI_CACHE_PAIRS = 10


# ------------------------------------------------------------ oracles


def stirling2(n: int, k: int) -> int:
    """Partitions of [n] into k blocks, by the inclusion-exclusion sum."""
    if k == 0:
        return 1 if n == 0 else 0
    return sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1)) // factorial(k)


def poly_bernoulli(m: int, n: int) -> int:
    """Number of m x n Cauchon diagrams."""
    return sum(
        factorial(k) ** 2 * stirling2(n + 1, k + 1) * stirling2(m + 1, k + 1)
        for k in range(min(m, n) + 1)
    )


def cauchon_cells(m: int, n: int):
    """Every m x n Cauchon diagram as a row-major tuple of bools (True black).

    Same order as the package's enumeration: row-major, white before black.
    """
    cells = [False] * (m * n)
    col_black = [True] * n

    def walk(k: int, row_black: bool):
        if k == m * n:
            yield tuple(cells)
            return
        c = k % n
        if c == 0:
            row_black = True
        was = col_black[c]
        col_black[c] = False
        yield from walk(k + 1, False)
        col_black[c] = was
        if was or row_black:
            cells[k] = True
            yield from walk(k + 1, row_black)
            cells[k] = False

    return walk(0, True)


def is_cauchon(rows: list[str]) -> bool:
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            if ch == "#":
                above = all(rows[k][c] == "#" for k in range(r))
                left = all(row[k] == "#" for k in range(c))
                if not (above or left):
                    return False
    return True


def walk_permutation(rows: list[str]) -> list[int]:
    """Standard-label permutation of a '.'/'#' diagram, one pipe at a time.

    Bottom side 1..n left to right and right side n+1..n+m bottom to top are
    the entries; left side 1..m bottom to top and top side m+1..m+n the exits.
    A white square turns the pipe, a black one lets it through.
    """
    m, n = len(rows), len(rows[0])

    def walk(r: int, c: int, up: bool) -> int:
        while r >= 1 and c >= 1:
            if rows[r - 1][c - 1] == ".":
                up = not up
            if up:
                r -= 1
            else:
                c -= 1
        return m + c if r == 0 else m + 1 - r

    images = [walk(m, c, True) for c in range(1, n + 1)]
    images += [walk(r, n, False) for r in range(m, 0, -1)]
    return images


def is_restricted(perm: list[int], m: int, n: int) -> bool:
    return all(-n <= img - i <= m for i, img in enumerate(perm, start=1))


def to_text(cells: tuple[bool, ...], n: int) -> list[str]:
    return ["".join("#" if b else "." for b in cells[i : i + n]) for i in range(0, len(cells), n)]


# ------------------------------------------------------------ generators


def random_cauchon(rng: random.Random, m: int, n: int, p_black: float) -> list[str]:
    """Row-major walk placing a black square, with probability p_black, only
    where the Cauchon rule allows one."""
    rows = []
    col_black = [True] * n
    for _ in range(m):
        row_black = True
        row = []
        for c in range(n):
            black = (col_black[c] or row_black) and rng.random() < p_black
            row.append("#" if black else ".")
            col_black[c] = col_black[c] and black
            row_black = row_black and black
        rows.append("".join(row))
    return rows


def random_cauchon_with(rng: random.Random, m: int, n: int, blacks: int) -> list[str]:
    """A random Cauchon diagram with exactly `blacks` black squares, so that
    the size of the white matrix does not depend on the seed."""
    p = min(0.9, blacks / (m + n - 1))
    while True:
        rows = random_cauchon(rng, m, n, p)
        if sum(row.count("#") for row in rows) == blacks:
            return rows


def stratified_targets(rng: random.Random, m: int, n: int, k: int) -> list[tuple[int, list[str]]]:
    """k diagrams, the j-th uniform over the j-th k-quantile of the
    enumeration order, so a lookup search's cost spreads the same way on
    every seed."""
    total = poly_bernoulli(m, n)
    wanted = {}
    for j in range(k):
        lo, hi = j * total // k, (j + 1) * total // k
        wanted[rng.randrange(lo, hi)] = j
    picked = {}
    for index, cells in enumerate(cauchon_cells(m, n)):
        if index in wanted:
            picked[index] = to_text(cells, n)
            if len(picked) == len(wanted):
                break
    return sorted(picked.items())


def decoy(rng: random.Random, m: int, n: int) -> list[int]:
    """A permutation of [m+n] that is not restricted, so no diagram traces to it."""
    while True:
        perm = list(range(1, m + n + 1))
        rng.shuffle(perm)
        if not is_restricted(perm, m, n):
            return perm


def one_line(perm: list[int]) -> str:
    return "[" + ",".join(map(str, perm)) + "]"


def enum_ops(rng: random.Random) -> list[dict]:
    ops = [
        {"cls": f"tally_{m}x{n}_{method}", "kind": "tally", "m": m, "n": n, "method": method}
        for m, n in ENUM_SHAPES
        for method in ("cycles", "kernel")
    ]
    ops.append({"cls": f"run_verify_{ENUM_VERIFY_CELLS}", "kind": "verify", "cells": ENUM_VERIFY_CELLS})
    return ops


def formula_ops(rng: random.Random) -> list[dict]:
    ops = []
    for m in FORMULA_MS:
        for n in rng.sample(range(m // 2, 3 * m // 2 + 1), 2):
            ops.append({"cls": f"stratum_poly_{m}", "kind": "stratum_poly", "m": m, "n": n})
    ops += [
        {"cls": f"closed_form_coeffs_{FORMULA_CF_M}_{d}", "kind": "closed_form_coeffs", "m": FORMULA_CF_M, "d": d}
        for d in range(4)
    ]
    ops += [{"cls": f"stratum_series_{k}", "kind": "stratum_series", "order": k} for k in FORMULA_SERIES]
    ops.append(
        {"cls": f"series_pipeline_check_{FORMULA_PIPELINE}", "kind": "series_pipeline_check", "order": FORMULA_PIPELINE}
    )
    return ops


def cli_op(sub: str, args: list[str], fmt: str, stdin: str | None = None, **expect) -> dict:
    return {"cls": sub, "kind": "cli", "argv": [sub, *args, "--format", fmt], "stdin": stdin, **expect}


def cli_ops(rng: random.Random) -> list[dict]:
    """The command mix; only diagrams and lookup targets depend on the seed."""
    fmt = iter(CLI_FORMATS * 100)
    ops = []
    for m in range(1, 7):
        for d in sorted({0, m // 2, m}):
            ops.append(cli_op("coeffs", [str(m), str(d)], next(fmt), m=m, d=d))
    for m in range(1, 5):
        for d in (0, m):
            ops.append(cli_op("asymptotics", [str(m), str(d), "--n-max", "6"], next(fmt), m=m, d=d))
    for m, n in CLI_COUNT_FORMULA:
        ops.append(cli_op("count", [str(m), str(n), "--method", "formula"], next(fmt), m=m, n=n))
    for m, n in CLI_COUNT_SERIES:
        ops.append(cli_op("count", [str(m), str(n), "--method", "series"], next(fmt), m=m, n=n))
    for m, n in CLI_DIM_SMALL:
        rows = random_cauchon(rng, m, n, 0.5)
        ops.append(cli_op("dim", ["-"], next(fmt), stdin="\n".join(rows) + "\n", m=m, n=n))
    for m, n in CLI_LOOKUP_SMALL:
        for _, rows in stratified_targets(rng, m, n, 2):
            perm = walk_permutation(rows)
            ops.append(cli_op("lookup", [one_line(perm), str(m), str(n)], next(fmt), m=m, n=n, perm=perm))
        perm = decoy(rng, m, n)
        ops.append(cli_op("lookup", [one_line(perm), str(m), str(n)], next(fmt), m=m, n=n, perm=perm))
    # heavy commands: these set op_p90_ms
    bm, bn, blacks = CLI_BIG_DIM
    for _ in range(3):
        rows = random_cauchon_with(rng, bm, bn, blacks)
        op = cli_op("dim", ["-"], next(fmt), stdin="\n".join(rows) + "\n", m=bm, n=bn)
        ops.append({**op, "cls": f"dim_{bm}x{bn}"})
    lm, ln = CLI_LOOKUP_SHAPE
    for _, rows in stratified_targets(rng, lm, ln, CLI_LOOKUP_TARGETS):
        perm = walk_permutation(rows)
        op = cli_op("lookup", [one_line(perm), str(lm), str(ln)], next(fmt), m=lm, n=ln, perm=perm)
        ops.append({**op, "cls": f"lookup_{lm}x{ln}"})
    for _ in range(2):
        perm = decoy(rng, lm, ln)
        op = cli_op("lookup", [one_line(perm), str(lm), str(ln)], next(fmt), m=lm, n=ln, perm=perm)
        ops.append({**op, "cls": f"lookup_{lm}x{ln}_decoy"})
    for _ in range(2):
        ops.append(cli_op("verify", ["--max-cells", "8"], next(fmt), cells=8))
    rng.shuffle(ops)
    # Each cache pair keeps its order (miss writes the cache, hit reads it)
    # and goes to a seeded position.
    for pair in range(CLI_CACHE_PAIRS):
        at = rng.randrange(len(ops) + 1)
        for role in ("hit", "miss"):
            op = cli_op("count", ["4", "4", "--method", "enum", "--method", "formula"], next(fmt), m=4, n=4)
            op.update(cls=f"count_enum_{role}", cache=f"pair{pair}")
            ops.insert(at, op)
    return ops


WORKLOADS = {"enum": enum_ops, "formula": formula_ops, "cli": cli_ops}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The workload's op list for this seed, in the order the worker runs it."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    if workload != "cli":
        rng.shuffle(ops)
    return ops
