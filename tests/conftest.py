"""Shared oracles and strategies for the test suite.

The helpers here are deliberately independent re-implementations (plain
definitions, brute force, a stepwise pipe walker, the word product of the
black squares, region sets, the inclusion-exclusion Stirling sum, the closed
triple sum over Fraction polynomials, power-sum series exp/log/inverse,
tallies through the per-diagram object path, a frontier keyed by tuples in
a dict, kernel bases by Gauss-Jordan elimination in Fraction, a row's
Cayley map solved by that elimination, the boundary matrix P_p + P_q as
sparse and as dense rows,
the dense matrix-vector product, the dense column transfer matrix and a
permutation's cycles as the orbits of their least labels) used to validate
the package's faster or cleverer code paths.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial
from operator import mul, xor
from typing import NamedTuple

from hypothesis import strategies as st

from hstrata import (
    Diagram,
    Permutation,
    RatPoly,
    TruncatedSeries3,
    cauchon_diagrams,
    cycle_decomposition,
    kernel_dim,
    odd_cycle_count,
    toric_permutation,
    white_adjacency_matrix,
)
from hstrata.enumeration import _row_choices
from hstrata.exactlinalg import _identity, _phi_plan

# every grid shape with at most 12 cells, and with at most 9
SHAPES_UP_TO_12 = [(m, n) for m in range(1, 13) for n in range(1, 12 // m + 1)]
SHAPES_UP_TO_9 = [(m, n) for m, n in SHAPES_UP_TO_12 if m * n <= 9]


def all_diagrams(m: int, n: int):
    """Every one of the 2^(m*n) diagrams, black cells free."""
    for bits in product((False, True), repeat=m * n):
        yield Diagram([bits[i * n : (i + 1) * n] for i in range(m)])


def random_cauchon(rng, m: int, n: int, p: float) -> Diagram:
    """A random m x n Cauchon diagram: each square the condition allows to be
    black is black with probability p."""
    col_black = [True] * n
    rows = []
    for _ in range(m):
        row_black = True
        row = []
        for c in range(n):
            black = (col_black[c] or row_black) and rng.random() < p
            col_black[c] &= black
            row_black &= black
            row.append(black)
        rows.append(row)
    return Diagram(rows)


def cycles_by_orbits(images) -> tuple[tuple[int, ...], ...]:
    """The cycles of the one-line form images, each from its least label, by that label.

    Each label's orbit is followed until it returns, and kept only when the
    label is the orbit's least: no marks, so nothing shared with the package's
    walk.
    """
    cycles = []
    for a in range(1, len(images) + 1):
        orbit = [a]
        while images[orbit[-1] - 1] != a:
            orbit.append(images[orbit[-1] - 1])
        if min(orbit) == a:
            cycles.append(tuple(orbit))
    return tuple(cycles)


def word_permutation(d: Diagram) -> Permutation:
    """The trace as a word: s_j, j = c + m - r, for each black square (r, c)
    in row-major order, multiplied on the right.

    Starts from the identity's one-line form and swaps the entries at
    positions j and j+1 per black square; a fourth route to
    trace_permutation, sharing nothing with the pipe rules.
    """
    images = list(range(1, d.m + d.n + 1))
    for r, row in enumerate(d.rows, start=1):
        for c, black in enumerate(row, start=1):
            if black:
                j = c + d.m - r
                images[j - 1], images[j] = images[j], images[j - 1]
    return Permutation(images)


def cauchon_by_definition(d: Diagram) -> bool:
    """Direct transcription of the defining condition, no incremental state."""
    for r in range(1, d.m + 1):
        for c in range(1, d.n + 1):
            if d.is_black(r, c):
                col_above = all(d.is_black(k, c) for k in range(1, r))
                row_left = all(d.is_black(r, k) for k in range(1, c))
                if not (col_above or row_left):
                    return False
    return True


def cauchon_by_scan(d: Diagram) -> bool:
    """The Cauchon condition by one cell-by-cell scan, keeping which columns
    and which part of the row are still all black."""
    col_black_above = [True] * d.n
    for row in d.rows:
        row_black_left = True
        for c, black in enumerate(row):
            if black:
                if not (col_black_above[c] or row_black_left):
                    return False
            else:
                col_black_above[c] = False
            row_black_left &= black
    return True


def tally_by_objects(m: int, n: int, method: str) -> dict[int, int]:
    """Diagrams per dimension through the object path, one diagram at a time.

    'cycles' builds the toric Permutation and its cycle tuple, 'kernel' the
    white matrix and its kernel dimension, for every Cauchon diagram.
    """
    counts: dict[int, int] = {}
    for d in cauchon_diagrams(m, n):
        if method == "cycles":
            dim = odd_cycle_count(cycle_decomposition(toric_permutation(d)))
        else:
            dim = kernel_dim(white_adjacency_matrix(d))
        counts[dim] = counts.get(dim, 0) + 1
    return dict(sorted(counts.items()))


def frontier_by_dict(m: int, n: int) -> Counter:
    """enumeration._frontier with its keys left as tuples: each level is a
    dict from (column mask, state) to its count, and every key is stepped
    again on every level it is reached, with no id and no successor list."""
    if m < n:
        m, n = n, m
    frontier = {((1 << n) - 1, _identity(n)): 1}
    moves: dict[int, list] = {}
    for _ in range(m):
        nxt: dict = {}
        for (col_black, state), count in frontier.items():
            if col_black not in moves:
                moves[col_black] = [(b, *_phi_plan(row)) for row, b in _row_choices(n, col_black)]
            for below, gather, mask in moves[col_black]:
                key = below, tuple(map(xor, mask, gather(state)))
                nxt[key] = nxt.get(key, 0) + count
        frontier = nxt
    finals: Counter = Counter()
    for (_, state), count in frontier.items():
        finals[state] += count
    return finals


def count_set_partitions(n: int, k: int) -> int:
    """Brute-force count of partitions of [n] into k nonempty blocks."""
    if n == 0:
        return 1 if k == 0 else 0

    def partitions(elements):
        if not elements:
            yield []
            return
        first, rest = elements[0], elements[1:]
        for size in range(len(rest) + 1):
            for others in combinations(rest, size):
                block = (first,) + others
                remaining = [e for e in rest if e not in others]
                for tail in partitions(remaining):
                    yield [block] + tail

    return sum(1 for p in partitions(list(range(n))) if len(p) == k)


def det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Cofactor-expansion determinant; fine for the tiny oracle matrices."""
    size = len(rows)
    if size == 0:
        return Fraction(1)
    if size == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(size):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(size) if k != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * det_fraction(minor)
    return total


def rank_by_minors(entries) -> int:
    """Rank as the size of the largest linearly independent set of rows or columns.

    Vectors are independent over the rationals exactly when their Gram
    determinant, the determinant of their pairwise dot products, is nonzero.
    The sets are drawn from the shorter side, so at most 2^min(rows, columns)
    determinants are taken however long the other side is, which keeps the
    tests that draw tall matrices within Hypothesis's deadline.
    """
    rows = [list(row) for row in entries]
    if not rows or not rows[0]:
        return 0
    vectors = rows if len(rows) <= len(rows[0]) else [list(col) for col in zip(*rows)]
    for size in range(len(vectors), 0, -1):
        for chosen in combinations(vectors, size):
            if det_fraction([[sum(map(mul, u, v)) for v in chosen] for u in chosen]) != 0:
                return size
    return 0


def kernel_basis_by_fractions(entries) -> tuple[tuple[Fraction, ...], ...]:
    """The null space basis with a 1 at each free column and 0 at the others.

    Gauss-Jordan elimination in Fraction to the reduced row echelon form,
    whose pivot rows give each basis vector minus the free column's entries
    at the pivot columns.  It shares no code with exactlinalg; each vector
    of kernel_basis must be a positive multiple of the matching one here.
    """
    rows = [[Fraction(e) for e in row] for row in entries]
    cols = len(rows[0]) if rows else 0
    pivot_cols: list[int] = []
    for c in range(cols):
        r = len(pivot_cols)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [e / rows[r][c] for e in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [e - row[c] * p for e, p in zip(row, rows[r])]
        pivot_cols.append(c)
    basis = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        x = [Fraction(0)] * cols
        x[free] = Fraction(1)
        for row, pc in zip(rows, pivot_cols):
            x[pc] = -row[free]
        basis.append(tuple(x))
    return tuple(basis)


def perm_matrix_sum(p: Permutation, q: Permutation) -> list[list[int]]:
    """Sum P_p + P_q of two permutation matrices, P[i][j] = [j == p(i)], as dense rows."""
    if p.size != q.size:
        raise ValueError(f"size mismatch: {p.size} vs {q.size}")
    k = p.size
    entries = [[0] * k for _ in range(k)]
    for i in range(1, k + 1):
        entries[i - 1][p(i) - 1] += 1
        entries[i - 1][q(i) - 1] += 1
    return entries


def boundary_rows(p, q) -> list[dict[int, int]]:
    """The rows of P_p + P_q as dicts from 0-based column to entry, for one-line forms p and q.

    Row i is e_p(i) + e_q(i), or 2 e_p(i) where p(i) = q(i): the rows the
    general elimination takes, where _boundary_kernel_dim takes triples.
    """
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    return [{a - 1: 2} if a == b else {a - 1: 1, b - 1: 1} for a, b in zip(p, q)]


def matvec(rows, vec) -> tuple:
    """The product of the matrix with a column vector."""
    if any(len(row) != len(vec) for row in rows):
        raise ValueError(f"vector length {len(vec)} does not match the matrix rows")
    return tuple(sum(a * x for a, x in zip(row, vec) if a) for row in rows)


@lru_cache(maxsize=None)
def cayley_dense(k: int) -> tuple[tuple[int, ...], ...]:
    """(I + C)^-1 (C - I) for the in-row block C of k white squares, as a
    dense k x k matrix solved from [I + C | C - I] by kernel_basis_by_fractions:
    column b is minus the first k entries of the kernel vector that is 1 at
    column k + b.  It depends on k only, so it is solved once per k; its
    entries are integers (0 and +-1), so the dense products below run on ints."""
    block = white_adjacency_matrix(Diagram.all_white(1, k))
    system = [
        [e + (i == j) for j, e in enumerate(row)] + [e - (i == j) for j, e in enumerate(row)]
        for i, row in enumerate(block)
    ]
    basis = kernel_basis_by_fractions(system)
    # the free columns are k..2k-1 exactly when I + C is invertible
    if [list(v[k:]) for v in basis] != [[int(b == j) for j in range(k)] for b in range(k)]:
        raise ZeroDivisionError(f"I + C is singular for a row of {k} white squares")
    if any(e.denominator != 1 for v in basis for e in v):
        raise ArithmeticError(f"the row map of {k} white squares is not integral")
    return tuple(tuple(-int(v[i]) for v in basis) for i in range(k))


def row_map_dense(cells) -> list[list[int]]:
    """The dense n x n map of a row of cells: cayley_dense among its white
    columns, the identity at its black ones."""
    n = len(cells)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    cols = [c for c, black in enumerate(cells) if not black]
    if cols:
        cay = cayley_dense(len(cols))
        for i, ci in enumerate(cols):
            out[ci] = [0] * n
            for j, cj in enumerate(cols):
                out[ci][cj] = cay[i][j]
    return out


def phi_dense(phi) -> list[list[int]]:
    """Decode a compact transfer matrix: entry r = 2 * column + (1 if the entry is -1)."""
    out = [[0] * len(phi) for _ in phi]
    for r, e in enumerate(phi):
        out[r][e >> 1] = -1 if e & 1 else 1
    return out


def transfer_matrix_dense(rows, start=None) -> list[list[int]]:
    """start (the identity by default) left-multiplied by the dense map of
    each row in turn, as full n x n matrix products."""
    n = len(rows[0]) if rows else len(start)
    phi = start if start is not None else [[int(i == j) for j in range(n)] for i in range(n)]
    for cells in rows:
        block = row_map_dense(cells)
        phi = [[sum(block[i][t] * phi[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return phi


class BoundaryLabeling:
    """Assignment of the labels 1..m+n to the four sides of an m x n grid."""

    __slots__ = ("kind", "m", "n")

    def __init__(self, kind: str, m: int, n: int):
        if kind not in ("standard", "toric"):
            raise ValueError(f"unknown labeling kind {kind!r}")
        self.kind = kind
        self.m = m
        self.n = n

    @classmethod
    def standard(cls, m: int, n: int) -> "BoundaryLabeling":
        return cls("standard", m, n)

    @classmethod
    def toric(cls, m: int, n: int) -> "BoundaryLabeling":
        return cls("toric", m, n)

    def bottom(self, c: int) -> int:
        """Entry label on the bottom side of column c."""
        return c if self.kind == "standard" else self.m + c

    def right(self, r: int) -> int:
        """Entry label on the right side of row r (rows count from the bottom)."""
        return self.n + (self.m + 1 - r) if self.kind == "standard" else self.m + 1 - r

    def left(self, r: int) -> int:
        """Exit label on the left side of row r (same for both kinds)."""
        return self.m + 1 - r

    def top(self, c: int) -> int:
        """Exit label on the top side of column c (same for both kinds)."""
        return self.m + c

    def __repr__(self) -> str:
        return f"BoundaryLabeling({self.kind!r}, m={self.m}, n={self.n})"


def _walk(d: Diagram, r: int, c: int, moving_up: bool) -> int:
    """Follow one pipe step by step from square (r, c); return the exit label.

    Independent of the table-based tracer; used for cross-checking.
    """
    while r >= 1 and c >= 1:
        if d.is_white(r, c):
            moving_up = not moving_up
        if moving_up:
            r -= 1
        else:
            c -= 1
    return d.m + c if r == 0 else d.m + 1 - r


def endpoints_walked(d: Diagram) -> tuple[tuple[int, int], ...]:
    """(left, top) toric endpoints of each white square, in row-major order,
    walked step by step from the squares left of and above it."""
    return tuple(
        (_walk(d, r, c - 1, False), _walk(d, r - 1, c, True)) for r, c in d.white_squares()
    )


def traced_permutation(d: Diagram, labeling: BoundaryLabeling) -> Permutation:
    """Trace every pipe under the given boundary labeling (stepwise walker)."""
    m, n = d.m, d.n
    if labeling.m != m or labeling.n != n:
        raise ValueError("labeling size does not match diagram")
    images = [0] * (m + n)
    for c in range(1, n + 1):
        images[labeling.bottom(c) - 1] = _walk(d, m, c, True)
    for r in range(1, m + 1):
        images[labeling.right(r) - 1] = _walk(d, r, n, False)
    return Permutation(images)


def toric_permutation_traced(d: Diagram) -> Permutation:
    """The toric permutation read directly off the toric boundary labeling.

    A second, independent implementation of toric_permutation.
    """
    return traced_permutation(d, BoundaryLabeling.toric(d.m, d.n))


class RegionSets(NamedTuple):
    """Labels of white squares strictly above/right/below/left of a square."""

    above: frozenset[int]
    right: frozenset[int]
    below: frozenset[int]
    left: frozenset[int]


def region_sets(d: Diagram, label: int) -> RegionSets:
    """White-square labels in the four axis-aligned regions around a label.

    Squares in a different row and different column belong to no region.
    """
    squares = d.white_squares()
    if not 1 <= label <= len(squares):
        raise ValueError(f"invalid white-square label {label} (have 1..{len(squares)})")
    r0, c0 = squares[label - 1]
    above, right, below, left = set(), set(), set(), set()
    for j, (r, c) in enumerate(squares, start=1):
        if j == label:
            continue
        if c == c0:
            (above if r < r0 else below).add(j)
        elif r == r0:
            (left if c < c0 else right).add(j)
    return RegionSets(frozenset(above), frozenset(right), frozenset(below), frozenset(left))


def stirling2_by_alternating_sum(n: int, k: int) -> int:
    """Independent evaluation of stirling2 via the inclusion-exclusion sum."""
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1))
    q, r = divmod(total, factorial(k))
    if r:
        raise ArithmeticError("alternating sum is not divisible by k!")
    return q


def poly_bernoulli_by_double_sum(m: int, n: int) -> int:
    """The poly-Bernoulli number as the sum over k of (k!)^2 S(m+1, k+1) S(n+1, k+1)."""
    return sum(
        factorial(k) ** 2
        * stirling2_by_alternating_sum(m + 1, k + 1)
        * stirling2_by_alternating_sum(n + 1, k + 1)
        for k in range(min(m, n) + 1)
    )


def single_cycle_count_by_double_sum(m: int, n: int) -> int:
    """The single-cycle count as the sum over k of k! (k-1)! S(m, k) S(n, k)."""
    return sum(
        factorial(k)
        * factorial(k - 1)
        * stirling2_by_alternating_sum(m, k)
        * stirling2_by_alternating_sum(n, k)
        for k in range(1, min(m, n) + 1)
    )


def falling_factorial_poly(p: RatPoly, k: int) -> RatPoly:
    """The product p (p-1) ... (p-k+1); the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = RatPoly([1])
    for i in range(k):
        out = out * (p - i)
    return out


# The two affine arguments whose falling factorials drive the closed form.
_HALF_ONE_MINUS_T = RatPoly([Fraction(1, 2), Fraction(-1, 2)])
_NEG_HALF_ONE_PLUS_T = RatPoly([Fraction(-1, 2), Fraction(-1, 2)])


def _closed_sum_terms(m: int):
    """Terms (k, coefficient-polynomial) of the closed triple sum at size m.

    k = 1 - l1 + l2 ranges over 1-m .. m+1; multiplying each polynomial by
    k^n and summing gives the dimension-counting polynomial for an m x n
    grid.  The factor k^n is left to the callers.
    """
    for mp in range(m + 1):
        sign = -1 if (m - mp) % 2 else 1
        binom = comb(m, mp)
        for l1 in range(mp + 1):
            s1 = stirling2_by_alternating_sum(mp, l1)
            if not s1:
                continue
            ff1 = falling_factorial_poly(_HALF_ONE_MINUS_T, l1)
            for l2 in range(m - mp + 1):
                s2 = stirling2_by_alternating_sum(m - mp, l2)
                if not s2:
                    continue
                ff2 = falling_factorial_poly(_NEG_HALF_ONE_PLUS_T, l2)
                yield 1 - l1 + l2, ff1 * ff2 * (sign * binom * s1 * s2)


def stratum_poly_by_triple_sum(m: int, n: int) -> RatPoly:
    """The dimension-counting polynomial, summed term by term in Fractions."""
    total = RatPoly()
    for k, poly in _closed_sum_terms(m):
        if k:
            total = total + poly * k**n
    return total


def closed_form_coeffs_by_triple_sum(m: int, d: int) -> dict[int, Fraction]:
    """The nonzero c_k of h(m, n, d) = sum_k c_k k^n, grouped term by term."""
    grouped: dict[int, Fraction] = {}
    for k, poly in _closed_sum_terms(m):
        if k:
            grouped[k] = grouped.get(k, Fraction(0)) + poly.coeff(d)
    return {k: c for k, c in grouped.items() if c}


def series_exp_by_powers(s: TruncatedSeries3) -> TruncatedSeries3:
    """exp as the truncated sum of s^k / k!."""
    if s.constant_term:
        raise ValueError("exp needs a zero constant term")
    one = TruncatedSeries3.constant(s.max_x, s.max_y, 1)
    acc = term = one
    for k in range(1, s.max_x + s.max_y + 1):
        term = (term * s).scale(Fraction(1, k))
        acc = acc + term
    return acc


def series_log(s: TruncatedSeries3) -> TruncatedSeries3:
    """log of a series with constant term one, as the Mercator sum."""
    if s.constant_term != RatPoly([1]):
        raise ValueError("log needs constant term 1")
    u = s - 1
    acc = TruncatedSeries3(s.max_x, s.max_y)
    power = TruncatedSeries3.constant(s.max_x, s.max_y, 1)
    for k in range(1, s.max_x + s.max_y + 1):
        power = power * u
        acc = acc + power.scale(Fraction((-1) ** (k + 1), k))
    return acc


def series_inverse_by_geometric_sum(s: TruncatedSeries3) -> TruncatedSeries3:
    """Reciprocal of a constant-term-1 series as the sum of (1 - s)^k."""
    if s.constant_term != RatPoly([1]):
        raise ValueError("inverse needs constant term 1")
    one = TruncatedSeries3.constant(s.max_x, s.max_y, 1)
    u = one - s
    acc = power = one
    for _ in range(s.max_x + s.max_y):
        power = power * u
        acc = acc + power
    return acc


def series_pow_by_exp_log(s: TruncatedSeries3, exponent) -> TruncatedSeries3:
    """s^exponent as exp(exponent * log s), both by power sums."""
    return series_exp_by_powers(series_log(s).scale(exponent))


def stratum_series_by_exp_log(max_x: int, max_y: int) -> TruncatedSeries3:
    """The trivariate counting series with its powers taken via exp/log."""
    ex = TruncatedSeries3.exponential
    neg = ex(max_x, max_y, 0, -1) + ex(max_x, max_y, -1, 0) - 1
    pos = ex(max_x, max_y, 1, 0) + ex(max_x, max_y, 0, 1) - 1
    alpha_neg = RatPoly([Fraction(-1, 2), Fraction(-1, 2)])  # -(1+t)/2
    alpha_pos = RatPoly([Fraction(1, 2), Fraction(-1, 2)])  # (1-t)/2
    return series_pow_by_exp_log(neg, alpha_neg) * series_pow_by_exp_log(pos, alpha_pos)


@st.composite
def diagrams(draw, max_m: int = 5, max_n: int = 5):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    bits = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    return Diagram([bits[i * n : (i + 1) * n] for i in range(m)])


# One line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)
