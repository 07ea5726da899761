"""Exact rank and kernels of row-list matrices, and the two kernel maps.

A matrix is a plain sequence of equal-length rows of Python ints or
fractions.Fraction, and no floating point is used anywhere.  Every rank and
kernel here comes from one fraction-free elimination on rows held as dicts
of their nonzero entries (_pivot_rows).  Vectors are plain tuples of exact
numbers, and kernel_basis returns primitive int tuples (entries with gcd 1);
entry i-1 of a vector corresponds to label i (white-square labels, i.e.
Diagram.white_squares() order, for square-indexed vectors; toric boundary
labels for boundary-indexed vectors).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter, xor
from typing import Callable, Iterable, Sequence, Union

from .diagrams import Diagram
from .pipedreams import _endpoints_from_exits, _trace, all_black_permutation

Rational = Union[int, Fraction]
ExactVector = tuple[Rational, ...]
Matrix = Sequence[Sequence[Rational]]

# Row operations without the final division keep everything in the integers;
# rows are renormalized by their gcd once entries pass this bound.
_GCD_REDUCE_BOUND = 1 << 62


def _integer_rows(rows: Matrix) -> list[dict[int, int]]:
    """Rows as dicts from column to nonzero entry, made ints by the lcm of their denominators."""
    width = len(rows[0]) if rows else 0
    out = []
    for row in rows:
        if len(row) != width:
            raise ValueError("matrix rows must all have the same length")
        if not set(map(type, row)) <= {int}:
            scale = lcm(*(e.denominator for e in row))
            row = [int(e * scale) for e in row]
        out.append({j: e for j, e in enumerate(row) if e})
    return out


def _pivot_rows(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free elimination of sparse rows: {leading column: pivot row}.

    Rows are dicts from 0-based column to nonzero int entry, and are
    consumed.  Each row is reduced, led by its first nonzero column, against
    the pivot rows found so far with the update a*row - b*pivot_row, where
    a/b is pivot/entry in lowest terms and a > 0; a row that reaches a
    column with no pivot row becomes its pivot row, and a row that empties
    is dependent.  After an update that multiplies (a unit one only adds or
    subtracts), a row with an entry past _GCD_REDUCE_BOUND is divided by the
    gcd of its entries, so everything stays exact and small.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            f = row.pop(c)
            g = gcd(prow[c], f)
            a, b = prow[c] // g, f // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                row = {j: a * v for j, v in row.items()}
            for j, v in prow.items():
                if j != c:
                    x = row.get(j, 0) - b * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            if (a != 1 or abs(b) != 1) and row and max(map(abs, row.values())) > _GCD_REDUCE_BOUND:
                g = gcd(*row.values())
                row = {j: v // g for j, v in row.items()}
    return pivots


def _kernel_vectors(pivots: dict[int, dict[int, int]], cols: int) -> tuple[tuple[int, ...], ...]:
    """Back-substitute a kernel basis from _pivot_rows, one vector per free column.

    Each vector is positive at its free column, 0 at the other free columns,
    and its entries have gcd 1.  Back-substitution stays in the integers:
    where a pivot p does not divide the partial sum s, the vector is first
    scaled by |p| / gcd(s, p), which is prime to the new entry s / gcd(s, p),
    so the vector stays primitive.
    """
    # pivot column, pivot and the other entries of its row, last pivot column first
    tails = [
        (c, row[c], [(j, e) for j, e in row.items() if j != c])
        for c, row in sorted(pivots.items(), reverse=True)
    ]
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        x = [0] * cols
        x[free] = 1
        for pc, p, tail in tails:
            s = sum(e * x[j] for j, e in tail)
            if s:
                g = gcd(s, p)
                if abs(p) != g:
                    x = [v * (abs(p) // g) for v in x]
                x[pc] = -s // g if p > 0 else s // g
        basis.append(tuple(x))
    return tuple(basis)


def rank(M: Matrix) -> int:
    """Rank over the rationals by exact integer-preserving elimination."""
    return len(_pivot_rows(_integer_rows(M)))


def kernel_dim(M: Matrix) -> int:
    """Dimension over the rationals of the null space of a square matrix."""
    for row in M:
        if len(row) != len(M):
            raise ValueError(
                f"kernel_dim requires a square matrix, got {len(M)} rows, one of length {len(row)}"
            )
    return len(M) - rank(M)


def kernel_basis(M: Matrix) -> tuple[tuple[int, ...], ...]:
    """A basis of the rational null space, one primitive int vector per free column."""
    return _kernel_vectors(_pivot_rows(_integer_rows(M)), len(M[0]) if M else 0)


def white_adjacency_matrix(d: Diagram) -> list[list[int]]:
    """The N x N skew-symmetric relation matrix of the white squares.

    Entry (i, j) is +1 when white square i is strictly below or strictly to
    the right of white square j, -1 when strictly above or strictly to the
    left, and 0 otherwise (in particular when the squares share neither row
    nor column).  Labels are row-major, so for squares sharing a line i > j
    exactly when square i is below or right of square j.
    """
    squares = d.white_squares()
    return [
        [(i > j) - (i < j) if r == rj or c == cj else 0 for j, (rj, cj) in enumerate(squares)]
        for i, (r, c) in enumerate(squares)
    ]


# ------------------------------------------------- column transfer matrices
#
# Squares in earlier rows meet a new row only through their columns (-1
# towards a later square in the same column), so the white matrix can be
# eliminated one row of squares at a time.  Write a for the column sums of a
# kernel vector over the rows done so far and T for its full column sums; a
# row with white columns Q and in-row block C then solves
# (2a - T)_Q + (I + C) x = 0 for its own squares x, which maps u = 2a - T on
# Q to (I + C)^-1 (C - I) u and leaves u outside Q alone.  u starts at -T and
# must end at T, so with Phi the product of the row maps, the kernel vectors
# correspond one to one to the T with (I + Phi) T = 0.
#
# Each row map is a signed permutation, the negacyclic shift of the row's
# white columns, so every Phi, a product of them, is one too and
# is carried as n ints: entry r is 2 * (the column of row r's one nonzero
# entry), plus 1 when that entry is -1.  A row's map then moves and negates
# entries: a gather and an xor mask (_phi_plan).


@lru_cache(maxsize=1 << 12)
def _phi_plan(cells: tuple[bool, ...]) -> tuple[Callable, tuple[int, ...]]:
    """A row of cells as the step (gather, mask) of _phi_step, cached since rows repeat.

    For white columns c_0 < ... < c_(k-1) the row map (I + C)^-1 (C - I) is
    the negacyclic shift S, S e_j = e_(j+1) for j < k - 1 and S e_(k-1) = -e_0:
    row c_i of phi takes row c_(i-1), and row c_0 takes row c_(k-1) negated.
    As C[i][j] = sign(i - j), (I + C) S = C - I holds column by column:
      (I + C) e_(j+1) is -1 at rows i <= j and +1 below, and so is (C - I) e_j;
      -(I + C) e_0 is -1 at every row, and so is (C - I) e_(k-1).
    C is skew, so I + C is invertible and S is the only solution.
    On column positions S is also the pipe row rule: each white column takes
    the pipe of the white column before it, and the first takes the last
    one's, which wraps round the torus past one row label, the mask bit.
    """
    src, mask = list(range(len(cells))), [0] * len(cells)
    cols = [c for c, black in enumerate(cells) if not black]
    if cols:
        src[cols[0]], mask[cols[0]] = cols[-1], 1
        for prev, c in zip(cols, cols[1:]):
            src[c] = prev
    # a one-column gather takes a slice, as itemgetter of one index gives no tuple
    gather = itemgetter(*src) if len(src) > 1 else itemgetter(slice(src[0], src[0] + 1))
    return gather, tuple(mask)


def _phi_step(phi: tuple[int, ...], cells: tuple[bool, ...]) -> tuple[int, ...]:
    """Left-multiply the compact transfer matrix phi by the map of a row of cells."""
    gather, mask = _phi_plan(cells)
    return tuple(map(xor, mask, gather(phi)))


def _identity(n: int) -> tuple[int, ...]:
    """The n x n identity as a compact transfer matrix."""
    return tuple(range(0, 2 * n, 2))


def _transfer_kernel_dim(phi: Sequence[int]) -> int:
    """dim ker(I + phi) for a compact phi: the white matrix's kernel dimension.

    It equals _even_cycle_count(phi): on a cycle of phi with L columns and s
    entries -1, phi^L = (-1)^s, so I + phi is singular there (with a kernel of
    dimension 1) exactly when (-1)^L = (-1)^s, that is when L + s is even.
    """
    # row r of I + phi is e_r +- e_c for phi's entry at column c, or 2 e_r or 0 when c = r
    rows = [{r: 1, e >> 1: -1 if e & 1 else 1} for r, e in enumerate(phi) if e >> 1 != r]
    rows += [{r: 2} for r, e in enumerate(phi) if e == 2 * r]
    return len(phi) - len(_pivot_rows(rows))


def _white_kernel_dim(rows: Sequence[Sequence[bool]]) -> int:
    """kernel_dim of the white matrix of a diagram's rows, through the column transfer matrix.

    Transposing swaps "below" and "right", which leaves the white matrix
    unchanged up to relabeling, so the diagram is swept along its longer
    side and phi is min(m, n) square.
    """
    cells = rows if len(rows) >= len(rows[0]) else tuple(zip(*rows))
    phi = _identity(len(cells[0]))
    for row in cells:
        phi = _phi_step(phi, row)
    return _transfer_kernel_dim(phi)


def _boundary_rows(p: Sequence[int], q: Sequence[int]) -> list[dict[int, int]]:
    """The rows of P_p + P_q (P[i][j] = [j == p(i)]) as dicts from 0-based column to entry.

    p and q are one-line forms (p[i - 1] = p(i)).  Row i is e_p(i) + e_q(i),
    or 2 e_p(i) where p(i) = q(i).
    """
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    return [{a - 1: 2} if a == b else {a - 1: 1, b - 1: 1} for a, b in zip(p, q)]


def _boundary_kernel_dim(p: Sequence[int], q: Sequence[int]) -> int:
    """kernel_dim(P_p + P_q) for one-line forms p and q, by elimination on the sparse rows."""
    return len(p) - len(_pivot_rows(_boundary_rows(p, q)))


def _in_boundary_kernel(p: Sequence[int], q: Sequence[int], v: Sequence[Rational]) -> bool:
    """Whether (P_p + P_q) v = 0 for one-line forms p and q: v[p(i)] + v[q(i)] = 0 for every i."""
    return all(v[a - 1] + v[b - 1] == 0 for a, b in zip(p, q))


def cycle_kernel_basis(cycles: tuple[tuple[int, ...], ...]) -> tuple[ExactVector, ...]:
    """Alternating +-1 vectors supported on the even-length cycles.

    For each even-length cycle (a_1 .. a_2k) the vector with +1 at a_i for
    odd i and -1 for even i is in the kernel of P_omega + P_sigma whenever
    the cycles are those of the corresponding toric permutation; the vectors
    form a basis of that kernel.  The vector length is the total cycle length.
    """
    size = sum(map(len, cycles))
    basis = []
    for cycle in cycles:
        if len(cycle) % 2:
            continue
        v = [0] * size
        for idx, a in enumerate(cycle):
            v[a - 1] = 1 if idx % 2 == 0 else -1
        basis.append(tuple(v))
    return tuple(basis)


def _square_image(endpoints: Sequence[tuple[int, int]], v: Sequence[Rational]) -> ExactVector:
    """Entry i is v[left(i)] - v[top(i)] for the (left, top) toric endpoints of white square i."""
    return tuple(v[left - 1] - v[top - 1] for left, top in endpoints)


def _boundary_image(
    m: int, n: int, squares: Sequence[tuple[int, int]], w: Sequence[Rational]
) -> ExactVector:
    """Minus the row sums and plus the column sums of w, indexed by toric label."""
    v: list[Rational] = [0] * (m + n)
    for (r, c), x in zip(squares, w):
        v[m - r] -= x  # physical row r carries toric label m+1-r
        v[m + c - 1] += x
    return tuple(v)


def to_square_kernel(d: Diagram, v: Sequence[Rational]) -> ExactVector:
    """Map a boundary-kernel vector to a white-square-kernel vector.

    Entry i of the result is v[left(i)] - v[top(i)], where left/top are the
    toric endpoints of white square i.  The input must lie in the kernel of
    the permutation-matrix sum (checked); the output is then guaranteed to
    lie in the kernel of the white adjacency matrix.
    """
    if len(v) != d.m + d.n:
        raise ValueError(f"vector length {len(v)} does not match m+n = {d.m + d.n}")
    sigma, _, ups = _trace(d)
    if not _in_boundary_kernel(sigma.images, all_black_permutation(d.m, d.n).images, v):
        raise ValueError("vector is not in the boundary kernel")
    return _square_image(_endpoints_from_exits(d.white_squares(), ups), v)


def to_boundary_kernel(d: Diagram, w: Sequence[Rational]) -> ExactVector:
    """Map a white-square-kernel vector to a boundary-kernel vector.

    For a row label a (toric labels count rows from the bottom) the result
    entry is the negated sum of w over the white squares of that row; for a
    column label m+c it is the sum over column c.  The input must lie in the
    kernel of the white adjacency matrix (checked); the output is then
    guaranteed to lie in the boundary kernel.
    """
    squares = d.white_squares()
    if not _in_white_kernel(squares, w):
        raise ValueError("vector is not in the white-square kernel")
    return _boundary_image(d.m, d.n, squares, w)


def in_white_kernel(d: Diagram, w: Sequence[Rational]) -> bool:
    """Whether w satisfies, at every white square, above+left == below+right.

    The sums run over the white squares strictly above, left of, below, and
    right of the given square.  The condition is equivalent to w lying in the
    null space of the white adjacency matrix, but is evaluated directly from
    the geometry rather than through the matrix.
    """
    return _in_white_kernel(d.white_squares(), w)


def _in_white_kernel(pos: Sequence[tuple[int, int]], w: Sequence[Rational]) -> bool:
    """Whether above + left == below + right at every white square, in O(N).

    pos must be in row-major order, so the squares met before one in its row
    are left of it and those met before it in its column above it: with the
    running sums left and above and the row and column totals, below + right
    is row_total + col_total - left - above - 2 w_i.
    """
    if len(w) != len(pos):
        raise ValueError(f"vector length {len(w)} does not match {len(pos)} white squares")
    row_total: dict[int, Rational] = {}
    col_total: dict[int, Rational] = {}
    for (r, c), x in zip(pos, w):
        row_total[r] = row_total.get(r, 0) + x
        col_total[c] = col_total.get(c, 0) + x
    left: dict[int, Rational] = {}
    above: dict[int, Rational] = {}
    for (r, c), x in zip(pos, w):
        lt, ab = left.get(r, 0), above.get(c, 0)
        if 2 * (lt + ab + x) != row_total[r] + col_total[c]:
            return False
        left[r], above[c] = lt + x, ab + x
    return True
