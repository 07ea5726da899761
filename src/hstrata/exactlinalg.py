"""Exact rank and kernels of row-list matrices, and the two kernel maps.

A matrix is a plain sequence of equal-length rows of Python ints or
fractions.Fraction; rank is computed by integer-preserving elimination, and
no floating point is used anywhere.  Vectors are plain tuples of exact
numbers; entry i-1 of a vector corresponds to label i (white-square labels,
i.e. Diagram.white_squares() order, for square-indexed vectors; toric boundary
labels for boundary-indexed vectors).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence, Union

from .diagrams import Diagram
from .pipedreams import (
    Permutation,
    ToricEndpoints,
    _endpoints_from_exits,
    _trace,
    all_black_permutation,
)

Rational = Union[int, Fraction]
ExactVector = tuple[Rational, ...]
Matrix = Sequence[Sequence[Rational]]

# Row operations without the final division keep everything in the integers;
# rows are renormalized by their gcd once entries pass this bound.
_GCD_REDUCE_BOUND = 1 << 62


def is_skew_symmetric(rows: Matrix) -> bool:
    """Whether the rows form a square matrix equal to minus its transpose."""
    size = len(rows)
    if any(len(row) != size for row in rows):
        return False
    return all(rows[i][j] == -rows[j][i] for i in range(size) for j in range(i, size))


def matvec(rows: Matrix, vec: Sequence[Rational]) -> ExactVector:
    """The product of the matrix with a column vector."""
    if any(len(row) != len(vec) for row in rows):
        raise ValueError(f"vector length {len(vec)} does not match the matrix rows")
    return tuple(sum(a * x for a, x in zip(row, vec) if a) for row in rows)


def _integer_rows(rows: Matrix) -> list[list[int]]:
    """Copy rows as ints, each scaled by the lcm of its denominators (rank is unchanged)."""
    width = len(rows[0]) if rows else 0
    out = []
    for row in rows:
        if len(row) != width:
            raise ValueError("matrix rows must all have the same length")
        scale = 1
        for e in row:
            den = e.denominator
            if den != 1:
                scale = scale * den // gcd(scale, den)
        if scale == 1:
            out.append([int(e) for e in row])
        else:
            out.append([int(e * scale) for e in row])
    return out


def _eliminate(rows: list[list[int]], cols: int) -> list[int]:
    """In-place integer row echelon; returns the pivot column list.

    Pivot is the first nonzero entry in column order.  Row updates use the
    division-free combination p*row - f*pivot_row, with p and f first divided
    by their gcd and the row renormalized by its gcd once entries grow past
    _GCD_REDUCE_BOUND, so everything stays exact.
    """
    pivot_cols: list[int] = []
    nrows = len(rows)
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            big = 0
            for j in range(c + 1, cols):
                v = a * row[j] - b * prow[j]
                row[j] = v
                big |= abs(v)
            row[c] = 0
            if big > _GCD_REDUCE_BOUND:
                g = 0
                for v in row:
                    g = gcd(g, v)
                if g > 1:
                    rows[i] = [v // g for v in row]
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def rank(M: Matrix) -> int:
    """Rank over the rationals by exact integer-preserving elimination."""
    return len(_eliminate(_integer_rows(M), len(M[0]) if M else 0))


def kernel_dim(M: Matrix) -> int:
    """Dimension over the rationals of the null space of a square matrix."""
    for row in M:
        if len(row) != len(M):
            raise ValueError(
                f"kernel_dim requires a square matrix, got {len(M)} rows, one of length {len(row)}"
            )
    return len(M) - rank(M)


def kernel_basis(M: Matrix) -> tuple[ExactVector, ...]:
    """A basis of the rational null space, one vector per free column.

    Each basis vector has a 1 in its free coordinate and 0 in the others, so
    the basis is deterministic and visibly independent.
    """
    cols = len(M[0]) if M else 0
    rows = _integer_rows(M)
    pivot_cols = _eliminate(rows, cols)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        x: list[Rational] = [Fraction(0)] * cols
        x[free] = Fraction(1)
        for i in reversed(range(len(pivot_cols))):
            pc = pivot_cols[i]
            row = rows[i]
            s = sum(row[j] * x[j] for j in range(pc + 1, cols) if row[j] and x[j])
            x[pc] = Fraction(-s, row[pc])
        basis.append(tuple(x))
    return tuple(basis)


def _white_matrix_step(
    state: tuple[list[list[int]], tuple[int, ...]], row: Sequence[bool]
) -> tuple[list[list[int]], tuple[int, ...]]:
    """Extend the white matrix of the rows above by one more row of squares.

    state is (matrix, columns of its white squares in label order).  A new
    square shares no row with the squares above, so it relates to them only
    through its column, and to the earlier squares of its own row; every row
    of the result is a fresh list, and the given state is not changed.
    """
    rows, cols = state
    new = [c for c, black in enumerate(row) if not black]
    k = len(new)
    zeros = [0] * k
    # an old square is above every new one: -1 towards the new square in its column
    towards = {}
    for p, c in enumerate(new):
        towards[c] = zeros[:p] + [-1] + zeros[p + 1 :]
    out = [old + towards.get(cj, zeros) for old, cj in zip(rows, cols)]
    for p, c in enumerate(new):
        out.append([1 if cj == c else 0 for cj in cols] + [1] * p + [0] + [-1] * (k - 1 - p))
    return out, cols + tuple(new)


def white_adjacency_matrix(d: Diagram) -> list[list[int]]:
    """The N x N skew-symmetric relation matrix of the white squares.

    Entry (i, j) is +1 when white square i is strictly below or strictly to
    the right of white square j, -1 when strictly above or strictly to the
    left, and 0 otherwise (in particular when the squares share neither row
    nor column).  Each pair is set once as -1 above the diagonal and +1
    below it, so the matrix is skew-symmetric by construction.  The matrix
    is built row of squares by row of squares (_white_matrix_step).
    """
    state: tuple[list[list[int]], tuple[int, ...]] = ([], ())
    for row in d.rows:
        state = _white_matrix_step(state, row)
    return state[0]


def perm_matrix_sum(p: Permutation, q: Permutation) -> list[list[int]]:
    """Sum P_p + P_q of two permutation matrices, P[i][j] = [j == p(i)]."""
    if p.size != q.size:
        raise ValueError(f"size mismatch: {p.size} vs {q.size}")
    k = p.size
    entries = [[0] * k for _ in range(k)]
    for i in range(1, k + 1):
        entries[i - 1][p(i) - 1] += 1
        entries[i - 1][q(i) - 1] += 1
    return entries


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


def _square_image(endpoints: Sequence[ToricEndpoints], v: Sequence[Rational]) -> ExactVector:
    """Entry i is v[left(i)] - v[top(i)] for the toric endpoints of white square i."""
    return tuple(v[e.left - 1] - v[e.top - 1] for e in endpoints)


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
    if any(matvec(perm_matrix_sum(sigma, all_black_permutation(d.m, d.n)), v)):
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
    N = len(pos)
    if len(w) != N:
        raise ValueError(f"vector length {len(w)} does not match {N} white squares")
    for i in range(N):
        ri, ci = pos[i]
        acc = 0
        for j in range(N):
            if j == i:
                continue
            rj, cj = pos[j]
            if cj == ci:
                acc += w[j] if rj < ri else -w[j]
            elif rj == ri:
                acc += w[j] if cj < ci else -w[j]
        if acc != 0:
            return False
    return True
