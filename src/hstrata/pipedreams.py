"""Pipe tracing over diagrams and the permutations it produces.

Every square of a diagram carries pipes: a black square is a crossing (both
strands run straight through), while a white square holds two arcs, one
joining its bottom edge to its left edge and one joining its right edge to
its top edge.  A pipe entered on the bottom or right side of the grid
therefore only ever travels up or left and exits on the left or top side
after at most m + n turns.

Boundary labels come in two flavours:

* standard: the bottom side carries 1..n left to right and the right side
  carries n+1..n+m bottom to top (entry points); the left side carries 1..m
  bottom to top and the top side m+1..m+n left to right (exit points).
  Tracing every pipe gives the permutation of [m+n] associated with the
  diagram (trace_permutation); it always satisfies -n <= p(i) - i <= m.
  Numbering the rows bottom to top is the unique choice of axis directions
  for which that bound holds on every diagram while the all-black diagram
  still traces to the i -> m+i rotation; in particular the all-white diagram
  traces to the identity.
* toric: each row carries one label on both of its sides (bottom row 1 up to
  top row m) and column c carries m+c on both of its sides, so a pipe can be
  followed around the grid as if it were drawn on a torus.  The resulting
  permutation is the toric permutation (toric_permutation).  The toric labels
  are the standard ones with the bottom and right entry sides swapped, so the
  toric permutation is the standard one-line form with its two blocks
  swapped, i.e. the standard permutation composed with the inverse of the
  all-black diagram's permutation.  The exits of white squares under these
  labels are their (left, top) toric endpoints (toric_endpoint_table).

Every trace folds one row rule (_pipe_row) over the rows once (_trace),
keeping only the current row of exits.

The dimension of the stratum attached to a Cauchon diagram is the number of
odd cycles of its toric permutation, where a cycle is odd when it has an odd
number of inversions, i.e. even length.  Fixed points are even cycles.
"""

from __future__ import annotations

from operator import sub
from typing import Iterable, Iterator, Sequence

from .diagrams import Diagram


class Permutation:
    """A bijection of [k] = {1, .., k}, stored in one-line form."""

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(int(x) for x in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"{imgs!r} is not a bijection of [{len(imgs)}]")
        self._images = imgs

    @property
    def size(self) -> int:
        return len(self._images)

    @property
    def images(self) -> tuple[int, ...]:
        """images[i - 1] is the image of i."""
        return self._images

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self._images):
            raise ValueError(f"{i} outside domain [1, {len(self._images)}]")
        return self._images[i - 1]

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(range(1, k + 1))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._images)
        for i, img in enumerate(self._images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(i) = p(q(i))."""
        if other.size != self.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return Permutation(self._images[j - 1] for j in other._images)

    def one_line(self) -> str:
        """One-line image list, e.g. '[3,1,2]'."""
        return "[" + ",".join(str(x) for x in self._images) + "]"

    @classmethod
    def from_one_line(cls, text: str) -> "Permutation":
        """Parse '[3,1,2]', '3,1,2' or '3 1 2'."""
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        parts = body.replace(",", " ").split()
        if not parts:
            raise ValueError(f"cannot parse permutation from {text!r}")
        try:
            images = [int(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"cannot parse permutation from {text!r}") from exc
        return cls(images)

    def cycle_string(self) -> str:
        """Cycle notation, e.g. '(1 3 2)(4)'; fixed points are shown."""
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycle_decomposition(self))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation({list(self._images)!r})"


def cycle_decomposition(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of p, fixed points included as 1-cycles.

    Each cycle starts at its minimum element and the cycles are sorted by that
    minimum, so the decomposition is deterministic.
    """
    return tuple(map(tuple, _cycle_walk(p.images)))


def _cycle_walk(images: Sequence[int]) -> Iterator[list[int]]:
    """The cycles of the one-line form images, in cycle_decomposition's order: the one cycle walk."""
    seen = [False] * len(images)
    for start in range(1, len(images) + 1):
        if seen[start - 1]:
            continue
        cycle, x = [start], images[start - 1]
        seen[start - 1] = True
        while x != start:
            seen[x - 1] = True
            cycle.append(x)
            x = images[x - 1]
        yield cycle


def odd_cycle_count(cycles: tuple[tuple[int, ...], ...]) -> int:
    """Number of odd cycles, i.e. cycles of even length.

    Cycle parity here means inversion parity, which for a single cycle is
    opposite to the parity of its length; fixed points contribute nothing.
    """
    return sum(1 for c in cycles if len(c) % 2 == 0)


def _even_cycle_count(images: Sequence[int]) -> int:
    """Number of even-length cycles of a toric permutation contracted to its columns.

    images[c] = 2t + p says the pipe from the bottom of column c (0-based)
    reaches the top of column t after passing p (mod 2) row labels.  A
    cycle's length is its number of columns plus the row labels it passed;
    cycles of row labels alone are all-black rows, fixed points of odd length.
    """
    seen = [False] * len(images)
    count = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            length += 1 + (images[x] & 1)
            x = images[x] >> 1
        count += not length & 1
    return count


def all_black_permutation(m: int, n: int) -> Permutation:
    """Permutation traced by the all-black m x n diagram.

    Maps i to m+i for i <= n and to i-n for i > n; it is the maximum element
    of the restricted permutations under the reverse Bruhat order.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return Permutation(_all_black_images(m, n))


def _all_black_images(m: int, n: int) -> tuple[int, ...]:
    """The one-line form of all_black_permutation(m, n), built as plain ints."""
    return (*range(m + 1, m + n + 1), *range(1, m + 1))


def is_restricted(p: Permutation, m: int, n: int) -> bool:
    """Whether -n <= p(i) - i <= m holds for all i (requires p.size == m+n)."""
    if p.size != m + n:
        raise ValueError(f"permutation size {p.size} does not match m+n = {m + n}")
    return all(-n <= img - i <= m for i, img in enumerate(p.images, start=1))


def _pipe_row(above: Sequence[int], row: Sequence[bool], left: int) -> tuple[list, int, list]:
    """Pass the pipes of one row: the row rule of the whole package.

    above[c] is the exit label reached by a pipe leaving the row upward
    through column c (0-based), and left the one reached by a pipe leaving
    through the row's left side.  A black square lets both strands straight
    through; a white one joins its bottom edge to its left edge and its right
    edge to its top edge.  Returns the exit labels of pipes entering each
    column from below and of the pipe entering the row from the right, and
    the (left, top) toric endpoints of the row's white squares, left to
    right: the label carried leftward past the square and the one above it.
    """
    up, ends = [], []
    for black, a in zip(row, above):
        if black:
            up.append(a)
        else:
            up.append(left)
            ends.append((left, a))
            left = a
    return up, left, ends


def _trace(d: Diagram) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Trace the pipes once, keeping only the current row of exits.

    Returns the one-line forms of the standard and toric permutations and the
    (left, top) toric endpoints of the white squares in row-major order; a
    ValueError reports a trace that is not restricted.
    """
    m = d.m
    up, rights, ends = range(m + 1, m + d.n + 1), [], []
    for r, row in enumerate(d.rows, start=1):
        up, right, row_ends = _pipe_row(up, row, m + 1 - r)
        rights.append(right)
        ends += row_ends
    sigma, tau = _permutations(m, d.n, up, rights)
    return sigma, tau, tuple(ends)


def _permutations(
    m: int, n: int, bottom: Sequence[int], rights: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One-line forms of the standard and toric permutations of all m rows' exits.

    bottom is the exit row below the last row and rights the exits from the
    right of each row, top row first.  A ValueError reports a standard
    permutation that is no bijection or not restricted.
    """
    # standard entries: bottom 1..n, then right n+1..n+m from the bottom row
    # up; the toric labels number the right side first, then the bottom
    bottom, right = tuple(bottom), tuple(rights[::-1])
    sigma = bottom + right
    if sorted(sigma) != list(range(1, m + n + 1)):
        raise ValueError(f"{sigma!r} is not a bijection of [{m + n}]")
    shifts = list(map(sub, sigma, range(1, m + n + 1)))
    if min(shifts) < -n or max(shifts) > m:
        raise ValueError(
            "pipe trace produced the non-restricted permutation [" + ",".join(map(str, sigma)) + "]"
        )
    return sigma, right + bottom


def trace_permutation(d: Diagram) -> Permutation:
    """Permutation of [m+n] traced by the diagram's pipes (standard labels).

    The result is always restricted; a ValueError reports a trace that is not.
    """
    return Permutation(_trace(d)[0])


def toric_permutation(d: Diagram) -> Permutation:
    """Permutation of [m+n] traced by the diagram's pipes under toric labels."""
    return Permutation(_trace(d)[1])


def toric_endpoint_table(d: Diagram) -> tuple[tuple[int, int], ...]:
    """Toric labels (left, top) reached by leaving each white square left or up.

    Index i-1 holds white-square label i, the square d.white_squares()[i-1].
    When square j is the next white square right of square i in its row, or
    above it in its column, table[i-1][1] == table[j-1][0]: the two exits
    continue along the same pipe.
    """
    return _trace(d)[2]
