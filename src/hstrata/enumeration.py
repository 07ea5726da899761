"""Exhaustive generation of Cauchon diagrams and stratum tallies.

One row-by-row sweep drives every enumeration.  Whether a row may follow
the rows above it depends only on which columns are still all black, so
the sweep keeps that column mask and, for each mask, generates the allowed
rows lazily: k black squares, a white one, then black squares only in
columns of the mask.  Rows come white before black, so the diagrams come in
lexicographic order of their row-major cells with white before black, each
exactly once.  A per-row step is folded into a state that all children of a
prefix share, so the work on a prefix is done once for its whole subtree:
cauchon_diagrams collects the rows and yields a Diagram per leaf, and the
two tally routes carry the pipe exits (cycles) or the white matrix
(kernel) down the rows and read a dimension off each leaf without building
a Diagram, Permutation or cycle tuple.  Those per-diagram objects stay the
path of dim, verify and lookup, and the tests use them as the tally oracle.

Counts grow like poly-Bernoulli numbers, so enumeration is capped by a cell
limit and the closed-form counting routes should be used beyond it.  Tallies
by dimension can be cached on disk as JSON; a cached tally is checked against
its shape and the poly-Bernoulli total before it is used.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import factorial
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .diagrams import Diagram
from .exactlinalg import _eliminate, _white_matrix_step
from .genfunc import stirling2
from .pipedreams import (
    Permutation,
    _even_cycle_count,
    _pipe_row,
    is_restricted,
    trace_permutation,
)

S = TypeVar("S")

DEFAULT_CELL_LIMIT = 25
CACHE_VERSION = 1

TALLY_METHODS = ("cycles", "kernel")


class EnumerationLimitError(ValueError):
    """Grid has too many cells to enumerate; closed-form counts still work."""

    def __init__(self, m: int, n: int, limit: int):
        super().__init__(
            f"{m}x{n} = {m * n} cells exceeds the enumeration limit of {limit}; "
            "use the closed-form counts (stratum_count / poly_bernoulli) instead"
        )


@dataclass
class StratumTally:
    """Per-dimension diagram counts for one grid shape.

    counts maps each occurring dimension to the number of Cauchon diagrams
    whose stratum has that dimension; total is the sum of all counts.
    """

    m: int
    n: int
    counts: dict[int, int]
    total: int

    def __post_init__(self):
        if self.total != sum(self.counts.values()):
            raise ValueError("tally total does not match the sum of its counts")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("tally counts must be nonnegative")

    @classmethod
    def from_counts(cls, m: int, n: int, counts: dict[int, int]) -> "StratumTally":
        clean = {int(d): int(c) for d, c in sorted(counts.items()) if c}
        return cls(m=m, n=n, counts=clean, total=sum(clean.values()))

    def count(self, d: int) -> int:
        return self.counts.get(d, 0)

    def dimensions(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts))

    def to_json_dict(self) -> dict:
        # counts as decimal strings: these grow past fixed-width integers fast
        return {
            "m": self.m,
            "n": self.n,
            "counts": {str(d): str(c) for d, c in sorted(self.counts.items())},
            "total": str(self.total),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StratumTally":
        counts = {int(d): int(c) for d, c in data["counts"].items()}
        tally = cls.from_counts(int(data["m"]), int(data["n"]), counts)
        if tally.total != int(data["total"]):
            raise ValueError("tally total does not match the sum of its counts")
        return tally


def _check_shape(m: int, n: int, max_cells: int) -> None:
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if m * n > max_cells:
        raise EnumerationLimitError(m, n, max_cells)


def _row_choices(n: int, col_black: int) -> Iterator[tuple[bool, ...]]:
    """Rows that may follow rows whose all-black columns are the bits of col_black.

    Yields the rows in lexicographic order, white before black.  A row is k
    black squares, then (when k < n) a white square, then squares that may
    be black only in columns of col_black: past the white square the row is
    no longer all black to the left.
    """
    for k in range(n):
        after = [(False, True) if col_black >> c & 1 else (False,) for c in range(k + 1, n)]
        yield from product(*[(True,)] * k, (False,), *after)
    yield (True,) * n


def _sweep(m: int, n: int, root: S, step: Callable[[S, tuple[bool, ...], int], S]) -> Iterator[S]:
    """Fold step over the rows of every m x n Cauchon diagram, in order.

    step(state, cells, r) gives the state after row r (0-based from the top);
    the children of a prefix all start from the prefix's state, so step must
    leave its argument unchanged.  Yields one final state per diagram.
    """
    last = m - 1

    def descend(state: S, r: int, col_black: int) -> Iterator[S]:
        if r == last:
            for cells in _row_choices(n, col_black):
                yield step(state, cells, r)
        else:
            for cells in _row_choices(n, col_black):
                below = sum(1 << c for c, black in enumerate(cells) if black) & col_black
                yield from descend(step(state, cells, r), r + 1, below)

    return descend(root, 0, (1 << n) - 1)


def cauchon_diagrams(m: int, n: int, max_cells: int = DEFAULT_CELL_LIMIT) -> Iterator[Diagram]:
    """Yield every m x n Cauchon diagram exactly once, deterministically."""
    _check_shape(m, n, max_cells)
    prefixes = _sweep(m, n, (), lambda rows, cells, r: rows + (cells,))
    return map(Diagram, prefixes)


def _cycle_dims(m: int, n: int) -> Iterator[int]:
    """Odd-cycle count of each Cauchon diagram's toric permutation, in sweep order.

    The state is the exit labels of pipes entering each column from below
    (0-based toric labels: column c is m+c, row r from the top is m-1-r) and
    the exits of the pipes entering each row from the right.
    """

    def step(state, cells, r):
        up, rights = state
        up, right = _pipe_row(up, cells, m - 1 - r)
        return up, rights + [right]

    # in toric label order the rows come first, from the bottom up
    for up, rights in _sweep(m, n, (list(range(m, m + n)), []), step):
        yield _even_cycle_count(rights[::-1] + up)


def _kernel_dims(m: int, n: int) -> Iterator[int]:
    """Kernel dimension of each Cauchon diagram's white matrix, in sweep order."""
    step = lambda state, cells, r: _white_matrix_step(state, cells)
    for rows, _ in _sweep(m, n, ([], ()), step):
        # each leaf's rows are fresh lists, so they can be eliminated in place
        yield len(rows) - len(_eliminate(rows, len(rows)))


def tally_dimensions(
    m: int,
    n: int,
    method: str = "cycles",
    max_cells: int = DEFAULT_CELL_LIMIT,
    cache_dir: str | os.PathLike | None = None,
) -> StratumTally:
    """Count Cauchon diagrams by stratum dimension.

    method 'cycles' counts odd cycles of the toric permutation; 'kernel'
    computes the kernel dimension of the white adjacency matrix.  The two
    agree on every diagram.  Both run on the row sweep and build no Diagram
    or Permutation per diagram.  Results are cached as JSON in cache_dir
    when one is given; nothing else turns the cache on.  A cached file is
    trusted only when it parses, is for this m x n and totals
    poly_bernoulli(m, n); otherwise the tally is recomputed and the file
    replaced.  Files are written to a temporary name and then renamed, so a
    reader never sees a partial one.
    """
    if method not in TALLY_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {TALLY_METHODS}")
    _check_shape(m, n, max_cells)

    path = _cache_path(cache_dir, m, n, method)
    if path is not None:
        cached = _read_cache(path, m, n)
        if cached is not None:
            return cached

    dims = _cycle_dims(m, n) if method == "cycles" else _kernel_dims(m, n)
    tally = StratumTally.from_counts(m, n, Counter(dims))

    if path is not None:
        _write_cache(path, tally)
    return tally


def _read_cache(path: Path, m: int, n: int) -> StratumTally | None:
    """The tally stored at path, or None if it is absent, corrupt or not for m x n."""
    try:
        tally = StratumTally.from_json_dict(json.loads(path.read_text()))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    if (tally.m, tally.n) != (m, n) or tally.total != poly_bernoulli(m, n):
        return None
    return tally


def _write_cache(path: Path, tally: StratumTally) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(tally.to_json_dict()))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cache_path(
    cache_dir: str | os.PathLike | None, m: int, n: int, method: str
) -> Path | None:
    if not cache_dir:
        return None
    return Path(cache_dir) / f"tally-v{CACHE_VERSION}-{m}x{n}-{method}.json"


def poly_bernoulli(m: int, n: int) -> int:
    """The poly-Bernoulli number counting all m x n Cauchon diagrams.

    Equals the sum over k of (k!)^2 S(n+1, k+1) S(m+1, k+1) with S the
    Stirling numbers of the second kind; symmetric in m and n.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    return sum(
        factorial(k) ** 2 * stirling2(n + 1, k + 1) * stirling2(m + 1, k + 1)
        for k in range(m + 1)
    )


def single_cycle_count(m: int, n: int) -> int:
    """Number of m x n diagrams whose toric permutation is one (m+n)-cycle.

    Computed as the sum over k of k! (k-1)! S(m, k) S(n, k) with S the
    Stirling numbers of the second kind; cross-checked against enumeration
    in the test suite.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return sum(
        factorial(k) * factorial(k - 1) * stirling2(m, k) * stirling2(n, k)
        for k in range(1, min(m, n) + 1)
    )


def diagram_from_permutation(
    p: Permutation, m: int, n: int, max_cells: int = DEFAULT_CELL_LIMIT
) -> Diagram | None:
    """The unique Cauchon diagram tracing to p, or None if there is none.

    Realized by searching the enumeration stream; only restricted
    permutations can occur, so others return None immediately.
    """
    _check_shape(m, n, max_cells)
    if p.size != m + n:
        raise ValueError(f"permutation size {p.size} does not match m+n = {m + n}")
    if not is_restricted(p, m, n):
        return None
    for d in cauchon_diagrams(m, n, max_cells=max_cells):
        if trace_permutation(d) == p:
            return d
    return None
