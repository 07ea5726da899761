"""Exhaustive generation of Cauchon diagrams and stratum tallies.

The generator walks the grid cells in row-major order and colors a cell black
only when every cell above it in its column, or every cell to its left in its
row, is already black.  Because the Cauchon condition for a black square only
involves cells that precede it in row-major order, this prunes exactly the
non-Cauchon partial colorings and yields every Cauchon diagram once, in
lexicographic order of the row-major cell string with white before black.

Counts grow like poly-Bernoulli numbers, so enumeration is capped by a cell
limit and the closed-form counting routes should be used beyond it.  Tallies
by dimension can be cached on disk as JSON; a cached tally is checked against
its shape and the poly-Bernoulli total before it is used.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Iterator

from .diagrams import Diagram
from .exactlinalg import kernel_dim, white_adjacency_matrix
from .genfunc import stirling2
from .pipedreams import (
    Permutation,
    cycle_decomposition,
    is_restricted,
    odd_cycle_count,
    toric_permutation,
    trace_permutation,
)

DEFAULT_CELL_LIMIT = 25
CACHE_VERSION = 1
CACHE_ENV_VAR = "HSTRATA_CACHE_DIR"

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


def cauchon_diagrams(m: int, n: int, max_cells: int = DEFAULT_CELL_LIMIT) -> Iterator[Diagram]:
    """Yield every m x n Cauchon diagram exactly once, deterministically."""
    _check_shape(m, n, max_cells)
    cells = [False] * (m * n)
    col_black_above = [True] * n

    def gen(k: int, row_black_left: bool) -> Iterator[Diagram]:
        if k == m * n:
            yield Diagram(tuple(cells[i * n : (i + 1) * n] for i in range(m)))
            return
        c = k % n
        if c == 0:
            row_black_left = True
        # white branch
        cells[k] = False
        was = col_black_above[c]
        col_black_above[c] = False
        yield from gen(k + 1, False)
        col_black_above[c] = was
        if col_black_above[c] or row_black_left:
            # black branch, allowed only when the Cauchon condition holds
            cells[k] = True
            yield from gen(k + 1, row_black_left)
            cells[k] = False

    return gen(0, True)


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
    agree on every diagram.  Results are cached as JSON when a cache
    directory is configured (argument or HSTRATA_CACHE_DIR).  A cached file is
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

    counts: dict[int, int] = {}
    for d in cauchon_diagrams(m, n, max_cells=max_cells):
        if method == "cycles":
            dim = odd_cycle_count(cycle_decomposition(toric_permutation(d)))
        else:
            dim = kernel_dim(white_adjacency_matrix(d))
        counts[dim] = counts.get(dim, 0) + 1
    tally = StratumTally.from_counts(m, n, counts)

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
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR)
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
