"""Exhaustive generation of Cauchon diagrams and stratum tallies.

Whether a row may follow the rows above it depends only on which columns
are still all black, so every enumeration goes row by row, keeping that
column mask and, for each mask, generating the allowed rows lazily: k black
squares, a white one, then black squares only in columns of the mask.

_sweep is the one depth-first walk: rows come white before black, so the
diagrams come in lexicographic order of their row-major cells with white
before black, each exactly once, and none is kept.  Each prefix of rows
computes a caller's state once for all the diagrams below it; verify carries
its pipe exits, the line pattern of its white squares (which fixes the white
matrix) and column transfer matrix this way, and
cauchon_diagrams is the walk with no state, one Diagram per leaf.

Both tallies run on one level-by-level frontier instead.  A prefix of rows
meets the later rows only through its mask and a state on the columns, so
prefixes with equal (mask, state) merge, their counts adding, and a
dimension is read once per final state.  The state is n ints, entry c
2t + p for column c's image t: at once the column transfer matrix, with p
the sign bit, and the toric permutation contracted to the columns, with p
the parity of the row labels each pipe passed.  A row acts on it by
_phi_plan, the negacyclic shift of its white columns, which both solves its
Cayley system and passes the pipes along it, so the two tallies differ only
in how they read a final state.
Transposing keeps a diagram Cauchon and its dimension, so the frontier runs
along the longer side and costs exponential time only in the shorter one.
The per-diagram objects stay the path of dim, and the tests use them as
the oracle of the tallies and of verify's sweep; lookup reads its diagram
off a reduced word.

Nothing here bounds the shape.  The stream yields all poly_bernoulli(m, n)
diagrams, while a tally's cost grows only polynomially in the longer side at
a fixed shorter one, so the command line bounds each caller by its own cost:
verify by cells, count --method enum by min(m, n).  Tallies by dimension
can be cached on disk as JSON.  A cached tally is used only when its shape
matches, its counts are nonnegative integers at dimensions 0..min(m, n),
and its total equals both their sum and poly_bernoulli(m, n).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from itertools import product
from operator import xor
from pathlib import Path
from typing import Callable, Iterator

from .diagrams import Diagram
from .exactlinalg import _identity, _phi_plan, _transfer_kernel_dim
from .genfunc import poly_bernoulli
from .pipedreams import (
    Permutation,
    _even_cycle_count,
    is_restricted,
    trace_permutation,
)

CACHE_VERSION = 1


class StratumTally:
    """Per-dimension diagram counts for one grid shape.

    counts maps each occurring dimension, in increasing order, to the number
    of Cauchon diagrams whose stratum has that dimension; zero counts are
    dropped and a negative one is a ValueError.  total is derived from them.
    """

    __slots__ = ("m", "n", "counts")

    def __init__(self, m: int, n: int, counts: dict[int, int]):
        self.m = m
        self.n = n
        self.counts = {d: c for d, c in sorted(counts.items()) if c}
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("tally counts must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __eq__(self, other):
        if not isinstance(other, StratumTally):
            return NotImplemented
        return (self.m, self.n, self.counts) == (other.m, other.n, other.counts)

    def __repr__(self) -> str:
        return f"StratumTally(m={self.m}, n={self.n}, counts={self.counts})"


def _row_choices(n: int, col_black: int) -> Iterator[tuple[tuple[bool, ...], int]]:
    """Rows that may follow rows whose all-black columns are the bits of col_black.

    Yields (cells, below) in lexicographic order of the cells, white before
    black, with below the all-black columns once the row is added.  A row is
    k black squares, then (when k < n) a white square, then squares that may
    be black only in columns of col_black: past the white square the row is
    no longer all black to the left.
    """
    for k in range(n):
        after = [(False, True) if col_black >> c & 1 else (False,) for c in range(k + 1, n)]
        # the column bits of the black squares past the white one, in step with the cells
        bits = [(0, 1 << c) if col_black >> c & 1 else (0,) for c in range(k + 1, n)]
        low = col_black & ((1 << k) - 1)
        for cells, black in zip(product(*[(True,)] * k, (False,), *after), product(*bits)):
            yield cells, low | sum(black)
    yield (True,) * n, col_black


def _check_shape(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")


def cauchon_diagrams(m: int, n: int) -> Iterator[Diagram]:
    """Yield every m x n Cauchon diagram exactly once, deterministically."""
    _check_shape(m, n)
    return (Diagram(rows) for rows, _ in _sweep(m, n, None, lambda state, cells: None))


def _sweep(m: int, n: int, root, step: Callable) -> Iterator[tuple[tuple, object]]:
    """(rows, state) for every m x n Cauchon diagram, depth first.

    The state of a prefix of rows is step(state of its parent, last row),
    computed once and shared by every diagram below it, so step must build
    a new state rather than change the one it is given.  The walk keeps its
    own stack, so no grid is too tall for the interpreter's recursion limit.
    """
    last = m - 1
    rows: list[tuple[bool, ...]] = []
    states = [root]
    choices = [_row_choices(n, (1 << n) - 1)]
    while choices:
        for cells, below in choices[-1]:
            state = step(states[-1], cells)
            if len(rows) == last:
                yield (*rows, cells), state
            else:
                rows.append(cells)
                states.append(state)
                choices.append(_row_choices(n, below))
                break
        else:  # every row at this depth is done: back to the parent prefix
            choices.pop()
            states.pop()
            if rows:
                rows.pop()


def _frontier(m: int, n: int) -> Counter:
    """Final states of the rows of all m x n Cauchon diagrams, counted.

    The rows are swept level by level along the longer side, so each state
    is min(m, n) ints, the identity (0, 2, ..) at first.  Each row steps it
    by the row's _phi_plan, built once per column mask and row; prefixes
    with equal column mask and state merge, and their counts add.
    """
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


# the dimension of a final state, by each method
_ROUTES = {"cycles": _even_cycle_count, "kernel": _transfer_kernel_dim}


def tally_dimensions(
    m: int,
    n: int,
    method: str = "cycles",
    cache_dir: str | os.PathLike | None = None,
) -> StratumTally:
    """Count Cauchon diagrams by stratum dimension.

    method 'cycles' counts odd cycles of the toric permutation; 'kernel'
    computes the kernel dimension of the white adjacency matrix.  The two
    agree on every diagram.  Both run on one frontier that merges prefixes
    sharing a column mask and a state of n ints, which is both the
    contracted toric permutation and the column transfer matrix, so the
    methods differ only in how they read a final state, and neither builds
    a Diagram or Permutation per diagram.  The frontier runs
    along the longer side, so the cost is exponential only in min(m, n), and
    no shape is refused here; the count command bounds min(m, n).  Results
    are cached as JSON in cache_dir when one is given; nothing else turns the
    cache on.  A cached file is trusted only when it parses, is for this
    m x n, has nonnegative integer counts at dimensions 0..min(m, n) and a
    total equal both to their sum and to poly_bernoulli(m, n); otherwise the
    tally is recomputed and the file replaced.  Files are written to a
    temporary name and then renamed, so a reader never sees a partial one.
    """
    if method not in _ROUTES:
        raise ValueError(f"unknown method {method!r}, expected one of {tuple(_ROUTES)}")
    _check_shape(m, n)

    if cache_dir:
        path = Path(cache_dir) / f"tally-v{CACHE_VERSION}-{m}x{n}-{method}.json"
        cached = _read_cache(path, m, n)
        if cached is not None:
            return cached

    read = _ROUTES[method]
    counts: Counter = Counter()
    for state, count in _frontier(m, n).items():
        counts[read(state)] += count
    tally = StratumTally(m, n, counts)

    if cache_dir:
        _write_cache(path, tally)
    return tally


def _read_cache(path: Path, m: int, n: int) -> StratumTally | None:
    """The tally stored at path, or None unless it passes every check.

    The file must parse and be for m x n, each dimension must lie in
    0..min(m, n) with a nonnegative integer count, and the file's total
    must equal both the sum of the counts and poly_bernoulli(m, n).
    """
    try:
        data = json.loads(path.read_text())
        shape = (data["m"], data["n"])
        # through str so that a float count such as 5.9 fails, not truncates
        counts = {int(d): int(str(c)) for d, c in data["counts"].items()}
        total = int(str(data["total"]))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    if (
        shape != (m, n)
        or any(not 0 <= d <= min(m, n) or c < 0 for d, c in counts.items())
        or total != sum(counts.values())
        or total != poly_bernoulli(m, n)
    ):
        return None
    return StratumTally(m, n, counts)


def _write_cache(path: Path, tally: StratumTally) -> None:
    # counts as decimal strings: these grow past fixed-width integers fast
    data = {
        "m": tally.m,
        "n": tally.n,
        "counts": {str(d): str(c) for d, c in tally.counts.items()},
        "total": str(tally.total),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(data))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def diagram_from_permutation(p: Permutation, m: int, n: int) -> Diagram | None:
    """The unique Cauchon diagram tracing to p, or None if there is none.

    Only restricted permutations occur, so others return None at once.  The
    trace is the product of s_j, j = c + m - r, over the black squares (r, c)
    in row-major order, and on a Cauchon diagram this word is reduced, so it
    is read back left to right in O(mn): a square is black exactly when its
    letter is a left descent of what remains of p, and is then divided off.
    The diagram is traced once to confirm it; an ArithmeticError reports
    one that is not Cauchon or does not trace to p.
    """
    _check_shape(m, n)
    if not is_restricted(p, m, n):  # a ValueError when p.size != m + n
        return None
    # at[v] is the position of the value v in what remains of p; j is a left
    # descent when j + 1 stands left of j, and s_j w swaps the two values
    at = [0] * (m + n + 1)
    for i, v in enumerate(p.images):
        at[v] = i
    rows = []
    for r in range(1, m + 1):
        row = []
        for j in range(m + 1 - r, m + n + 1 - r):
            black = at[j + 1] < at[j]
            if black:
                at[j], at[j + 1] = at[j + 1], at[j]
            row.append(black)
        rows.append(row)
    d = Diagram(rows)
    if not d.is_cauchon() or trace_permutation(d) != p:
        raise ArithmeticError(f"the word read off {p.one_line()} gives no Cauchon diagram for it")
    return d
