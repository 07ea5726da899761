"""Black/white grid diagrams, the Cauchon condition, and white-square labels.

Grid orientation is fixed for the whole package: position (1, 1) is the
top-left square, row indices grow downward and column indices grow rightward.
"Above", "below", "left" and "right" always refer to this orientation.

A diagram is a Cauchon diagram when every black square has either all squares
strictly above it (same column) black, or all squares strictly to its left
(same row) black.  A black square in row 1 satisfies the first condition
vacuously, and one in column 1 the second.
"""

from __future__ import annotations

from typing import Iterable

WHITE_CHAR = "."
BLACK_CHAR = "#"


class DiagramParseError(ValueError):
    """Raised for ragged, empty, or otherwise malformed diagram text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f"line {line}"
            if column is not None:
                location += f", column {column}"
            location += ": "
        super().__init__(location + message)
        self.line = line
        self.column = column


class Diagram:
    """An immutable m x n grid of black and white squares."""

    __slots__ = ("_m", "_n", "_rows")

    def __init__(self, rows: Iterable[Iterable[bool]]):
        cells = tuple(tuple(map(bool, row)) for row in rows)
        if not cells or not cells[0]:
            raise ValueError("diagram needs at least one row and one column")
        if any(len(row) != len(cells[0]) for row in cells):
            raise ValueError("diagram rows must all have the same length")
        self._m, self._n, self._rows = len(cells), len(cells[0]), cells

    @classmethod
    def _of_cells(cls, cells: tuple[tuple[bool, ...], ...]) -> "Diagram":
        """The diagram of nonempty, equal-length tuples of bools, taken as they are."""
        d = cls.__new__(cls)
        d._m, d._n, d._rows = len(cells), len(cells[0]), cells
        return d

    @property
    def m(self) -> int:
        """Number of rows."""
        return self._m

    @property
    def n(self) -> int:
        """Number of columns."""
        return self._n

    @property
    def rows(self) -> tuple[tuple[bool, ...], ...]:
        """Cell colors as a tuple of rows; True means black."""
        return self._rows

    def is_black(self, r: int, c: int) -> bool:
        """Whether square (r, c) is black (1-based indices)."""
        if not (1 <= r <= self._m and 1 <= c <= self._n):
            raise ValueError(f"position ({r}, {c}) outside {self._m}x{self._n} grid")
        return self._rows[r - 1][c - 1]

    def is_white(self, r: int, c: int) -> bool:
        return not self.is_black(r, c)

    @classmethod
    def all_black(cls, m: int, n: int) -> "Diagram":
        return cls([[True] * n for _ in range(m)])

    @classmethod
    def all_white(cls, m: int, n: int) -> "Diagram":
        return cls([[False] * n for _ in range(m)])

    @classmethod
    def parse(cls, text: str) -> "Diagram":
        """Parse the '.'/'#' text format (rows separated by newlines).

        Lines may end in LF or CRLF, and trailing line endings (blank lines
        after the last row) are ignored; a blank line between rows is an
        empty row.  Raises DiagramParseError with 1-based line/column
        positions on bad input.
        """
        text = text.replace("\r\n", "\n").rstrip("\n")
        if not text:
            raise DiagramParseError("empty input")
        lines = text.split("\n")
        width = len(lines[0])
        rows = []
        for i, line in enumerate(lines, start=1):
            if not line:
                raise DiagramParseError("empty row", line=i)
            if len(line) != width:
                raise DiagramParseError(
                    f"ragged rows: row has length {len(line)}, expected {width}", line=i
                )
            rest = line.lstrip(WHITE_CHAR + BLACK_CHAR)  # from the first illegal character on
            if rest:
                raise DiagramParseError(
                    f"illegal character {rest[0]!r} (expected {WHITE_CHAR!r} or {BLACK_CHAR!r})",
                    line=i,
                    column=width - len(rest) + 1,
                )
            rows.append(tuple([ch == BLACK_CHAR for ch in line]))
        return cls._of_cells(tuple(rows))

    def serialize(self) -> str:
        """Render as '.'/'#' rows joined by newlines (no trailing newline)."""
        return "\n".join(
            "".join(BLACK_CHAR if black else WHITE_CHAR for black in row) for row in self._rows
        )

    def transpose(self) -> "Diagram":
        """The n x m diagram with rows and columns exchanged."""
        return Diagram._of_cells(tuple(zip(*self._rows)))

    def is_cauchon(self) -> bool:
        """Check the Cauchon condition for every black square.

        A black square left of its row's first white square has only black
        to its left, so a row fails only with a black square past its first
        white one in a column that already holds a white square.  Each row
        is read as one int with a byte per cell, so every scan runs at C
        speed, and an all-black row costs one all(row).
        """
        ones = int.from_bytes(b"\x01" * self._n, "little")
        seen = 0  # the cells of the columns holding a white square so far
        for row in self._rows:
            if not all(row):
                black = int.from_bytes(bytes(row), "little")
                past = -1 << 8 * (row.index(False) + 1)  # the cells past the first white one
                if black & seen & past:
                    return False
                seen |= ones ^ black
        return True

    def white_squares(self) -> tuple[tuple[int, int], ...]:
        """Positions of white squares in row-major order (1-based).

        These are the white-square labels used package-wide: label i is the
        square at entry i-1, so labels increase left to right within a row and
        every label in a row is smaller than every label in any lower row.
        """
        return tuple(
            (r, c)
            for r, row in enumerate(self._rows, start=1)
            for c, black in enumerate(row, start=1)
            if not black
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Diagram) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Diagram.parse({self.serialize()!r})"

