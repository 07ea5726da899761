from __future__ import annotations

import random

import pytest
from hypothesis import given

from hstrata import Diagram, DiagramParseError

from conftest import (
    SHAPES_UP_TO_12,
    all_diagrams,
    cauchon_by_definition,
    cauchon_by_scan,
    diagrams,
    random_cauchon,
    region_sets,
)


class TestParseSerialize:
    def test_parse_single_black(self):
        d = Diagram.parse(".#\n..")
        assert (d.m, d.n) == (2, 2)
        assert d.is_black(1, 2)
        assert not d.is_black(1, 1) and not d.is_black(2, 1) and not d.is_black(2, 2)

    def test_serialize_all_black_row(self):
        assert Diagram.all_black(1, 3).serialize() == "###"

    def test_ragged_rows_rejected(self):
        with pytest.raises(DiagramParseError, match="ragged"):
            Diagram.parse("..\n.")

    def test_empty_input_rejected(self):
        with pytest.raises(DiagramParseError, match="empty"):
            Diagram.parse("")

    def test_illegal_character_position(self):
        with pytest.raises(DiagramParseError) as exc:
            Diagram.parse("..\n.x")
        assert exc.value.line == 2
        assert exc.value.column == 2

    def test_trailing_newline_tolerated(self):
        assert Diagram.parse(".#\n..\n") == Diagram.parse(".#\n..")

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_trailing_blank_lines_tolerated(self, eol):
        expected = Diagram.parse(".#\n..")
        for blank_lines in range(1, 4):
            assert Diagram.parse(f".#{eol}..{eol}" + eol * blank_lines) == expected

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_blank_line_inside_is_an_empty_row(self, eol):
        with pytest.raises(DiagramParseError, match="empty row") as exc:
            Diagram.parse(f".#{eol}{eol}..{eol}")
        assert exc.value.line == 2
        with pytest.raises(DiagramParseError, match="empty row") as exc:
            Diagram.parse(f"{eol}.#{eol}..")
        assert exc.value.line == 1

    def test_crlf_line_endings(self):
        assert Diagram.parse("#.\r\n.#\r\n##\r\n") == Diagram.parse("#.\n.#\n##")

    def test_lone_carriage_return_rejected(self):
        with pytest.raises(DiagramParseError, match="illegal character"):
            Diagram.parse("#.\r.#")

    @given(diagrams())
    def test_round_trip(self, d):
        assert Diagram.parse(d.serialize()) == d


class TestCauchon:
    def test_all_white_trivially_cauchon(self):
        assert Diagram.all_white(1, 1).is_cauchon()

    def test_all_black_cauchon(self):
        assert Diagram.all_black(3, 3).is_cauchon()

    def test_lone_interior_black_rejected(self):
        # (2,2) black with white above and white to the left
        assert not Diagram.parse("..\n.#").is_cauchon()

    def test_first_row_and_column_always_pass(self):
        assert Diagram.parse("##\n#.").is_cauchon()
        assert Diagram.parse(".#\n..").is_cauchon()

    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_12)
    def test_matches_definition_exhaustively(self, m, n):
        # is_cauchon reads each row as one int; both oracles read cell by cell
        for d in all_diagrams(m, n):
            assert d.is_cauchon() == cauchon_by_scan(d) == cauchon_by_definition(d)

    def test_matches_the_cell_scan_on_large_grids(self):
        # one cell flipped in a large Cauchon diagram: some flips keep it
        # Cauchon, and the others break it far from the first row and column
        rng = random.Random(5)
        for m, n in [(3, 100), (40, 70), (70, 40)]:
            for _ in range(20):
                d = random_cauchon(rng, m, n, 0.8)
                assert d.is_cauchon()
                rows = [list(row) for row in d.rows]
                r, c = rng.randrange(m), rng.randrange(n)
                rows[r][c] = not rows[r][c]
                flipped = Diagram(rows)
                assert flipped.is_cauchon() == cauchon_by_scan(flipped)

    @given(diagrams())
    def test_transpose_preserves_cauchon(self, d):
        assert d.is_cauchon() == d.transpose().is_cauchon()


class TestTranspose:
    def test_black_over_white(self):
        assert Diagram.parse("#\n.").transpose() == Diagram.parse("#.")

    def test_all_black_shape(self):
        assert Diagram.all_black(2, 3).transpose() == Diagram.all_black(3, 2)

    @given(diagrams())
    def test_involution(self, d):
        assert d.transpose().transpose() == d


class TestWhiteLabeling:
    # white-square label i is entry i-1 of d.white_squares()

    def test_all_white_row_major(self):
        assert Diagram.all_white(2, 2).white_squares() == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_black_squares_skipped(self):
        assert Diagram.parse("#\n.").white_squares() == ((2, 1),)

    def test_all_black_empty(self):
        assert Diagram.all_black(2, 2).white_squares() == ()

    @given(diagrams())
    def test_labels_are_row_major(self, d):
        squares = d.white_squares()
        assert list(squares) == sorted(set(squares))
        assert all(d.is_white(r, c) for r, c in squares)
        assert len(squares) == sum(
            1 for r in range(1, d.m + 1) for c in range(1, d.n + 1) if d.is_white(r, c)
        )


class TestRegionSets:
    def test_bottom_left_square(self):
        d = Diagram.all_white(2, 2)
        regions = region_sets(d, 3)
        assert regions.above == {1}
        assert regions.right == {4}
        assert regions.below == set()
        assert regions.left == set()

    def test_top_left_square(self):
        d = Diagram.all_white(2, 2)
        regions = region_sets(d, 1)
        assert (regions.above, regions.right, regions.below, regions.left) == (
            set(),
            {2},
            {3},
            set(),
        )

    def test_ten_white_square_example(self):
        # 4x4 regression diagram; its region sets are frozen golden data
        d = Diagram.parse("..#.\n..##\n#...\n#..#")
        regions = region_sets(d, 5)
        assert regions.above == {2}
        assert regions.right == set()
        assert regions.below == {6, 9}
        assert regions.left == {4}

    def test_invalid_label_rejected(self):
        d = Diagram.all_white(1, 1)
        with pytest.raises(ValueError):
            region_sets(d, 2)

    @given(diagrams())
    def test_regions_disjoint_and_exclude_self(self, d):
        for label in range(1, len(d.white_squares()) + 1):
            regions = region_sets(d, label)
            seen = set()
            for part in regions:
                assert label not in part
                assert not (seen & part)
                seen |= part
