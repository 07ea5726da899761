from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hstrata import (
    Diagram,
    Permutation,
    all_black_permutation,
    cycle_decomposition,
    is_restricted,
    odd_cycle_count,
    poly_bernoulli,
    toric_endpoint_table,
    toric_permutation,
    trace_permutation,
)
from hstrata import pipedreams
from hstrata.cli import main

from conftest import (
    BoundaryLabeling,
    all_diagrams,
    diagrams,
    endpoints_walked,
    toric_permutation_traced,
    traced_permutation,
    word_permutation,
)

# Two regression diagrams recovered by exhaustive search from frozen pipe
# data; see the tests below for the values they must keep reproducing.
EXAMPLE_3X4 = "#.##\n...#\n#..#"
EXAMPLE_4X4 = "..#.\n..##\n#...\n#..#"


class TestPermutation:
    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])

    def test_compose_applies_right_factor_first(self):
        p = Permutation([2, 3, 1])
        q = Permutation([1, 3, 2])
        assert (p * q).images == tuple(p(q(i)) for i in (1, 2, 3))

    def test_inverse(self):
        p = Permutation([3, 1, 2])
        assert p * p.inverse() == Permutation.identity(3)
        assert p.inverse() * p == Permutation.identity(3)

    def test_one_line_round_trip(self):
        p = Permutation([3, 1, 2])
        assert p.one_line() == "[3,1,2]"
        assert Permutation.from_one_line("[3,1,2]") == p
        assert Permutation.from_one_line("3 1 2") == p
        assert Permutation.from_one_line("3,1,2") == p

    def test_from_one_line_garbage(self):
        with pytest.raises(ValueError):
            Permutation.from_one_line("[a,b]")
        with pytest.raises(ValueError):
            Permutation.from_one_line("")

    @given(st.permutations(list(range(1, 8))))
    def test_inverse_round_trip(self, images):
        p = Permutation(images)
        assert p.inverse().inverse() == p


class TestCycles:
    def test_transposition_and_fixed_point(self):
        p = Permutation([2, 1, 3])
        assert cycle_decomposition(p) == ((1, 2), (3,))
        assert p.cycle_string() == "(1 2)(3)"

    def test_identity_is_all_fixed_points(self):
        cycles = cycle_decomposition(Permutation.identity(4))
        assert cycles == ((1,), (2,), (3,), (4,))
        assert odd_cycle_count(cycles) == 0

    def test_two_transpositions(self):
        cycles = cycle_decomposition(Permutation([4, 3, 2, 1]))
        assert cycles == ((1, 4), (2, 3))
        assert odd_cycle_count(cycles) == 2

    def test_three_cycle_is_even(self):
        # odd length means an even cycle, contributing nothing
        assert odd_cycle_count(cycle_decomposition(Permutation([3, 1, 2]))) == 0

    @given(st.permutations(list(range(1, 8))))
    def test_cycles_partition_min_first_and_follow_p(self, images):
        p = Permutation(images)
        cycles = cycle_decomposition(p)
        assert sorted(x for c in cycles for x in c) == list(range(1, 8))
        assert all(c[0] == min(c) for c in cycles)
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
        assert all(p(c[i]) == c[(i + 1) % len(c)] for c in cycles for i in range(len(c)))


class TestAllBlackPermutation:
    @pytest.mark.parametrize(
        "m,n,images",
        [(1, 1, (2, 1)), (2, 1, (3, 1, 2)), (2, 2, (3, 4, 1, 2))],
    )
    def test_images(self, m, n, images):
        assert all_black_permutation(m, n).images == images

    def test_requires_positive_sizes(self):
        with pytest.raises(ValueError):
            all_black_permutation(0, 3)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 2), (3, 3)])
    def test_traced_from_all_black_diagram(self, m, n):
        assert trace_permutation(Diagram.all_black(m, n)) == all_black_permutation(m, n)


class TestIsRestricted:
    def test_all_black_permutation_is_restricted(self):
        assert is_restricted(all_black_permutation(2, 2), 2, 2)

    def test_identity_is_restricted(self):
        assert is_restricted(Permutation.identity(4), 2, 2)

    def test_bounds(self):
        assert is_restricted(Permutation([2, 1]), 1, 1)
        assert not is_restricted(Permutation([3, 2, 1]), 1, 2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            is_restricted(Permutation.identity(3), 2, 2)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_every_trace_is_restricted(self, m, n):
        for d in all_diagrams(m, n):
            assert is_restricted(trace_permutation(d), m, n)


class TestTrace:
    def test_black_over_white(self):
        assert trace_permutation(Diagram.parse("#\n.")).images == (1, 3, 2)

    def test_white_over_black(self):
        assert trace_permutation(Diagram.parse(".\n#")).images == (2, 1, 3)

    def test_single_white_square_is_identity(self):
        assert trace_permutation(Diagram.all_white(1, 1)) == Permutation.identity(2)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 4), (4, 3)])
    def test_all_white_is_identity(self, m, n):
        assert trace_permutation(Diagram.all_white(m, n)) == Permutation.identity(m + n)

    def test_injective_on_cauchon_diagrams(self):
        # distinct Cauchon diagrams yield distinct permutations, and their
        # number matches the poly-Bernoulli count, for every shape with
        # m + n <= 8
        from hstrata import cauchon_diagrams

        for m in range(1, 8):
            for n in range(1, 9 - m):
                seen = {trace_permutation(d).images for d in cauchon_diagrams(m, n)}
                count = poly_bernoulli(m, n)
                assert len(seen) == count

    @given(diagrams())
    def test_table_tracer_matches_stepwise_walker(self, d):
        walked = traced_permutation(d, BoundaryLabeling.standard(d.m, d.n))
        assert walked == trace_permutation(d) == word_permutation(d)

    def test_word_product_matches_trace_on_every_colouring(self):
        # 7,306 diagrams, Cauchon or not: every shape with m * n <= 10
        for m in range(1, 11):
            for n in range(1, 10 // m + 1):
                for d in all_diagrams(m, n):
                    assert word_permutation(d) == trace_permutation(d)

    @pytest.mark.parametrize("cells", range(1, 13))
    def test_trace_matches_the_stepwise_walker_on_every_colouring(self, cells):
        # 36,000-odd diagrams, Cauchon or not, over every shape with m * n <= 12
        for m in range(1, cells + 1):
            if cells % m:
                continue
            n = cells // m
            std, tor = BoundaryLabeling.standard(m, n), BoundaryLabeling.toric(m, n)
            for d in all_diagrams(m, n):
                sigma, tau, endpoints = pipedreams._trace(d)
                assert sigma == traced_permutation(d, std).images
                assert tau == traced_permutation(d, tor).images
                assert endpoints == endpoints_walked(d)

    def test_non_restricted_trace_is_an_error(self, monkeypatch, tmp_path, capsys):
        # a corrupted last row sends the bottom pipe of a 1x2 grid to the
        # far end, which breaks the restricted bound; the check must survive
        # python -O and surface as a CLI error
        pipe_row = pipedreams._pipe_row

        def corrupted(above, row, left):
            up, right, ends = pipe_row(above, row, left)
            if left == 1:  # the last row carries left label 1
                up[0], right = right, up[0]
            return up, right, ends

        monkeypatch.setattr(pipedreams, "_pipe_row", corrupted)
        d = Diagram.all_white(1, 2)
        with pytest.raises(ValueError, match="non-restricted"):
            trace_permutation(d)
        path = tmp_path / "d.txt"
        path.write_text(d.serialize())
        assert main(["dim", str(path)]) == 2
        assert "non-restricted" in capsys.readouterr().err

    def test_exit_tables_that_repeat_a_label_are_an_error(self):
        # the one-line forms are checked without building a Permutation
        with pytest.raises(ValueError, match=r"^\(2, 2, 3\) is not a bijection of \[3\]$"):
            pipedreams._permutations(1, 2, (2, 2), [3])


def rotated_trace(d):
    """Oracle: the traced permutation composed with the inverse rotation."""
    return trace_permutation(d) * all_black_permutation(d.m, d.n).inverse()


class TestToricPermutation:
    def test_all_black_gives_identity(self):
        assert toric_permutation(Diagram.all_black(3, 2)) == Permutation.identity(5)

    def test_single_white_square(self):
        assert toric_permutation(Diagram.all_white(1, 1)).images == (2, 1)

    def test_black_over_white(self):
        assert toric_permutation(Diagram.parse("#\n.")).images == (3, 2, 1)

    def test_all_white_2x2(self):
        tau = toric_permutation(Diagram.all_white(2, 2))
        assert tau.images == (3, 4, 1, 2)
        assert cycle_decomposition(tau) == ((1, 3), (2, 4))

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2), (2, 4)])
    def test_direct_toric_trace_agrees_exhaustively(self, m, n):
        for d in all_diagrams(m, n):
            assert toric_permutation_traced(d) == toric_permutation(d) == rotated_trace(d)

    @given(diagrams())
    def test_direct_toric_trace_agrees(self, d):
        assert toric_permutation_traced(d) == toric_permutation(d) == rotated_trace(d)

    @given(diagrams())
    def test_odd_cycles_match_white_square_parity(self, d):
        odd = odd_cycle_count(cycle_decomposition(toric_permutation(d)))
        assert odd % 2 == len(d.white_squares()) % 2


class TestBoundaryLabeling:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BoundaryLabeling("diagonal", 2, 2)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 2)])
    def test_toric_start_labels_are_relabeled_standard_ones(self, m, n):
        std = BoundaryLabeling.standard(m, n)
        tor = BoundaryLabeling.toric(m, n)
        omega = all_black_permutation(m, n)
        for c in range(1, n + 1):
            assert tor.bottom(c) == omega(std.bottom(c))
            assert tor.top(c) == std.top(c)
        for r in range(1, m + 1):
            assert tor.right(r) == omega(std.right(r))
            assert tor.left(r) == std.left(r)


class TestToricEndpoints:
    def test_all_white_2x2(self):
        d = Diagram.all_white(2, 2)
        table = toric_endpoint_table(d)
        assert table == ((2, 3), (3, 4), (1, 2), (2, 3))

    def test_gluing_on_2x2(self):
        d = Diagram.all_white(2, 2)
        (left1, top1), (left2, _), (_, top3), _ = toric_endpoint_table(d)
        # square 2 sits right of square 1, square 1 sits above square 3
        assert top1 == left2
        assert top3 == left1

    @pytest.mark.parametrize("text", ["..#.\n..##\n#...\n#..#", "...#\n##..\n#...", "##\n##"])
    def test_the_trace_hands_out_plain_pairs(self, text):
        # the table is the trace's own tuple of (left, top) int pairs, in
        # white-label order, with no wrapper around a pair
        d = Diagram.parse(text)
        table = toric_endpoint_table(d)
        assert table == pipedreams._trace(d)[2]
        assert len(table) == len(d.white_squares())
        assert all(type(pair) is tuple and len(pair) == 2 for pair in table)
        assert all(type(label) is int for pair in table for label in pair)

    def test_invalid_label(self):
        # one entry per white label, so label 3 of a 1x2 grid has none
        d = Diagram.all_white(1, 2)
        table = toric_endpoint_table(d)
        assert len(table) == 2
        with pytest.raises(IndexError):
            table[3 - 1]

    @pytest.mark.parametrize("cells", range(1, 17))
    def test_gluing_identity_exhaustive(self, cells):
        # endpoints(i).top == endpoints(j).left whenever j is the next white
        # square rightward in i's row or upward in i's column; checked on
        # every coloring of every shape with the given cell count
        for m in range(1, cells + 1):
            if cells % m:
                continue
            n = cells // m
            for d in all_diagrams(m, n):
                squares = d.white_squares()
                index = {pos: i for i, pos in enumerate(squares)}
                endpoints = toric_endpoint_table(d)
                for i, (r, c) in enumerate(squares):
                    for cc in range(c + 1, d.n + 1):
                        if d.is_white(r, cc):
                            assert endpoints[i][1] == endpoints[index[r, cc]][0]
                            break
                    for rr in range(r - 1, 0, -1):
                        if d.is_white(rr, c):
                            assert endpoints[i][1] == endpoints[index[rr, c]][0]
                            break


def cycle_dimension(d):
    return odd_cycle_count(cycle_decomposition(toric_permutation(d)))


class TestStratumDimension:
    def test_census_2x1(self):
        dims = {
            text: cycle_dimension(Diagram.parse(text))
            for text in (".\n.", ".\n#", "#\n.", "#\n#")
        }
        assert dims == {".\n.": 0, ".\n#": 1, "#\n.": 1, "#\n#": 0}

    def test_all_black_dimension_zero(self):
        assert cycle_dimension(Diagram.all_black(4, 4)) == 0

    def test_all_white_2x2(self):
        assert cycle_dimension(Diagram.all_white(2, 2)) == 2


class TestReconstructedExamples:
    """Regression data for two diagrams pinned down by their traces."""

    def test_3x4_sigma_and_tau(self):
        d = Diagram.parse(EXAMPLE_3X4)
        assert d.is_cauchon()
        sigma = trace_permutation(d)
        assert sigma.images == (2, 1, 4, 7, 3, 6, 5)
        assert sigma.cycle_string() == "(1 2)(3 4 7 5)(6)"
        tau = toric_permutation(d)
        assert tau.cycle_string() == "(1 3 5)(2 6 4)(7)"

    def test_3x4_is_unique_cauchon_preimage(self):
        target = Permutation([2, 1, 4, 7, 3, 6, 5])
        matches = [
            d
            for d in all_diagrams(3, 4)
            if d.is_cauchon() and trace_permutation(d) == target
        ]
        assert matches == [Diagram.parse(EXAMPLE_3X4)]

    def test_4x4_toric_permutation(self):
        d = Diagram.parse(EXAMPLE_4X4)
        tau = toric_permutation(d)
        assert tau.images == (4, 6, 5, 8, 3, 1, 2, 7)
        assert tau.cycle_string() == "(1 4 8 7 2 6)(3 5)"

    def test_4x4_endpoints(self):
        d = Diagram.parse(EXAMPLE_4X4)
        table = toric_endpoint_table(d)
        assert table[7 - 1] == (4, 7)
        assert table[8 - 1] == (7, 6)
