from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hstrata import (
    Diagram,
    all_black_permutation,
    cycle_decomposition,
    cycle_kernel_basis,
    in_white_kernel,
    kernel_basis,
    kernel_dim,
    odd_cycle_count,
    perm_matrix_sum,
    rank,
    to_boundary_kernel,
    to_square_kernel,
    toric_permutation,
    trace_permutation,
    white_adjacency_matrix,
)
from hstrata.exactlinalg import _eliminate, is_skew_symmetric, matvec
from hstrata.pipedreams import Permutation

from conftest import all_diagrams, diagrams, rank_by_minors, region_sets

EXAMPLE_4X4 = "..#.\n..##\n#...\n#..#"


def boundary_matrix(d):
    return perm_matrix_sum(trace_permutation(d), all_black_permutation(d.m, d.n))


small_entries = st.integers(-3, 3).map(
    lambda v: v if v % 2 else Fraction(v, 2)
)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entries = draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return entries


class TestExactMatrix:
    """Exact matrices are plain lists of equal-length rows."""

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            rank([[1, 2], [3]])
        with pytest.raises(ValueError):
            kernel_dim([[1, 2], [3]])

    def test_empty_matrix(self):
        assert rank([]) == 0
        assert kernel_dim([]) == 0

    def test_matvec(self):
        m = [[1, 2], [3, 4]]
        assert matvec(m, (1, 1)) == (3, 7)
        with pytest.raises(ValueError):
            matvec(m, (1, 2, 3))

    def test_flipped_entry_breaks_skew_symmetry(self):
        m = [[0, -1], [1, 0]]
        assert is_skew_symmetric(m)
        m[0][1] = 1
        assert not is_skew_symmetric(m)
        assert not is_skew_symmetric([[0, 1]])

    @given(small_matrices())
    def test_rank_matches_minor_oracle(self, m):
        assert rank(m) == rank_by_minors(m)

    def test_kernel_dim_requires_square(self):
        with pytest.raises(ValueError):
            kernel_dim([[1, 2, 3]])

    @pytest.mark.parametrize("k", [6, 8])
    def test_elimination_keeps_entries_small(self, k):
        # dividing p and f by their gcd before p*row - f*pivot_row keeps the
        # entries of these 0/+-1 white matrices to a few bits
        rows = white_adjacency_matrix(Diagram.all_white(k, k))
        _eliminate(rows, len(rows))
        assert max(abs(v).bit_length() for row in rows for v in row) <= 8


class TestKernelBasis:
    @given(small_matrices())
    def test_basis_vectors_lie_in_kernel(self, m):
        basis = kernel_basis(m)
        assert len(basis) == len(m[0]) - rank(m)
        for v in basis:
            assert all(x == 0 for x in matvec(m, v))

    def test_basis_is_independent(self):
        d = Diagram.all_white(2, 2)
        basis = kernel_basis(white_adjacency_matrix(d))
        assert rank(basis) == len(basis) == 2


class TestWhiteAdjacencyMatrix:
    def test_single_white_square(self):
        assert white_adjacency_matrix(Diagram.all_white(1, 1)) == [[0]]

    def test_column_pair(self):
        m = white_adjacency_matrix(Diagram.all_white(2, 1))
        assert m == [[0, -1], [1, 0]]
        assert kernel_dim(m) == 0

    def test_all_white_2x2(self):
        m = white_adjacency_matrix(Diagram.all_white(2, 2))
        assert m == [
            [0, -1, -1, 0],
            [1, 0, 0, -1],
            [1, 0, 0, -1],
            [0, 1, 1, 0],
        ]
        assert kernel_dim(m) == 2

    def test_all_black_empty_matrix(self):
        m = white_adjacency_matrix(Diagram.all_black(2, 3))
        assert m == []
        assert kernel_dim(m) == 0

    @given(diagrams())
    def test_skew_symmetric_with_small_entries(self, d):
        m = white_adjacency_matrix(d)
        assert is_skew_symmetric(m)
        assert all(e in (-1, 0, 1) for row in m for e in row)

    @given(diagrams())
    def test_entries_follow_the_regions(self, d):
        # +1 towards squares above or left, -1 towards squares below or right
        m = white_adjacency_matrix(d)
        for i in range(1, len(m) + 1):
            regions = region_sets(d, i)
            for j in range(1, len(m) + 1):
                expected = (j in regions.above or j in regions.left) - (
                    j in regions.below or j in regions.right
                )
                assert m[i - 1][j - 1] == expected

    @given(diagrams())
    def test_kernel_parity_matches_white_count(self, d):
        m = white_adjacency_matrix(d)
        assert kernel_dim(m) % 2 == len(m) % 2


class TestPermMatrixSum:
    def test_all_black_doubles_every_entry(self):
        omega = all_black_permutation(2, 2)
        m = perm_matrix_sum(omega, omega)
        assert all(sorted(row) == [0, 0, 0, 2] for row in m)
        assert kernel_dim(m) == 0

    def test_identity_against_rotation_1x1(self):
        m = perm_matrix_sum(Permutation.identity(2), all_black_permutation(1, 1))
        assert m == [[1, 1], [1, 1]]
        assert kernel_dim(m) == 1

    def test_transposition_2x1(self):
        m = perm_matrix_sum(Permutation([2, 1, 3]), all_black_permutation(2, 1))
        assert kernel_dim(m) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            perm_matrix_sum(Permutation.identity(2), Permutation.identity(3))


class TestKernelEquality:
    @pytest.mark.parametrize(
        "m,n", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (1, 8)]
    )
    def test_both_kernels_agree_on_all_diagrams(self, m, n):
        # holds for every diagram, Cauchon or not
        for d in all_diagrams(m, n):
            assert kernel_dim(white_adjacency_matrix(d)) == kernel_dim(boundary_matrix(d))

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_odd_cycles_equal_kernel_dim(self, m, n):
        for d in all_diagrams(m, n):
            odd = odd_cycle_count(cycle_decomposition(toric_permutation(d)))
            assert odd == kernel_dim(white_adjacency_matrix(d))

    @pytest.mark.parametrize("m,n,step", [(5, 5, 1229), (4, 6, 977)])
    def test_three_way_equality_sampled_beyond_desk_scale(self, m, n, step):
        # exhaustive coverage stops at 16 cells; spot-check bigger grids by
        # striding through the enumeration stream
        from itertools import islice

        from hstrata import cauchon_diagrams

        checked = 0
        for d in islice(cauchon_diagrams(m, n), 0, None, step):
            odd = odd_cycle_count(cycle_decomposition(toric_permutation(d)))
            assert odd == kernel_dim(white_adjacency_matrix(d))
            assert odd == kernel_dim(boundary_matrix(d))
            checked += 1
        assert checked > 50


class TestCycleKernelBasis:
    def test_identity_has_empty_basis(self):
        assert cycle_kernel_basis(cycle_decomposition(Permutation.identity(4))) == ()

    def test_two_transpositions(self):
        cycles = cycle_decomposition(Permutation([3, 4, 1, 2]))
        assert cycle_kernel_basis(cycles) == ((1, 0, -1, 0), (0, 1, 0, -1))

    def test_three_cycle_has_empty_basis(self):
        assert cycle_kernel_basis(cycle_decomposition(Permutation([3, 1, 2]))) == ()

    @given(diagrams(max_m=4, max_n=4))
    def test_spans_the_boundary_kernel(self, d):
        cycles = cycle_decomposition(toric_permutation(d))
        basis = cycle_kernel_basis(cycles)
        pp = boundary_matrix(d)
        assert len(basis) == kernel_dim(pp)
        for v in basis:
            assert all(x == 0 for x in matvec(pp, v))


class TestSignCondition:
    # membership in the boundary kernel is equivalent to v_b == -v at the
    # toric image of b, for every label b

    @given(diagrams(max_m=4, max_n=4), st.data())
    def test_iff_on_random_vectors(self, d, data):
        k = d.m + d.n
        v = tuple(
            data.draw(st.integers(-2, 2), label=f"v[{i}]") for i in range(k)
        )
        tau = toric_permutation(d)
        sign_condition = all(v[b - 1] == -v[tau(b) - 1] for b in range(1, k + 1))
        in_kernel = all(x == 0 for x in matvec(boundary_matrix(d), v))
        assert sign_condition == in_kernel


class TestKernelMaps:
    def test_zero_maps_to_zero(self):
        d = Diagram.all_white(2, 2)
        assert to_square_kernel(d, (0, 0, 0, 0)) == (0, 0, 0, 0)
        assert to_boundary_kernel(d, (0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_single_white_square(self):
        d = Diagram.all_white(1, 1)
        assert to_square_kernel(d, (1, -1)) == (2,)

    def test_2x2_basis_vector(self):
        d = Diagram.all_white(2, 2)
        w = to_square_kernel(d, (1, 0, -1, 0))
        assert w == (1, -1, 1, 1)
        assert in_white_kernel(d, w)
        assert to_boundary_kernel(d, w) == (-2, 0, 2, 0)

    def test_rejects_vector_outside_boundary_kernel(self):
        d = Diagram.all_white(2, 2)
        with pytest.raises(ValueError, match="boundary kernel"):
            to_square_kernel(d, (1, 0, 0, 0))

    def test_rejects_vector_outside_white_kernel(self):
        d = Diagram.all_white(2, 2)
        with pytest.raises(ValueError, match="white-square kernel"):
            to_boundary_kernel(d, (1, 0, 0, 0))

    def test_length_mismatch(self):
        d = Diagram.all_white(2, 2)
        with pytest.raises(ValueError, match="length"):
            to_square_kernel(d, (1, 0))
        with pytest.raises(ValueError, match="length"):
            to_boundary_kernel(d, (1, 0))

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_compositions_scale_by_minus_two(self, m, n):
        for d in all_diagrams(m, n):
            cycles = cycle_decomposition(toric_permutation(d))
            for v in cycle_kernel_basis(cycles):
                w = to_square_kernel(d, v)
                assert to_boundary_kernel(d, w) == tuple(-2 * x for x in v)
            for w in kernel_basis(white_adjacency_matrix(d)):
                v = to_boundary_kernel(d, w)
                assert to_square_kernel(d, v) == tuple(-2 * x for x in w)

    def test_injective_on_kernel_bases(self):
        for d in all_diagrams(3, 3):
            basis = cycle_kernel_basis(cycle_decomposition(toric_permutation(d)))
            if not basis:
                continue
            images = [to_square_kernel(d, v) for v in basis]
            assert rank(images) == len(basis)


class TestInWhiteKernel:
    def test_zero_vector(self):
        d = Diagram.all_white(2, 2)
        assert in_white_kernel(d, (0, 0, 0, 0))

    def test_known_kernel_vector(self):
        d = Diagram.all_white(2, 2)
        assert in_white_kernel(d, (1, -1, 1, 1))

    def test_known_non_kernel_vector(self):
        d = Diagram.all_white(2, 2)
        assert not in_white_kernel(d, (1, 0, 0, 0))

    @given(diagrams(max_m=4, max_n=4), st.data())
    def test_agrees_with_matrix_product(self, d, data):
        w = tuple(
            data.draw(st.integers(-2, 2), label=f"w[{i}]") for i in range(len(d.white_squares()))
        )
        m = white_adjacency_matrix(d)
        assert in_white_kernel(d, w) == all(x == 0 for x in matvec(m, w))


class TestReconstructedExample:
    """The 4x4 ten-white-square regression diagram and its kernel vectors."""

    def test_golden_vectors(self):
        d = Diagram.parse(EXAMPLE_4X4)
        v = (1, 1, 0, -1, 0, -1, -1, 1)
        w = to_square_kernel(d, v)
        assert w == (-1, 1, -2, 1, -1, 2, 0, 0, 0, 2)
        assert in_white_kernel(d, w)
        assert to_boundary_kernel(d, w) == (-2, -2, 0, 2, 0, 2, 2, -2)

    def test_second_cycle_vector(self):
        d = Diagram.parse(EXAMPLE_4X4)
        v = (0, 0, 1, 0, -1, 0, 0, 0)
        w = to_square_kernel(d, v)
        assert in_white_kernel(d, w)
        assert to_boundary_kernel(d, w) == tuple(-2 * x for x in v)

    def test_kernel_dimensions(self):
        d = Diagram.parse(EXAMPLE_4X4)
        assert kernel_dim(white_adjacency_matrix(d)) == 2
        assert kernel_dim(boundary_matrix(d)) == 2
