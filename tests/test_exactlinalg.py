from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstrata import (
    Diagram,
    all_black_permutation,
    cauchon_diagrams,
    cycle_decomposition,
    cycle_kernel_basis,
    in_white_kernel,
    kernel_basis,
    kernel_dim,
    odd_cycle_count,
    rank,
    to_boundary_kernel,
    to_square_kernel,
    toric_permutation,
    trace_permutation,
    white_adjacency_matrix,
)
from hstrata.exactlinalg import (
    _GCD_REDUCE_BOUND,
    _boundary_kernel_dim,
    _even_cycle_vectors,
    _identity,
    _in_boundary_kernel,
    _integer_rows,
    _pair_rank,
    _phi_plan,
    _phi_step,
    _pivot_rows,
    _transfer_kernel_dim,
    _white_kernel_dim,
)
from hstrata.pipedreams import Permutation, _even_cycle_count, _permutations
from hstrata.verify import _verify_sweep

from conftest import (
    SHAPES_UP_TO_9,
    SHAPES_UP_TO_12,
    all_diagrams,
    boundary_rows,
    cauchon_by_definition,
    cayley_dense,
    cycles_by_orbits,
    diagrams,
    kernel_basis_by_fractions,
    matvec,
    perm_matrix_sum,
    phi_dense,
    rank_by_minors,
    region_sets,
    transfer_matrix_dense,
)

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
        pivots = _pivot_rows(_integer_rows(white_adjacency_matrix(Diagram.all_white(k, k))))
        assert max(abs(v).bit_length() for row in pivots.values() for v in row.values()) <= 8

    def test_rows_past_the_bound_are_divided_by_their_gcd(self):
        # p*row - q*pivot_row is (0, g, 2g) for g = p*v - q*u, about -2^69,
        # which passes the bound, so the row is divided by gcd(g, 2g) = |g|
        p, q, u, v = 3**22, 2**35, 5**15, 7**12
        m = [[p, u, 2 * u], [q, v, 2 * v]]
        assert max(map(abs, m[0] + m[1])) < _GCD_REDUCE_BOUND < abs(p * v - q * u)
        assert rank(m) == rank_by_minors(m) == 2
        assert kernel_basis(m) == kernel_basis_by_fractions(m) == ((0, -2, 1),)
        pivots = _pivot_rows(_integer_rows(m))
        assert pivots[1] == {1: -1, 2: -2}
        assert all(abs(e) < _GCD_REDUCE_BOUND for row in pivots.values() for e in row.values())


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

    @given(small_matrices())
    def test_primitive_int_multiples_of_the_fraction_basis(self, m):
        # the free columns are where a column adds nothing to the rank
        cols = len(m[0])
        free = [c for c in range(cols) if rank([r[: c + 1] for r in m]) == rank([r[:c] for r in m])]
        basis = kernel_basis(m)
        oracle = kernel_basis_by_fractions(m)
        assert len(basis) == len(oracle) == len(free)
        for f, v, o in zip(free, basis, oracle):
            assert type(v) is tuple and all(type(x) is int for x in v)
            assert gcd(*v) == 1
            assert v[f] > 0 and all(v[g] == 0 for g in free if g != f)
            # o is 1 at f, so v is v[f] times o
            assert o[f] == 1 and all(x == v[f] * y for x, y in zip(v, o))

    def test_scales_past_a_pivot_that_does_not_divide(self):
        # x + 2y + 3z = 0 needs no scaling; 2x + 3y = 0 puts -3/2 at the
        # pivot of the first vector, which is therefore scaled by 2
        assert kernel_basis([[1, 2, 3]]) == ((-2, 1, 0), (-3, 0, 1))
        assert kernel_basis([[2, 3, 0]]) == ((-3, 2, 0), (0, 0, 1))
        assert kernel_basis([[Fraction(1, 2), Fraction(1, 3)]]) == ((-2, 3),)


class TestInputsUnchanged:
    """Elimination works in place, so every entry point must copy its rows."""

    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k
            )
        )
    )
    def test_int_matrix_is_not_mutated(self, m):
        before = [list(row) for row in m]
        rank(m)
        assert m == before
        kernel_dim(m)
        assert m == before
        kernel_basis(m)
        assert m == before

    def test_white_matrix_is_not_mutated(self):
        m = white_adjacency_matrix(Diagram.all_white(3, 3))
        before = [list(row) for row in m]
        assert kernel_dim(m) == len(kernel_basis(m)) == 3
        assert rank(m) == 6
        assert m == before


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
        assert [[-e for e in row] for row in m] == [list(col) for col in zip(*m)]
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


@st.composite
def permutation_pairs(draw):
    """(p, q) of size 1..12 with q = p * r, where r fixes a drawn set of points,
    so rows with p(i) = q(i) are common."""
    k = draw(st.integers(1, 12))
    p = draw(st.permutations(range(1, k + 1)))
    moved = [i for i in range(k) if draw(st.booleans(), label=f"moves {i + 1}")]
    r = list(range(1, k + 1))
    for i, j in zip(moved, draw(st.permutations(moved))):
        r[i] = j + 1
    return Permutation(p), Permutation(p[j - 1] for j in r)


def dense(rows, k):
    """Sparse rows of (column, entry) dicts as k dense columns."""
    return [[row.get(j, 0) for j in range(k)] for row in rows]


@st.composite
def pair_rows(draw):
    """(size, triples (a, b, t)) of size 1..12, each the row e_a + t e_b.

    The rows mix free draws, where a == b comes with either sign, a path
    e_0 +- e_1, e_1 +- e_2, ... that a later row led by column 0 reduces
    along its whole length, and copies of rows already drawn.
    """
    size = draw(st.integers(1, 12))
    col, sign = st.integers(0, size - 1), st.sampled_from((1, -1))
    rows = draw(st.lists(st.tuples(col, col, sign), max_size=size + 2))
    if draw(st.booleans(), label="path"):
        rows = [(i, i + 1, draw(sign)) for i in range(size - 1)] + rows
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2), label="copies")
    return size, draw(st.permutations(rows))


def pair_dense(rows, size):
    """The triples (a, b, t) as dense rows e_a + t e_b."""
    out = []
    for a, b, t in rows:
        row = [0] * size
        row[a] += 1
        row[b] += t
        out.append(row)
    return out


class TestPairRank:
    """The two-term elimination behind the boundary and transfer dimensions."""

    @settings(max_examples=400)
    @given(pair_rows())
    def test_matches_the_general_rank(self, drawn):
        size, rows = drawn
        # rank_by_minors tries every square submatrix, so it runs to size 6
        expected = rank(pair_dense(rows, size))
        if size <= 6:
            assert rank_by_minors(pair_dense(rows, size)) == expected
        assert _pair_rank(rows) == expected

    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([], 0),
            ([(2, 2, -1)], 0),  # (1 - 1) e_2
            ([(2, 2, 1)], 1),  # 2 e_2
            ([(0, 1, 1), (1, 0, 1)], 1),  # a repeated row, its ends swapped
            ([(0, 1, 1), (1, 0, -1)], 2),  # e_0 + e_1 and e_1 - e_0
            ([(0, 1, -1), (1, 2, -1), (2, 0, -1)], 2),  # a 3-cycle of differences
            ([(0, 1, 1), (1, 2, 1), (2, 0, 1)], 3),  # a 3-cycle of sums
            ([(0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, -1)], 3),  # along the path: e_0 - e_3
            ([(0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, 1)], 4),
            ([(0, 1, 1), (1, 1, 1), (0, 0, 1)], 2),
        ],
    )
    def test_small_cases(self, rows, expected):
        assert _pair_rank(rows) == expected == rank(pair_dense(rows, 4))


class TestBoundaryKernelDim:
    """The two-term elimination of P_p + P_q against the dense matrix and the general elimination."""

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 10) for n in range(1, 9 // m + 1)])
    def test_matches_dense_on_cauchon_diagrams(self, m, n):
        # the all-black diagram traces omega itself, so every row holds a 2
        omega = all_black_permutation(m, n)
        for d in cauchon_diagrams(m, n):
            sigma = trace_permutation(d)
            rows = boundary_rows(sigma.images, omega.images)
            assert dense(rows, m + n) == perm_matrix_sum(sigma, omega)
            dim = _boundary_kernel_dim(sigma.images, omega.images)
            assert dim == kernel_dim(perm_matrix_sum(sigma, omega)) == m + n - len(_pivot_rows(rows))

    @given(permutation_pairs())
    def test_matches_dense_on_random_pairs(self, pair):
        p, q = pair
        # a row with p(i) = q(i) holds 2, and 1 there would not change the rank
        rows = boundary_rows(p.images, q.images)
        assert dense(rows, p.size) == perm_matrix_sum(p, q)
        dim = _boundary_kernel_dim(p.images, q.images)
        assert dim == kernel_dim(perm_matrix_sum(p, q)) == p.size - len(_pivot_rows(rows))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            _boundary_kernel_dim(Permutation.identity(2).images, Permutation.identity(3).images)


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


def in_row_block(k):
    return white_adjacency_matrix(Diagram.all_white(1, k))


class TestColumnTransfer:
    """The row map (I + C)^-1 (C - I) and the kernel dimension dim ker(I + Phi)."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_cayley_is_a_signed_cyclic_shift(self, k):
        # the algebraic core of the dimension theorem: a row of k white
        # squares moves t[c_(i-1)] to c_i and -t[c_k] to c_1, which is the
        # toric permutation's step along the row
        shift = [[0] * k for _ in range(k)]
        shift[0][k - 1] = -1
        for i in range(1, k):
            shift[i][i - 1] = 1
        assert [list(row) for row in cayley_dense(k)] == shift
        assert shift == phi_dense(_phi_step(_identity(k), (False,) * k))

    @pytest.mark.parametrize("k", range(1, 65))
    def test_cayley_solves_its_system(self, k):
        # (I + C) S = C - I for the map S that _phi_plan writes down, added
        # up column by column since S has one entry +-1 per row
        c = in_row_block(k)
        plus = [[e + (i == j) for j, e in enumerate(row)] for i, row in enumerate(c)]
        minus = [[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(c)]
        product = [[0] * k for _ in range(k)]
        for t, e in enumerate(_phi_step(_identity(k), (False,) * k)):
            sign = -1 if e & 1 else 1  # S[t][e >> 1]
            for i in range(k):
                product[i][e >> 1] += plus[i][t] * sign
        assert product == minus

    @pytest.mark.parametrize("n", range(1, 6))
    def test_phi_step_is_the_dense_product(self, n):
        # every row of n cells, each from random signed-permutation states
        rng = random.Random(n)
        assert phi_dense(_identity(n)) == [[int(i == j) for j in range(n)] for i in range(n)]
        for cells in product((False, True), repeat=n):
            for _ in range(4):
                phi = tuple(2 * c + rng.randrange(2) for c in rng.sample(range(n), n))
                assert phi_dense(_phi_step(phi, cells)) == transfer_matrix_dense([cells], phi_dense(phi))

    def test_transfer_kernel_dim_on_every_signed_permutation(self):
        # the two tallies' reads agree on every state of size <= 6 (the lemma
        # in _transfer_kernel_dim's docstring); the dense oracle runs to size 4
        checked = 0
        for n in range(1, 7):
            for perm in permutations(range(n)):
                for signs in product((0, 1), repeat=n):
                    phi = tuple(2 * c + s for c, s in zip(perm, signs))
                    if n <= 4:
                        plus = [[e + (i == j) for j, e in enumerate(row)] for i, row in enumerate(phi_dense(phi))]
                        assert _transfer_kernel_dim(phi) == kernel_dim(plus)
                    assert _even_cycle_count(phi) == _transfer_kernel_dim(phi)
                    checked += 1
        assert checked == 50362

    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_12)
    def test_matches_full_elimination_on_cauchon_diagrams(self, m, n):
        for d in all_diagrams(m, n):
            if cauchon_by_definition(d):
                assert _white_kernel_dim(d.rows) == kernel_dim(white_adjacency_matrix(d))

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (2, 5)])
    def test_matches_full_elimination_on_every_coloring(self, m, n):
        # dim accepts non-Cauchon diagrams, so the identity must hold for all
        for d in all_diagrams(m, n):
            assert _white_kernel_dim(d.rows) == kernel_dim(white_adjacency_matrix(d))

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (2, 5)])
    def test_transposing_relabels_the_white_matrix(self, m, n):
        # "below" and "right" swap, so the relation of every pair is kept and
        # the rows of the diagram and of its transpose give the same kernel
        # dimension
        for d in all_diagrams(m, n):
            t = d.transpose()
            label = {(c, r): i for i, (r, c) in enumerate(d.white_squares())}
            order = [label[sq] for sq in t.white_squares()]
            mat = white_adjacency_matrix(d)
            assert white_adjacency_matrix(t) == [[mat[i][j] for j in order] for i in order]
            assert _white_kernel_dim(t.rows) == _white_kernel_dim(d.rows) == kernel_dim(mat)

    @given(diagrams(max_m=6, max_n=6))
    def test_matches_full_elimination_on_random_diagrams(self, d):
        assert _white_kernel_dim(d.rows) == kernel_dim(white_adjacency_matrix(d))

    def test_all_white_grid_past_desk_scale(self):
        # an all-white k x k grid has k odd cycles (kernel dimension k)
        assert _white_kernel_dim(Diagram.all_white(30, 30).rows) == 30
        assert _white_kernel_dim(Diagram.all_white(1, 900).rows) == 0
        # one white row of 2000 squares at the foot of a black 2000x2000 grid
        d = Diagram([[True] * 2000] * 1999 + [[False] * 2000])
        assert _white_kernel_dim(d.rows) == odd_cycle_count(cycle_decomposition(toric_permutation(d)))

    def test_leaves_the_row_plan_cache_alone(self):
        # the tallies reuse narrow rows' plans from _phi_plan's cache; one
        # grid's fold must not fill it with a wide plan per distinct row
        # (900 of them, 2000 columns wide, for a 900x2000 grid's diagonal)
        d = Diagram([[c != r for c in range(97)] for r in range(40)] + [[True] * 97])
        _phi_plan.cache_clear()
        assert _white_kernel_dim(d.rows) == odd_cycle_count(cycle_decomposition(toric_permutation(d)))
        assert _phi_plan.cache_info().currsize == 0

    def test_plans_a_repeated_row_once(self, monkeypatch):
        # all-black rows map by the identity, and a run of equal rows shares
        # the plan of its first row
        plan, planned = _phi_plan.__wrapped__, []

        def counted(cells):
            planned.append(cells)
            return plan(cells)

        monkeypatch.setattr(_phi_plan, "__wrapped__", counted)
        ends = (False, True, True, True, False)
        d = Diagram([[False] * 5] * 3 + [[True] * 5] + [ends] * 2 + [[False] * 5])
        assert _white_kernel_dim(d.rows) == kernel_dim(white_adjacency_matrix(d))
        assert planned == [(False,) * 5, ends, (False,) * 5]


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


class TestEvenCycleVectors:
    # cycle_decomposition and verify's _even_cycle_vectors read one walk
    # (pipedreams._cycle_walk), so both are checked against conftest's
    # orbits, which share no code with it: the cycles, and for each
    # even-length one its alternating vector v and -2 v

    @staticmethod
    def assert_matches_the_orbits(images):
        cycles = cycles_by_orbits(images)
        assert cycle_decomposition(Permutation(images)) == cycles
        expected = []
        for cycle in cycles:
            if len(cycle) % 2 == 0:
                sign = {a: (-1) ** i for i, a in enumerate(cycle)}
                v = tuple(sign.get(a, 0) for a in range(1, len(images) + 1))
                expected.append((v, tuple(-2 * x for x in v)))
        pairs = _even_cycle_vectors(images)
        assert pairs == expected
        assert len(pairs) == odd_cycle_count(cycles)
        assert [v for v, _ in pairs] == list(cycle_kernel_basis(cycles))

    @pytest.mark.parametrize("k", range(1, 8))
    def test_every_permutation_up_to_7(self, k):
        for images in permutations(range(1, k + 1)):
            self.assert_matches_the_orbits(images)

    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_12)
    def test_every_swept_tau_up_to_12_cells(self, m, n):
        for _, (bottom, rights, *_) in _verify_sweep(m, n):
            self.assert_matches_the_orbits(_permutations(m, n, bottom, rights)[1])


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


class TestInBoundaryKernel:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)])
    def test_agrees_with_the_matrix_product_row_by_row(self, m, n):
        # every vector with entries -1, 0, 1, and its half: among them are
        # vectors that break one row of P_sigma + P_omega alone, so a check
        # that skipped a row would pass one of them
        for d in all_diagrams(m, n):
            sigma, omega = trace_permutation(d), all_black_permutation(m, n)
            pp = boundary_matrix(d)
            for v in product((-1, 0, 1), repeat=m + n):
                in_kernel = all(x == 0 for x in matvec(pp, v))
                assert _in_boundary_kernel(sigma.images, omega.images, v) == in_kernel
                half = tuple(Fraction(x, 2) for x in v)
                assert _in_boundary_kernel(sigma.images, omega.images, half) == in_kernel


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

    def test_rational_vectors_map_as_the_integer_ones_scaled(self):
        # halves and thirds through both maps and the white-kernel test: each
        # image is the integer case scaled, and a sixth off either kernel raises
        d = Diagram.all_white(2, 2)
        v1, v2 = cycle_kernel_basis(cycle_decomposition(toric_permutation(d)))
        w1, w2 = to_square_kernel(d, v1), to_square_kernel(d, v2)

        def mix(x, y):  # half of x plus a third of y
            return tuple(Fraction(a, 2) + Fraction(b, 3) for a, b in zip(x, y))

        v = mix(v1, v2)
        w = to_square_kernel(d, v)
        assert w == mix(w1, w2)
        assert in_white_kernel(d, w)
        assert to_boundary_kernel(d, w) == mix(to_boundary_kernel(d, w1), to_boundary_kernel(d, w2))
        assert to_boundary_kernel(d, w) == tuple(-2 * x for x in v)
        sixth = Fraction(1, 6)
        for i in range(4):
            with pytest.raises(ValueError, match="boundary kernel"):
                to_square_kernel(d, (*v[:i], v[i] + sixth, *v[i + 1 :]))
            off = (*w[:i], w[i] + sixth, *w[i + 1 :])
            assert not in_white_kernel(d, off)
            with pytest.raises(ValueError, match="white-square kernel"):
                to_boundary_kernel(d, off)

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

    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_9)
    def test_kernel_bases_of_every_small_diagram(self, m, n):
        # the running sums against the dense product: every basis vector
        # passes, and adding 1 to its first entry passes exactly when the
        # matrix sends it to zero
        for d in all_diagrams(m, n):
            mat = white_adjacency_matrix(d)
            for w in kernel_basis(mat):
                assert in_white_kernel(d, w)
                shifted = (w[0] + 1, *w[1:])
                assert in_white_kernel(d, shifted) == all(x == 0 for x in matvec(mat, shifted))


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
