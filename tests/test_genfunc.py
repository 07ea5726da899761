from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hstrata import (
    ClosedForm,
    RatPoly,
    TruncatedSeries3,
    asymptotic_proportion,
    closed_form_coeffs,
    double_factorial_coeff,
    double_factorial_poly,
    poly_bernoulli,
    poly_bernoulli_series,
    series_pipeline_check,
    single_cycle_count,
    stirling2,
    stratum_count,
    stratum_poly,
    stratum_series,
    tally_dimensions,
)
from hstrata import genfunc

from conftest import (
    closed_form_coeffs_by_triple_sum,
    count_set_partitions,
    falling_factorial_poly,
    poly_bernoulli_by_double_sum,
    series_exp_by_powers,
    series_inverse_by_geometric_sum,
    series_log,
    series_pow_by_exp_log,
    single_cycle_count_by_double_sum,
    stirling2_by_alternating_sum,
    stratum_poly_by_triple_sum,
    stratum_series_by_exp_log,
)

F = Fraction

# long shapes m x n with m > n, past the triple-sum oracle's m <= 10
LONG_SHAPES = [(40, 3), (30, 7), (25, 12)]

# Golden closed-form coefficient rows; the (4,0) row is deliberately absent
# and is pinned against enumeration instead (see
# TestClosedForm.test_4_0_against_enumeration).
GOLDEN_ROWS = {
    (2, 0): {3: F(3, 4), 2: F(-1, 2), 1: F(1, 2), -1: F(-1, 4)},
    (2, 1): {3: F(1), 2: F(-1, 2)},
    (2, 2): {3: F(1, 4), 1: F(-1, 2), -1: F(1, 4)},
    (3, 0): {4: F(15, 8), 3: F(-9, 4), 2: F(13, 8), -1: F(-3, 4), -2: F(3, 8)},
    (3, 3): {4: F(1, 8), 2: F(-3, 8), -2: F(-1, 8)},
    (4, 4): {5: F(1, 16), 3: F(-1, 4), 1: F(3, 8), -1: F(-1, 4), -3: F(1, 16)},
    (5, 0): {
        6: F(945, 32),
        5: F(-525, 8),
        4: F(2025, 32),
        3: F(-30),
        2: F(23, 16),
        -2: F(225, 32),
        -3: F(-75, 8),
        -4: F(105, 32),
    },
}


polys = st.lists(st.fractions(max_denominator=6), max_size=5).map(RatPoly)


class TestRatPoly:
    def test_normalization_and_degree(self):
        # trailing zeros are dropped, so the degree is len(coeffs) - 1
        assert RatPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert RatPoly([]).coeffs == ()
        assert RatPoly([0, 0]).coeffs == ()
        assert not RatPoly([0])
        assert RatPoly([0, 1]).coeff(5) == 0

    def test_coefficients_are_fractions(self):
        half = F(1, 2)
        p = RatPoly([3, half, True])
        assert all(type(c) is F for c in p.coeffs)
        assert p.coeffs == (3, half, 1)
        assert p.coeffs[1] is half  # kept, not re-wrapped

    def test_evaluation(self):
        p = RatPoly([3, 4, 1])  # 3 + 4t + t^2
        assert p(0) == 3
        assert p(1) == 8
        assert p(F(1, 2)) == F(21, 4)

    def test_division_and_power(self):
        t = RatPoly([0, 1])
        assert (t + 1) * (t + 1) == RatPoly([1, 2, 1])
        assert RatPoly([2, 4]) * F(1, 2) == RatPoly([1, 2])

    @given(polys, polys, polys)
    def test_ring_identities(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert not (p - p)

    @given(polys, polys, st.fractions(max_denominator=4))
    def test_evaluation_is_a_homomorphism(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)


class TestStirling:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_against_partition_enumeration(self, n):
        for k in range(0, n + 2):
            assert stirling2(n, k) == count_set_partitions(n, k)

    def test_specific_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(0, 0) == 1
        assert stirling2(5, 0) == 0
        assert all(stirling2(n, 1) == 1 for n in range(1, 10))

    def test_alternating_sum_identity(self):
        for n in range(0, 21):
            for k in range(0, 21):
                assert stirling2(n, k) == stirling2_by_alternating_sum(n, k)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)

    def test_single_sums_match_the_double_sums(self):
        # Kaneko's single sum and the surjection-row sum against the double
        # sums over the inclusion-exclusion Stirling numbers
        for m in range(31):
            for n in range(31):
                assert poly_bernoulli(m, n) == poly_bernoulli_by_double_sum(m, n)
                if m and n:
                    assert single_cycle_count(m, n) == single_cycle_count_by_double_sum(m, n)

    @pytest.mark.parametrize("m,n", [(3, 2000), (2000, 3)])
    def test_a_long_side_needs_no_recursion(self, m, n):
        # a Stirling recursion n deep raised RecursionError here
        assert poly_bernoulli(m, n) == poly_bernoulli_by_double_sum(m, n)
        assert single_cycle_count(m, n) == single_cycle_count_by_double_sum(m, n)
        assert stirling2(max(m, n), 3) == stirling2_by_alternating_sum(max(m, n), 3)


class TestFallingFactorial:
    def test_t_squared_minus_t(self):
        assert falling_factorial_poly(RatPoly([0, 1]), 2) == RatPoly([0, -1, 1])

    def test_affine_argument(self):
        half = RatPoly([F(1, 2), F(-1, 2)])  # (1 - t)/2
        assert falling_factorial_poly(half, 1) == half
        neg = RatPoly([F(-1, 2), F(-1, 2)])  # -(1 + t)/2
        assert falling_factorial_poly(neg, 2)(1) == 2

    def test_empty_product(self):
        assert falling_factorial_poly(RatPoly([0, 1]), 0) == RatPoly([1])
        with pytest.raises(ValueError):
            falling_factorial_poly(RatPoly([0, 1]), -1)


class TestStratumCount:
    @pytest.mark.parametrize(
        "m,n,expected",
        [
            (1, 1, [1, 1]),
            (2, 1, [2, 2]),
            (2, 2, [5, 7, 2]),
            (3, 1, [4, 4]),
        ],
    )
    def test_small_profiles(self, m, n, expected):
        profile = [stratum_count(m, n, d) for d in range(len(expected))]
        assert profile == expected

    def test_spot_values(self):
        assert stratum_count(2, 1, 0) == 2
        assert stratum_count(2, 2, 0) == 5
        assert stratum_count(2, 3, 0) == 17
        assert stratum_count(3, 3, 0) == 70

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2), (2, 4), (3, 3), (1, 6)])
    def test_matches_enumeration(self, m, n):
        tally = tally_dimensions(m, n)
        top = (m + n) // 2
        for d in range(0, top + 2):
            assert stratum_count(m, n, d) == tally.counts.get(d, 0)

    def test_matches_enumeration_beyond_acceptance_scale(self):
        # 4x5 sits outside the exhaustive acceptance sweeps (20 cells)
        tally = tally_dimensions(4, 5)
        assert tally.total == poly_bernoulli(4, 5)
        for d in range(0, 6):
            assert stratum_count(4, 5, d) == tally.counts.get(d, 0)

    def test_symmetry_in_m_and_n(self):
        # the long shapes build their tables far past the triple-sum oracle's
        # m <= 10, and the two orientations build different tables
        shapes = [(m, n) for m in range(1, 7) for n in range(1, 7)] + LONG_SHAPES
        for m, n in shapes:
            assert stratum_poly(m, n) == stratum_poly(n, m)

    def test_totals_are_poly_bernoulli(self):
        shapes = [(m, n) for m in range(1, 7) for n in range(1, 7)] + LONG_SHAPES
        for m, n in shapes:
            assert stratum_poly(m, n)(1) == poly_bernoulli(m, n)
            assert stratum_poly(n, m)(1) == poly_bernoulli(m, n)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_fraction_triple_sum(self, m):
        for n in range(1, 11):
            assert stratum_poly(m, n) == stratum_poly_by_triple_sum(m, n)

    def test_second_n_at_same_m_is_not_served_from_the_first(self):
        # the engine caches per m only; a cache keyed by m alone must still
        # give each n its own polynomial, in any call order
        calls = [(5, 3), (5, 7), (4, 7), (5, 3), (4, 2), (5, 1)]
        got = [stratum_poly(m, n) for m, n in calls]
        assert got == [stratum_poly_by_triple_sum(m, n) for m, n in calls]
        assert len(set(got)) == 5

    def test_non_integral_table_is_an_error(self, monkeypatch):
        # a table whose k^n sums are odd cannot be divided by 2^m exactly
        monkeypatch.setattr(genfunc, "_closed_table", lambda m: ((1, (1, 0)),))
        with pytest.raises(ArithmeticError):
            stratum_poly(1, 3)

    def test_negative_count_is_an_error(self, monkeypatch):
        monkeypatch.setattr(genfunc, "_closed_table", lambda m: ((1, (-2, 0)),))
        assert stratum_poly(1, 3).coeff(0) == -1
        with pytest.raises(ArithmeticError, match="negative"):
            stratum_count(1, 3, 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            stratum_count(2, 0, 0)
        with pytest.raises(ValueError):
            stratum_count(0, 2, 0)
        with pytest.raises(ValueError):
            stratum_count(2, 2, -1)


class TestClosedForm:
    @pytest.mark.parametrize("m,d", sorted(GOLDEN_ROWS))
    def test_golden_rows(self, m, d):
        assert closed_form_coeffs(m, d).coeffs == GOLDEN_ROWS[(m, d)]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_fraction_triple_sum(self, m):
        for d in range(0, m + 2):
            assert closed_form_coeffs(m, d).coeffs == closed_form_coeffs_by_triple_sum(m, d)

    def test_second_d_at_same_m_is_not_served_from_the_first(self):
        calls = [(6, 2), (6, 0), (3, 0), (6, 2), (6, 6)]
        got = [closed_form_coeffs(m, d).coeffs for m, d in calls]
        assert got == [closed_form_coeffs_by_triple_sum(m, d) for m, d in calls]
        assert got[0] != got[1]

    def test_4_0_against_enumeration(self):
        cf = closed_form_coeffs(4, 0)
        for n in range(1, 5):
            assert cf.evaluate(n) == tally_dimensions(4, n).counts.get(0, 0)

    def test_evaluate_matches_count(self):
        # evaluate sums one column of the table, stratum_poly all of it
        for m in range(1, 6):
            for d in range(0, m + 2):
                cf = closed_form_coeffs(m, d)
                for n in range(1, 7):
                    assert cf.evaluate(n) == stratum_poly(m, n).coeff(d)

    def test_non_integral_sum_is_an_error(self):
        with pytest.raises(ArithmeticError):
            ClosedForm(1, 0, {2: F(1, 3)}).evaluate(1)

    def test_non_integral_column_is_an_error(self, monkeypatch):
        # the same odd table that stratum_poly rejects, read one column at a time
        monkeypatch.setattr(genfunc, "_closed_table", lambda m: ((1, (1, 0)),))
        with pytest.raises(ArithmeticError):
            closed_form_coeffs(1, 0).evaluate(3)

    def test_leading_coefficient(self):
        # the coefficient of (m+1)^n is 2^-m times the t^d coefficient of
        # (t+1)(t+3)...(t+2m-1), for every d
        for m in range(1, 7):
            for d in range(0, m + 2):
                cf = closed_form_coeffs(m, d)
                expected = F(double_factorial_coeff(m, d), 2**m)
                assert cf.coeff(m + 1) == expected

    def test_no_zero_base(self):
        for m in range(1, 5):
            for d in range(0, m + 1):
                assert 0 not in closed_form_coeffs(m, d).coeffs

    def test_json_matches_documented_shape(self):
        assert closed_form_coeffs(2, 0).to_json_dict() == {
            "m": 2,
            "d": 0,
            "coeffs": {"3": "3/4", "2": "-1/2", "1": "1/2", "-1": "-1/4"},
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedForm(2, 0, {0: F(1)})
        with pytest.raises(ValueError):
            ClosedForm(2, 0, {5: F(1)})
        with pytest.raises(ValueError):
            closed_form_coeffs(2, 0).evaluate(0)


class TestDoubleFactorialPoly:
    def test_m_equals_2(self):
        assert double_factorial_poly(2) == RatPoly([3, 4, 1])
        assert [double_factorial_coeff(2, d) for d in (0, 1, 2)] == [3, 4, 1]

    def test_m_equals_1(self):
        assert double_factorial_poly(1) == RatPoly([1, 1])

    @pytest.mark.parametrize("m", range(1, 9))
    def test_coefficients_are_elementary_symmetric_sums(self, m):
        # the t^d coefficient of (t+1)(t+3)...(t+2m-1) is e_(m-d)(1, 3, ..., 2m-1)
        odd = range(1, 2 * m, 2)
        for d in range(m + 2):
            expected = sum(prod(c) for c in combinations(odd, m - d)) if d <= m else 0
            assert double_factorial_coeff(m, d) == expected

    def test_value_at_one_is_even_factorial(self):
        for m in range(1, 8):
            assert double_factorial_poly(m)(1) == 2**m * factorial(m)


class TestAsymptoticProportion:
    def test_known_values(self):
        assert asymptotic_proportion(2, 0) == F(3, 8)
        assert asymptotic_proportion(2, 1) == F(1, 2)
        assert asymptotic_proportion(1, 0) == F(1, 2)
        assert asymptotic_proportion(1, 1) == F(1, 2)

    def test_proportions_sum_to_one(self):
        for m in range(1, 9):
            assert sum(asymptotic_proportion(m, d) for d in range(m + 1)) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_proportion(2, 3)
        with pytest.raises(ValueError):
            asymptotic_proportion(2, -1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_convergence_with_geometric_envelope(self, m):
        # the exact gap |h(m,n,d)/total - limit| falls below 1/1000 by n=40
        # and is dominated by C * (m/(m+1))^n with C fitted on early terms
        ratio = F(m, m + 1)
        for d in range(m + 1):
            cf = closed_form_coeffs(m, d)
            limit = asymptotic_proportion(m, d)

            def gap(n):
                return abs(F(cf.evaluate(n), poly_bernoulli(m, n)) - limit)

            scale = max(gap(n) / ratio**n for n in range(5, 21))
            for n in range(21, 41):
                assert gap(n) <= scale * ratio**n
            assert gap(40) < F(1, 1000)


SERIES_ORDERS = [(1, 1), (1, 4), (3, 2), (4, 4), (5, 5)]
# squares up to 8 and the long thin shapes, for the mirror square and its product
MIRROR_ORDERS = [(k, k) for k in range(1, 9)] + [(3, 6), (6, 3), (1, 8), (8, 1)]
ALPHA = RatPoly([F(-1, 2), F(-1, 2)])  # -(1+t)/2


def _positive_base(max_x: int, max_y: int) -> TruncatedSeries3:
    """F = e^x + e^y - 1."""
    ex = TruncatedSeries3.exponential
    return ex(max_x, max_y, 1, 0) + ex(max_x, max_y, 0, 1) - 1


def _dense_series(max_x: int, max_y: int, constant: RatPoly) -> TruncatedSeries3:
    """A series with every coefficient nonzero and depending on t."""
    rows = [
        [RatPoly([F(i - 2 * j + 1, i + j + 1), F((-1) ** i, j + 2)]) for j in range(max_y + 1)]
        for i in range(max_x + 1)
    ]
    rows[0][0] = constant
    return TruncatedSeries3(max_x, max_y, rows)


def _symmetric_series(order: int, constant: RatPoly) -> TruncatedSeries3:
    """A square series with c[i][j] == c[j][i], every coefficient nonzero and depending on t.

    The entries depend on i + j and on i * j, so the series is no function
    of x + y or of x * y alone.
    """
    rows = [
        [RatPoly([F(i + j + 1, i * j + 2), F((-1) ** (i + j), i * j + 1)]) for j in range(order + 1)]
        for i in range(order + 1)
    ]
    rows[0][0] = constant
    return TruncatedSeries3(order, order, rows)


def _mirror(s: TruncatedSeries3) -> TruncatedSeries3:
    """s(-x, -y)."""
    rows = [
        [
            s.egf_coeff(i, j) * F((-1) ** (i + j), factorial(i) * factorial(j))
            for j in range(s.max_y + 1)
        ]
        for i in range(s.max_x + 1)
    ]
    return TruncatedSeries3(s.max_x, s.max_y, rows)


class TestSeries:
    def test_exponential_coefficient_normalization(self):
        s = TruncatedSeries3.exponential(3, 3, 1, 1)  # e^(x+y)
        ordinary = [[RatPoly([F(1, factorial(i) * factorial(j))]) for j in range(4)] for i in range(4)]
        assert s == TruncatedSeries3(3, 3, ordinary)
        assert s.egf_coeff(2, 1) == RatPoly([1])

    def test_egf_coeff_rejects_indices_past_the_orders(self):
        s = TruncatedSeries3.exponential(3, 2, 1, 1)  # every egf coefficient is 1
        for i, j in [(0, 0), (3, 0), (0, 2), (3, 2)]:
            assert s.egf_coeff(i, j) == RatPoly([1])
        for i, j in [(-1, 0), (4, 0), (0, -1), (0, 3)]:
            with pytest.raises(ValueError, match="truncation orders 3, 2"):
                s.egf_coeff(i, j)

    def test_stratum_series_matches_closed_form(self):
        series = stratum_series(4, 4)
        for m in range(1, 5):
            for n in range(1, 5):
                assert series.egf_coeff(m, n) == stratum_poly(m, n)

    def test_total_series_matches_poly_bernoulli(self):
        series = poly_bernoulli_series(4, 4)
        for m in range(1, 5):
            for n in range(1, 5):
                assert series.egf_coeff(m, n) == RatPoly([poly_bernoulli(m, n)])

    def test_pipeline_check_small_orders(self):
        for k in range(1, 7):
            assert series_pipeline_check(k, k)

    def test_pipeline_check_reads_each_count_once(self, monkeypatch):
        calls = []

        def counted(i, j):
            calls.append((i, j))
            return single_cycle_count(i, j)

        monkeypatch.setattr(genfunc, "single_cycle_count", counted)
        assert series_pipeline_check(3, 4)
        assert sorted(calls) == [(i, j) for i in range(1, 4) for j in range(1, 5)]

    @pytest.mark.parametrize("cell", [(2, 2), (1, 2)], ids=["even", "odd"])
    def test_pipeline_check_marks_every_length(self, monkeypatch, cell):
        # one count perturbed at an even-length cell, then at an odd-length
        # one, with the total series made to agree, so part (b) must see it
        def perturbed(i, j):
            return single_cycle_count(i, j) + ((i, j) == cell)

        def total(max_x, max_y):
            d_series = TruncatedSeries3.from_egf_values(max_x, max_y, perturbed)
            return TruncatedSeries3.exponential(max_x, max_y, 1, 1) * d_series.exp()

        monkeypatch.setattr(genfunc, "single_cycle_count", perturbed)
        monkeypatch.setattr(genfunc, "poly_bernoulli_series", total)
        assert not series_pipeline_check(3, 3)

    def test_pipeline_check_detects_perturbation(self, monkeypatch):
        def perturbed(i, j):
            return single_cycle_count(i, j) + (1 if (i, j) == (2, 2) else 0)

        monkeypatch.setattr(genfunc, "single_cycle_count", perturbed)
        assert not series_pipeline_check(3, 3)

    def test_pipeline_check_compares_the_t_marked_formula(self, monkeypatch):
        # part (a) does not read stratum_series, so only part (b) can see this
        off_by_one = stratum_series(3, 3) + TruncatedSeries3.from_egf_values(
            3, 3, lambda i, j: 1 if (i, j) == (2, 2) else 0
        )
        monkeypatch.setattr(genfunc, "stratum_series", lambda max_x, max_y: off_by_one)
        assert not series_pipeline_check(3, 3)

    def test_exp_requires_zero_constant(self):
        s = TruncatedSeries3.constant(2, 2, 1)
        with pytest.raises(ValueError, match="constant"):
            s.exp()

    def test_log_and_inverse_require_unit_constant(self):
        zero = TruncatedSeries3(2, 2)
        with pytest.raises(ValueError, match="constant"):
            series_log(zero)
        with pytest.raises(ValueError, match="constant"):
            zero.pow_poly(-1)
        with pytest.raises(ValueError, match="constant"):
            zero.pow_poly(RatPoly([0, 1]))

    def test_log_inverts_exp(self):
        rows = [[RatPoly() for _ in range(4)] for _ in range(4)]
        rows[1][0] = RatPoly([1])
        rows[1][1] = RatPoly([0, F(1, 2)])
        rows[0][2] = RatPoly([F(-1, 3)])
        s = TruncatedSeries3(3, 3, rows)
        assert series_log(s.exp()) == s

    @pytest.mark.parametrize("order", [(1, 1), (2, 3), (4, 2), (3, 5), (5, 5)])
    def test_stratum_series_matches_exp_log_route(self, order):
        assert stratum_series(*order) == stratum_series_by_exp_log(*order)

    @pytest.mark.parametrize("order", SERIES_ORDERS)
    def test_mirror_of_the_positive_factor_is_the_negative_one(self, order):
        # G(x, y) = F(-x, -y): the coefficients of odd total degree change sign
        ex = TruncatedSeries3.exponential
        f = ex(*order, 1, 0) + ex(*order, 0, 1) - 1
        g = ex(*order, -1, 0) + ex(*order, 0, -1) - 1
        assert _mirror(f) == g

    @pytest.mark.parametrize("order", SERIES_ORDERS)
    def test_the_next_power_is_one_product(self, order):
        ex = TruncatedSeries3.exponential
        f = ex(*order, 1, 0) + ex(*order, 0, 1) - 1
        alpha = RatPoly([F(-1, 2), F(-1, 2)])
        assert f.pow_poly(alpha + 1) == f.pow_poly(alpha) * f

    @pytest.mark.parametrize("order", [(4, 4), (3, 5)])
    def test_stratum_series_solves_one_recurrence(self, monkeypatch, order):
        calls = []
        recurrence = TruncatedSeries3._recurrence

        def counted(self, p, q):
            calls.append((p, q))
            return recurrence(self, p, q)

        monkeypatch.setattr(TruncatedSeries3, "_recurrence", counted)
        stratum_series(*order)
        assert len(calls) == 1

    @pytest.mark.parametrize("m", range(1, 9))
    def test_one_coefficient_matches_the_full_series(self, m):
        # stratum_series shares the power and the grid products with the one
        # coefficient; the closed form shares neither
        for n in range(1, 9):
            coeff = genfunc._stratum_series_coeff(m, n)
            assert coeff == stratum_series(m, n).egf_coeff(m, n)
            assert coeff == stratum_poly(m, n)

    @pytest.mark.parametrize("order", MIRROR_ORDERS)
    def test_mirror_square_is_the_product_with_the_mirror(self, order):
        # H(-x, -y) H(x, y) for H = F^alpha and for a series with no structure
        for h in (_positive_base(*order).pow_poly(ALPHA), _dense_series(*order, RatPoly([1]))):
            product = _mirror(h) * h
            grid, den = h._integer_grid()
            rows = [[RatPoly([F(v, den * den) for v in c]) for c in row] for row in genfunc._mirror_square(grid)]
            assert TruncatedSeries3(*order, rows) == product
            for i in range(order[0] + 1):
                for j in range(1 - i % 2, order[1] + 1, 2):
                    assert not product.egf_coeff(i, j)

    @pytest.mark.parametrize("order", MIRROR_ORDERS)
    def test_stratum_series_is_the_two_factor_product(self, order):
        # G^alpha F^(alpha+1) as two recurrences and one dense product
        f = _positive_base(*order)
        assert stratum_series(*order) == _mirror(f.pow_poly(ALPHA)) * f.pow_poly(ALPHA + 1)

    def test_stratum_series_skips_zero_products(self, monkeypatch):
        # the dense G^alpha (H F) took 2 * 28^2 = 1,568 calls at (6, 6); the
        # mirror square and the product over F's 13 nonzero terms take 383
        calls = []
        add_product = genfunc._add_product

        def counted(*args):
            calls.append(args)
            return add_product(*args)

        monkeypatch.setattr(genfunc, "_add_product", counted)
        stratum_series(6, 6)
        assert len(calls) <= 400

    @pytest.mark.parametrize("m", range(1, 9))
    def test_poly_bernoulli_series_is_the_quotient(self, m):
        # (e^-x + e^-y - 1)^-1 = e^(x+y) / (e^x + e^y - e^(x+y))
        ex = TruncatedSeries3.exponential
        for n in range(1, 9):
            numerator = ex(m, n, 1, 1)
            quotient = numerator * (ex(m, n, 1, 0) + ex(m, n, 0, 1) - numerator).pow_poly(-1)
            assert poly_bernoulli_series(m, n) == quotient

    @pytest.mark.parametrize("order", SERIES_ORDERS)
    def test_exp_matches_power_sum(self, order):
        g = _dense_series(*order, constant=RatPoly())
        assert g.exp() == series_exp_by_powers(g)

    @pytest.mark.parametrize("order", SERIES_ORDERS)
    def test_inverse_matches_geometric_sum(self, order):
        f = _dense_series(*order, constant=RatPoly([1]))
        assert f.pow_poly(-1) == series_inverse_by_geometric_sum(f)

    @pytest.mark.parametrize("order", SERIES_ORDERS)
    def test_pow_poly_matches_exp_log(self, order):
        f = _dense_series(*order, constant=RatPoly([1]))
        exponent = RatPoly([F(1, 2), F(-1, 2)])
        assert f.pow_poly(exponent) == series_pow_by_exp_log(f, exponent)
        assert f.pow_poly(3) == f * f * f

    @pytest.mark.parametrize("order", range(1, 6))
    def test_symmetric_half_matches_the_oracles(self, order):
        # a square, symmetric input solves only j >= i and mirrors the rest
        g = _symmetric_series(order, RatPoly())
        assert g.exp() == series_exp_by_powers(g)
        f = _symmetric_series(order, RatPoly([1]))
        assert f.pow_poly(ALPHA) == series_pow_by_exp_log(f, ALPHA)
        assert f.pow_poly(-1) == series_inverse_by_geometric_sum(f)

    def test_symmetric_input_solves_half_the_grid(self, monkeypatch):
        # the same nonzero pattern made asymmetric in one coefficient takes
        # the full loop; the symmetric one solves 20 of the 35 coefficients
        # and makes 495 products against 840
        f = _symmetric_series(5, RatPoly([1]))
        rows = [list(row) for row in f._coeffs]
        rows[1][0] = rows[1][0] + 1
        skewed = TruncatedSeries3(5, 5, rows)
        mul, products = RatPoly.__mul__, []

        def counted(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(RatPoly, "__mul__", counted)
        counts = []
        for s in (f, skewed):
            products.clear()
            s.pow_poly(ALPHA)
            counts.append(len(products))
        assert 3 * counts[0] < 2 * counts[1]

    @pytest.mark.parametrize("m, n", [(3, 5), (2, 6)])
    def test_transposing_keeps_the_counts(self, m, n):
        # the premise of the half-grid solve, checked on rectangles, which
        # take the full loop
        s, t = stratum_series(m, n), stratum_series(n, m)
        for i in range(m + 1):
            for j in range(n + 1):
                assert s.egf_coeff(i, j) == t.egf_coeff(j, i)

    def test_inverse_is_reciprocal(self):
        s = TruncatedSeries3.exponential(3, 3, 1, -1)
        product = s * s.pow_poly(-1)
        assert product == TruncatedSeries3.constant(3, 3, 1)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries3.constant(2, 2, 1) + TruncatedSeries3.constant(3, 3, 1)

    def test_truncation_orders_validated(self):
        with pytest.raises(ValueError):
            TruncatedSeries3(0, 2)

    def test_binomial_theorem_via_pow_poly(self):
        # (e^x + e^y - 1)^2 computed through exp/log agrees with direct squaring
        base = (
            TruncatedSeries3.exponential(3, 3, 1, 0)
            + TruncatedSeries3.exponential(3, 3, 0, 1)
            - 1
        )
        assert base.pow_poly(2) == base * base
