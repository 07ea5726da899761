"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

The heavy sweeps are session fixtures shared between criteria: one walk over
every Cauchon diagram with at most 16 cells (criteria 1, 3, 5) and one walk
over every diagram, Cauchon or not, with at most 12 cells (criterion 4).
The verdict lines are echoed in the terminal summary after the run.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from hstrata import (
    Diagram,
    all_black_permutation,
    asymptotic_proportion,
    cauchon_diagrams,
    closed_form_coeffs,
    cycle_decomposition,
    cycle_kernel_basis,
    double_factorial_coeff,
    in_white_kernel,
    kernel_basis,
    kernel_dim,
    odd_cycle_count,
    poly_bernoulli,
    poly_bernoulli_series,
    series_pipeline_check,
    single_cycle_count,
    stratum_count,
    stratum_poly,
    stratum_series,
    to_boundary_kernel,
    to_square_kernel,
    trace_permutation,
    white_adjacency_matrix,
)
from hstrata.exactlinalg import _boundary_kernel_dim

from conftest import acceptance_lines, matvec, perm_matrix_sum
from test_genfunc import GOLDEN_ROWS


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    acceptance_lines.append(line)
    print("\n" + line)
    assert ok, line


def shapes_up_to(max_cells: int) -> list[tuple[int, int]]:
    return [
        (m, n)
        for m in range(1, max_cells + 1)
        for n in range(1, max_cells // m + 1)
    ]


@pytest.fixture(scope="session")
def cauchon_sweep():
    """Per-shape statistics over every Cauchon diagram with mn <= 16."""
    results = {}
    kdim_cache: dict = {}
    for m, n in shapes_up_to(16):
        omega = all_black_permutation(m, n)
        omega_inv = omega.inverse()
        tally: Counter = Counter()
        count = 0
        singles = 0
        equality_failures = 0
        for d in cauchon_diagrams(m, n):
            count += 1
            sigma = trace_permutation(d)
            cycles = cycle_decomposition(sigma * omega_inv)
            odd = odd_cycle_count(cycles)
            mat = white_adjacency_matrix(d)
            key = tuple(map(tuple, mat))
            kd = kdim_cache.get(key)
            if kd is None:
                kd = kernel_dim(mat)
                kdim_cache[key] = kd
            kp = _boundary_kernel_dim(sigma.images, omega.images)
            if not (odd == kd == kp):
                equality_failures += 1
            tally[odd] += 1
            if len(cycles) == 1:
                singles += 1
        results[(m, n)] = {
            "count": count,
            "tally": dict(tally),
            "single_cycles": singles,
            "equality_failures": equality_failures,
        }
    return results


@pytest.fixture(scope="session")
def iso_sweep():
    """Kernel-map checks over every diagram (any coloring) with mn <= 12."""
    diagrams = 0
    vectors = 0
    failures = 0
    for m, n in shapes_up_to(12):
        omega = all_black_permutation(m, n)
        for bits in product((False, True), repeat=m * n):
            d = Diagram([bits[i * n : (i + 1) * n] for i in range(m)])
            diagrams += 1
            sigma = trace_permutation(d)
            pp = perm_matrix_sum(sigma, omega)
            cycles = cycle_decomposition(sigma * omega.inverse())
            for v in cycle_kernel_basis(cycles):
                vectors += 1
                try:
                    w = to_square_kernel(d, v)
                    ok = in_white_kernel(d, w)
                    ok &= to_boundary_kernel(d, w) == tuple(-2 * x for x in v)
                except ValueError:
                    ok = False
                if not ok:
                    failures += 1
            for w in kernel_basis(white_adjacency_matrix(d)):
                vectors += 1
                try:
                    v = to_boundary_kernel(d, w)
                    ok = all(x == 0 for x in matvec(pp, v))
                    ok &= to_square_kernel(d, v) == tuple(-2 * x for x in w)
                except ValueError:
                    ok = False
                if not ok:
                    failures += 1
    return {"diagrams": diagrams, "vectors": vectors, "failures": failures}


def test_criterion_1_three_way_dimension_equality(cauchon_sweep):
    """Odd-cycle count == white-matrix kernel == boundary-matrix kernel."""
    total = sum(r["count"] for r in cauchon_sweep.values())
    failures = sum(r["equality_failures"] for r in cauchon_sweep.values())
    ok = failures == 0 and len(cauchon_sweep) == len(shapes_up_to(16))
    verdict(
        1,
        "three-way dimension equality, mn<=16",
        ok,
        f"{total} diagrams, {len(cauchon_sweep)} shapes, {failures} failures",
    )


def test_criterion_2_closed_form_table(cauchon_sweep):
    """Golden coefficient rows exact; the (4,0) row via enumeration."""
    bad = [key for key, row in GOLDEN_ROWS.items() if closed_form_coeffs(*key).coeffs != row]
    cf40 = closed_form_coeffs(4, 0)
    bad += [
        (4, 0, n)
        for n in range(1, 5)
        if cf40.evaluate(n) != cauchon_sweep[(4, n)]["tally"].get(0, 0)
    ]
    spots = {(2, 1, 0): 2, (2, 2, 0): 5, (2, 3, 0): 17, (3, 3, 0): 70}
    bad += [key for key, value in spots.items() if stratum_count(*key) != value]
    verdict(
        2,
        "closed-form table rows + spot values",
        not bad,
        f"{len(GOLDEN_ROWS)} golden rows, (4,0) vs enumeration, 4 spot values"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_3_census_totals(cauchon_sweep):
    """Enumerated diagram counts equal the poly-Bernoulli numbers."""
    bad = [
        shape
        for shape, result in cauchon_sweep.items()
        if result["count"] != poly_bernoulli(*shape)
    ]
    spots = {(1, 1): 2, (2, 1): 4, (2, 2): 14, (3, 3): 230}
    bad += [shape for shape, value in spots.items() if cauchon_sweep[shape]["count"] != value]
    verdict(
        3,
        "census totals vs poly-Bernoulli, mn<=16",
        not bad,
        f"{len(cauchon_sweep)} shapes, spots 2/4/14/230"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_4_kernel_isomorphism(iso_sweep):
    """Both map compositions equal -2*id and land in the stated kernels."""
    ok = iso_sweep["failures"] == 0 and iso_sweep["vectors"] > 0
    verdict(
        4,
        "kernel maps, every diagram mn<=12",
        ok,
        f"{iso_sweep['diagrams']} diagrams, {iso_sweep['vectors']} basis vectors, "
        f"{iso_sweep['failures']} failures",
    )


def test_criterion_5_single_cycle_counts(cauchon_sweep):
    """Diagrams whose toric permutation is one full cycle match the formula."""
    bad = [
        shape
        for shape, result in cauchon_sweep.items()
        if result["single_cycles"] != single_cycle_count(*shape)
    ]
    spots_ok = (
        cauchon_sweep[(1, 1)]["single_cycles"] == 1
        and cauchon_sweep[(2, 2)]["single_cycles"] == 3
    )
    verdict(
        5,
        "single-cycle diagram counts, mn<=16",
        not bad and spots_ok,
        "all shapes, spots d(1,1)=1 and d(2,2)=3"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_6_series_oracle():
    """Truncated series expansion agrees with the closed form everywhere."""
    series = stratum_series(4, 4)
    totals = poly_bernoulli_series(4, 4)
    bad = [
        (m, n)
        for m in range(1, 5)
        for n in range(1, 5)
        if series.egf_coeff(m, n) != stratum_poly(m, n)
        or totals.egf_coeff(m, n)(0) != poly_bernoulli(m, n)
    ]
    pipeline_ok = series_pipeline_check(4, 4)
    verdict(
        6,
        "series oracle to order (4,4)",
        not bad and pipeline_ok,
        "trivariate vs closed form, totals, exponential-formula pipeline"
        + (f"; mismatches: {bad}" if bad else "")
        + ("" if pipeline_ok else "; pipeline check failed"),
    )


def test_criterion_7_leading_coefficient():
    """c_{m+1}(m,d) equals 2^-m times the odd-product coefficient, m <= 6."""
    bad = [
        (m, d)
        for m in range(1, 7)
        for d in range(0, m + 2)
        if closed_form_coeffs(m, d).coeff(m + 1)
        != Fraction(double_factorial_coeff(m, d), 2**m)
    ]
    verdict(
        7,
        "leading closed-form coefficient, m<=6",
        not bad,
        "all d exact" + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_8_asymptotic_gap():
    """|h(2,n,0)/total - 3/8| < 1/1000 at n = 40, evaluated exactly."""
    n = 40
    count = closed_form_coeffs(2, 0).evaluate(n)
    total = poly_bernoulli(2, n)
    gap = abs(Fraction(count, total) - asymptotic_proportion(2, 0))
    verdict(
        8,
        "asymptotic gap at n=40",
        gap < Fraction(1, 1000),
        f"exact gap {gap} = {float(gap):.3e}, threshold 1/1000",
    )
