"""The cross-check suite: the three routes against each other on every diagram.

run_verify sweeps every Cauchon diagram with at most a given number of
cells.  Per diagram it checks that the odd-cycle count equals both kernel
dimensions, the endpoint gluing identity and the two kernel maps; per
shape, the tally against the closed form.  _verify_sweep carries what those
checks read down the row prefixes of enumeration's one sweep.  The command
line caps the cells; nothing here does.
"""

from __future__ import annotations

from typing import Iterator

from .diagrams import Diagram
from .enumeration import _sweep
from .exactlinalg import (
    _boundary_image,
    _boundary_kernel_dim,
    _even_cycle_vectors,
    _identity,
    _in_boundary_kernel,
    _in_white_kernel,
    _phi_step,
    _square_image,
    _transfer_kernel_dim,
    kernel_basis,
    white_adjacency_matrix,
)
from .genfunc import poly_bernoulli, stratum_poly
from .pipedreams import _all_black_images, _permutations, _pipe_row


def run_verify(max_cells: int, inject_fault: bool = False) -> dict:
    """Cross-check suite over every Cauchon diagram with m*n <= max_cells.

    Checks, per diagram: the odd-cycle count equals both kernel dimensions,
    the white one taken both by full elimination and through the column
    transfer matrix of the diagram's own rows; the endpoint gluing identity
    for consecutive white squares; the two kernel maps compose to -2 times
    the identity on both kernel bases and land in the asserted kernels.
    Per shape: the enumerated tally matches the closed form and its total
    the poly-Bernoulli value.  Everything per diagram is int tuples and
    linear checks, with no Fraction arithmetic.  The diagrams come from one
    depth-first sweep (_verify_sweep) whose row prefixes build their pipe
    exits, line pattern, transfer matrix, endpoints and gluing verdict once
    for every diagram below.  The line pattern fixes the white matrix, so
    each distinct pattern's matrix is built from its first diagram,
    compared with the skew matrix the pattern gives (skew_symmetry) and
    solved by the full elimination once per run, with what depends on that
    matrix alone: whether each basis vector lies in the white kernel, and
    -2 times it.  Those verdicts count for every diagram that shares the
    pattern.  Each diagram still maps every basis vector through its own
    boundary map and checks the result.  The cycle side is one walk of the
    diagram's tau (_even_cycle_vectors): its even-length cycles, whose
    number is the odd-cycle count, each as its alternating kernel vector v
    paired with -2v, which the two maps must give back.  inject_fault
    flips one sign in one diagram's own matrix to demonstrate the suite's
    sensitivity.  An empty sweep would pass vacuously, so max_cells < 1 is
    a ValueError, and so is inject_fault with max_cells < 2, where no
    diagram has the two white squares the fault needs.
    """
    if max_cells < 1:
        raise ValueError("max_cells must be at least 1 for verify")
    if inject_fault and max_cells < 2:
        raise ValueError("inject_fault needs max_cells of at least 2")
    shapes = [
        (m, n)
        for m in range(1, max_cells + 1)
        for n in range(1, max_cells // m + 1)
    ]
    fault_pending = inject_fault
    diagrams = skew_failures = dim_failures = gluing_failures = iso_failures = tally_failures = 0
    # the line pattern fixes the white matrix and few patterns are distinct
    # (152 among the 2,670 diagrams of 9 cells), so each matrix is built,
    # compared with the pattern's and solved once per run, with its basis
    # vectors' white-kernel verdict and their -2w; every diagram still
    # counts both and puts the basis through its own boundary checks below
    solved: dict[tuple[int, ...], tuple[bool, bool, tuple]] = {}
    for m, n in shapes:
        omega = _all_black_images(m, n)
        tally: dict[int, int] = {}
        for rows, state in _verify_sweep(m, n):
            bottom, rights, squares, lines, _, phi, endpoints, glued = state
            entry = solved.get(lines)
            fault = fault_pending and len(squares) >= 2
            if entry is None or fault:
                mat = white_adjacency_matrix(Diagram._of_cells(rows))
                if fault:  # one sign flipped in this diagram's own matrix, kept out of the memo
                    mat[0][1], fault_pending = -mat[0][1], False
                span = range(len(lines))
                implied = [[(b >> j & 1) - (lines[j] >> i & 1) for j in span] for i, b in enumerate(lines)]
                basis = kernel_basis(mat)
                entry = (
                    mat == implied,
                    all(_in_white_kernel(squares, w) for w in basis),
                    tuple((w, tuple([-2 * e for e in w])) for w in basis),
                )
                if not fault:
                    solved[lines] = entry
            skew, in_white, sides = entry
            skew_failures += not skew

            # the permutation and its toric form are read off the sweep's exits,
            # and one walk of tau gives its even cycles' kernel vectors
            sigma, tau = _permutations(m, n, bottom, rights)
            cycle_side = _even_cycle_vectors(tau)
            odd = len(cycle_side)
            # the full elimination, the boundary matrix and the column transfer matrix
            dim_failures += not (
                odd == len(sides) == _boundary_kernel_dim(sigma, omega) == _transfer_kernel_dim(phi)
            )
            tally[odd] = tally.get(odd, 0) + 1

            gluing_failures += not glued

            # the two kernel maps: each basis vector lies in its source kernel,
            # its image in the other kernel, and mapping back gives -2 times it
            iso_ok = in_white
            for v, minus_2v in cycle_side:
                w = _square_image(endpoints, v)
                iso_ok &= (
                    _in_boundary_kernel(sigma, omega, v)
                    and _in_white_kernel(squares, w)
                    and _boundary_image(m, n, squares, w) == minus_2v
                )
            for w, minus_2w in sides:
                v = _boundary_image(m, n, squares, w)
                iso_ok &= _in_boundary_kernel(sigma, omega, v) and _square_image(endpoints, v) == minus_2w
            iso_failures += not iso_ok

        swept = sum(tally.values())
        diagrams += swept
        formula_tally = {dd: c for dd, c in enumerate(stratum_poly(m, n).coeffs) if c}
        tally_failures += tally != formula_tally or swept != poly_bernoulli(m, n)

    checks = {
        name: {"checked": checked, "failures": failed}
        for name, checked, failed in (
            ("skew_symmetry", diagrams, skew_failures),
            ("dimension_equality", diagrams, dim_failures),
            ("gluing_identity", diagrams, gluing_failures),
            ("iso_maps", diagrams, iso_failures),
            ("tally_vs_formula", len(shapes), tally_failures),
        )
    }
    failures = sum(c["failures"] for c in checks.values())
    return {
        "command": "verify",
        "max_cells": max_cells,
        "shapes": len(shapes),
        "diagrams": diagrams,
        "checks": checks,
        "failures": failures,
        "status": "ok" if failures == 0 else "fail",
    }


def _verify_sweep(m: int, n: int) -> Iterator[tuple[tuple, tuple]]:
    """(rows, state) for each m x n Cauchon diagram, in cauchon_diagrams order.

    The state holds what the per-diagram objects give: the last exit row
    (at a leaf, the bottom entries of sigma, as pipedreams._trace keeps it)
    and the rights tuple, the white squares, their lines, col_bits,
    phi, the squares' (left, top) endpoints and the gluing verdict.  Entry
    i of lines has bit j set when square j < i shares a row or a column
    with square i, which is where the white matrix is +1 below its
    diagonal, so equal lines mean equal white matrices; col_bits[c] has the
    bits of the squares so far in column c.  A square's endpoints are final
    once its row is passed, so each row glues its squares to the previous
    white square in the row and to the last one above in the column.  Each
    prefix builds its share once.
    """

    def step(state: tuple, cells: tuple[bool, ...]) -> tuple:
        above, rights, squares, lines, col_bits, phi, ends, glued = state
        r = len(rights) + 1
        up, right, new_ends = _pipe_row(above, cells, m + 1 - r)
        first = bit = 1 << len(squares)
        col_bits, new, new_lines, row_top = list(col_bits), [], [], None
        for c, black in enumerate(cells):
            if black:
                continue
            left, top = new_ends[len(new)]
            if new:  # row_top: the top endpoint of the white square before it in its row
                glued &= row_top == left
            prev = col_bits[c]  # the squares above it in its column
            if prev:  # the last of them is the next white square above it
                glued &= top == ends[prev.bit_length() - 1][0]
            new_lines.append(prev | (bit - first))  # bit - first: the squares left of it in its row
            col_bits[c] = prev | bit
            new.append((r, c + 1))
            bit <<= 1
            row_top = top
        phi = _phi_step(phi, cells)
        lines += tuple(new_lines)
        ends += tuple(new_ends)
        return up, rights + (right,), squares + tuple(new), lines, tuple(col_bits), phi, ends, glued

    root = (tuple(range(m + 1, m + n + 1)), (), (), (), (0,) * n, _identity(n), (), True)
    return _sweep(m, n, root, step)
