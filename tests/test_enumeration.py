from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice, product

import pytest

from hstrata import (
    Diagram,
    Permutation,
    StratumTally,
    all_black_permutation,
    cauchon_diagrams,
    closed_form_coeffs,
    cycle_decomposition,
    diagram_from_permutation,
    kernel_dim,
    poly_bernoulli,
    single_cycle_count,
    stratum_poly,
    tally_dimensions,
    toric_permutation,
    trace_permutation,
    white_adjacency_matrix,
)
from hstrata import enumeration
from hstrata.cli import _enum_counts, main

from conftest import (
    SHAPES_UP_TO_12,
    all_diagrams,
    cauchon_by_definition,
    count_set_partitions,
    frontier_by_dict,
    random_cauchon,
    tally_by_objects,
)

# every shape with a side of at most 4 and none past 12, and a long one
FRONTIER_SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 13) if min(m, n) <= 4] + [(25, 5)]

# the 2x2 cycles tally as count --cache-dir has always written it
TALLY_2X2_JSON = '{"m": 2, "n": 2, "counts": {"0": "5", "1": "7", "2": "2"}, "total": "14"}'


def solve_exactly(augmented):
    """The solution of a nonsingular square system given as augmented rows."""
    rows = [[Fraction(x) for x in row] for row in augmented]
    size = len(rows)
    for c in range(size):
        piv = next(i for i in range(c, size) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(size):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[size] for row in rows]


class TestCauchonDiagrams:
    @pytest.mark.parametrize("m,n,count", [(1, 1, 2), (2, 1, 4), (2, 2, 14), (3, 3, 230)])
    def test_counts(self, m, n, count):
        assert sum(1 for _ in cauchon_diagrams(m, n)) == count

    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_12)
    def test_matches_brute_force(self, m, n):
        expected = {d for d in all_diagrams(m, n) if cauchon_by_definition(d)}
        generated = list(cauchon_diagrams(m, n))
        assert len(generated) == len(set(generated)) == len(expected)
        assert set(generated) == expected

    def test_deterministic_order(self):
        first = [d.serialize() for d in cauchon_diagrams(2, 3)]
        second = [d.serialize() for d in cauchon_diagrams(2, 3)]
        assert first == second
        # lexicographic in row-major cells with white before black, which is
        # the order all_diagrams walks every coloring in
        key = lambda s: s.replace("\n", "").translate({ord("."): "0", ord("#"): "1"})
        assert first == sorted(first, key=key)
        for m, n in SHAPES_UP_TO_12:
            expected = [d for d in all_diagrams(m, n) if cauchon_by_definition(d)]
            assert list(cauchon_diagrams(m, n)) == expected

    def test_takes_the_sweeps_rows_as_they_are(self, monkeypatch):
        # the sweep's leaves are nonempty, equal-length tuples of bools, so
        # the stream builds its diagrams without Diagram's checks
        expected = [d for d in all_diagrams(3, 3) if cauchon_by_definition(d)]
        init, calls = Diagram.__init__, []

        def counted(self, rows):
            calls.append(rows)
            init(self, rows)

        monkeypatch.setattr(Diagram, "__init__", counted)
        stream = list(cauchon_diagrams(3, 3))
        assert calls == []
        assert stream == expected
        assert all(type(row) is tuple and len(row) == 3 for d in stream for row in d.rows)
        assert all(type(cell) is bool for d in stream for row in d.rows for cell in row)

    def test_rows_are_listed_once_per_mask(self, monkeypatch):
        # every prefix ending in a column mask reads one list of its rows
        row_choices, masks = enumeration._row_choices, []

        def counted(n, col_black):
            masks.append(col_black)
            return row_choices(n, col_black)

        monkeypatch.setattr(enumeration, "_row_choices", counted)
        for m, n in [(3, 3), (4, 3), (2, 5), (5, 2), (6, 1)]:
            masks.clear()
            stream = list(cauchon_diagrams(m, n))
            assert len(masks) == len(set(masks))
            assert stream == [d for d in all_diagrams(m, n) if cauchon_by_definition(d)]

    def test_masks_past_the_budget_are_streamed(self, monkeypatch):
        # once a sweep has listed _LISTED_ROWS rows, the rows of a mask not
        # yet listed are generated at each visit, in the same order as a
        # listed mask's
        monkeypatch.setattr(enumeration, "_LISTED_ROWS", 4)
        for m, n in [(3, 3), (4, 3), (2, 5), (3, 4)]:
            expected = [d for d in all_diagrams(m, n) if cauchon_by_definition(d)]
            assert list(cauchon_diagrams(m, n)) == expected

    def test_listed_rows_are_bounded_per_sweep(self):
        # a 2 x n sweep reaches each of its 2^n second-row masks once: listing
        # them all would keep about 2 * 3^n rows (21 MB at n = 10), where the
        # budget keeps _LISTED_ROWS rows however many masks are reached
        tracemalloc.start()
        try:
            assert sum(1 for _ in enumeration._sweep(2, 10, None, lambda state, cells: None)) == 117074
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_lazy_at_the_cell_limit(self):
        # 1x25 admits 2^25 rows: a sweep that listed the allowed rows of
        # every column mask, or kept its diagrams, would exceed this bound
        tracemalloc.start()
        try:
            for m, n in [(1, 25), (25, 1)]:
                stream = cauchon_diagrams(m, n)
                assert next(stream) == Diagram.all_white(m, n)
                assert sum(1 for _ in islice(stream, 999)) == 999
            tally_dimensions(1, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cell_limit(self):
        # the stream refuses no shape: its callers bound what they walk, and
        # a grid taller than the recursion limit is walked like any other
        for m, n in [(5, 6), (30, 30), (2000, 1)]:
            assert next(cauchon_diagrams(m, n)) == Diagram.all_white(m, n)

    def test_positive_sizes_required(self):
        with pytest.raises(ValueError):
            cauchon_diagrams(0, 2)


class TestPolyBernoulli:
    @pytest.mark.parametrize(
        "m,n,value", [(1, 1, 2), (2, 1, 4), (2, 2, 14), (3, 3, 230), (4, 4, 6902)]
    )
    def test_known_values(self, m, n, value):
        assert poly_bernoulli(m, n) == value

    def test_symmetry(self):
        for m in range(0, 6):
            for n in range(0, 6):
                assert poly_bernoulli(m, n) == poly_bernoulli(n, m)

    def test_degenerate_sizes(self):
        assert poly_bernoulli(0, 5) == 1
        assert poly_bernoulli(5, 0) == 1
        with pytest.raises(ValueError):
            poly_bernoulli(-1, 2)

    @pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 3), (2, 4), (1, 8)])
    def test_counts_cauchon_diagrams(self, m, n):
        brute = sum(1 for d in all_diagrams(m, n) if cauchon_by_definition(d))
        assert poly_bernoulli(m, n) == brute


class TestTallyDimensions:
    def test_1x1(self):
        assert tally_dimensions(1, 1).counts == {0: 1, 1: 1}

    def test_2x1(self):
        tally = tally_dimensions(2, 1)
        assert tally.counts == {0: 2, 1: 2}
        assert tally.total == 4

    def test_2x2(self):
        assert tally_dimensions(2, 2).counts == {0: 5, 1: 7, 2: 2}

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2), (2, 4), (3, 3), (1, 6)])
    def test_methods_agree(self, m, n):
        assert tally_dimensions(m, n, "cycles") == tally_dimensions(m, n, "kernel")

    @pytest.mark.parametrize("method", ["cycles", "kernel"])
    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_12)
    def test_matches_object_path(self, m, n, method):
        assert tally_dimensions(m, n, method).counts == tally_by_objects(m, n, method)

    @pytest.mark.parametrize("m,n", [(2, 3), (1, 5), (3, 3)])
    def test_transpose_symmetry(self, m, n):
        a = tally_dimensions(m, n)
        b = tally_dimensions(n, m)
        assert a.counts == b.counts

    def test_dimension_bound(self):
        # count's cache rejects a dimension past min(m, n), so the bound must be sharp
        for m, n in [(1, 4), (2, 3), (3, 3), (2, 4)]:
            tally = tally_dimensions(m, n)
            assert max(tally.counts) == min(m, n)
        for m in range(1, 12):
            for n in range(1, 12):
                assert len(stratum_poly(m, n).coeffs) - 1 == min(m, n)

    def test_total_is_poly_bernoulli(self):
        for m, n in [(1, 1), (2, 3), (3, 3), (2, 5)]:
            assert tally_dimensions(m, n).total == poly_bernoulli(m, n)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            tally_dimensions(2, 2, "guess")

    @pytest.mark.parametrize("method", ["cycles", "kernel"])
    @pytest.mark.parametrize("m,n", [(40, 3), (20, 4), (8, 5)])
    def test_kernel_tally_past_the_cell_cap(self, m, n, method):
        # merged frontier states keep the cost exponential only in the short
        # side, so the tallies reach shapes far past any walk over their diagrams
        poly = stratum_poly(m, n)
        expected = {d: int(c) for d, c in enumerate(poly.coeffs) if c}
        assert tally_dimensions(m, n, method).counts == expected

    @pytest.mark.parametrize("m,n", FRONTIER_SHAPES)
    def test_compiled_frontier_matches_the_dict_frontier(self, m, n):
        # interned keys stepped along successor lists give the final states
        # and counts of the frontier keyed by tuples, and so both tallies
        finals = frontier_by_dict(m, n)
        assert enumeration._frontier(m, n) == finals
        for method, read in enumeration._ROUTES.items():
            expected: Counter = Counter()
            for state, count in finals.items():
                expected[read(state)] += count
            assert tally_dimensions(m, n, method).counts == expected

    def test_compiled_frontier_at_width_6(self):
        # 75,973 keys, each stepped once into its successor list
        finals = enumeration._frontier(20, 6)
        expected = {d: int(c) for d, c in enumerate(stratum_poly(20, 6).coeffs) if c}
        for read in enumeration._ROUTES.values():
            counts: Counter = Counter()
            for state, count in finals.items():
                counts[read(state)] += count
            assert counts == expected

    @pytest.mark.parametrize("method", ["cycles", "kernel"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vandermonde_fit_gives_the_closed_form(self, n, method):
        # h(m, n, d) = sum_k c_k k^m over the bases 1-n..n+1 (k != 0): fit
        # the c_k exactly to the tallies at m = 1..2n, with no Stirling sums
        bases = [k for k in range(1 - n, n + 2) if k]
        tallies = {m: tally_dimensions(m, n, method) for m in range(1, 2 * n + 2)}
        for d in range(n + 1):
            system = [[k**m for k in bases] + [tallies[m].counts.get(d, 0)] for m in range(1, 2 * n + 1)]
            c = dict(zip(bases, solve_exactly(system)))
            assert {k: v for k, v in c.items() if v} == closed_form_coeffs(n, d).coeffs
            predicted = sum(v * k ** (2 * n + 1) for k, v in c.items())
            assert predicted == tallies[2 * n + 1].counts.get(d, 0)

    def test_kernel_route_reads_no_pipes(self, monkeypatch):
        # both tallies step the column transfer matrix, so neither traces a pipe
        from hstrata import exactlinalg, pipedreams
        from hstrata.exactlinalg import _white_kernel_dim

        def refuse(*args, **kwargs):
            raise AssertionError("the kernel route traced a pipe")

        for module, name in [
            (pipedreams, "_trace"),
            (pipedreams, "_pipe_row"),
            (exactlinalg, "_trace"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        # the patches take effect: tracing a diagram now fails
        with pytest.raises(AssertionError, match="traced a pipe"):
            pipedreams.trace_permutation(Diagram.all_white(2, 2))
        expected = {d: int(c) for d, c in enumerate(stratum_poly(4, 4).coeffs) if c}
        for method in ("cycles", "kernel"):
            assert tally_dimensions(4, 4, method).counts == expected
        assert _white_kernel_dim(Diagram.parse("..#.\n..##\n#...\n#..#").rows) == 2
        for d in [Diagram.all_white(3, 5), Diagram.parse("#..\n.#.\n..#\n#..")]:
            assert _white_kernel_dim(d.rows) == kernel_dim(white_adjacency_matrix(d))

    def test_broken_kernel_plan_changes_the_tally(self, monkeypatch):
        # both tallies against the closed form: one row of the state negated
        # by every row step must show in either read
        plan = enumeration._phi_plan

        def flipped(cells):
            gather, mask = plan(cells)
            return gather, (mask[0] ^ 1, *mask[1:])

        monkeypatch.setattr(enumeration, "_phi_plan", flipped)
        expected = {d: int(c) for d, c in enumerate(stratum_poly(4, 4).coeffs) if c}
        for method in ("cycles", "kernel"):
            assert tally_dimensions(4, 4, method).counts != expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_kernel_and_cycles_plans_agree(self, n):
        # the row map of the white matrix, read off the white columns, is the
        # pipes' step along the row, read off the pipe row rule: on column
        # positions the rule gives the column each pipe continues, and the
        # pipe leaving the row on the left re-enters it on the right, so the
        # first white column takes the right one's pipe, one label further on
        from hstrata.exactlinalg import _phi_plan
        from hstrata.pipedreams import _pipe_row

        cols = tuple(range(n))
        for cells in product((False, True), repeat=n):
            src, right, _ = _pipe_row(cols, cells, -1)
            mask = [0] * n
            if right >= 0:
                first = cells.index(False)
                src[first], mask[first] = right, 1
            gather, phi_mask = _phi_plan(cells)
            assert (gather(cols), phi_mask) == (tuple(src), tuple(mask))

    # the tally cache belongs to count --cache-dir, so these cases run its helper
    def test_cache_round_trip(self, tmp_path):
        counts = _enum_counts(2, 2, tmp_path)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        again = _enum_counts(2, 2, tmp_path)
        assert again == counts == tally_dimensions(2, 2).counts

    def test_cache_is_read_back(self, tmp_path):
        _enum_counts(2, 2, tmp_path)
        path = next(tmp_path.iterdir())
        # wrong but plausible: in range, summing to poly_bernoulli(2, 2)
        path.write_text('{"m": 2, "n": 2, "counts": {"0": "6", "1": "6", "2": "2"}, "total": "14"}')
        assert _enum_counts(2, 2, tmp_path) == {0: 6, 1: 6, 2: 2}

    def test_cache_for_another_shape_is_recomputed(self, tmp_path):
        path = tmp_path / "tally-v1-2x2-cycles.json"
        path.write_text(
            '{"m": 3, "n": 3, "counts": {"0": "70", "1": "109", "2": "45", "3": "6"}, "total": "230"}'
        )
        assert _enum_counts(2, 2, tmp_path) == {0: 5, 1: 7, 2: 2}
        assert path.read_text() == TALLY_2X2_JSON
        # plausible counts for 2x2, so only the shape fields give it away
        path.write_text('{"m": 3, "n": 3, "counts": {"0": "6", "1": "6", "2": "2"}, "total": "14"}')
        assert _enum_counts(2, 2, tmp_path) == {0: 5, 1: 7, 2: 2}
        assert path.read_text() == TALLY_2X2_JSON

    def test_cache_with_wrong_total_is_recomputed(self, tmp_path):
        path = tmp_path / "tally-v1-2x2-cycles.json"
        path.write_text('{"m": 2, "n": 2, "counts": {"0": "5", "1": "7"}, "total": "12"}')
        assert _enum_counts(2, 2, tmp_path) == {0: 5, 1: 7, 2: 2}

    @pytest.mark.parametrize(
        "text",
        [
            '{"m": 2, "n": 2, "coun',
            "",
            "[]",
            '{"m": 2}',
            '{"m": 2, "n": 2, "counts": {"0": "20", "1": "-6"}, "total": "14"}',
            # counts that are not integers, though they truncate to the right ones
            '{"m": 2, "n": 2, "counts": {"0": 5.9, "1": "7", "2": 2.1}, "total": "14"}',
            # dimension 7 cannot occur on a 2x2 grid, whatever the total says
            '{"m": 2, "n": 2, "counts": {"0": "13", "7": "1"}, "total": "14"}',
            # the total field disagrees with the counts, or with poly_bernoulli(2, 2)
            '{"m": 2, "n": 2, "counts": {"0": "5", "1": "7"}, "total": "14"}',
            '{"m": 2, "n": 2, "counts": {"0": "5", "1": "7", "2": "2"}, "total": "15"}',
        ],
    )
    def test_corrupt_cache_is_recomputed(self, tmp_path, text):
        path = tmp_path / "tally-v1-2x2-cycles.json"
        path.write_text(text)
        assert _enum_counts(2, 2, tmp_path) == {0: 5, 1: 7, 2: 2}
        assert path.read_text() == TALLY_2X2_JSON

    def test_cache_write_leaves_no_temp_file(self, tmp_path):
        _enum_counts(2, 2, tmp_path)
        _enum_counts(2, 1, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "tally-v1-1x2-cycles.json",
            "tally-v1-2x2-cycles.json",
        ]

    def test_cache_env_var(self, tmp_path, monkeypatch, capsys):
        # the environment does not turn the cache on; only --cache-dir does
        monkeypatch.setenv("HSTRATA_CACHE_DIR", str(tmp_path))
        assert main(["count", "2", "1", "--method", "enum"]) == 0
        assert not any(tmp_path.iterdir())
        assert main(["count", "2", "1", "--method", "enum", "--cache-dir", str(tmp_path)]) == 0
        assert any("1x2" in p.name for p in tmp_path.iterdir())


class TestStratumTally:
    def test_json_matches_documented_shape(self, tmp_path):
        # the bytes of a cache file stay as they were first written, so files
        # written before and after a change are read back by either
        _enum_counts(2, 2, tmp_path)
        assert (tmp_path / "tally-v1-2x2-cycles.json").read_text() == TALLY_2X2_JSON

    def test_total_invariant_enforced(self):
        # total is derived from the counts, so the two cannot disagree
        tally = StratumTally(1, 1, {0: 1, 1: 1})
        assert tally.total == 2
        with pytest.raises(AttributeError):
            tally.total = 5

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            StratumTally(1, 1, {0: 3, 1: -1})

    def test_zero_counts_dropped(self):
        tally = StratumTally(1, 1, {1: 1, 0: 1, 2: 0})
        assert tally.counts == {0: 1, 1: 1}
        assert list(tally.counts) == [0, 1]


class TestSingleCycleCount:
    @pytest.mark.parametrize("m,n,value", [(1, 1, 1), (2, 1, 1), (2, 2, 3), (3, 3, 31)])
    def test_known_values(self, m, n, value):
        assert single_cycle_count(m, n) == value

    def test_stirling_backing(self):
        # brute-force set-partition counts feed the same formula
        from math import factorial

        m, n = 3, 4
        expected = sum(
            factorial(k) * factorial(k - 1) * count_set_partitions(m, k) * count_set_partitions(n, k)
            for k in range(1, min(m, n) + 1)
        )
        assert single_cycle_count(m, n) == expected

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3), (3, 3), (2, 4), (1, 5)])
    def test_matches_enumeration(self, m, n):
        fullcycles = 0
        for d in cauchon_diagrams(m, n):
            if len(cycle_decomposition(toric_permutation(d))) == 1:
                fullcycles += 1
        assert fullcycles == single_cycle_count(m, n)


class TestDiagramFromPermutation:
    def test_rotation_gives_all_black(self):
        d = diagram_from_permutation(all_black_permutation(2, 2), 2, 2)
        assert d == Diagram.all_black(2, 2)

    def test_identity_gives_all_white(self):
        d = diagram_from_permutation(Permutation.identity(4), 2, 2)
        assert d == Diagram.all_white(2, 2)

    def test_non_restricted_not_found(self):
        assert diagram_from_permutation(Permutation([4, 3, 2, 1]), 2, 2) is None

    def test_every_restricted_permutation_is_realized(self):
        # the trace is a bijection between Cauchon diagrams and restricted
        # permutations, so lookups succeed exactly on the restricted ones,
        # poly_bernoulli(m, n) of them, for every shape with m + n <= 7
        from itertools import permutations as iperm

        from hstrata import is_restricted

        for m in range(1, 7):
            for n in range(1, 8 - m):
                found = 0
                for images in iperm(range(1, m + n + 1)):
                    p = Permutation(images)
                    d = diagram_from_permutation(p, m, n)
                    if is_restricted(p, m, n):
                        assert d.is_cauchon() and trace_permutation(d) == p
                        found += 1
                    else:
                        assert d is None
                assert found == poly_bernoulli(m, n)

    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_12)
    def test_round_trip(self, m, n):
        for d in cauchon_diagrams(m, n):
            assert diagram_from_permutation(trace_permutation(d), m, n) == d

    @pytest.mark.parametrize("m,n", [(30, 30), (5, 200), (200, 5)])
    def test_round_trip_past_the_old_cap(self, m, n):
        rng = random.Random(m * 1000 + n)
        cases = [random_cauchon(rng, m, n, p) for p in (0.3, 0.6, 0.9)]
        if m == n:
            cases += [Diagram.all_black(100, 100), Diagram.all_white(100, 100)]
        for d in cases:
            assert d.is_cauchon()
            assert diagram_from_permutation(trace_permutation(d), d.m, d.n) == d

    def test_walks_no_enumeration(self, monkeypatch):
        def walked(*args, **kwargs):
            raise AssertionError("lookup walked the enumeration")

        monkeypatch.setattr(enumeration, "cauchon_diagrams", walked)
        assert diagram_from_permutation(all_black_permutation(3, 4), 3, 4) == Diagram.all_black(3, 4)
        assert diagram_from_permutation(Permutation([1, 3, 2]), 2, 1) == Diagram.parse("#\n.")

    def test_wrong_trace_is_an_error(self, monkeypatch, capsys):
        # a diagram that does not trace to the permutation is a gap in the
        # reading, not a not-found
        monkeypatch.setattr(enumeration, "_trace", lambda d: (Permutation.identity(d.m + d.n).images, (), ()))
        with pytest.raises(ArithmeticError):
            diagram_from_permutation(all_black_permutation(2, 2), 2, 2)
        assert main(["lookup", "[3,4,1,2]", "2", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            diagram_from_permutation(Permutation.identity(3), 2, 2)
