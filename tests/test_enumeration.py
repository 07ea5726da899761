from __future__ import annotations

import json
import tracemalloc
from itertools import islice

import pytest

from hstrata import (
    Diagram,
    EnumerationLimitError,
    Permutation,
    StratumTally,
    all_black_permutation,
    cauchon_diagrams,
    cycle_decomposition,
    diagram_from_permutation,
    poly_bernoulli,
    single_cycle_count,
    tally_dimensions,
    toric_permutation,
    trace_permutation,
)

from conftest import (
    SHAPES_UP_TO_12,
    all_diagrams,
    cauchon_by_definition,
    count_set_partitions,
    tally_by_objects,
)


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

    def test_lazy_at_the_cell_limit(self):
        # 1x25 admits 2^25 rows: a sweep that tabulated the allowed rows of
        # a column mask, or kept its diagrams, would exceed this bound
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
        with pytest.raises(EnumerationLimitError, match="closed-form"):
            cauchon_diagrams(5, 6)
        # explicit limit override works both ways
        assert sum(1 for _ in cauchon_diagrams(2, 2, max_cells=4)) == 14
        with pytest.raises(EnumerationLimitError):
            cauchon_diagrams(2, 3, max_cells=5)

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
        # odd cycles have even length >= 2, so at most floor((m+n)/2) of them
        for m, n in [(1, 4), (2, 3), (3, 3), (2, 4)]:
            tally = tally_dimensions(m, n)
            assert max(tally.dimensions()) <= (m + n) // 2

    def test_total_is_poly_bernoulli(self):
        for m, n in [(1, 1), (2, 3), (3, 3), (2, 5)]:
            assert tally_dimensions(m, n).total == poly_bernoulli(m, n)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            tally_dimensions(2, 2, "guess")

    def test_cache_round_trip(self, tmp_path):
        tally = tally_dimensions(2, 2, cache_dir=tmp_path)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        again = tally_dimensions(2, 2, cache_dir=tmp_path)
        assert again == tally

    def test_cache_is_read_back(self, tmp_path):
        tally_dimensions(2, 2, cache_dir=tmp_path)
        path = next(tmp_path.iterdir())
        planted = StratumTally.from_counts(2, 2, {0: 13, 7: 1})
        path.write_text(json.dumps(planted.to_json_dict()))
        assert tally_dimensions(2, 2, cache_dir=tmp_path) == planted

    def test_cache_for_another_shape_is_recomputed(self, tmp_path):
        path = tmp_path / "tally-v1-2x2-cycles.json"
        path.write_text(json.dumps(tally_dimensions(3, 3).to_json_dict()))
        tally = tally_dimensions(2, 2, cache_dir=tmp_path)
        assert tally.counts == {0: 5, 1: 7, 2: 2}
        assert StratumTally.from_json_dict(json.loads(path.read_text())) == tally

    def test_cache_with_wrong_total_is_recomputed(self, tmp_path):
        path = tmp_path / "tally-v1-2x2-cycles.json"
        planted = StratumTally.from_counts(2, 2, {0: 5, 1: 7})
        path.write_text(json.dumps(planted.to_json_dict()))
        assert tally_dimensions(2, 2, cache_dir=tmp_path).counts == {0: 5, 1: 7, 2: 2}

    @pytest.mark.parametrize(
        "text",
        [
            '{"m": 2, "n": 2, "coun',
            "",
            "[]",
            '{"m": 2}',
            '{"m": 2, "n": 2, "counts": {"0": "20", "1": "-6"}, "total": "14"}',
        ],
    )
    def test_corrupt_cache_is_recomputed(self, tmp_path, text):
        path = tmp_path / "tally-v1-2x2-cycles.json"
        path.write_text(text)
        tally = tally_dimensions(2, 2, cache_dir=tmp_path)
        assert tally.counts == {0: 5, 1: 7, 2: 2}
        assert StratumTally.from_json_dict(json.loads(path.read_text())) == tally

    def test_cache_write_leaves_no_temp_file(self, tmp_path):
        tally_dimensions(2, 2, cache_dir=tmp_path)
        tally_dimensions(2, 1, "kernel", cache_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "tally-v1-2x1-kernel.json",
            "tally-v1-2x2-cycles.json",
        ]

    def test_cache_env_var(self, tmp_path, monkeypatch):
        # the environment does not turn the cache on; only cache_dir does
        monkeypatch.setenv("HSTRATA_CACHE_DIR", str(tmp_path))
        tally_dimensions(2, 1)
        assert not any(tmp_path.iterdir())
        tally_dimensions(2, 1, cache_dir=tmp_path)
        assert any("2x1" in p.name for p in tmp_path.iterdir())


class TestStratumTally:
    def test_json_matches_documented_shape(self):
        tally = tally_dimensions(2, 2)
        assert tally.to_json_dict() == {
            "m": 2,
            "n": 2,
            "counts": {"0": "5", "1": "7", "2": "2"},
            "total": "14",
        }
        assert StratumTally.from_json_dict(tally.to_json_dict()) == tally

    def test_total_invariant_enforced(self):
        with pytest.raises(ValueError):
            StratumTally(m=1, n=1, counts={0: 1}, total=5)
        with pytest.raises(ValueError):
            StratumTally.from_json_dict(
                {"m": 1, "n": 1, "counts": {"0": "1"}, "total": "5"}
            )

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            StratumTally.from_counts(1, 1, {0: 3, 1: -1})

    def test_zero_counts_dropped(self):
        tally = StratumTally.from_counts(1, 1, {0: 1, 1: 1, 2: 0})
        assert tally.counts == {0: 1, 1: 1}
        assert tally.count(2) == 0


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
        # permutations, so lookups succeed exactly on the restricted ones
        from itertools import permutations as iperm

        from hstrata import is_restricted

        realized = {trace_permutation(d).images for d in cauchon_diagrams(2, 3)}
        for images in iperm(range(1, 6)):
            p = Permutation(images)
            if is_restricted(p, 2, 3):
                assert images in realized
            else:
                assert diagram_from_permutation(p, 2, 3) is None

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3)])
    def test_round_trip(self, m, n):
        for d in cauchon_diagrams(m, n):
            assert diagram_from_permutation(trace_permutation(d), m, n) == d

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            diagram_from_permutation(Permutation.identity(3), 2, 2)

    def test_limit_applies(self):
        with pytest.raises(EnumerationLimitError):
            diagram_from_permutation(Permutation.identity(12), 6, 6)
