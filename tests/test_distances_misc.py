"""Tests for Jaccard, Jaro-Winkler, record combiners, and base wrappers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.schema import Record, Relation
from repro.distances.base import (
    CachedDistance,
    FunctionDistance,
    ScaledDistance,
    clamp01,
)
from repro.distances.edit import EditDistance
from repro.distances.jaccard import (
    QgramJaccardDistance,
    TokenJaccardDistance,
    WeightedJaccardDistance,
    jaccard_similarity,
    weighted_jaccard_similarity,
)
from repro.distances.jaro import (
    JaroWinklerDistance,
    jaro_similarity,
    jaro_winkler_similarity,
)
from repro.distances.record import (
    MaxFieldDistance,
    WeightedFieldDistance,
    normalized_edit,
)

words = st.text(alphabet="abcdef ", max_size=15)


class TestJaccard:
    def test_similarity_known(self):
        assert jaccard_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard_similarity(set(), set()) == 1.0

    def test_one_empty(self):
        assert jaccard_similarity({"a"}, set()) == 0.0

    def test_weighted_prefers_heavy_overlap(self):
        weight = {"rare": 10.0, "common": 1.0}
        heavy = weighted_jaccard_similarity({"rare", "x"}, {"rare", "y"}, {**weight, "x": 1, "y": 1})
        light = weighted_jaccard_similarity({"common", "x"}, {"common", "y"}, {**weight, "x": 10, "y": 10})
        assert heavy > light

    def test_token_distance(self):
        d = TokenJaccardDistance()
        a, b = Record(0, ("golden dragon",)), Record(1, ("golden dragon express",))
        assert d.distance(a, b) == pytest.approx(1 / 3)

    def test_qgram_distance_robust_to_typo(self):
        d = QgramJaccardDistance(q=2)
        token = TokenJaccardDistance()
        a, b = Record(0, ("microsoft",)), Record(1, ("microsft",))
        assert d.distance(a, b) < token.distance(a, b)

    def test_weighted_requires_prepare(self):
        d = WeightedJaccardDistance()
        with pytest.raises(RuntimeError):
            d.distance(Record(0, ("a",)), Record(1, ("b",)))

    def test_weighted_distance_in_range(self):
        relation = Relation.from_strings("r", ["a b", "b c", "c d"])
        d = WeightedJaccardDistance()
        d.prepare(relation)
        value = d.distance(relation.get(0), relation.get(1))
        assert 0.0 < value < 1.0

    @given(words, words)
    def test_token_distance_unit_interval(self, a, b):
        d = TokenJaccardDistance()
        assert 0.0 <= d.distance(Record(0, (a,)), Record(1, (b,))) <= 1.0


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_classic_example(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_empty(self):
        assert jaro_similarity("", "abc") == 0.0

    def test_winkler_boosts_common_prefix(self):
        assert jaro_winkler_similarity("prefixed", "prefixes") >= jaro_similarity(
            "prefixed", "prefixes"
        )

    def test_winkler_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            jaro_winkler_similarity("a", "b", prefix_scale=0.5)

    def test_distance_function(self):
        d = JaroWinklerDistance()
        assert d.distance(Record(0, ("martha",)), Record(1, ("martha",))) == 0.0

    @given(words, words)
    def test_distance_unit_interval(self, a, b):
        d = JaroWinklerDistance()
        assert 0.0 <= d.distance(Record(0, (a,)), Record(1, (b,))) <= 1.0

    @given(words, words)
    def test_symmetry(self, a, b):
        assert jaro_similarity(a, b) == pytest.approx(jaro_similarity(b, a))


class TestRecordCombiners:
    def test_normalized_edit(self):
        assert normalized_edit("abc", "abd") == pytest.approx(1 / 3)

    def test_weighted_fields_uniform_default(self):
        d = WeightedFieldDistance()
        a = Record(0, ("abc", "xyz"))
        b = Record(1, ("abc", "xyw"))
        assert d.distance(a, b) == pytest.approx(0.5 * (0 + 1 / 3))

    def test_weighted_fields_custom_weights(self):
        d = WeightedFieldDistance(weights=[1.0, 0.0])
        a = Record(0, ("same", "different"))
        b = Record(1, ("same", "other"))
        assert d.distance(a, b) == 0.0

    def test_weighted_fields_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightedFieldDistance(weights=[-1.0, 2.0])

    def test_weighted_fields_rejects_all_zero(self):
        with pytest.raises(ValueError):
            WeightedFieldDistance(weights=[0.0, 0.0])

    def test_weighted_fields_arity_check(self):
        d = WeightedFieldDistance(weights=[1.0])
        with pytest.raises(ValueError):
            d.distance(Record(0, ("a", "b")), Record(1, ("c", "d")))

    def test_arity_mismatch_between_records(self):
        d = WeightedFieldDistance()
        with pytest.raises(ValueError):
            d.distance(Record(0, ("a",)), Record(1, ("a", "b")))

    def test_max_fields(self):
        d = MaxFieldDistance()
        a = Record(0, ("same", "abc"))
        b = Record(1, ("same", "xyz"))
        assert d.distance(a, b) == 1.0

    def test_max_fields_identical(self):
        d = MaxFieldDistance()
        assert d.distance(Record(0, ("a", "b")), Record(1, ("a", "b"))) == 0.0


class TestBaseWrappers:
    def test_clamp01(self):
        assert clamp01(-0.5) == 0.0
        assert clamp01(1.5) == 1.0
        assert clamp01(0.25) == 0.25

    def test_function_distance_clamps(self):
        d = FunctionDistance(lambda a, b: 2.0)
        assert d.distance(Record(0, ("x",)), Record(1, ("y",))) == 1.0

    def test_cached_distance_hits(self):
        inner = EditDistance()
        cached = CachedDistance(inner)
        a, b = Record(0, ("abc",)), Record(1, ("abd",))
        first = cached.distance(a, b)
        second = cached.distance(b, a)  # symmetric key
        assert first == second
        assert cached.calls == 2
        assert cached.misses == 1

    def test_cached_distance_cleared_on_prepare(self):
        cached = CachedDistance(EditDistance())
        a, b = Record(0, ("abc",)), Record(1, ("abd",))
        cached.distance(a, b)
        cached.prepare(Relation.from_strings("r", ["abc", "abd"]))
        cached.distance(a, b)
        assert cached.misses == 2

    def test_cached_distance_hit_rate(self):
        cached = CachedDistance(EditDistance())
        a, b = Record(0, ("abc",)), Record(1, ("abd",))
        assert cached.hit_rate == 0.0  # no calls yet: defined, not NaN
        cached.distance(a, b)
        cached.distance(a, b)
        cached.distance(b, a)
        assert cached.hits == 2
        assert cached.hit_rate == pytest.approx(2 / 3)
        assert len(cached) == 1

    def test_cached_distance_bounded_eviction(self):
        records = [Record(i, (f"word{i}",)) for i in range(6)]
        cached = CachedDistance(EditDistance(), max_entries=3)
        for other in records[1:]:
            cached.distance(records[0], other)
        assert len(cached) == 3
        assert cached.evictions == 2
        # Evicted pairs recompute to the same value.
        assert cached.distance(records[0], records[1]) == EditDistance().distance(
            records[0], records[1]
        )

    def test_bounded_eviction_is_fifo(self):
        # Eviction runs through OrderedDict.popitem(last=False): O(1)
        # and oldest-first.  The newest entries must survive.
        records = [Record(i, (f"w{i}",)) for i in range(4)]
        cached = CachedDistance(EditDistance(), max_entries=2)
        cached.distance(records[0], records[1])
        cached.distance(records[0], records[2])
        cached.distance(records[0], records[3])  # evicts the (0, 1) pair
        misses = cached.misses
        cached.distance(records[0], records[2])
        cached.distance(records[0], records[3])
        assert cached.misses == misses  # both survivors still cached
        cached.distance(records[0], records[1])
        assert cached.misses == misses + 1  # the oldest was the victim

    def test_row_matches_pairwise_distance(self):
        # One call per row: canonical direction, one miss per new pair,
        # cached pairs served without the inner distance.
        records = [Record(i, (f"w{i}x",)) for i in range(5)]
        cached = CachedDistance(EditDistance(), max_entries=3)
        reference = CachedDistance(EditDistance())
        row = cached.row(records[2], records[:2] + records[3:])
        assert row == [
            reference.distance(records[2], other)
            for other in records[:2] + records[3:]
        ]
        assert (cached.calls, cached.misses, cached.evictions) == (4, 4, 1)
        assert cached.row(records[4], [records[2]]) == [row[3]]
        assert cached.misses == 4

    def test_invalidate_rid_probes_partners(self):
        records = [Record(i, (f"w{i}",)) for i in range(4)]
        for bound in (None, 10):
            cached = CachedDistance(EditDistance(), max_entries=bound)
            cached.row(records[1], [records[0], records[2], records[3]])
            cached.distance(records[0], records[2])
            assert cached.invalidate_rid(1, [0, 2, 3]) == 3
            assert list(cached._cache) == [(0, 2)]
            # A cache smaller than the partners is walked instead; pairs
            # with a rid outside the partners stay.
            cached.row(records[3], [records[0], records[1], records[2]])
            partners = dict.fromkeys([0, 1, 5, 6, 7])
            assert cached.invalidate_rid(3, partners) == 2
            assert list(cached._cache) == [(0, 2), (2, 3)]

    def test_cached_distance_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="max_entries"):
            CachedDistance(EditDistance(), max_entries=0)

    def test_scaled_distance(self):
        scaled = ScaledDistance(EditDistance(), 0.5)
        a, b = Record(0, ("ab",)), Record(1, ("ax",))
        assert scaled.distance(a, b) == pytest.approx(0.25)

    def test_scaled_distance_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ScaledDistance(EditDistance(), 0.0)
        with pytest.raises(ValueError):
            ScaledDistance(EditDistance(), 1.5)
