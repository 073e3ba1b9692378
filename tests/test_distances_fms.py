"""Tests for fuzzy match similarity (the paper's fms function)."""

import pytest

from repro.data.schema import Record, Relation
from repro.distances.fms import FuzzyMatchDistance, directed_fuzzy_match_distance
from repro.distances.corpus import Corpus


def org_corpus():
    return Relation.from_strings(
        "orgs",
        [
            "microsoft corp",
            "microsft corporation",
            "mic corporation",
            "boeing corporation",
            "intel corporation",
            "apple incorporated",
        ],
    )


@pytest.fixture
def fms():
    d = FuzzyMatchDistance()
    d.prepare(org_corpus())
    return d


class TestDirectedFmd:
    def test_identical_token_lists(self):
        corpus = Corpus(org_corpus())
        assert directed_fuzzy_match_distance(["a", "b"], ["a", "b"], corpus) == 0.0

    def test_empty_source_and_target(self):
        corpus = Corpus(org_corpus())
        assert directed_fuzzy_match_distance([], [], corpus) == 0.0

    def test_empty_source_nonempty_target(self):
        corpus = Corpus(org_corpus())
        assert directed_fuzzy_match_distance([], ["a"], corpus) == 1.0

    def test_full_mismatch_near_one(self):
        corpus = Corpus(org_corpus())
        d = directed_fuzzy_match_distance(["xxxx"], ["yyyy"], corpus)
        assert d > 0.5

    def test_in_unit_interval(self):
        corpus = Corpus(org_corpus())
        d = directed_fuzzy_match_distance(
            ["microsoft", "corp"], ["boeing", "corporation"], corpus
        )
        assert 0.0 <= d <= 1.0


class TestFuzzyMatchDistance:
    def test_requires_prepare(self):
        d = FuzzyMatchDistance()
        with pytest.raises(RuntimeError, match="prepare"):
            d.distance(Record(0, ("a",)), Record(1, ("b",)))

    def test_paper_example_ordering(self, fms):
        """The motivating example from section 5.

        'microsoft corp' is closer to 'microsft corporation' than to
        'mic corporation' under fms, even though edit distance says the
        opposite.
        """
        relation = org_corpus()
        target = relation.get(0)        # microsoft corp
        typo = relation.get(1)          # microsft corporation
        truncated = relation.get(2)     # mic corporation
        assert fms.distance(target, typo) < fms.distance(target, truncated)

    def test_low_idf_suffix_changes_matter_little(self, fms):
        relation = org_corpus()
        target = relation.get(0)        # microsoft corp
        typo = relation.get(1)          # microsft corporation
        other_company = relation.get(3)  # boeing corporation
        assert fms.distance(target, typo) < fms.distance(typo, other_company)

    def test_symmetric(self, fms):
        relation = org_corpus()
        a, b = relation.get(0), relation.get(1)
        assert fms.distance(a, b) == pytest.approx(fms.distance(b, a))

    def test_identity(self, fms):
        relation = org_corpus()
        assert fms.distance(relation.get(0), relation.get(0)) == 0.0

    def test_unit_interval(self, fms):
        relation = org_corpus()
        records = list(relation)
        for a in records:
            for b in records:
                assert 0.0 <= fms.distance(a, b) <= 1.0

    def test_out_of_corpus_records(self, fms):
        a = Record(100, ("zzzz qqqq",))
        b = Record(101, ("zzzz qqqr",))
        assert fms.distance(a, b) < 0.4

    def test_empty_records(self, fms):
        assert fms.distance(Record(100, ("",)), Record(101, ("",))) == 0.0
        # Both directions are total transformations: insert everything
        # one way, delete everything the other.
        assert fms.distance(Record(100, ("",)), Record(101, ("abc",))) == pytest.approx(
            1.0
        )

    def test_insertion_factor_zero_ignores_extra_target_tokens(self):
        d = FuzzyMatchDistance(insertion_factor=0.0)
        d.prepare(org_corpus())
        fmd = directed_fuzzy_match_distance(
            ["microsoft"], ["microsoft", "corporation"], d.corpus,
            insertion_factor=0.0
        )
        assert fmd == 0.0


class TestFmsProperties:
    """Property-based checks on random out-of-corpus strings."""

    def _prepared(self):
        d = FuzzyMatchDistance()
        d.prepare(org_corpus())
        return d

    def test_symmetry_random(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        fms = self._prepared()
        words = st.text(alphabet="abcd ", max_size=18)

        @settings(max_examples=60, deadline=None)
        @given(words, words)
        def check(a, b):
            ra, rb = Record(900, (a,)), Record(901, (b,))
            assert fms.distance(ra, rb) == pytest.approx(fms.distance(rb, ra))

        check()

    def test_unit_interval_random(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        fms = self._prepared()
        words = st.text(alphabet="abcd ", max_size=18)

        @settings(max_examples=60, deadline=None)
        @given(words, words)
        def check(a, b):
            value = fms.distance(Record(900, (a,)), Record(901, (b,)))
            assert 0.0 <= value <= 1.0

        check()

    def test_identity_random(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        fms = self._prepared()
        words = st.text(alphabet="abcd ", max_size=18)

        @settings(max_examples=40, deadline=None)
        @given(words)
        def check(a):
            assert fms.distance(Record(900, (a,)), Record(901, (a,))) == 0.0

        check()
