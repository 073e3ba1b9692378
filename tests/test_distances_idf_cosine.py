"""Tests for the corpus's IDF statistics and the IDF-weighted cosine
distance."""

import math

import pytest

from repro.data.schema import Record, Relation
from repro.distances.cosine import CosineDistance, cosine_similarity
from repro.distances.corpus import Corpus


def corpus(*texts):
    return Relation.from_strings("corpus", list(texts))


def df(table, token):
    return table.df[table.token_id[token]]


class TestIdfTable:
    """The corpus's IDF statistics: document frequencies, weights and
    tf-idf vectors."""

    def test_document_frequency(self):
        idf = Corpus(corpus("a b", "a c", "a d"))
        assert df(idf, "a") == 3
        assert df(idf, "b") == 1

    def test_unknown_token_gets_df_one(self):
        idf = Corpus(corpus("a b"))
        assert "zzz" not in idf.token_id
        assert idf.weight("zzz") == idf.weight("a") == math.log(1.0 + 1 / 1)

    def test_rare_tokens_weigh_more(self):
        idf = Corpus(corpus("a b", "a c", "a d", "a e"))
        assert idf.weight("b") > idf.weight("a")

    def test_weight_positive(self):
        idf = Corpus(corpus("a", "a", "a"))
        assert idf.weight("a") > 0.0

    def test_token_counted_once_per_document(self):
        idf = Corpus(corpus("a a a", "b"))
        assert df(idf, "a") == 1

    def test_vector_uses_term_frequency(self):
        relation = corpus("a a b", "c")
        idf = Corpus(relation)
        tokens, weights, _ = idf.vector(relation.get(0))
        assert tokens == ["a", "b"]
        assert weights[0] == 2 * idf.weight("a")

    def test_contains_and_len(self):
        idf = Corpus(corpus("a b"))
        assert "a" in idf.token_id
        assert "zzz" not in idf.token_id
        assert len(idf.vocab) == 2

    def test_n_documents(self):
        idf = Corpus(corpus("a", "b", "c"))
        assert len(idf) == 3


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = {"a": 1.0, "b": 2.0}
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_empty_vector(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0

    def test_scale_invariance(self):
        u = {"a": 1.0, "b": 3.0}
        v = {"a": 2.0, "b": 6.0}
        assert cosine_similarity(u, v) == pytest.approx(1.0)


class TestCosineDistance:
    def test_requires_prepare(self):
        d = CosineDistance()
        with pytest.raises(RuntimeError, match="prepare"):
            d.distance(Record(0, ("a",)), Record(1, ("b",)))

    def test_identical_strings_distance_zero(self):
        relation = corpus("the doors la woman", "something else")
        d = CosineDistance()
        d.prepare(relation)
        assert d.distance(relation.get(0), relation.get(0)) == pytest.approx(0.0)

    def test_disjoint_tokens_distance_one(self):
        relation = corpus("aaa bbb", "ccc ddd")
        d = CosineDistance()
        d.prepare(relation)
        assert d.distance(relation.get(0), relation.get(1)) == 1.0

    def test_idf_weighting_downplays_common_tokens(self):
        # "corporation" is common; sharing it means little.
        relation = corpus(
            "microsoft corporation",
            "boeing corporation",
            "intel corporation",
            "apple corporation",
            "microsoft corp",
        )
        d = CosineDistance()
        d.prepare(relation)
        shared_common = d.distance(relation.get(0), relation.get(1))
        shared_rare = d.distance(relation.get(0), relation.get(4))
        assert shared_rare < shared_common

    def test_symmetric(self):
        relation = corpus("a b c", "b c d")
        d = CosineDistance()
        d.prepare(relation)
        assert d.distance(relation.get(0), relation.get(1)) == pytest.approx(
            d.distance(relation.get(1), relation.get(0))
        )

    def test_out_of_corpus_record(self):
        relation = corpus("a b", "c d")
        d = CosineDistance()
        d.prepare(relation)
        stranger = Record(99, ("a zzz",))
        value = d.distance(relation.get(0), stranger)
        assert 0.0 < value < 1.0
