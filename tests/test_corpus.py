"""The one corpus per run: tokenize, intern and weigh each record once.

Two contracts.  Work: a run tokenizes each record exactly once, however
many consumers (IDF weights, tf-idf vectors, kernel CSR, MinHash
signer) read its tokens.  Values: the corpus's weights, vectors and
norms are bit-identical to the textbook definitions computed inline
here — ``log(1 + N/df)`` weights, ``count * weight`` tf-idf, norms
summed sequentially in ascending token order — for in-corpus records,
records outside the corpus, and the columnar rows a
:class:`~repro.distances.base.FrozenDistance` subset kernel gathers.
"""

from __future__ import annotations

import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.distances.tokens as tokens_module
from repro.core.formulation import DEParams
from repro.core.incremental import IncrementalDeduplicator
from repro.data.loaders import load_dataset
from repro.data.schema import Record, Relation
from repro.distances.base import FrozenDistance
from repro.distances.corpus import Corpus
from repro.distances.cosine import CosineDistance
from repro.distances.jaccard import TokenJaccardDistance
from repro.distances.tokens import tokenize
from repro.run.config import RunConfig
from repro.run.context import RunContext
from repro.run.pipeline import StagedPipeline


WORDS = ["acme", "corp", "inc", "acme-corp", "data", "bank", "", "north"]

texts = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)


@pytest.fixture
def tokenize_calls(monkeypatch):
    """Count every ``tokenize`` call, whichever module bound the name."""
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name.startswith("repro") and getattr(module, "tokenize", None) is tokenize:
            monkeypatch.setattr(module, "tokenize", counting)
    assert tokens_module.tokenize is counting
    return calls


def _run(relation, **config):
    context = RunContext.create(RunConfig(**config))
    return StagedPipeline(context).run(relation, DEParams.combined(5, 0.4, c=4.0))


class TestTokenizedOnce:
    def test_batch_cosine_minhash(self, tokenize_calls):
        relation = load_dataset("org", n_entities=150, seed=0).relation
        _run(relation, distance="cosine", index="minhash")
        assert len(tokenize_calls) == len(relation)
        assert Counter(tokenize_calls) == Counter(r.text() for r in relation)

    def test_brute_force_fms(self, tokenize_calls):
        relation = load_dataset("org", n_entities=30, seed=0).relation
        _run(relation, distance="fms", index="brute")
        assert len(tokenize_calls) == len(relation)

    def test_serving_arrivals(self, tokenize_calls):
        # The first arrival prepares the corpus; every later one is
        # registered with it, and no distance call tokenizes again.
        relation = load_dataset("org", n_entities=30, seed=0).relation
        dedup = IncrementalDeduplicator(
            CosineDistance(), DEParams.size(3, c=4.0), schema=relation.schema
        )
        for record in relation:
            dedup.add(record.fields)
        dedup.remove(5)
        dedup.partition()
        assert len(tokenize_calls) == len(relation)


def _reference(relation):
    """Inline IDF statistics of ``relation``: the weight and the
    ``(tokens, weights, norm)`` vector functions, from the definitions."""
    n = max(1, len(relation))
    df = Counter()
    for record in relation:
        df.update(set(tokenize(record.text())))

    def weight(token):
        return math.log(1.0 + n / max(1, df.get(token, 0)))

    def vector(text):
        counts = Counter(tokenize(text))
        tokens = sorted(counts)
        weights = [counts[t] * weight(t) for t in tokens]
        total = 0.0
        for w in weights:
            total += w * w
        return tokens, weights, math.sqrt(total)

    return weight, vector


class TestValues:
    @settings(max_examples=60, deadline=None)
    @given(
        corpus_texts=st.lists(texts, min_size=1, max_size=10),
        strangers=st.lists(texts, max_size=3),
    )
    def test_weights_vectors_and_norms(self, corpus_texts, strangers):
        relation = Relation.from_strings("r", corpus_texts)
        corpus = Corpus(relation)
        weight, vector = _reference(relation)
        for token in set(WORDS) | {"zzz"}:
            assert corpus.weight(token) == weight(token)
        for record in relation:
            assert corpus.vector(record) == vector(record.text())
            assert corpus.tokens(record) == tokenize(record.text())
        # Outside the corpus: vectorized on the fly, frozen statistics,
        # and cached from registration until removal.  A cached entry
        # answers only a record with the registered fields.
        for i, text in enumerate(strangers):
            stranger = Record(1000 + i, (text + " newtoken",))
            assert corpus.vector(stranger) == vector(stranger.text())
            assert stranger.rid not in corpus.row_of
            corpus.register(stranger)
            assert corpus.vector(stranger) == vector(stranger.text())
            assert corpus.tokens(stranger) == tokenize(stranger.text())
            namesake = Record(stranger.rid, (text + " othertoken",))
            assert corpus.vector(namesake) == vector(namesake.text())
            corpus.remove(stranger.rid)
            assert stranger.rid not in corpus._live

    @settings(max_examples=60, deadline=None)
    @given(
        corpus_texts=st.lists(texts, min_size=1, max_size=10),
        data=st.data(),
    )
    def test_columnar_rows_of_a_frozen_subset(self, corpus_texts, data):
        relation = Relation.from_strings("r", corpus_texts)
        corpus = Corpus(relation)
        _, vector = _reference(relation)
        indptr, indices, tfidf, norms = corpus.arrays()
        for row, record in enumerate(relation):
            tokens, weights, norm = vector(record.text())
            lo, hi = int(indptr[row]), int(indptr[row + 1])
            assert [corpus.vocab[i] for i in indices[lo:hi]] == tokens
            assert tfidf[lo:hi].tolist() == weights
            assert float(norms[row]) == norm

        rids = data.draw(
            st.lists(st.sampled_from(relation.ids()), min_size=1, unique=True)
        )
        subset = relation.subset(rids)
        inner = CosineDistance()
        inner.prepare(relation)
        kernel = FrozenDistance(inner).make_kernel(subset)
        vectors = kernel._v
        assert vectors.rid_list == sorted(rids)
        for row, rid in enumerate(vectors.rid_list):
            tokens, weights, norm = vector(relation.get(rid).text())
            lo, hi = int(vectors.indptr[row]), int(vectors.indptr[row + 1])
            assert [corpus.vocab[i] for i in vectors.indices[lo:hi]] == tokens
            assert vectors.values[lo:hi].tolist() == weights
            assert float(vectors.norms[row]) == norm
        block = kernel.block(vectors.rid_list)
        for i, a in enumerate(vectors.rid_list):
            for j, b in enumerate(vectors.rid_list):
                if a != b:
                    assert block[i, j] == inner.distance(
                        relation.get(a), relation.get(b)
                    )

    def test_empty_corpus_and_unprepared_token_distances(self):
        corpus = Corpus(())
        assert len(corpus) == 0 and corpus.vocab == []
        assert corpus.weight("a") == math.log(2.0)
        a, b = Record(0, ("acme corp",)), Record(1, ("acme",))
        assert TokenJaccardDistance().distance(a, b) == 0.5
        with pytest.raises(RuntimeError, match="prepare"):
            CosineDistance().distance(a, b)


class TestLivePostingsRows:
    """The serving layer's cosine rows (``LiveCosineRows``) equal
    ``CosineDistance.distance`` in canonical direction, bit for bit."""

    BASE = ["acme corp", "acme inc", "north data bank", "data bank", "acme corp"]

    @staticmethod
    def assert_rows_exact(distance, live, relation):
        ids = relation.ids()
        assert sorted(live.slot_of) == sorted(ids)
        for record in relation:
            others = [rid for rid in ids if rid != record.rid]
            slots, values = live.row(record.rid)
            rids = live.rids[slots]
            assert sorted(rids.tolist()) == others
            slots, reversed_values = live.row(record.rid, others[::-1])
            reversed_rids = live.rids[slots]
            assert reversed_rids.tolist() == others[::-1]
            for rid, value in [
                *zip(rids.tolist(), values.tolist()),
                *zip(reversed_rids.tolist(), reversed_values.tolist()),
            ]:
                a, b = sorted((record.rid, rid))
                expected = distance.distance(relation.get(a), relation.get(b))
                assert value.hex() == expected.hex(), (record.rid, rid)

    def test_rows_through_arrivals_removals_and_refit(self):
        relation = Relation.from_strings("live", self.BASE)
        distance = CosineDistance()
        distance.prepare(relation)
        live = distance.live_rows()
        for record in relation:
            live.add(record)
        arrivals = [
            "zyx acme",  # outside the frozen vocabulary ...
            "zyx quux",  # ... and sharing the unseen token
            "",
            "   ",
            "acme corp",  # an exact duplicate: d = 0
            "\U0001d538\U0001d539 acme \U00010400",  # astral letters
            "\U00010400 bank",
        ]

        def arrive(rid, text):
            record = Record(rid, (text,))
            relation.add(record)
            distance.corpus.register(record)
            live.add(record)

        for rid, text in enumerate(arrivals, 100):
            arrive(rid, text)
        self.assert_rows_exact(distance, live, relation)
        zero = live.row(104)
        assert 0.0 in zero[1].tolist()

        freed = set()
        for rid in (1, 100, 102, 105):
            freed.add(live.slot_of[rid])
            relation.remove(rid)
            distance.corpus.remove(rid)
            live.remove(rid)
        self.assert_rows_exact(distance, live, relation)
        for rid, text in enumerate(["zyx bank", "acme", "", "quux"], 200):
            arrive(rid, text)
        assert {live.slot_of[rid] for rid in range(200, 204)} == freed
        self.assert_rows_exact(distance, live, relation)

        # A refit: new statistics over the live relation, a new index.
        distance.prepare(relation)
        live = distance.live_rows()
        for record in relation:
            live.add(record)
        self.assert_rows_exact(distance, live, relation)

    @settings(max_examples=40, deadline=None)
    @given(
        corpus_texts=st.lists(texts, min_size=1, max_size=6),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("add"), texts, st.sampled_from(["", " zyx", " qq"])),
                st.tuples(st.just("remove"), st.integers(0, 10**6), st.just("")),
            ),
            max_size=12,
        ),
    )
    def test_rows_under_random_ops(self, corpus_texts, ops):
        relation = Relation.from_strings("live", corpus_texts)
        distance = CosineDistance()
        distance.prepare(relation)
        live = distance.live_rows()
        for record in relation:
            live.add(record)
        next_rid = 1000
        for op, arg, extra in ops:
            if op == "add":
                record = Record(next_rid, (arg + extra,))
                next_rid += 1
                relation.add(record)
                distance.corpus.register(record)
                live.add(record)
            elif len(relation):
                rid = relation.ids()[arg % len(relation)]
                relation.remove(rid)
                distance.corpus.remove(rid)
                live.remove(rid)
        self.assert_rows_exact(distance, live, relation)

    def test_serving_rows_skip_the_pair_cache(self):
        relation = load_dataset("org", n_entities=30, seed=0).relation
        dedup = IncrementalDeduplicator(
            CosineDistance(), DEParams.size(3, c=4.0), schema=relation.schema
        )
        for record in relation:
            dedup.add(record.fields)
        assert dedup.last_op.pinned_pairs == len(relation) - 1
        dedup.remove(5)
        assert dedup.last_op.cache_misses == 0
        assert dedup.distance.calls == 0 and len(dedup.distance) == 0

    def test_no_rows_without_corpus(self):
        distance = CosineDistance()
        assert distance.live_rows() is None  # not prepared
        distance.prepare(Relation.from_strings("r", self.BASE))
        assert distance.live_rows() is not None
        assert FrozenDistance(distance).live_rows() is not None
        assert TokenJaccardDistance().live_rows() is None
