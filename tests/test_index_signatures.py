"""Parity tests for the vocabulary-hashed signature factory.

The factory's whole contract is *bit-identity*: the vocabulary hash
table, the signatures (read as the uint64 matrix or as the lazy tuple
view) and the LSH buckets must be byte-for-byte what
:func:`~repro.index.minhash._stable_hash`,
:func:`~repro.index.minhash.minhash_signature` and
:func:`~repro.index.minhash.band_keys` produce.  Hypothesis drives
arbitrary unicode (including astral-plane) token sets through the
gather; a divisor matrix covers every ``(n_hashes, n_bands)`` shape
the index accepts, over the factory's signatures and over the scalar
reference's; shard plans must not depend on which of the two signed;
and the persistent postings' batch loader must leave logs
indistinguishable from one-at-a-time inserts.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.loaders import load_dataset
from repro.data.schema import Record, Relation
from repro.distances.corpus import Corpus
from repro.index.minhash import _PRIME, _stable_hash, band_keys, minhash_signature
from repro.index.postings import PersistentMinHashPostings
from repro.index.signatures import (
    RelationSignatures,
    SignatureFactory,
    group_band_buckets,
)
from repro.shard.plan import plan_shards
from repro.storage.engine import Engine

#: Parametrizes two readings of each check.  Signing and tables: the
#: ``"numpy"`` leg reads the uint64 arrays, the ``"python"`` leg the
#: python-int views (the lazy ``tuples`` that postings and bench-phase1
#: read).  Grouping: the ``"numpy"`` leg groups the factory's
#: signatures, the ``"python"`` leg the scalar reference's
#: (:func:`reference_signatures`).
BACKENDS = ["python", "numpy"]

# Arbitrary unicode tokens, astral plane included: the keyed blake2b
# hashes utf-8 bytes, so surrogate-free text is the only constraint.
tokens_strategy = st.lists(
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), min_codepoint=1
        ),
        min_size=1,
        max_size=8,
    ),
    min_size=0,
    max_size=12,
)


def sign_sets(n_hashes, element_sets):
    """Sign explicit element sets (record ``i`` holds ``element_sets[i]``)."""
    records = [Record(i, (str(i),)) for i in range(len(element_sets))]
    corpus = Corpus(records, elements=lambda text: list(element_sets[int(text)]))
    return SignatureFactory(n_hashes).sign(corpus)


def reference_signatures(rids, element_sets, n_hashes):
    """Signatures of ``element_sets`` from the scalar
    :func:`minhash_signature`, in the factory's batch form."""
    rows = [minhash_signature(set(elements), n_hashes) for elements in element_sets]
    return RelationSignatures(
        rids=list(rids),
        n_hashes=n_hashes,
        matrix=np.array(rows, dtype=np.uint64).reshape(-1, n_hashes),
    )


def signature_rows(signed, backend):
    """The signatures as python-int tuples, read off the matrix
    (``"numpy"``) or the lazy tuple view (``"python"``)."""
    if backend == "numpy":
        assert signed.matrix.dtype == np.uint64
        return [tuple(row) for row in signed.matrix.tolist()]
    return signed.tuples


def expected_table(vocab, n_hashes):
    return [[_stable_hash(token, salt) for salt in range(n_hashes)] for token in vocab]


def assert_table(table, vocab, n_hashes, backend):
    """``table`` holds ``_stable_hash`` of every token and salt."""
    expected = expected_table(vocab, n_hashes)
    if backend == "numpy":
        assert table.dtype == np.uint64 and table.shape == (len(vocab), n_hashes)
        assert np.array_equal(
            table, np.array(expected, dtype=np.uint64).reshape(-1, n_hashes)
        )
    else:
        assert table.tolist() == expected


class TestVocabularyTable:
    # ASCII, non-ASCII, astral-plane and the empty string.
    VOCAB = ["cascade", "café", "naïve", "\U0001f600", "\U00010348x", ""]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_table_matches_stable_hash(self, backend):
        table = SignatureFactory(16).vocabulary_table(self.VOCAB)
        assert_table(table, self.VOCAB, 16, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=40, deadline=None)
    @given(vocab=st.lists(
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6),
        max_size=8,
    ))
    def test_arbitrary_tokens_match_stable_hash(self, backend, vocab):
        table = SignatureFactory(4).vocabulary_table(vocab)
        assert_table(table, vocab, 4, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_vocabulary(self, backend):
        table = SignatureFactory(8).vocabulary_table([])
        assert_table(table, [], 8, backend)
        # Records whose element sets are all empty: V = 0.
        signed = sign_sets(8, [set(), set()])
        assert signature_rows(signed, backend) == [(_PRIME,) * 8] * 2


class TestSignatureParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(token_sets=st.lists(tokens_strategy, min_size=1, max_size=6))
    def test_sign_sets_matches_scalar(self, backend, token_sets):
        signed = sign_sets(16, token_sets)
        for tokens, signature in zip(token_sets, signature_rows(signed, backend)):
            assert signature == minhash_signature(set(tokens), 16)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_set_signs_all_prime(self, backend):
        signed = sign_sets(8, [set()])
        assert signature_rows(signed, backend)[0] == (_PRIME,) * 8

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_rows_between_full_rows(self, backend):
        # Empty CSR rows are the reduceat hazard: boundaries collide.
        sets = [{"a", "b"}, set(), {"c"}, set(), set(), {"a", "c"}]
        signed = sign_sets(8, sets)
        for tokens, signature in zip(sets, signature_rows(signed, backend)):
            assert signature == minhash_signature(tokens, 8)

    def test_backends_agree(self):
        # The factory's matrix equals the scalar reference signer's.
        sets = [{"cascade", "systems"}, {"café", "\U0001f600"}, set()]
        signed = sign_sets(32, sets)
        reference = reference_signatures(range(3), sets, 32)
        assert np.array_equal(signed.matrix, reference.matrix)
        assert signed.tuples == reference.tuples

    def test_numpy_tuples_are_built_on_read(self):
        signed = sign_sets(8, [{"a", "b"}, set()])
        assert signed._tuples is None
        assert signed.tuples == [
            minhash_signature({"a", "b"}, 8), minhash_signature(set(), 8)
        ]

    def test_empty_batch(self):
        # A corpus without records signs as a (0, n_hashes) matrix.
        signed = sign_sets(8, [])
        assert signed.matrix.shape == (0, 8)
        assert signed.tuples == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rid_subset_in_given_order(self, backend):
        relation = Relation.from_strings(
            "orgs", ["cascade systems", "", "granite", "cascade sistems"]
        )
        corpus = Corpus(relation)
        signed = SignatureFactory(16).sign(corpus, [3, 1, 0])
        assert signed.rids == [3, 1, 0]
        for rid, signature in zip(signed.rids, signature_rows(signed, backend)):
            expected = set(relation.get(rid).text().split())
            assert signature == minhash_signature(expected, 16)


class TestBandGroupingParity:
    SETS = [
        {"cascade", "systems"},
        {"cascade", "sistems"},
        {"granite"},
        set(),
        {"granite", "manufacturing", "inc"},
        {"cascade", "systems"},  # exact duplicate: must share buckets
    ]

    @staticmethod
    def signed(backend, n_hashes, sets):
        """The factory's signatures (``"numpy"``) or the scalar
        reference's (``"python"``) of ``sets``."""
        if backend == "numpy":
            return sign_sets(n_hashes, sets)
        return reference_signatures(range(len(sets)), sets, n_hashes)

    @staticmethod
    def listed_buckets(grouping, signatures, n_bands):
        """``(band, key) -> member rids``; a bucket is keyed by its
        first member's scalar band key."""
        bounds = grouping.bucket_bounds.tolist()
        rows = grouping.bucket_rows.tolist()
        n = len(grouping.rids)
        listed = {}
        for g in range(len(bounds) - 1):
            members = rows[bounds[g] : bounds[g + 1]]
            band = bounds[g] // n
            key = band_keys(signatures[members[0]], n_bands)[band]
            assert key not in listed
            listed[key] = [grouping.rids[row] for row in members]
        return listed

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "n_hashes,n_bands",
        [(h, b) for h in (8, 16, 64) for b in (1, 2, 4, 8, 16, 32, 64)
         if b <= h and h % b == 0],
    )
    def test_buckets_match_scalar_band_keys(self, backend, n_hashes, n_bands):
        grouping = group_band_buckets(
            self.signed(backend, n_hashes, self.SETS), n_bands
        )
        scalar = [minhash_signature(tokens, n_hashes) for tokens in self.SETS]
        expected: dict = {}
        for row, signature in enumerate(scalar):
            for band, key in band_keys(signature, n_bands):
                expected.setdefault((band, key), []).append(row)
        assert self.listed_buckets(grouping, scalar, n_bands) == expected
        assert grouping.n_buckets == len(expected)
        assert sorted(grouping.shared_buckets()) == sorted(
            members for members in expected.values() if len(members) > 1
        )

    def test_flat_layout_lists_the_same_members(self):
        # The grouping is array-only: each row sits in exactly one
        # bucket per band, and row_bucket_ids names that bucket.
        grouping = group_band_buckets(sign_sets(16, self.SETS), 4)
        ids = grouping.row_bucket_ids
        bounds = grouping.bucket_bounds
        n = len(self.SETS)
        assert ids.shape == (4, n)
        assert bounds[-1] == len(grouping.bucket_rows) == 4 * n
        for band in range(4):
            for row in range(n):
                g = ids[band, row]
                assert band * n <= bounds[g] < (band + 1) * n
                assert row in grouping.bucket_rows[bounds[g] : bounds[g + 1]]
        reference = group_band_buckets(self.signed("python", 16, self.SETS), 4)
        assert sorted(reference.shared_buckets()) == sorted(grouping.shared_buckets())

    @pytest.mark.parametrize("n_bands", [1, 4])
    def test_empty_batch_has_no_bucket(self, n_bands):
        grouping = group_band_buckets(sign_sets(16, []), n_bands)
        assert grouping.n_buckets == 0
        assert grouping.row_bucket_ids.shape == (n_bands, 0)
        assert len(grouping.bucket_rows) == 0
        assert grouping.bucket_bounds.tolist() == [0]
        assert grouping.shared_buckets() == []

    def test_single_record_buckets_alone(self):
        grouping = group_band_buckets(sign_sets(16, [{"granite"}]), 4)
        assert grouping.n_buckets == 4
        assert grouping.row_bucket_ids.tolist() == [[0], [1], [2], [3]]
        assert grouping.shared_buckets() == []


class TestShardPlanLayouts:
    @pytest.fixture(scope="class")
    def relation(self):
        return load_dataset(
            "org", n_entities=200, duplicate_fraction=0.4, seed=0
        ).relation

    @pytest.mark.parametrize("n_bands", [8, 16])
    @pytest.mark.parametrize("overlap", [0.0, 0.2])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_plan_identical_with_numpy_hidden(
        self, relation, n_shards, overlap, n_bands
    ):
        """The plan from signatures signed without numpy — the scalar
        :func:`minhash_signature` over each record's word tokens —
        equals the plan from the factory's signatures."""
        # 16 bands weld a component larger than a 4-shard capacity, so
        # the split-and-overlap rule runs too.
        corpus = Corpus(relation)
        reference = reference_signatures(
            relation.ids(),
            [corpus.token_lists[corpus.row_of[rid]] for rid in relation.ids()],
            64,
        )
        plans = [
            plan_shards(relation, n_shards, overlap=overlap, n_bands=n_bands),
            plan_shards(
                relation, n_shards, overlap=overlap, n_bands=n_bands,
                signatures=reference,
            ),
        ]
        plans = [dataclasses.replace(plan, sign_seconds=0.0) for plan in plans]
        assert plans[0] == plans[1]


class TestSignRecords:
    def test_rids_and_timings(self):
        relation = Relation.from_strings(
            "orgs", ["cascade systems", "cascade sistems", "granite"]
        )
        signed = SignatureFactory(16).sign(Corpus(relation))
        assert signed.rids == relation.ids()
        assert set(signed.timings) == {"sign"}
        assert signed.matches(relation.ids(), 16)
        assert not signed.matches(relation.ids(), 32)
        assert not signed.matches(relation.ids()[:-1], 16)


class TestPostingsBatchParity:
    CORPUS = [
        "cascade systems",
        "cascade sistems",
        "granite manufacturing",
        "granite manufacturing inc",
        "zzz totally unrelated",
    ]

    def records(self):
        return [Record(rid, (text,)) for rid, text in enumerate(self.CORPUS)]

    def test_add_many_matches_sequential_adds(self):
        sequential = PersistentMinHashPostings(Engine(), use_qgrams=True)
        for record in self.records():
            sequential.add(record)
        batched = PersistentMinHashPostings(Engine(), use_qgrams=True)
        batched.add_many(self.records())
        assert batched._signatures == sequential._signatures
        assert batched._buckets == sequential._buckets
        assert batched.log_rows_appended == sequential.log_rows_appended
        assert batched.signatures_computed == sequential.signatures_computed
        for table in (sequential.signatures_table, sequential.postings_table):
            assert list(batched.engine.table(table).scan()) == list(
                sequential.engine.table(table).scan()
            )

    def test_warm_restart_after_add_many(self):
        engine = Engine()
        batched = PersistentMinHashPostings(engine, use_qgrams=True)
        batched.add_many(self.records())
        probe = Record(0, (self.CORPUS[0],))
        expected = batched.candidates(probe)
        restarted = PersistentMinHashPostings(engine, use_qgrams=True)
        assert restarted.restored
        assert restarted.signatures_computed == 0
        assert restarted.candidates(probe) == expected

    def test_add_many_rejects_duplicates(self):
        postings = PersistentMinHashPostings(Engine(), use_qgrams=True)
        with pytest.raises(ValueError):
            postings.add_many(
                [Record(0, ("a b",)), Record(0, ("c d",))]
            )
        postings.add(Record(1, ("a b",)))
        with pytest.raises(ValueError):
            postings.add_many([Record(1, ("a b",))])

    def test_add_many_empty_batch_is_noop(self):
        postings = PersistentMinHashPostings(Engine(), use_qgrams=True)
        postings.add_many([])
        assert len(postings) == 0
        assert postings.log_rows_appended == 0
