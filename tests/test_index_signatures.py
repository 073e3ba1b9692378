"""Parity tests for the vocabulary-hashed signature factory.

The factory's whole contract is *bit-identity*: whichever gather signs
a corpus — the numpy ``reduceat`` or, with numpy hidden, the
pure-python ``zip``-min — the signatures, band keys, and LSH buckets
must be byte-for-byte the ones
:func:`~repro.index.minhash.minhash_signature` and
:func:`~repro.index.minhash.band_keys` produce.  Hypothesis drives
arbitrary unicode (including astral-plane) token sets through both
gathers; a divisor matrix covers every ``(n_hashes, n_bands)`` shape
the index accepts; and the persistent postings' batch loader must
leave logs indistinguishable from one-at-a-time inserts.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.distances.kernels.compat as compat
from repro.data.schema import Record, Relation
from repro.distances.corpus import Corpus
from repro.distances.kernels.compat import have_numpy
from repro.index.minhash import _PRIME, band_keys, minhash_signature
from repro.index.postings import PersistentMinHashPostings
from repro.index.signatures import SignatureFactory, group_band_buckets
from repro.storage.engine import Engine

#: "numpy": the numpy gather; "python": numpy hidden, the python gather.
BACKENDS = ["python"] + (["numpy"] if have_numpy() else [])

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


@contextmanager
def gather(backend):
    """Sign with numpy visible (``"numpy"``) or hidden (``"python"``),
    the way :mod:`~repro.distances.kernels.compat` sees a missing
    import."""
    saved = compat._NUMPY, compat._SEARCHED
    if backend == "python":
        compat._NUMPY, compat._SEARCHED = None, True
    try:
        yield
    finally:
        compat._NUMPY, compat._SEARCHED = saved


def sign_sets(n_hashes, element_sets, backend="numpy" if have_numpy() else "python"):
    """Sign explicit element sets (record ``i`` holds ``element_sets[i]``)."""
    records = [Record(i, (str(i),)) for i in range(len(element_sets))]
    corpus = Corpus(records, elements=lambda text: list(element_sets[int(text)]))
    with gather(backend):
        return SignatureFactory(n_hashes).sign(corpus)


class TestSignatureParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(token_sets=st.lists(tokens_strategy, min_size=1, max_size=6))
    def test_sign_sets_matches_scalar(self, backend, token_sets):
        signed = sign_sets(16, token_sets, backend)
        for tokens, signature in zip(token_sets, signed.tuples):
            assert signature == minhash_signature(set(tokens), 16)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_set_signs_all_prime(self, backend):
        signed = sign_sets(8, [set()], backend)
        assert signed.tuples[0] == (_PRIME,) * 8

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_rows_between_full_rows(self, backend):
        # Empty CSR rows are the reduceat hazard: boundaries collide.
        sets = [{"a", "b"}, set(), {"c"}, set(), set(), {"a", "c"}]
        signed = sign_sets(8, sets, backend)
        for tokens, signature in zip(sets, signed.tuples):
            assert signature == minhash_signature(tokens, 8)

    def test_backends_agree(self):
        if not have_numpy():
            pytest.skip("numpy unavailable")
        sets = [{"cascade", "systems"}, {"café", "\U0001f600"}, set()]
        python = sign_sets(32, sets, "python")
        numpy = sign_sets(32, sets, "numpy")
        assert python.tuples == numpy.tuples
        assert python.matrix is None
        assert numpy.matrix.tolist() == [list(t) for t in numpy.tuples]

    def test_auto_resolution(self):
        # The gather follows numpy's importability; there is no knob.
        signed = sign_sets(8, [{"a"}])
        assert (signed.matrix is not None) == have_numpy()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rid_subset_in_given_order(self, backend):
        relation = Relation.from_strings(
            "orgs", ["cascade systems", "", "granite", "cascade sistems"]
        )
        corpus = Corpus(relation)
        with gather(backend):
            signed = SignatureFactory(16).sign(corpus, [3, 1, 0])
        assert signed.rids == [3, 1, 0]
        for rid, signature in zip(signed.rids, signed.tuples):
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

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "n_hashes,n_bands",
        [(h, b) for h in (8, 16, 64) for b in (1, 2, 4, 8, 16, 32, 64)
         if b <= h and h % b == 0],
    )
    def test_buckets_match_scalar_band_keys(self, backend, n_hashes, n_bands):
        signed = sign_sets(n_hashes, self.SETS, backend)
        with gather(backend):
            grouping = group_band_buckets(signed, n_bands)
        expected: dict = {}
        for row, tokens in enumerate(self.SETS):
            signature = minhash_signature(tokens, n_hashes)
            for band, key in band_keys(signature, n_bands):
                expected.setdefault((band, key), []).append(row)
        assert {
            key: members for key, members in grouping.buckets.items()
        } == expected
        for row, keys in enumerate(grouping.row_keys):
            signature = minhash_signature(self.SETS[row], n_hashes)
            assert keys == band_keys(signature, n_bands)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_row_buckets_alias_bucket_lists(self, backend):
        # row_buckets must share list identity with buckets so the
        # index's member-probe path never diverges from the key path.
        with gather(backend):
            grouping = group_band_buckets(sign_sets(16, self.SETS, backend), 4)
        for band, per_row in enumerate(grouping.row_buckets):
            for row, members in enumerate(per_row):
                key = grouping.row_keys[row][band]
                assert members is grouping.buckets[key]

    @pytest.mark.skipif("numpy" not in BACKENDS, reason="numpy not installed")
    def test_flat_layout_lists_the_same_members(self):
        # The flat arrays the blocked Phase-1 pass and the numpy probe
        # read must describe exactly the buckets of row_buckets.
        signed = sign_sets(16, self.SETS, "numpy")
        grouping = group_band_buckets(signed, 4)
        ids = grouping.row_bucket_ids
        bounds = grouping.bucket_bounds
        assert ids.shape == (4, len(self.SETS))
        assert bounds[-1] == len(grouping.bucket_rows) == 4 * len(self.SETS)
        for band, per_row in enumerate(grouping.row_buckets):
            for row, members in enumerate(per_row):
                g = ids[band, row]
                rows = grouping.bucket_rows[bounds[g] : bounds[g + 1]]
                assert [signed.rids[r] for r in rows] == members
        with gather("python"):
            python = group_band_buckets(sign_sets(16, self.SETS, "python"), 4)
        assert python.row_bucket_ids is None and python.bucket_rows is None


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
