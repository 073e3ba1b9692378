"""Tests for the approximate indexes (q-gram inverted, MinHash)."""

import pytest

from repro.data.schema import Relation
from repro.distances.base import CachedDistance
from repro.distances.edit import EditDistance
from repro.distances.jaccard import TokenJaccardDistance
from repro.index.bruteforce import BruteForceIndex
from repro.index.inverted import QgramInvertedIndex
from repro.index.minhash import MinHashIndex
from repro.storage.buffer import BufferPool
from repro.storage.pages import DiskManager

NAMES = [
    "cascade systems corporation",
    "cascade systems corp",
    "summit logistics incorporated",
    "summit logistic incorporated",
    "pioneer foods company",
    "pioneer food company",
    "evergreen consulting group",
    "evergreen consulting",
    "harbor analytics limited",
    "granite manufacturing",
    "sterling partners",
    "beacon holdings",
]


@pytest.fixture
def relation():
    return Relation.from_strings("orgs", NAMES)


_QGRAM_ANSWERS = """
import hashlib
from repro.data.loaders import load_dataset
from repro.distances.cosine import CosineDistance
from repro.index.inverted import QgramInvertedIndex
relation = load_dataset("org", n_entities=300, duplicate_fraction=0.3).relation
index = QgramInvertedIndex(max_df=64, within_budget=128)
index.build(relation, CosineDistance())
digest = hashlib.sha256()
for record in relation:
    digest.update(repr(index.knn(record, 5)).encode())
    digest.update(repr(index.within(record, 0.4)).encode())
print(digest.hexdigest())
"""


class TestQgramInverted:
    def test_finds_obvious_duplicates(self, relation):
        idx = QgramInvertedIndex()
        idx.build(relation, CachedDistance(EditDistance()))
        hits = idx.knn(relation.get(0), 1)
        assert hits[0].rid == 1

    def test_top1_agreement_with_bruteforce(self, relation):
        idx = QgramInvertedIndex()
        idx.build(relation, CachedDistance(EditDistance()))
        ref = BruteForceIndex()
        ref.build(relation, CachedDistance(EditDistance()))
        agree = sum(
            idx.knn(r, 1)[0].rid == ref.knn(r, 1)[0].rid for r in relation
        )
        assert agree == len(relation)

    def test_within_returns_only_in_radius(self, relation):
        idx = QgramInvertedIndex()
        idx.build(relation, CachedDistance(EditDistance()))
        for hit in idx.within(relation.get(0), 0.3):
            assert hit.distance < 0.3

    def test_exhaustive_fallback_fills_short_lists(self):
        # Two clusters with no shared q-grams: fallback must still
        # produce k neighbors.
        relation = Relation.from_strings("r", ["aaaa", "aaab", "zzzz", "zzzy"])
        idx = QgramInvertedIndex(exhaustive_fallback=True)
        idx.build(relation, EditDistance())
        assert len(idx.knn(relation.get(0), 3)) == 3

    def test_no_fallback_truncates(self):
        relation = Relation.from_strings("r", ["aaaa", "aaab", "zzzz", "zzzy"])
        idx = QgramInvertedIndex(exhaustive_fallback=False)
        idx.build(relation, EditDistance())
        assert len(idx.knn(relation.get(0), 3)) < 3

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            QgramInvertedIndex(q=0)

    def test_paged_postings_hit_buffer(self, relation):
        disk = DiskManager(page_capacity=8)
        pool = BufferPool(disk, capacity=64)
        idx = QgramInvertedIndex(buffer_pool=pool)
        idx.build(relation, CachedDistance(EditDistance()))
        pool.reset_stats()
        idx.knn(relation.get(0), 3)
        assert pool.stats.accesses > 0

    def test_paged_results_match_unpaged(self, relation):
        disk = DiskManager(page_capacity=8)
        pool = BufferPool(disk, capacity=64)
        paged = QgramInvertedIndex(buffer_pool=pool)
        paged.build(relation, CachedDistance(EditDistance()))
        plain = QgramInvertedIndex()
        plain.build(relation, CachedDistance(EditDistance()))
        for record in relation:
            assert [n.rid for n in paged.knn(record, 4)] == [
                n.rid for n in plain.knn(record, 4)
            ]

    def test_answers_do_not_depend_on_the_hash_seed(self):
        # Candidate budgets break shared-gram count ties by rid, never by
        # the hash order of q-gram sets.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        digests = set()
        for seed in ("0", "5"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            digests.add(
                subprocess.run(
                    [sys.executable, "-c", _QGRAM_ANSWERS],
                    env=env, capture_output=True, text=True, check=True,
                    timeout=300,
                ).stdout
            )
        assert len(digests) == 1


class TestMinHash:
    def test_finds_obvious_duplicates(self, relation):
        idx = MinHashIndex()
        idx.build(relation, CachedDistance(TokenJaccardDistance()))
        hits = idx.knn(relation.get(2), 1)
        assert hits[0].rid == 3

    def test_signature_deterministic(self, relation):
        a = MinHashIndex()
        a.build(relation, TokenJaccardDistance())
        b = MinHashIndex()
        b.build(relation, TokenJaccardDistance())
        assert a.relation_signatures().tuples == b.relation_signatures().tuples

    def test_rejects_bad_band_config(self):
        with pytest.raises(ValueError):
            MinHashIndex(n_hashes=10, n_bands=3)

    def test_qgram_mode_robust_to_typos(self):
        relation = Relation.from_strings("r", ["microsoft", "microsft", "boeing", "intel"])
        idx = MinHashIndex(use_qgrams=True, q=2)
        idx.build(relation, CachedDistance(EditDistance()))
        hits = idx.knn(relation.get(0), 1)
        assert hits[0].rid == 1

    def test_within_radius_semantics(self, relation):
        idx = MinHashIndex()
        idx.build(relation, CachedDistance(TokenJaccardDistance()))
        for hit in idx.within(relation.get(0), 0.5):
            assert hit.distance < 0.5

    def test_fallback_fills_k(self, relation):
        idx = MinHashIndex(exhaustive_fallback=True)
        idx.build(relation, CachedDistance(TokenJaccardDistance()))
        assert len(idx.knn(relation.get(0), 6)) == 6

    def test_empty_token_records(self):
        relation = Relation.from_strings("r", ["", "", "abc"])
        idx = MinHashIndex()
        idx.build(relation, CachedDistance(TokenJaccardDistance()))
        hits = idx.knn(relation.get(0), 2)
        assert len(hits) == 2
