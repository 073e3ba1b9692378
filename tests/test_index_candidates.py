"""Batched candidate generation across the approximate indexes.

The contracts under test, per index (MinHash LSH, q-gram inverted,
BK-tree):

- ``phase1_batch`` is result-identical to per-query calls on a fresh
  index;
- the parallel engine reproduces the sequential NN relation checksum
  for any worker count;
- Phase-1 ``evaluations`` strictly drop vs. the brute-force baseline,
  and the new pruning counters (``candidates_generated`` /
  ``evaluations_pruned`` / per-index attribution) are filled;
- the MinHash index signs and buckets records exactly once per build;
- the per-query path consults a pair cache primed by a batch (the
  recorded ``cache_hit_rate = 0.0`` regression).
"""

from __future__ import annotations

import pytest

from repro.core.formulation import DEParams
from repro.core.nn_phase import Phase1Stats, prepare_nn_lists
from repro.data.loaders import load_dataset
from repro.data.schema import Record
from repro.distances.edit import EditDistance
from repro.eval.bench import nn_checksum
from repro.index.bktree import BKTreeIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.inverted import QgramInvertedIndex
from repro.index.minhash import MinHashIndex, band_keys
from repro.parallel.engine import ParallelNNEngine

APPROX_FACTORIES = [
    ("minhash", MinHashIndex),
    ("qgram", QgramInvertedIndex),
    ("bktree", BKTreeIndex),
]

K = 3
THETA = 0.42
PARAMS = DEParams.size(K, c=4.0)


@pytest.fixture(scope="module")
def relation():
    # Seed-fixed tiny org dataset; edit distance suits all four indexes
    # (the BK-tree accepts nothing else).
    return load_dataset(
        "org", n_entities=30, duplicate_fraction=0.4, seed=7
    ).relation


def build(factory, relation):
    index = factory()
    index.build(relation, EditDistance())
    return index


class TestBatchPerQueryParity:
    """Batch answers must be bit-identical to per-query answers."""

    @pytest.mark.parametrize("name,factory", APPROX_FACTORIES)
    @pytest.mark.parametrize(
        "k,theta", [(K, None), (None, THETA), (K, THETA)]
    )
    def test_phase1_batch(self, name, factory, relation, k, theta):
        records = relation.records
        got = list(
            build(factory, relation).phase1_batch(records, k=k, theta=theta)
        )
        plain = build(factory, relation)
        want = []
        for record in records:
            if theta is not None:
                neighbors = plain.within(record, theta)
                if k is not None:
                    neighbors = neighbors[:k]
            else:
                neighbors = plain.knn(record, k)
            nn_distance = neighbors[0].distance if neighbors else None
            want.append(
                (neighbors, plain.neighborhood_growth(record, nn_distance=nn_distance))
            )
        assert got == want

    @pytest.mark.parametrize(
        "name,factory",
        [
            ("minhash", MinHashIndex),
            # Fast path off: the banded-DP filter re-runs cheap partial
            # DPs per cutoff instead of caching full distances, so the
            # once-per-pair bound only holds on the _pair_distance route.
            ("qgram", lambda: QgramInvertedIndex(enable_fast_path=False)),
            ("bktree", BKTreeIndex),
        ],
    )
    def test_batch_reuses_pairs(self, name, factory, relation):
        """Inside one batch no unordered pair is evaluated twice."""
        index = build(factory, relation)
        index.phase1_batch(relation.records, k=K, theta=THETA)
        n = len(relation)
        assert index.totals.evaluations <= n * (n - 1) // 2 + index.build_evaluations


class TestEngineParity:
    """Chunked parallel execution reproduces the sequential result."""

    @pytest.mark.parametrize("name,factory", APPROX_FACTORIES)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_worker_count_invariance(self, name, factory, relation, n_workers):
        sequential = prepare_nn_lists(
            relation, build(factory, relation), PARAMS, order="sequential"
        )
        engine = ParallelNNEngine(n_workers=n_workers, pool="thread")
        parallel = engine.run(
            relation, build(factory, relation), PARAMS, order="sequential"
        )
        assert nn_checksum(parallel) == nn_checksum(sequential)

    def test_process_pool_roundtrip(self, relation):
        """The index (incl. its batch lock) survives pickling to workers."""
        sequential = prepare_nn_lists(
            relation, build(MinHashIndex, relation), PARAMS, order="sequential"
        )
        engine = ParallelNNEngine(n_workers=2, pool="process", chunk_size=11)
        parallel = engine.run(
            relation, build(MinHashIndex, relation), PARAMS, order="sequential"
        )
        assert nn_checksum(parallel) == nn_checksum(sequential)


class TestPruningAccounting:
    """The sub-quadratic lever is visible in Phase1Stats."""

    def run_stats(self, factory, relation):
        stats = Phase1Stats()
        index = build(factory, relation)
        engine = ParallelNNEngine(n_workers=1)
        engine.run(relation, index, PARAMS, order="sequential", stats=stats)
        return index, stats

    @pytest.mark.parametrize("name,factory", APPROX_FACTORIES)
    def test_evaluations_drop_vs_brute(self, name, factory, relation):
        brute_stats = Phase1Stats()
        prepare_nn_lists(
            relation,
            build(BruteForceIndex, relation),
            PARAMS,
            order="sequential",
            stats=brute_stats,
        )
        index, stats = self.run_stats(factory, relation)
        total = stats.evaluations + index.build_evaluations
        assert total < brute_stats.evaluations

    @pytest.mark.parametrize("name,factory", APPROX_FACTORIES)
    def test_counters_filled_and_credited(self, name, factory, relation):
        index, stats = self.run_stats(factory, relation)
        assert stats.candidates_generated > 0
        assert stats.evaluations_pruned > 0
        assert 0.0 < stats.prune_rate <= 1.0
        assert stats.lookups == len(relation)
        assert stats.evaluations == index.totals.evaluations
        assert stats.candidates_generated == index.totals.candidates_generated
        assert stats.evaluations_pruned == index.totals.evaluations_pruned

    def test_brute_force_never_prunes(self, relation):
        _, stats = self.run_stats(BruteForceIndex, relation)
        assert stats.evaluations_pruned == 0
        assert stats.prune_rate == 0.0

    def test_sequential_path_credits_index(self, relation):
        stats = Phase1Stats()
        index = build(QgramInvertedIndex, relation)
        prepare_nn_lists(relation, index, PARAMS, order="sequential", stats=stats)
        assert stats.lookups == len(relation)
        assert stats.evaluations_pruned == index.totals.evaluations_pruned > 0


class TestMinHashBuildOnce:
    """Signatures and band buckets are computed in _build, idempotently."""

    @staticmethod
    def flat_buckets(index):
        """The flat bucket layout as plain lists."""
        return (
            index._row_bucket_ids.tolist(),
            index._bucket_rows.tolist(),
            index._bucket_bounds.tolist(),
        )

    @staticmethod
    def scalar_buckets(index, relation):
        """``(band, key) -> rids`` from scalar ``band_keys`` of every
        record's scalar signature."""
        buckets: dict = {}
        for record in relation:
            for key in band_keys(index._signature(record), index.n_bands):
                buckets.setdefault(key, []).append(record.rid)
        return buckets

    @staticmethod
    def index_buckets(index):
        """The index's buckets as sorted member lists."""
        bounds = index._bucket_bounds.tolist()
        rids = index._rid_array[index._bucket_rows].tolist()
        return sorted(rids[lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    def test_rebuild_is_idempotent(self, relation):
        index = build(MinHashIndex, relation)
        matrix = index.relation_signatures().matrix
        flat = self.flat_buckets(index)
        index.build(relation, EditDistance())
        assert not hasattr(index, "_signatures")
        signatures = index.relation_signatures()
        assert signatures.tuples == [
            index._signature(record) for record in relation
        ]
        assert (signatures.matrix == matrix).all()
        assert self.flat_buckets(index) == flat
        # A non-idempotent rebuild would double every bucket's
        # postings.
        assert self.index_buckets(index) == sorted(
            self.scalar_buckets(index, relation).values()
        )

    def test_lookups_never_resign_in_relation_records(self, relation, monkeypatch):
        index = build(MinHashIndex, relation)
        record = relation.records[0]

        def boom(_record):
            raise AssertionError("lookup recomputed a signature")

        monkeypatch.setattr(index, "_signature", boom)
        index.knn(record, K)
        index.within(record, THETA)
        index.phase1_batch([record], k=K)

    def test_out_of_relation_probe_still_signs(self, relation, monkeypatch):
        other = load_dataset(
            "org", n_entities=5, duplicate_fraction=0.0, seed=99
        ).relation
        probe = Record(max(relation.ids()) + 1, other.records[0].fields)
        # A probe sharing a record's text shares all its band keys.
        twin = Record(probe.rid + 1, relation.records[0].fields)
        index = build(MinHashIndex, relation)
        assert probe.rid not in index._row_of
        sign = index._signature
        buckets = self.scalar_buckets(index, relation)
        signed = []

        def counting(record):
            signed.append(record.rid)
            return sign(record)

        monkeypatch.setattr(index, "_signature", counting)
        for record in (probe, twin):
            candidates = index._candidates(record)
            # The probe is signed on the fly, once, and its candidates
            # are the records sharing a scalar band key with it.
            assert signed == [record.rid]
            signed.clear()
            keys = set(band_keys(sign(record), index.n_bands))
            expected = {
                rid
                for key, rids in buckets.items()
                if key in keys
                for rid in rids
            }
            assert candidates.tolist() == sorted(expected)
        assert relation.records[0].rid in index._candidates(twin).tolist()


class TestPerQueryCacheConsultation:
    """A batch-primed pair cache serves the per-query path (hit-rate
    regression).

    ``BENCH_phase1.json`` once recorded ``cache_hit_rate = 0.0`` for
    every per-query run — correct for a cold index (per-query lookups
    consult but never fill the cache), yet the consultation itself must
    demonstrably work.
    """

    def test_primed_cache_serves_per_query_lookups(self, relation):
        index = build(BruteForceIndex, relation)
        index.phase1_batch(relation.records, k=K)
        stats = Phase1Stats()
        prepare_nn_lists(relation, index, PARAMS, order="sequential", stats=stats)
        assert stats.cache_hits > 0
        assert stats.cache_hit_rate > 0.9
        assert stats.evaluations == 0

    def test_cold_per_query_path_never_fills(self, relation):
        index = build(BruteForceIndex, relation)
        prepare_nn_lists(relation, index, PARAMS, order="sequential")
        assert index.totals.cache_hits == 0
        assert not index._pair_cache
