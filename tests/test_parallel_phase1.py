"""Tests for the batch scope and the chunked parallel Phase-1 engine.

The headline contract under test: for any worker count, pool kind, or
chunk size, :class:`ParallelNNEngine` produces an NN relation
bit-identical to the sequential ``prepare_nn_lists`` — distances, list
order, and NG values included.
"""

from __future__ import annotations

import pytest

from repro.core.formulation import DEParams
from repro.core.nn_phase import Phase1Stats, prepare_nn_lists
from repro.data.loaders import dataset_names, load_dataset
from repro.distances.cosine import CosineDistance
from repro.eval.bench import nn_checksum
from repro.index.bruteforce import BruteForceIndex
from repro.parallel import Chunk, ParallelNNEngine, plan_chunks

from tests.helpers import absdiff_distance, numbers_relation


def build_brute(relation, distance=None):
    index = BruteForceIndex()
    index.build(relation, distance or absdiff_distance())
    return index


class TestPlanChunks:
    def test_balanced_contiguous_split(self):
        chunks = plan_chunks(list(range(10)), n_chunks=3)
        assert [list(c.rids) for c in chunks] == [
            [0, 1, 2, 3],
            [4, 5, 6],
            [7, 8, 9],
        ]
        assert [c.index for c in chunks] == [0, 1, 2]

    def test_chunk_size_split(self):
        chunks = plan_chunks([5, 7, 9, 11, 13], chunk_size=2)
        assert [list(c.rids) for c in chunks] == [[5, 7], [9, 11], [13]]

    def test_never_emits_empty_chunks(self):
        chunks = plan_chunks([1, 2], n_chunks=8)
        assert [len(c) for c in chunks] == [1, 1]

    def test_requires_exactly_one_strategy(self):
        with pytest.raises(ValueError):
            plan_chunks([1], n_chunks=1, chunk_size=1)
        with pytest.raises(ValueError):
            plan_chunks([1])

    def test_empty_input(self):
        assert plan_chunks([], n_chunks=4) == []

    def test_blocks_stay_whole(self):
        # Blocks {0, 5, 6}, {1, 2, 3, 4}, {7, 8, 9}: each becomes
        # contiguous (in order of first appearance) and the balanced
        # cuts 4 and 7 move forward to the block edges 7 and 10.
        blocks = [(0, 5, 6), (1, 2, 3, 4), (7, 8, 9)]
        chunks = plan_chunks(list(range(10)), n_chunks=3, blocks=blocks)
        assert [list(c.rids) for c in chunks] == [
            [0, 5, 6, 1, 2, 3, 4],
            [7, 8, 9],
        ]
        sized = plan_chunks(list(range(10)), chunk_size=3, blocks=blocks)
        assert [list(c.rids) for c in sized] == [
            [0, 5, 6],
            [1, 2, 3, 4],
            [7, 8, 9],
        ]
        # A rid in no block stands alone; one chunk keeps the order.
        alone = plan_chunks([9, 1, 0], n_chunks=3, blocks=[(0, 1)])
        assert [list(c.rids) for c in alone] == [[9], [1, 0]]
        single = plan_chunks([2, 1, 0], n_chunks=1, blocks=[(0, 2)])
        assert [list(c.rids) for c in single] == [[2, 1, 0]]

    def test_chunk_is_iterable_sequence(self):
        chunk = Chunk(index=0, rids=(4, 2))
        assert len(chunk) == 2
        assert list(chunk) == [4, 2]


class TestBatchQueries:
    """The scalar ``phase1_batch`` scope: each pair evaluated once."""

    def setup_method(self):
        self.relation = numbers_relation([0, 1, 3, 7, 8, 9, 20, 21])
        self.records = self.relation.records

    def test_batch_on_subset_of_relation(self):
        index = build_brute(self.relation)
        subset = self.records[2:5]
        assert list(index.phase1_batch(subset, k=2)) == [
            (index.knn(r, 2), index.neighborhood_growth(r)) for r in subset
        ]

    def test_batch_halves_evaluations(self):
        # A whole-relation batch evaluates each unordered pair once,
        # NG range counts included.
        index = build_brute(self.relation)
        index.phase1_batch(self.records, k=3)
        n = len(self.records)
        assert index.totals.evaluations == n * (n - 1) // 2

    def test_per_query_path_reads_cache_but_never_fills(self):
        index = build_brute(self.relation)
        index.knn(self.records[0], 3)
        assert len(index._pair_cache) == 0
        index.phase1_batch(self.records, k=3)
        filled = len(index._pair_cache)
        assert filled > 0
        index.knn(self.records[0], 3)  # served from cache
        assert len(index._pair_cache) == filled
        assert index.totals.cache_hits > 0


class TestPhase1Batch:
    """The fused kernel equals the per-record knn/within + NG sequence."""

    def setup_method(self):
        self.relation = numbers_relation([0, 1, 3, 7, 8, 9, 20, 21, 200])
        self.records = self.relation.records

    def reference(self, index, k=None, theta=None, p=2.0, radius_fn=None):
        results = []
        for record in self.records:
            if theta is not None:
                neighbors = index.within(record, theta)
                if k is not None:
                    neighbors = neighbors[:k]
            else:
                neighbors = index.knn(record, k)
            nn_distance = neighbors[0].distance if neighbors else None
            ng = index.neighborhood_growth(
                record, p=p, nn_distance=nn_distance, radius_fn=radius_fn
            )
            results.append((neighbors, ng))
        return results

    @pytest.mark.parametrize(
        "shape",
        [dict(k=3), dict(theta=0.005), dict(k=2, theta=0.005)],
        ids=["size", "diameter", "combined"],
    )
    def test_matches_per_record_sequence(self, shape):
        fused = list(
            build_brute(self.relation).phase1_batch(self.records, **shape)
        )
        want = self.reference(build_brute(self.relation), **shape)
        assert fused == want

    def test_exact_duplicates(self):
        relation = numbers_relation([5, 5, 5, 9, 30])
        records = relation.records
        fused = build_brute(relation).phase1_batch(records, k=2)
        index = build_brute(relation)
        for record, (neighbors, ng) in zip(records, fused):
            assert neighbors == index.knn(record, 2)
            assert ng == index.neighborhood_growth(record)

    def test_singleton_relation(self):
        relation = numbers_relation([42])
        (neighbors, ng), = build_brute(relation).phase1_batch(relation.records, k=3)
        assert neighbors == []
        assert ng == 1

    def test_radius_fn_falls_back_to_generic(self):
        radius_fn = lambda nn: 3.0 * nn  # noqa: E731
        fused = list(build_brute(self.relation).phase1_batch(
            self.records, k=3, radius_fn=radius_fn
        ))
        want = self.reference(build_brute(self.relation), k=3, radius_fn=radius_fn)
        assert fused == want

    def test_requires_some_cut(self):
        index = build_brute(self.relation)
        with pytest.raises(ValueError, match="k, theta, or both"):
            index.phase1_batch(self.records)


class TestEngineParity:
    """ParallelNNEngine output is identical to sequential Phase 1."""

    PARAMS = [DEParams.size(4, c=4.0), DEParams.diameter(0.3, c=4.0)]

    def sequential(self, relation, params, distance_cls=CosineDistance):
        index = BruteForceIndex()
        index.build(relation, distance_cls())
        return prepare_nn_lists(relation, index, params)

    def engine_run(self, relation, params, distance_cls=CosineDistance, **kwargs):
        index = BruteForceIndex()
        index.build(relation, distance_cls())
        return ParallelNNEngine(**kwargs).run(relation, index, params)

    @pytest.mark.parametrize("dataset", dataset_names())
    def test_all_datasets_all_worker_counts(self, dataset):
        relation = load_dataset(
            dataset, n_entities=15, duplicate_fraction=0.3, seed=1
        ).relation
        for params in self.PARAMS:
            want = nn_checksum(self.sequential(relation, params))
            for n_workers in (1, 2, 4):
                got = nn_checksum(
                    self.engine_run(relation, params, n_workers=n_workers)
                )
                assert got == want, (dataset, params.cut, n_workers)

    def test_combined_cut_parity(self, restaurants_dataset):
        relation = restaurants_dataset.relation
        params = DEParams.combined(3, 0.4, c=4.0)
        want = nn_checksum(self.sequential(relation, params))
        got = nn_checksum(self.engine_run(relation, params, n_workers=4))
        assert got == want

    def test_process_pool_parity(self, restaurants_dataset):
        relation = restaurants_dataset.relation
        params = DEParams.size(4, c=4.0)
        want = nn_checksum(self.sequential(relation, params))
        got = nn_checksum(
            self.engine_run(relation, params, n_workers=2, pool="process")
        )
        assert got == want

    def test_chunk_size_does_not_change_result(self, restaurants_dataset):
        relation = restaurants_dataset.relation
        params = DEParams.size(4, c=4.0)
        want = nn_checksum(self.sequential(relation, params))
        for chunk_size in (1, 3, 1000):
            got = nn_checksum(
                self.engine_run(
                    relation, params, n_workers=2, chunk_size=chunk_size
                )
            )
            assert got == want, chunk_size

    def test_gapped_record_ids(self):
        base = numbers_relation([0, 1, 3, 7, 8, 9, 20, 21])
        relation = base.subset([0, 2, 3, 5, 7], name="gapped")
        assert relation.ids() == [0, 2, 3, 5, 7]
        params = DEParams.size(3, c=4.0)
        index = BruteForceIndex()
        index.build(relation, absdiff_distance())
        want = nn_checksum(prepare_nn_lists(relation, index, params))
        index2 = BruteForceIndex()
        index2.build(relation, absdiff_distance())
        got = nn_checksum(
            ParallelNNEngine(n_workers=2).run(relation, index2, params)
        )
        assert got == want

    def test_random_order_parity(self, restaurants_dataset):
        relation = restaurants_dataset.relation
        params = DEParams.size(4, c=4.0)
        want = nn_checksum(self.sequential(relation, params))
        got = nn_checksum(
            self.engine_run(
                relation, params, n_workers=2
            )
        )
        index = BruteForceIndex()
        index.build(relation, CosineDistance())
        random_nn = ParallelNNEngine(n_workers=2).run(
            relation, index, params, order="random", order_seed=9
        )
        assert got == want
        assert nn_checksum(random_nn) == want

    def test_rejects_foreign_index(self):
        relation = numbers_relation([1, 2, 3])
        other = numbers_relation([4, 5, 6])
        index = build_brute(other)
        with pytest.raises(ValueError, match="not built over"):
            ParallelNNEngine().run(relation, index, DEParams.size(2))

    def test_engine_validates_arguments(self):
        with pytest.raises(ValueError, match="n_workers"):
            ParallelNNEngine(n_workers=0)
        with pytest.raises(ValueError, match="pool"):
            ParallelNNEngine(pool="fiber")
        relation = numbers_relation([1, 2])
        index = build_brute(relation)
        with pytest.raises(ValueError, match="lookup order"):
            ParallelNNEngine().run(relation, index, DEParams.size(2), order="dfs")


class TestEngineStats:
    def test_stats_accounting(self):
        relation = numbers_relation(list(range(30)))
        index = build_brute(relation)
        stats = Phase1Stats()
        ParallelNNEngine(n_workers=2).run(
            relation, index, DEParams.size(3, c=4.0), stats=stats
        )
        assert stats.lookups == 30
        assert stats.seconds > 0.0
        assert stats.n_chunks == len(stats.chunk_seconds) > 1
        assert stats.evaluations == index.totals.evaluations
        assert stats.cache_hits == index.totals.cache_hits
        assert stats.cache_misses == index.totals.cache_misses
        assert 0.0 < stats.cache_hit_rate < 1.0

    def test_process_pool_stats_sum_worker_deltas(self):
        relation = numbers_relation(list(range(20)))
        index = build_brute(relation)
        stats = Phase1Stats()
        ParallelNNEngine(n_workers=2, pool="process").run(
            relation, index, DEParams.size(3, c=4.0), stats=stats
        )
        assert stats.lookups == 20
        assert stats.evaluations > 0
        # The parent-process index never ran a query itself.
        assert index.totals.evaluations == 0


class TestPrepareNNListsDelegation:
    def test_n_workers_gt_one_matches_sequential(self):
        relation = numbers_relation([0, 1, 3, 7, 8, 9, 20, 21])
        params = DEParams.size(3, c=4.0)
        want = nn_checksum(prepare_nn_lists(relation, build_brute(relation), params))
        got = nn_checksum(
            prepare_nn_lists(
                relation, build_brute(relation), params, n_workers=3
            )
        )
        assert got == want

    def test_delegation_fills_chunk_stats(self):
        relation = numbers_relation(list(range(16)))
        stats = Phase1Stats()
        prepare_nn_lists(
            relation,
            build_brute(relation),
            DEParams.size(2, c=4.0),
            n_workers=2,
            stats=stats,
        )
        assert stats.n_chunks > 0

    def test_sequential_path_leaves_chunks_untouched(self):
        relation = numbers_relation(list(range(8)))
        stats = Phase1Stats()
        prepare_nn_lists(
            relation, build_brute(relation), DEParams.size(2, c=4.0), stats=stats
        )
        assert stats.n_chunks == 0
        assert stats.chunk_seconds == []


class TestBoundedPairCache:
    """The pair cache and its counters live for one build."""

    def test_build_resets_cache_counters(self):
        relation = numbers_relation([1, 2, 3, 4])
        index = build_brute(relation)
        index.phase1_batch(relation.records, k=2)
        assert index.totals.cache_misses > 0
        index.build(relation, absdiff_distance())
        assert len(index._pair_cache) == 0
        assert (index.totals.cache_hits, index.totals.cache_misses) == (0, 0)
