"""Tests for the end-to-end DE pipeline."""

import pytest

from repro.core.formulation import DEParams
from repro.core.nn_phase import Phase1Stats, prepare_nn_lists
from repro.core.pipeline import DuplicateEliminator
from repro.core.result import Partition
from repro.data.embedded import table1_duplicate_groups
from repro.distances.edit import EditDistance
from repro.index.bktree import BKTreeIndex
from repro.index.bruteforce import BruteForceIndex
from repro.storage.engine import Engine

from tests.helpers import absdiff_distance, numbers_relation


class TestBasicRuns:
    def test_numbers_pairs(self):
        relation = numbers_relation([0, 1, 100, 101, 500])
        solver = DuplicateEliminator(absdiff_distance())
        result = solver.run(relation, DEParams.size(3, c=3.0))
        assert result.partition.non_trivial_groups() == [(0, 1), (2, 3)]

    def test_table1_true_groups_found(self, table1):
        solver = DuplicateEliminator(EditDistance())
        result = solver.run(table1, DEParams.size(5, c=4.0))
        groups = set(result.partition.non_trivial_groups())
        for expected in table1_duplicate_groups():
            assert tuple(expected) in groups

    def test_table1_dense_family_never_grouped(self, table1):
        # Tuples 10-13 ("Are You Ready" under four artists) have ng = 4;
        # with c = 4 the SN criterion keeps them apart — the paper's key
        # claim against thresholding.
        solver = DuplicateEliminator(EditDistance())
        result = solver.run(table1, DEParams.size(5, c=4.0))
        for rid in (10, 11, 12, 13):
            assert result.partition.group_of(rid) == (rid,)

    def test_diameter_spec(self):
        relation = numbers_relation([0, 1, 100, 101, 500])
        solver = DuplicateEliminator(absdiff_distance())
        result = solver.run(relation, DEParams.diameter(0.01, c=3.0))
        assert result.partition.non_trivial_groups() == [(0, 1), (2, 3)]

    def test_diameter_bound_respected(self):
        relation = numbers_relation([0, 1, 100, 101, 500])
        solver = DuplicateEliminator(absdiff_distance())
        result = solver.run(relation, DEParams.diameter(0.0005, c=3.0))
        # Radius smaller than any gap: everything is a singleton.
        assert result.partition == Partition.singletons(relation.ids())

    def test_size_bound_respected(self):
        relation = numbers_relation([0, 1, 2, 3, 1000, 2000, 3000, 4000])
        solver = DuplicateEliminator(absdiff_distance())
        result = solver.run(relation, DEParams.size(2, c=9.0))
        assert all(len(g) <= 2 for g in result.partition)

    def test_sn_threshold_filters_dense_groups(self):
        # A uniform clump of 5 (interior ng = 3) plus an isolated pair
        # (ng = 2): with c = 3 the SN criterion filters the clump but
        # keeps the pair.
        relation = numbers_relation([0, 1, 2, 3, 4, 1000, 1001])
        solver = DuplicateEliminator(absdiff_distance())
        result = solver.run(relation, DEParams.size(5, c=3.0))
        assert result.partition.non_trivial_groups() == [(5, 6)]

    def test_result_metadata(self):
        relation = numbers_relation([0, 1, 50])
        solver = DuplicateEliminator(absdiff_distance())
        result = solver.run(relation, DEParams.size(2, c=3.0))
        assert result.stats.phase1.lookups == 3
        assert result.stats.phase1.seconds > 0.0
        assert result.stats.n_cs_pairs >= 1
        assert len(result.nn_relation) == 3


class TestEngineParity:
    @pytest.mark.parametrize(
        "params",
        [DEParams.size(4, c=4.0), DEParams.diameter(0.3, c=4.0)],
        ids=["size", "diameter"],
    )
    def test_engine_and_direct_agree_on_table1(self, table1, params):
        direct = DuplicateEliminator(EditDistance()).run(table1, params)
        engined = DuplicateEliminator(EditDistance(), use_engine=True).run(
            table1, params
        )
        assert direct.partition == engined.partition

    def test_custom_engine_accepted(self, table1):
        engine = Engine(buffer_pages=16)
        solver = DuplicateEliminator(EditDistance(), engine=engine)
        result = solver.run(table1, DEParams.size(3, c=4.0))
        assert "CSPairs" in engine.catalog
        assert result.partition is not None


class TestIndexChoices:
    def test_bktree_matches_bruteforce(self, table1):
        params = DEParams.size(4, c=4.0)
        brute = DuplicateEliminator(EditDistance(), index=BruteForceIndex()).run(
            table1, params
        )
        bk = DuplicateEliminator(
            EditDistance(), index=BKTreeIndex(), cache_distance=False
        ).run(table1, params)
        assert brute.partition == bk.partition

    def test_lookup_orders_agree(self, table1):
        params = DEParams.size(4, c=4.0)
        results = {
            order: DuplicateEliminator(EditDistance(), order=order)
            .run(table1, params)
            .partition
            for order in ("bf", "random", "sequential")
        }
        assert results["bf"] == results["random"] == results["sequential"]


class TestRunFromNN:
    def test_phase2_only_reuse(self):
        relation = numbers_relation([0, 1, 100, 101])
        solver = DuplicateEliminator(absdiff_distance())
        params = DEParams.size(3, c=3.0)
        full = solver.run(relation, params)
        again = solver.run_from_nn(relation, full.nn_relation, params)
        assert again.partition == full.partition

    def test_sweeping_c_over_shared_phase1(self):
        relation = numbers_relation([0, 1, 2, 3, 4, 1000, 1001])
        solver = DuplicateEliminator(absdiff_distance())
        base = solver.run(relation, DEParams.size(5, c=3.0))
        permissive = solver.run_from_nn(
            relation, base.nn_relation, DEParams.size(5, c=9.0)
        )
        # Looser c admits the dense clump as a group too.
        assert len(permissive.partition.non_trivial_groups()) > len(
            base.partition.non_trivial_groups()
        )


class TestPostProcessing:
    def test_minimal_flag(self):
        relation = numbers_relation([0, 1, 100, 101])
        solver = DuplicateEliminator(absdiff_distance(), minimal=True)
        result = solver.run(relation, DEParams.size(4, c=5.0))
        assert result.partition.non_trivial_groups() == [(0, 1), (2, 3)]

    def test_cannot_link_splits(self):
        relation = numbers_relation([0, 1, 100, 101])
        solver = DuplicateEliminator(
            absdiff_distance(),
            cannot_link=lambda a, b: {a.fields[0], b.fields[0]} == {"0", "1"},
        )
        result = solver.run(relation, DEParams.size(3, c=3.0))
        assert result.partition.non_trivial_groups() == [(2, 3)]


class TestPhase1Stats:
    def test_throughput(self):
        stats = Phase1Stats(lookups=100, seconds=2.0)
        assert stats.throughput == 50.0

    def test_zero_seconds(self):
        assert Phase1Stats().throughput == 0.0

    def test_zero_lookups_with_elapsed_time(self):
        # A resumed/empty run may record time but no lookups; the
        # throughput must stay defined (0.0), not divide into nonsense.
        assert Phase1Stats(lookups=0, seconds=1.5).throughput == 0.0

    def test_cache_hit_rate_defined_without_traffic(self):
        assert Phase1Stats().cache_hit_rate == 0.0
        assert Phase1Stats(cache_hits=3, cache_misses=1).cache_hit_rate == 0.75

    def test_stats_accumulate_across_runs(self):
        relation = numbers_relation([0, 1, 10, 11])
        params = DEParams.size(2, c=4.0)
        stats = Phase1Stats()
        for _ in range(2):
            index = BruteForceIndex()
            index.build(relation, absdiff_distance())
            prepare_nn_lists(relation, index, params, stats=stats)
        assert stats.lookups == 8
        assert stats.seconds > 0.0
        assert stats.evaluations > 0
        # Two runs cost twice one run, not "only the last run".
        single = Phase1Stats()
        index = BruteForceIndex()
        index.build(relation, absdiff_distance())
        prepare_nn_lists(relation, index, params, stats=single)
        assert stats.evaluations == 2 * single.evaluations

    def test_prepare_requires_matching_relation(self):
        relation = numbers_relation([0, 1])
        other = numbers_relation([5, 6])
        index = BruteForceIndex()
        index.build(relation, absdiff_distance())
        with pytest.raises(ValueError, match="not built over"):
            prepare_nn_lists(other, index, DEParams.size(2))
