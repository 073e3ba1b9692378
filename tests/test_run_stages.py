"""Staged-pipeline tests: cross-path parity, telemetry, and the
engine-path edge cases (empty relation, all-singleton NN lists, a
buffer pool smaller than one table)."""

import pytest

from repro.core.formulation import DEParams
from repro.core.pipeline import DuplicateEliminator
from repro.index.bruteforce import BruteForceIndex
from repro.run.config import RunConfig
from repro.run.context import RunContext
from repro.run.pipeline import StagedPipeline
from repro.run.spill import SpilledNNRelation
from repro.run.stats import RunStats

from tests.helpers import absdiff_distance, numbers_relation

VALUES = [7, 8, 9, 100, 101, 250, 400, 401, 402, 403, 600, 750, 900]
PARAMS = DEParams.size(3, c=2.5)


def staged_result(relation, params, **config_kwargs):
    """One staged run under a fresh context built from config kwargs."""
    config = RunConfig(**config_kwargs)
    context = RunContext.create(
        config, distance=absdiff_distance(), index=BruteForceIndex()
    )
    pipeline = StagedPipeline(context)
    return pipeline.run(relation, params), context


def groups(result):
    return [tuple(group) for group in result.partition.groups]


class TestCrossPathParity:
    """The four execution paths produce bit-identical partitions."""

    def reference(self, relation=None, params=PARAMS):
        relation = relation if relation is not None else numbers_relation(VALUES)
        result, _ = staged_result(relation, params)
        return relation, result

    def test_staged_matches_legacy_facade(self):
        relation, staged = self.reference()
        facade = DuplicateEliminator(absdiff_distance()).run(relation, PARAMS)
        assert groups(facade) == groups(staged)

    def test_engine_path_matches_in_memory(self):
        relation, expected = self.reference()
        result, _ = staged_result(relation, PARAMS, use_engine=True)
        assert groups(result) == groups(expected)
        assert not result.stats.spilled

    def test_spill_path_matches_in_memory(self):
        relation, expected = self.reference()
        result, context = staged_result(
            relation, PARAMS, use_engine=True, spill=True, buffer_pages=8
        )
        assert groups(result) == groups(expected)
        assert result.stats.spilled
        assert isinstance(result.nn_relation, SpilledNNRelation)
        # The spilled view reads back exactly the in-memory entries.
        assert list(result.nn_relation) == list(expected.nn_relation)

    def test_random_order_spill_resorts_out_of_core(self):
        # Random lookup order appends rids out of order, forcing the
        # rename + external-sort + drop path inside SpillStage.
        relation, expected = self.reference()
        result, context = staged_result(
            relation,
            PARAMS,
            use_engine=True,
            spill=True,
            buffer_pages=4,
            page_capacity=4,
            order="random",
            order_seed=13,
        )
        assert groups(result) == groups(expected)
        rids = [entry.rid for entry in result.nn_relation]
        assert rids == sorted(rids)
        # The scratch table from the resort is gone.
        assert "NN_Reln_unsorted" not in context.engine.catalog.names()


class TestEdgeCases:
    """Engine-path Phase 2 edge cases, each checked bit-identical
    against the in-memory path."""

    def test_empty_relation(self):
        relation = numbers_relation([])
        expected, _ = staged_result(relation, PARAMS)
        for extra in ({"use_engine": True}, {"use_engine": True, "spill": True}):
            result, _ = staged_result(relation, PARAMS, **extra)
            assert groups(result) == groups(expected) == []
            assert result.stats.n_cs_pairs == 0

    def test_all_singleton_nn_lists(self):
        # Points so far apart that no neighbor falls inside the radius:
        # every NN list is empty and every record is its own group.
        relation = numbers_relation([0, 1000, 2000, 3000, 4000])
        params = DEParams.diameter(0.001, c=2.0)
        expected, _ = staged_result(relation, params)
        assert all(len(group) == 1 for group in expected.partition.groups)
        for extra in ({"use_engine": True}, {"use_engine": True, "spill": True}):
            result, _ = staged_result(relation, params, **extra)
            assert groups(result) == groups(expected)
            assert all(not entry.neighbors for entry in result.nn_relation)

    def test_buffer_pool_smaller_than_table(self):
        # 40 rows at 2 rows/page need ~20 pages; a 2-page pool must
        # evict constantly, and the partition must not change.
        values = [base + offset for base in range(0, 4000, 100) for offset in (0, 1)]
        relation = numbers_relation(values)
        expected, _ = staged_result(relation, PARAMS)
        result, context = staged_result(
            relation,
            PARAMS,
            use_engine=True,
            spill=True,
            buffer_pages=2,
            page_capacity=2,
        )
        assert groups(result) == groups(expected)
        n_pages = context.engine.table("NN_Reln").n_pages
        assert n_pages > context.engine.buffer.capacity
        assert result.stats.buffer is not None
        assert result.stats.buffer.evictions > 0


class TestTelemetry:
    def test_stage_timings_recorded(self):
        result, context = staged_result(
            numbers_relation(VALUES), PARAMS, use_engine=True, spill=True
        )
        stats = result.stats
        assert [t.stage for t in stats.timings] == [
            "phase1", "spill", "cspairs", "partition", "postprocess"
        ]
        assert all(t.seconds >= 0.0 for t in stats.timings)
        assert stats.total_seconds == pytest.approx(
            sum(t.seconds for t in stats.timings)
        )
        assert context.last_stats is stats

    def test_stats_to_dict(self):
        result, _ = staged_result(
            numbers_relation(VALUES), PARAMS, use_engine=True, spill=True
        )
        payload = result.stats.to_dict()
        assert payload["spilled"] is True
        assert payload["n_cs_pairs"] == result.stats.n_cs_pairs
        assert {t["stage"] for t in payload["stages"]} >= {"phase1", "spill"}
        assert 0.0 <= payload["buffer"]["hit_ratio"] <= 1.0
        assert payload["distance_cache"]["calls"] >= 0

    def test_verify_stage_attaches_report(self):
        result, _ = staged_result(
            numbers_relation(VALUES),
            PARAMS,
            use_engine=True,
            spill=True,
            verify="strict",
        )
        assert result.verification is not None
        assert result.verification.ok
        assert result.cs_pairs is not None  # verify implies keep_cs_pairs
