"""Phase 2: one CSPairs builder per source, and the streaming scan.

The in-memory builder (:func:`build_cs_pairs`) and the engine's SQL
plan (:func:`build_cs_pairs_engine`) must produce identical rows on
every cut specification, with or without a constraint pair filter.
These tests pin that contract, the streaming partitioner's bounded
residency (the 2-page-buffer edge case), the engine's automatic
external ``order_by``, and the ``bench-phase2`` harness and gate.
"""

from __future__ import annotations

import pytest

from repro.core.constraints import PairFilter, RelationPairFilter, TimeWindow
from repro.core.cspairs import (
    build_cs_pairs,
    build_cs_pairs_engine,
    cs_pairs_from_table,
    iter_cs_pairs,
    materialize_nn_reln,
)
from repro.core.formulation import DEParams
from repro.core.neighborhood import NNRelation
from repro.core.nn_phase import prepare_nn_lists
from repro.core.partitioner import mutual_components, partition_records
from repro.data.loaders import load_dataset
from repro.distances.edit import EditDistance
from repro.index.bruteforce import BruteForceIndex
from repro.run.config import RunConfig
from repro.run.context import RunContext
from repro.run.pipeline import StagedPipeline
from repro.run.stats import Phase2Stats
from repro.storage.catalog import Catalog
from repro.storage.engine import Engine

from .helpers import absdiff_distance, numbers_relation

#: Clustered 1-D values: several duplicate groups of varying size plus
#: isolated singletons, so Phase 2 produces a non-trivial CSPairs
#: relation with several mutual-NN components.
VALUES = [
    10, 11, 12,
    40, 41,
    75,
    100, 101, 102, 103,
    160, 161,
    220,
    300, 301, 302,
    360, 361,
    430,
    500, 501,
    560, 561, 562,
    640,
    700, 701,
    760, 761, 762, 763,
    850,
    900, 901,
    960,
]

CUTS = {
    "size": DEParams.size(4, c=4.0),
    "diameter": DEParams.diameter(0.004, c=4.0),
    "combined": DEParams.combined(4, 0.004, c=4.0),
}


def _nn_relation(relation, distance, params) -> NNRelation:
    index = BruteForceIndex()
    index.build(relation, distance)
    return prepare_nn_lists(relation, index, params)


@pytest.fixture(scope="module")
def instance():
    relation = numbers_relation(VALUES)
    distance = absdiff_distance(scale=1000.0)
    params = CUTS["size"]
    nn = _nn_relation(relation, distance, params)
    reference = build_cs_pairs(nn, params)
    return relation, distance, params, nn, reference


def _engine_with_nn(nn, buffer_pages=64, page_capacity=8) -> Engine:
    engine = Engine(buffer_pages=buffer_pages, page_capacity=page_capacity)
    materialize_nn_reln(engine, nn)
    return engine


def _engine_rows(nn, params, **kwargs):
    engine = _engine_with_nn(nn)
    return cs_pairs_from_table(build_cs_pairs_engine(engine, params, **kwargs))


# ----------------------------------------------------------------------
# Builder parity: in-memory vs. the engine's SQL plan
# ----------------------------------------------------------------------


class TestBuilderParity:
    @pytest.mark.parametrize("cut", sorted(CUTS))
    def test_engine_matches_in_memory(self, cut):
        relation = numbers_relation(VALUES)
        params = CUTS[cut]
        nn = _nn_relation(relation, absdiff_distance(scale=1000.0), params)
        reference = build_cs_pairs(nn, params)
        assert reference, "the instance must yield CSPairs rows"
        assert _engine_rows(nn, params) == reference

    @pytest.mark.parametrize("cut", sorted(CUTS))
    def test_subset_naming_outside_rids(self, cut):
        # A shard's NN relation covers a subset of the rids while its
        # lists name neighbours outside it: those partners yield no row
        # on either builder.
        relation = numbers_relation(VALUES)
        params = CUTS[cut]
        nn = _nn_relation(relation, absdiff_distance(scale=1000.0), params)
        subset = NNRelation(
            {entry.rid: entry for entry in nn if entry.rid % 3 != 1}
        )
        named = {rid for entry in subset for rid in entry.neighbor_ids}
        assert named - set(subset.ids()), "subset must name outside rids"
        pairs = build_cs_pairs(subset, params)
        members = set(subset.ids())
        assert all(p.id1 in members and p.id2 in members for p in pairs)
        assert _engine_rows(subset, params) == pairs

    def test_pair_filter_parity_on_claims(self):
        claims = load_dataset(
            "claims", n_entities=20, duplicate_fraction=0.4, seed=5
        ).relation
        params = DEParams.combined(5, 0.45, c=4.0)
        nn = _nn_relation(claims, EditDistance(), params)
        pair_filter = RelationPairFilter(
            PairFilter((TimeWindow("service_date", days=30),), claims.schema),
            claims,
        )
        memory_stats, engine_stats = Phase2Stats(), Phase2Stats()
        memory = build_cs_pairs(
            nn, params, pair_filter=pair_filter, stats=memory_stats
        )
        engine = _engine_rows(
            nn, params, pair_filter=pair_filter, stats=engine_stats
        )
        assert engine == memory
        assert memory_stats.pairs_filtered > 0
        assert engine_stats.pairs_filtered == memory_stats.pairs_filtered
        unfiltered = build_cs_pairs(nn, params)
        assert len(unfiltered) == len(memory) + memory_stats.pairs_filtered

    def test_engine_drops_unsorted_table(self, instance):
        _, _, params, nn, _ = instance
        engine = _engine_with_nn(nn)
        build_cs_pairs_engine(engine, params)
        assert engine.catalog.names() == ["CSPairs", "NN_Reln"]


def test_iter_cs_pairs_streams_table(instance):
    _, _, params, nn, reference = instance
    engine = _engine_with_nn(nn)
    table = build_cs_pairs_engine(engine, params)
    iterator = iter_cs_pairs(table)
    assert next(iterator) == reference[0]
    assert [reference[0]] + list(iterator) == reference


# ----------------------------------------------------------------------
# Partitioner: streaming consumption and mutual-NN components
# ----------------------------------------------------------------------


class TestPartitioner:
    def test_streaming_iterator_matches_list_input(self, instance):
        relation, _, params, _, reference = instance
        from_list = partition_records(relation.ids(), reference, params)
        from_iter = partition_records(
            relation.ids(), iter(reference), params
        )
        assert from_list == from_iter

    def test_components_partition_the_rows(self, instance):
        _, _, _, _, reference = instance
        components = mutual_components(reference)
        flattened = [row for component in components for row in component]
        assert sorted(flattened, key=lambda r: (r.id1, r.id2)) == reference
        # Within a component, global row order is preserved.
        for component in components:
            assert component == sorted(
                component, key=lambda r: (r.id1, r.id2)
            )
        # Components are vertex-disjoint.
        seen: set[int] = set()
        for component in components:
            ids = {row.id1 for row in component} | {
                row.id2 for row in component
            }
            assert not (ids & seen)
            seen |= ids

    def test_groups_never_span_components(self, instance):
        relation, _, params, _, reference = instance
        components = mutual_components(reference)
        membership = {}
        for index, component in enumerate(components):
            for row in component:
                membership[row.id1] = index
                membership[row.id2] = index
        partition = partition_records(relation.ids(), reference, params)
        for group in partition.non_trivial_groups():
            owners = {membership[rid] for rid in group}
            assert len(owners) == 1

    def test_empty_cs_pairs(self):
        relation = numbers_relation([0, 500, 999])
        params = DEParams.size(3, c=2.0)
        partition = partition_records(relation.ids(), [], params)
        assert partition.non_trivial_groups() == []
        assert sorted(partition.groups) == [(0,), (1,), (2,)]


# ----------------------------------------------------------------------
# Full pipeline on every source
# ----------------------------------------------------------------------


def _run_config(relation, distance, params, config: RunConfig):
    index = BruteForceIndex()
    context = RunContext.create(config, distance=distance, index=index)
    return StagedPipeline(context).run(relation, params)


class TestPipeline:
    @pytest.mark.parametrize("source", ("memory", "engine", "spill"))
    def test_source_verified_parity(self, instance, source):
        relation, distance, params, _, _ = instance
        baseline = _run_config(
            relation, distance, params, RunConfig(verify=False)
        )
        config = RunConfig(
            use_engine=source in ("engine", "spill"),
            spill=source == "spill",
            buffer_pages=8 if source == "spill" else RunConfig.buffer_pages,
            verify="report",
        )
        result = _run_config(relation, distance, params, config)
        assert result.partition == baseline.partition
        assert result.verification is not None and result.verification.ok

    def test_phase2_stats_surface_in_run_stats(self, instance):
        relation, distance, params, _, reference = instance
        config = RunConfig(use_engine=True)
        result = _run_config(relation, distance, params, config)
        assert result.stats.n_cs_pairs == len(reference)
        payload = result.stats.to_dict()
        assert payload["n_cs_pairs"] == len(reference)
        assert payload["phase2"]["partition_streamed"] is True
        assert payload["phase2"]["pairs_filtered"] == 0

    def test_spill_time_never_booked_as_phase2(self, instance):
        # On a spill run every Phase-1 lookup runs inside the spill
        # stage; no Phase-2 figure may include that stage's time.
        relation, distance, params, _, _ = instance
        config = RunConfig(use_engine=True, spill=True, buffer_pages=8)
        result = _run_config(relation, distance, params, config)
        assert result.stats.stage_seconds("spill") > 0.0
        payload = result.stats.to_dict()
        assert [key for key in payload if "phase2" in key] == ["phase2"]
        assert set(payload["phase2"]) == {
            "pairs_filtered", "partition_streamed", "peak_group_rows",
        }


# ----------------------------------------------------------------------
# The 2-page-buffer edge case: bounded residency end to end
# ----------------------------------------------------------------------


class TestTwoPageBufferStreaming:
    def test_spilled_run_streams_cs_pairs(self, instance, monkeypatch):
        relation, distance, params, _, reference = instance
        baseline = _run_config(
            relation, distance, params, RunConfig(verify=False)
        )
        sorts: list[tuple[str, int]] = []
        dropped: dict[str, int] = {}
        external_sort = Engine._external_sort
        drop_table = Catalog.drop_table

        def recording_sort(self, dest, source, key, run_rows):
            sorts.append((dest, run_rows))
            return external_sort(self, dest, source, key, run_rows)

        def recording_drop(self, name):
            dropped[name] = self.table(name).n_rows
            drop_table(self, name)

        monkeypatch.setattr(Engine, "_external_sort", recording_sort)
        monkeypatch.setattr(Catalog, "drop_table", recording_drop)
        config = RunConfig(
            use_engine=True,
            spill=True,
            buffer_pages=2,
            page_capacity=4,
        )
        index = BruteForceIndex()
        context = RunContext.create(config, distance=distance, index=index)
        result = StagedPipeline(context).run(relation, params)

        # Same answer as the fully in-memory path.
        assert result.partition == baseline.partition
        # The CSPairs row list was never materialized...
        assert result.cs_pairs is None
        assert result.stats.n_cs_pairs == len(reference)
        phase2 = result.stats.phase2
        # ...the partitioner consumed the table as a stream...
        assert phase2.partition_streamed is True
        # ...holding at most one anchor's rows at a time, which is far
        # smaller than the relation...
        assert 1 <= phase2.peak_group_rows < len(reference)
        assert phase2.peak_group_rows <= params.k
        # ...the CSPairs ORDER BY ran as an external sort whose runs
        # each held at most one buffer pool of rows...
        pool_rows = 2 * 4
        cs_sorts = [run_rows for dest, run_rows in sorts if dest == "CSPairs"]
        assert cs_sorts and all(rows <= pool_rows for rows in cs_sorts)
        runs = {
            name: rows for name, rows in dropped.items()
            if name.startswith("CSPairs__run")
        }
        assert len(runs) >= 2
        assert all(rows <= pool_rows for rows in runs.values())
        # ...and left no scratch or unsorted table behind.
        assert context.engine.catalog.names() == ["CSPairs", "NN_Reln"]
        # The tiny pool actually evicted: the table really lived on
        # "disk", not in the pool.
        assert result.stats.buffer is not None
        assert result.stats.buffer.evictions > 0

    def test_verifier_passes_on_two_page_run(self, instance):
        relation, distance, params, _, _ = instance
        config = RunConfig(
            use_engine=True,
            spill=True,
            buffer_pages=2,
            page_capacity=4,
            verify="report",
        )
        result = _run_config(relation, distance, params, config)
        assert result.verification is not None and result.verification.ok


# ----------------------------------------------------------------------
# order_by: automatic external sort for oversized sources
# ----------------------------------------------------------------------


class TestOrderByAutoExternal:
    def test_large_source_sorts_externally_and_correctly(self):
        engine = Engine(buffer_pages=2, page_capacity=4)
        table = engine.create_table("t", ("key", "payload"))
        rows = [((37 * i) % 101, i) for i in range(80)]
        table.insert_many(rows)
        assert table.n_pages > engine.buffer.capacity
        out = engine.order_by("sorted", table, key=lambda row: row[0])
        assert list(out.scan()) == sorted(rows, key=lambda row: row[0])
        leftovers = [
            name for name in engine.catalog.names()
            if name.startswith("sorted__run")
        ]
        assert leftovers == []

    def test_small_source_still_sorts_in_memory(self):
        engine = Engine(buffer_pages=8, page_capacity=8)
        table = engine.create_table("t", ("key",))
        table.insert_many([(3,), (1,), (2,)])
        out = engine.order_by("sorted", table, key=lambda row: row[0])
        assert list(out.scan()) == [(1,), (2,), (3,)]


# ----------------------------------------------------------------------
# the bench harness and its checksum gate
# ----------------------------------------------------------------------


class TestBenchPhase2:
    def test_payload_parity_and_clean_gate(self):
        from repro.eval.bench_phase2 import (
            check_phase2_payload,
            phase2_table,
            run_phase2_bench,
        )

        payload = run_phase2_bench(
            entities=12, repeats=2, distance="edit",
            buffer_pages=16, page_capacity=8, spill_buffer_pages=2,
        )
        assert payload["repeats"] == 2
        assert [run["source"] for run in payload["runs"]] == [
            "memory", "engine", "spill",
        ]
        assert len({run["checksum"] for run in payload["runs"]}) == 1
        assert {run["pairs"] for run in payload["runs"]} == {
            payload["n_cs_pairs"]
        }
        for source in ("memory", "engine", "spill", "cross_source"):
            assert payload["parity"][source] is True
        assert payload["partition"]["parity"] is True
        assert check_phase2_payload(payload) == []
        assert "phase2 join" in phase2_table(payload)

    def test_gate_reports_every_checksum_mismatch(self):
        from repro.eval.bench_phase2 import check_phase2_payload

        payload = {
            "parity": {
                "memory": True, "engine": False,
                "spill": True, "cross_source": False,
            },
            "partition": {"parity": False},
        }
        assert check_phase2_payload(payload) == [
            "CSPairs checksum mismatch: engine",
            "CSPairs checksum mismatch: cross_source",
            "partition checksum mismatch: streamed spill table vs. "
            "in-memory rows",
        ]
