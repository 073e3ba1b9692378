"""Composable pipeline stages (the staged-execution model).

The DE pipeline is a short program over a mutable :class:`RunState`:

- :class:`ConstraintStage` — under constraint pushdown, plan the
  hard-constraint blocks and restrict Phase 1 to same-block pairs;
- :class:`Phase1Stage` — build the NN index and (unless spilling)
  materialize the NN relation in memory;
- :class:`SpillStage` — materialize ``NN_Reln`` into a storage-engine
  heap table; in spill mode this *is* where the Phase-1 lookups run,
  streamed chunk-by-chunk so the NN relation never lives fully in
  memory;
- :class:`CSPairsStage` — the Phase-2 self-join (engine or in-memory);
- :class:`PartitionStage` — compact SN group extraction;
- :class:`PostprocessStage` — minimality refinement and constraining
  predicates;
- :class:`VerifyStage` — runtime invariant verification of the
  assembled result.

Every stage reads its knobs from the context's
:class:`~repro.run.config.RunConfig` and its machinery from the
:class:`~repro.run.context.RunContext`; each is individually testable
and the :class:`~repro.run.pipeline.StagedPipeline` times each one into
:class:`~repro.run.stats.RunStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.cspairs import (
    NN_RELN_SCHEMA,
    build_cs_pairs,
    build_cs_pairs_engine,
    cs_pairs_from_table,
    iter_cs_pairs,
)
from repro.core.formulation import DEParams
from repro.core.minimality import enforce_minimality
from repro.core.neighborhood import NNRelation
from repro.core.nn_phase import prepare_nn_lists
from repro.core.partitioner import partition_records
from repro.core.predicates import apply_constraining_predicate
from repro.core.result import Partition
from repro.data.schema import Relation
from repro.index.base import NNIndex
from repro.index.blocks import BlockIndex
from repro.parallel.engine import ParallelNNEngine
from repro.run.context import RunContext
from repro.run.spill import SpilledNNRelation
from repro.run.stats import RunStats
from repro.storage.table import HeapTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cspairs import CSPair
    from repro.core.pipeline import DEResult
    from repro.shard.plan import ShardPlan
    from repro.shard.runner import ShardOutcome

__all__ = [
    "RunState",
    "Stage",
    "Phase1Stage",
    "SpillStage",
    "CSPairsStage",
    "PartitionStage",
    "PostprocessStage",
    "ConstraintStage",
    "ShardStage",
    "MergeStage",
    "VerifyStage",
]


@dataclass
class RunState:
    """Everything a run accumulates while flowing through the stages."""

    relation: Relation
    params: DEParams
    stats: RunStats
    #: The index Phase 1 builds and queries.  The pipeline starts every
    #: run with the context's; pushdown's constraint stage puts its
    #: block index in place.
    index: NNIndex | None = None
    nn_relation: NNRelation | None = None
    nn_table: HeapTable | None = None
    cs_pairs: "list[CSPair] | None" = None
    #: The materialized ``CSPairs`` heap table on engine runs; the
    #: partition stage streams from it when ``cs_pairs`` was not kept.
    cs_table: HeapTable | None = None
    partition: Partition | None = None
    #: Sharded-run intermediates (see :mod:`repro.shard`).
    shard_plan: "ShardPlan | None" = None
    shard_outcomes: "list[ShardOutcome] | None" = None
    #: Assembled by the pipeline before :class:`VerifyStage` runs.
    result: "DEResult | None" = field(default=None, repr=False)


@runtime_checkable
class Stage(Protocol):
    """One step of the staged pipeline."""

    #: Stage name, used as the timing key in :class:`RunStats`.
    name: str

    def run(self, ctx: RunContext, state: RunState) -> None:
        """Advance ``state``; read knobs from ``ctx.config``."""
        ...  # pragma: no cover - protocol


class Phase1Stage:
    """Build the index; materialize the NN relation unless spilling.

    In spill mode the lookups themselves run inside
    :class:`SpillStage` (streamed into the engine table), so this
    stage's wall time is the index build alone.
    """

    name = "phase1"

    def run(self, ctx: RunContext, state: RunState) -> None:
        config = ctx.config
        # The build's sub-stage timers (tokenize/sign/bucket) land in
        # the ledger opened around it; lookup drivers open their own.
        index = state.index
        with index.ledger() as work:
            index.build(state.relation, ctx.distance)
        state.stats.phase1.add(work)
        if config.spill:
            return
        state.nn_relation = prepare_nn_lists(
            state.relation,
            index,
            state.params,
            order=config.order,  # type: ignore[arg-type]
            order_seed=config.order_seed,
            stats=state.stats.phase1,
            radius_fn=ctx.radius_fn,
            n_workers=config.n_workers,
            pool=config.pool,
            chunk_size=config.chunk_size,
        )


class SpillStage:
    """Materialize ``NN_Reln`` into a storage-engine heap table.

    Two modes:

    - an in-memory NN relation already exists (plain engine path, or
      Phase 2 over a precomputed relation): write its rows out — the
      classic ``materialize_nn_reln``;
    - spill mode: no NN relation exists yet; run Phase 1 chunk-by-chunk
      through :meth:`~repro.parallel.engine.ParallelNNEngine
      .iter_chunk_results` and append each chunk's rows immediately, so
      peak memory holds one chunk, not the relation.  ``state
      .nn_relation`` becomes a :class:`~repro.run.spill
      .SpilledNNRelation` view that reads back through the buffer pool.
    """

    name = "spill"
    table_name = "NN_Reln"

    def run(self, ctx: RunContext, state: RunState) -> None:
        engine = ctx.engine
        assert engine is not None, "SpillStage requires a storage engine"
        if state.nn_relation is not None:
            table = engine.create_table(
                self.table_name, NN_RELN_SCHEMA, replace=True
            )
            table.insert_many(state.nn_relation.as_rows())
            state.nn_table = table
            return

        config = ctx.config
        table = engine.create_table(self.table_name, NN_RELN_SCHEMA, replace=True)
        parallel = ParallelNNEngine(
            n_workers=config.n_workers,
            pool=config.pool,
            chunk_size=config.chunk_size,
        )
        ascending = True
        previous = None
        for chunk in parallel.iter_chunk_results(
            state.relation,
            state.index,
            state.params,
            order=config.order,
            order_seed=config.order_seed,
            stats=state.stats.phase1,
            radius_fn=ctx.radius_fn,
        ):
            for row in chunk.batch.rows(chunk.rids):
                if previous is not None and row[0] <= previous:
                    ascending = False
                previous = row[0]
                table.insert(row)
        if not ascending:
            # Random lookup order appends out of id order; restore the
            # ascending-rid invariant with a bounded external sort so
            # the resort stays out of core too.
            unsorted_name = f"{self.table_name}_unsorted"
            engine.catalog.rename_table(self.table_name, unsorted_name)
            table = engine.order_by(
                self.table_name,
                engine.table(unsorted_name),
                key=lambda row: row[0],
                external_run_rows=max(64, engine.disk.page_capacity * 4),
            )
            engine.catalog.drop_table(unsorted_name)
        state.nn_table = table
        state.nn_relation = SpilledNNRelation(table)
        state.stats.spilled = True


class CSPairsStage:
    """Build the CSPairs rows: one self-join per source.

    Engine and spill runs go through
    :func:`~repro.core.cspairs.build_cs_pairs_engine` and keep the
    result as a heap table on ``state.cs_table`` (its ``ORDER BY``
    sorts externally once the join outgrows the buffer pool); the
    in-memory row list is materialized only when the config asks to
    keep it (``keep_cs_pairs`` or any verify mode), so an out-of-core
    run never holds the full relation.  In-memory runs call
    :func:`~repro.core.cspairs.build_cs_pairs`.
    """

    name = "cspairs"

    def run(self, ctx: RunContext, state: RunState) -> None:
        assert state.nn_relation is not None, "Phase 1 must run first"
        config = ctx.config
        keep = config.keep_cs_pairs or bool(config.verify)
        pair_filter = None
        if config.constraints and config.constraint_mode in ("inline", "pushdown"):
            # Inline and pushdown runs discharge the constraints where
            # pairs are born: a filtered pair never reaches partitioning
            # (under pushdown only the residual constraints can still
            # forbid a same-block pair).  Postprocess mode leaves the
            # join untouched — it is the paper-exact reference.
            from repro.core.constraints import PairFilter, RelationPairFilter

            pair_filter = RelationPairFilter(
                PairFilter(config.constraints, state.relation.schema),
                state.relation,
            )
        if ctx.engine is not None and state.nn_table is not None:
            table = build_cs_pairs_engine(
                ctx.engine,
                state.params,
                pair_filter=pair_filter,
                stats=state.stats.phase2,
            )
            state.cs_table = table
            state.stats.n_cs_pairs = table.n_rows
            if keep:
                state.cs_pairs = cs_pairs_from_table(table)
        else:
            state.cs_pairs = build_cs_pairs(
                state.nn_relation,
                state.params,
                pair_filter=pair_filter,
                stats=state.stats.phase2,
            )
            state.stats.n_cs_pairs = len(state.cs_pairs)


class PartitionStage:
    """Extract the compact SN groups from the CSPairs rows.

    Consumes the in-memory row list when one exists; otherwise streams
    straight from the ``CSPairs`` heap table through the buffer pool (a
    spilled run's bounded-memory path).
    """

    name = "partition"

    def run(self, ctx: RunContext, state: RunState) -> None:
        if state.cs_pairs is not None:
            source = state.cs_pairs
        else:
            assert state.cs_table is not None, "CSPairs must be built first"
            source = iter_cs_pairs(state.cs_table)
            state.stats.phase2.partition_streamed = True
        state.partition = partition_records(
            state.relation.ids(),
            source,
            state.params,
            stats=state.stats.phase2,
        )


class PostprocessStage:
    """Minimality refinement and constraining predicates (section 4.5).

    Config constraints split groups here in *every* mode: inline and
    pushdown runs filter pairs earlier, but group extraction is
    transitive, so two records can share a group through intermediates
    while their own pair is forbidden.  The final split is what makes
    the zero-violation guarantee unconditional.
    """

    name = "postprocess"

    def run(self, ctx: RunContext, state: RunState) -> None:
        assert state.partition is not None, "partitioning must run first"
        if ctx.config.minimal:
            assert state.nn_relation is not None
            state.partition = enforce_minimality(
                state.partition, state.nn_relation
            )
        if ctx.cannot_link is not None:
            state.partition = apply_constraining_predicate(
                state.partition, state.relation, ctx.cannot_link
            )
        if ctx.config.constraints:
            from repro.core.constraints import PairFilter

            forbids = PairFilter(
                ctx.config.constraints, state.relation.schema
            ).forbids
            state.partition = apply_constraining_predicate(
                state.partition, state.relation, forbids
            )


class ShardStage:
    """Plan the LSH-band shards and run the pipeline once per shard.

    Builds the index once over the full relation (every shard queries
    it, which is what makes the merge exact), plans the blocking via
    :func:`~repro.shard.plan.plan_shards`, and executes the shards on a
    :class:`~repro.shard.runner.ShardRunner` with at most
    ``shards_in_flight`` shards resident.  Leaves the plan and the
    per-shard outcomes on the state for :class:`MergeStage` and records
    the per-shard telemetry (timings, buffer counters, and the
    ``shards_in_flight × buffer_pages`` peak-page bound) in
    :class:`~repro.run.stats.RunStats`.
    """

    name = "shard"

    def run(self, ctx: RunContext, state: RunState) -> None:
        # Imported lazily: repro.shard depends on the run modules.
        from repro.shard.plan import plan_shards
        from repro.shard.runner import ShardRunner

        config = ctx.config
        with ctx.index.ledger() as work:
            ctx.index.build(state.relation, ctx.distance)
        state.stats.phase1.add(work)
        signatures = getattr(ctx.index, "relation_signatures", lambda: None)()
        plan = plan_shards(
            state.relation,
            config.shards,
            overlap=config.shard_overlap,
            signatures=signatures,
            corpus=ctx.distance.corpus,
        )
        outcomes = ShardRunner(ctx).run(state.relation, state.params, plan)
        state.shard_plan = plan
        state.shard_outcomes = outcomes

        stats = state.stats
        in_flight = ShardRunner.effective_in_flight(config, plan.n_shards)
        stats.shard_plan = {
            **plan.to_dict(),
            "shards_in_flight": in_flight,
            "peak_pages_bound": (
                in_flight * config.buffer_pages if config.use_engine else None
            ),
        }
        stats.shard_runs = [outcome.summary() for outcome in outcomes]
        stats.spilled = config.spill
        for outcome in outcomes:
            stats.phase1.add(outcome.phase1)
        # Shards in flight overlap: Phase 1 took the union of their
        # intervals, while the work and sub-stage sums stay busy time.
        stats.phase1.seconds += _union_seconds(
            outcome.phase1_interval for outcome in outcomes
        )


def _union_seconds(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class ConstraintStage:
    """Plan hard-constraint blocks and restrict Phase 1 to them.

    The pushdown mode's planner stage: hard constraints (``BlockKey``,
    hard ``TimeWindow``) partition the relation into equivalence-class
    blocks (:func:`~repro.shard.plan.plan_constraint_blocks`), and no
    pair across two blocks can be a duplicate.  The stage hands the
    blocks to a :class:`~repro.index.blocks.BlockIndex`, which replaces
    the configured index for this run: the ordinary Phase 1 and Phase 2
    then run once over the whole relation, and each record's candidates
    are exactly its block mates, every one scored.  Residual constraints
    (soft predicates, pairwise time windows) are discharged inline, at
    the join and in the final split.
    """

    name = "constraint"

    def run(self, ctx: RunContext, state: RunState) -> None:
        # Imported lazily: repro.shard depends on the run modules.
        from repro.shard.plan import plan_constraint_blocks

        plan = plan_constraint_blocks(state.relation, ctx.config.constraints)
        state.index = BlockIndex(plan.members)
        state.index.enable_kernel(ctx.config.kernel)
        sizes = [len(members) for members in plan.members]
        state.stats.constraint_plan = {
            "mode": "pushdown",
            "n_blocks": plan.n_shards,
            "n_multi_blocks": sum(1 for size in sizes if size >= 2),
            "largest_block": max(sizes, default=0),
            "n_candidate_pairs": plan.n_candidate_pairs,
            "n_coresident_pairs": plan.n_coresident_pairs,
        }


class MergeStage:
    """Merge the per-shard outcomes into the exact global result.

    Reassembles the full NN relation from the (globally exact) shard
    entries, unions the shard CSPairs rows, reconstructs the
    cross-shard mutual pairs, and re-runs group extraction only on
    boundary components — see :func:`~repro.shard.merge
    .merge_partitions` for the proof sketch.  Downstream stages
    (postprocess, verify) then see exactly what an unsharded run would
    have produced.
    """

    name = "merge"

    def run(self, ctx: RunContext, state: RunState) -> None:
        # Imported lazily: repro.shard depends on the run modules.
        from repro.shard.merge import merge_partitions

        assert state.shard_plan is not None, "ShardStage must run first"
        assert state.shard_outcomes is not None, "ShardStage must run first"
        merged = merge_partitions(
            state.shard_plan,
            state.shard_outcomes,
            state.relation.ids(),
            state.params,
        )
        state.nn_relation = merged.nn_relation
        state.cs_pairs = merged.cs_pairs
        state.partition = merged.partition
        state.stats.n_cs_pairs = len(merged.cs_pairs)
        state.stats.shard_merge = merged.to_dict()


class VerifyStage:
    """Attach (and in strict mode enforce) the verification report."""

    name = "verify"

    def run(self, ctx: RunContext, state: RunState) -> None:
        result = state.result
        assert result is not None, "the result must be assembled first"
        # Imported lazily: repro.verify depends on the pipeline modules.
        from repro.verify.verifier import verify_result

        config = ctx.config
        postprocessed = (
            config.minimal
            or ctx.cannot_link is not None
            or bool(config.constraints)
        )
        if config.constraints and config.constraint_mode == "pushdown":
            # Phase 1 restricted to block mates makes the NN lists
            # intentionally different from an unrestricted run; inline
            # mode keeps Phase 1 global, so nn-parity still holds there.
            checks: tuple[str, ...] | None = ("partition", "cut-spec")
        elif postprocessed:
            checks = ("partition", "cut-spec", "nn-parity")
        else:
            checks = None
        report = verify_result(
            result,
            state.relation,
            ctx.distance,
            cs_pairs=result.cs_pairs,
            checks=checks,
            radius_fn=ctx.radius_fn,
            strict=False,
        )
        if config.constraints:
            from repro.verify.constraints import check_group_constraints

            report = report.merged_with(
                check_group_constraints(
                    result.partition, state.relation, config.constraints
                )
            )
        result.verification = report
        if config.verify == "strict":
            report.raise_for_violations()
