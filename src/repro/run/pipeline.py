"""The staged pipeline: stage assembly, timing, and result assembly.

:class:`StagedPipeline` is the execution core behind
:class:`~repro.core.pipeline.DuplicateEliminator` (now a thin facade)
and the direct entry point for callers that want stage-level control.
It assembles the stage list from the context's config — the engine
inserts a :class:`~repro.run.stages.SpillStage`, spill mode moves the
Phase-1 lookups into it — runs each stage under a wall clock, snapshots
the distance-cache and buffer-pool counters around the run, and
assembles the :class:`~repro.core.pipeline.DEResult` with its unified
:class:`~repro.run.stats.RunStats`.
"""

from __future__ import annotations

import time

from repro.core.formulation import DEParams
from repro.core.neighborhood import NNRelation
from repro.core.pipeline import DEResult
from repro.data.schema import Relation
from repro.distances.base import CachedDistance
from repro.run.context import RunContext
from repro.run.stages import (
    ConstraintStage,
    CSPairsStage,
    MergeStage,
    PartitionStage,
    Phase1Stage,
    PostprocessStage,
    RunState,
    ShardStage,
    SpillStage,
    Stage,
    VerifyStage,
)
from repro.storage.buffer import BufferStats

__all__ = ["StagedPipeline"]


class StagedPipeline:
    """Run the DE stages over a :class:`~repro.run.context.RunContext`.

    One pipeline may execute many runs; each run opens a fresh
    :class:`~repro.run.stats.RunStats` in the context's registry, so
    sweeps and cross-path checks keep per-run telemetry separate.
    """

    def __init__(self, context: RunContext):
        self.context = context

    # ------------------------------------------------------------------
    # Stage assembly
    # ------------------------------------------------------------------

    def stages(self, from_nn: bool = False) -> list[Stage]:
        """The stage list the config calls for.

        ``from_nn`` drops Phase 1 (the NN relation is supplied); an
        engine inserts the spill/materialize stage ahead of the
        CSPairs join.  With ``shards > 1`` the whole Phase-1/Phase-2
        program runs once per shard inside :class:`ShardStage` (each
        shard with its own engine budget), so the top level is just
        shard → merge → postprocess.  Constraint pushdown puts
        :class:`ConstraintStage` ahead of Phase 1: constraint → phase1
        → [spill] → cspairs → partition → postprocess, one Phase 1 and
        one Phase 2 over the whole relation with the candidates
        restricted to block mates.  A ``from_nn`` run has no Phase 1
        to restrict, so pushdown there discharges its constraints
        inline.
        """
        config = self.context.config
        if not from_nn and config.shards > 1:
            return [ShardStage(), MergeStage(), PostprocessStage()]
        stages: list[Stage] = []
        if not from_nn:
            if config.constraint_mode == "pushdown" and config.constraints:
                stages.append(ConstraintStage())
            stages.append(Phase1Stage())
        if self.context.engine is not None:
            stages.append(SpillStage())
        stages.extend([CSPairsStage(), PartitionStage(), PostprocessStage()])
        return stages

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(self, relation: Relation, params: DEParams) -> DEResult:
        """Solve the DE instance over ``relation`` end to end."""
        state = RunState(
            relation=relation,
            params=params,
            stats=self.context.new_stats(),
            index=self.context.index,
        )
        return self._execute(state, self.stages())

    def run_from_nn(
        self, relation: Relation, nn_relation: NNRelation, params: DEParams
    ) -> DEResult:
        """Solve Phase 2 only, over a precomputed NN relation."""
        state = RunState(
            relation=relation,
            params=params,
            stats=self.context.new_stats(),
            index=self.context.index,
            nn_relation=nn_relation,
        )
        return self._execute(state, self.stages(from_nn=True))

    # ------------------------------------------------------------------

    def _execute(self, state: RunState, stages: list[Stage]) -> DEResult:
        ctx = self.context
        stats = state.stats

        cache = ctx.distance if isinstance(ctx.distance, CachedDistance) else None
        calls_before = cache.calls if cache is not None else 0
        hits_before = cache.hits if cache is not None else 0
        buffer_before = (
            ctx.engine.buffer.stats if ctx.engine is not None else None
        )

        for stage in stages:
            started = time.perf_counter()
            stage.run(ctx, state)
            stats.record_stage(stage.name, time.perf_counter() - started)
        # Recorded after the stages ran: Phase1Stage builds the index,
        # which is when the kernel mode resolves to a backend.
        stats.kernel_backend = getattr(state.index, "kernel_backend", "python")

        if cache is not None:
            stats.distance_cache_calls = cache.calls - calls_before
            stats.distance_cache_hits = cache.hits - hits_before
        if buffer_before is not None:
            assert ctx.engine is not None
            after = ctx.engine.buffer.stats
            stats.buffer = BufferStats(
                hits=after.hits - buffer_before.hits,
                misses=after.misses - buffer_before.misses,
                evictions=after.evictions - buffer_before.evictions,
            )

        assert state.partition is not None and state.nn_relation is not None
        keep = ctx.config.keep_cs_pairs or bool(ctx.config.verify)
        result = DEResult(
            partition=state.partition,
            nn_relation=state.nn_relation,
            params=state.params,
            stats=stats,
            cs_pairs=state.cs_pairs if keep else None,
        )
        state.result = result
        if ctx.config.verify:
            verify = VerifyStage()
            started = time.perf_counter()
            verify.run(ctx, state)
            stats.record_stage(verify.name, time.perf_counter() - started)
        return result
