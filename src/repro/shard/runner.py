"""Per-shard staged execution under a bounded worker pool.

:class:`ShardRunner` turns a :class:`~repro.shard.plan.ShardPlan` into
per-shard :class:`ShardOutcome` payloads by running the existing
:class:`~repro.run.pipeline.StagedPipeline` once per shard:

- **Phase 1 queries the global index.**  The coordinator builds the NN
  index once over the *full* relation; each shard computes entries only
  for its member rids via ``prepare_nn_lists(rids=...)``, which answers
  them as one chunk of the chunk engine.  Every entry is therefore
  exactly what an unsharded run would produce — the invariant
  :func:`~repro.shard.merge.merge_partitions` turns into a
  checksum-identical merged partition.  The shard's work is the sum of
  the ledgers its own thread opened on the shared index, so it is exact
  however many shards are in flight.
- **Phase 2 runs per shard.**  Each worker executes ``run_from_nn``
  over ``relation.subset(members)`` with its *own* storage engine sized
  by the config's ``buffer_pages``/``page_capacity`` (when the engine
  path is on), so the peak buffer-pool footprint of the whole run is
  ``shards_in_flight × buffer_pages`` pages — the bounded-memory
  contract ``bench-scale`` records.
- **At most ``shards_in_flight`` shards are resident at once**: the
  pool's worker count is capped, so excess shards queue.  Pool kind
  follows ``config.pool`` (threads share the one built index; a process
  pool pickles relation + index together, preserving their identity
  link).

Worker payloads are plain tuples/dicts so both pool kinds work
unchanged.

:meth:`ShardRunner.run_blocks` is not part of any run: it is the
standalone per-block reference that constraint pushdown's block-parity
check compares against (pushdown itself runs one restricted Phase 1
over the whole relation, see :class:`~repro.run.stages
.ConstraintStage`).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.core.formulation import DEParams
from repro.core.neighborhood import NNRelation
from repro.core.nn_phase import Phase1Stats, prepare_nn_lists
from repro.data.schema import Relation
from repro.index.base import NNIndex
from repro.run.config import RunConfig
from repro.run.context import RunContext
from repro.run.pipeline import StagedPipeline
from repro.shard.plan import ShardPlan
from repro.storage.engine import Engine

__all__ = ["ShardOutcome", "ShardRunner"]

@dataclass
class ShardOutcome:
    """Everything one shard's pipeline run sends back for the merge."""

    shard_id: int
    n_members: int
    #: The NN relation of the shard's members (columnar off a batch
    #: Phase 1).
    #: Globally exact (computed against the full index), so replicated
    #: rids carry identical rows on every shard holding them.
    nn_relation: NNRelation
    #: The ``(id1, id2)`` keys of the shard's CSPairs rows.
    cs_keys: set[tuple[int, int]]
    #: Non-trivial groups of the shard-local partition.
    groups: list[list[int]]
    seconds: float
    stage_seconds: dict[str, float]
    phase1: Phase1Stats
    #: The shard's Phase-1 ``(start, end)`` on the monotonic clock, so
    #: the coordinator can measure the wall time of overlapping shards.
    phase1_interval: tuple[float, float]
    #: Buffer-pool counters of the shard's private engine (engine runs).
    buffer: dict[str, Any] | None
    n_cs_pairs: int

    def summary(self) -> dict[str, Any]:
        """The telemetry view recorded in ``RunStats.shard_runs``."""
        return {
            "shard_id": self.shard_id,
            "n_members": self.n_members,
            "n_cs_pairs": self.n_cs_pairs,
            "n_groups": len(self.groups),
            "seconds": self.seconds,
            "stage_seconds": dict(self.stage_seconds),
            "phase1_lookups": self.phase1.lookups,
            "buffer": dict(self.buffer) if self.buffer else None,
        }


def _run_shard(task) -> ShardOutcome:
    """Execute one shard end to end (runs inside a pool worker).

    ``task`` bundles the relation and the built index in one pickled
    argument so a process pool's deserialization preserves
    ``index.relation is relation`` — the identity ``prepare_nn_lists``
    checks.
    """
    shard_id, members, relation, index, params, config, radius_fn = task

    started = time.perf_counter()
    phase1 = Phase1Stats()
    phase1_started = time.monotonic()
    nn_relation = prepare_nn_lists(
        relation,
        index,
        params,
        stats=phase1,
        radius_fn=radius_fn,
        chunk_size=config.chunk_size,
        rids=members,
    )
    phase1_interval = (phase1_started, time.monotonic())

    # The shard's private pipeline: Phase 2 only, over the member
    # sub-relation, sequential inside the worker (the pool is the
    # parallelism), minimality/predicates deferred to the global
    # post-merge stage, CSPairs rows kept for the merge.
    shard_config = config.replace(
        shards=1,
        shards_in_flight=None,
        n_workers=1,
        verify=False,
        keep_cs_pairs=True,
        minimal=False,
        # Constraint splitting runs once, globally, after the merge;
        # splitting shard-locally would hide boundary context from the
        # connected-component peel and could diverge from the unsharded
        # answer.
        constraints=(),
    )
    engine = None
    if shard_config.use_engine:
        engine = Engine(
            buffer_pages=shard_config.buffer_pages,
            page_capacity=shard_config.page_capacity,
        )
    assert index.distance is not None, "index must be built"
    ctx = RunContext(
        shard_config, index.distance, index, engine=engine, radius_fn=radius_fn
    )
    result = StagedPipeline(ctx).run_from_nn(
        relation.subset(members), nn_relation, params
    )
    stats = ctx.last_stats
    assert stats is not None and result.cs_pairs is not None

    buffer = None
    if stats.buffer is not None:
        buffer = {
            "pages": shard_config.buffer_pages,
            "hits": stats.buffer.hits,
            "misses": stats.buffer.misses,
            "evictions": stats.buffer.evictions,
        }
    return ShardOutcome(
        shard_id=shard_id,
        n_members=len(members),
        nn_relation=nn_relation,
        cs_keys={(pair.id1, pair.id2) for pair in result.cs_pairs},
        groups=[list(group) for group in result.partition.non_trivial_groups()],
        seconds=time.perf_counter() - started,
        stage_seconds={
            timing.stage: stats.stage_seconds(timing.stage)
            for timing in stats.timings
        },
        phase1=phase1,
        phase1_interval=phase1_interval,
        buffer=buffer,
        n_cs_pairs=stats.n_cs_pairs,
    )


class ShardRunner:
    """Run the staged pipeline once per shard, bounded shards in flight."""

    def __init__(self, context: RunContext):
        self.context = context

    def run(
        self,
        relation: Relation,
        params: DEParams,
        plan: ShardPlan,
        index: NNIndex | None = None,
    ) -> list[ShardOutcome]:
        """Execute every shard of ``plan``; outcomes in shard order.

        The index (the context's unless overridden) must already be
        built over ``relation`` — the coordinator builds it once and
        every shard queries it.
        """
        config: RunConfig = self.context.config
        index = index if index is not None else self.context.index
        if index.relation is not relation:
            index.build(relation, self.context.distance)

        in_flight = config.shards_in_flight or plan.n_shards
        in_flight = max(1, min(in_flight, plan.n_shards))
        tasks = [
            (
                shard_id,
                list(members),
                relation,
                index,
                params,
                config,
                self.context.radius_fn,
            )
            for shard_id, members in enumerate(plan.members)
        ]
        if in_flight <= 1 or plan.n_shards <= 1:
            outcomes = [_run_shard(task) for task in tasks]
        elif config.pool == "process":
            with ProcessPoolExecutor(max_workers=in_flight) as executor:
                outcomes = list(executor.map(_run_shard, tasks))
        else:
            with ThreadPoolExecutor(max_workers=in_flight) as executor:
                outcomes = list(executor.map(_run_shard, tasks))
        return sorted(outcomes, key=lambda outcome: outcome.shard_id)

    def run_blocks(
        self,
        relation: Relation,
        params: DEParams,
        plan: ShardPlan,
    ) -> list[list[list[int]]]:
        """The standalone per-block reference of constraint pushdown.

        Solves each multi-record block of ``plan`` alone: the whole
        pipeline over its sub-relation, brute force whatever index the
        config names, constraints inline, one worker, no engine, and a
        :class:`~repro.distances.base.FrozenDistance` of the context's
        distance (already prepared on the full relation).  Returns each
        plan block's non-trivial groups (none for a singleton block).
        """
        from repro.distances.base import FrozenDistance
        from repro.index.bruteforce import BruteForceIndex

        config = self.context.config.replace(
            n_workers=1, verify=False, minimal=False, use_engine=False,
            spill=False, constraint_mode="inline",
        )
        distance = FrozenDistance(self.context.distance)
        groups: list[list[list[int]]] = []
        for members in plan.members:
            if len(members) < 2:
                groups.append([])
                continue
            ctx = RunContext(
                config, distance, BruteForceIndex(),
                radius_fn=self.context.radius_fn,
            )
            result = StagedPipeline(ctx).run(relation.subset(members), params)
            groups.append(
                [list(group) for group in result.partition.non_trivial_groups()]
            )
        return groups

    @staticmethod
    def effective_in_flight(config: RunConfig, n_shards: int) -> int:
        """The worker-pool cap a run with this config actually uses."""
        in_flight = config.shards_in_flight or n_shards
        return max(1, min(in_flight, n_shards))

