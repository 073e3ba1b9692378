"""Unified run telemetry.

One DE run produces cost accounting in several subsystems: Phase-1
lookup counters (:class:`~repro.core.nn_phase.Phase1Stats`), the
distance memo cache, per-stage wall times, and — when the storage
engine is in play — the buffer pool's hit/miss counters (the paper's
Figure 8 quantity).  :class:`RunStats` gathers all of them into one
structure attached to ``DEResult.stats``; the per-stage ``timings``
are its one clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.nn_phase import Phase1Stats
from repro.storage.buffer import BufferStats

__all__ = ["StageTiming", "Phase2Stats", "RunStats"]

@dataclass(frozen=True)
class StageTiming:
    """Wall-clock time of one pipeline stage."""

    stage: str
    seconds: float


@dataclass
class Phase2Stats:
    """Cost accounting of the Phase-2 self-join and the
    group-extraction scan.

    Parameters
    ----------
    pairs_filtered:
        Mutual pairs the constraint pair filter dropped at join time
        (inline constraint mode; zero elsewhere).
    partition_streamed:
        Whether group extraction consumed CSPairs as a stream from its
        heap table (never fully resident) instead of an in-memory list.
    peak_group_rows:
        Largest single-anchor row group the extraction scan held — the
        streaming path's actual residency bound.
    """

    pairs_filtered: int = 0
    partition_streamed: bool = False
    peak_group_rows: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Render as a JSON-serializable dict."""
        return {
            "pairs_filtered": self.pairs_filtered,
            "partition_streamed": self.partition_streamed,
            "peak_group_rows": self.peak_group_rows,
        }


@dataclass
class RunStats:
    """All telemetry of one DE run, in one structure.

    Parameters
    ----------
    phase1:
        Phase-1 cost accounting (lookups, evaluations, pruning,
        pair-cache hits).
    phase2:
        Phase-2 cost accounting: the CSPairs self-join and the
        group-extraction scan (see :class:`Phase2Stats`).
    timings:
        Per-stage wall times, in execution order.
    n_cs_pairs:
        Number of CSPairs rows Phase 2 built.
    spilled:
        Whether the NN relation was streamed into a storage-engine
        table instead of being materialized in memory.
    distance_cache_calls, distance_cache_hits:
        Distance memo-cache traffic during the run (zero when the run
        used an uncached distance).
    buffer:
        Buffer-pool counter deltas for the run, when a storage engine
        was in play; ``None`` otherwise.
    kernel_backend:
        The distance-evaluation backend Phase 1 ran on: ``"numpy"``
        when the index resolved a vectorized batch kernel, ``"python"``
        for the scalar path.
    shard_plan, shard_runs, shard_merge:
        Sharded scale-out telemetry (``None``/empty off the sharded
        path): the blocking plan (shard sizes, LSH recall,
        ``shards_in_flight``, and the peak buffer-page bound
        ``shards_in_flight × buffer_pages``), one timing/buffer summary
        per shard, and the merge's component accounting (boundary vs
        reused components, reconstructed cross rows).
    constraint_plan:
        Pushdown-mode blocking telemetry (``None`` off that path):
        block counts, the largest block, and the candidate-vs-
        co-resident pair accounting that quantifies the pruning.
    """

    phase1: Phase1Stats = field(default_factory=Phase1Stats)
    phase2: Phase2Stats = field(default_factory=Phase2Stats)
    timings: list[StageTiming] = field(default_factory=list)
    n_cs_pairs: int = 0
    spilled: bool = False
    distance_cache_calls: int = 0
    distance_cache_hits: int = 0
    buffer: BufferStats | None = None
    kernel_backend: str = "python"
    shard_plan: dict[str, Any] | None = None
    shard_runs: list[dict[str, Any]] = field(default_factory=list)
    shard_merge: dict[str, Any] | None = None
    constraint_plan: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_stage(self, stage: str, seconds: float) -> None:
        """Append one stage's wall time."""
        self.timings.append(StageTiming(stage=stage, seconds=seconds))

    def stage_seconds(self, stage: str) -> float:
        """Total wall time recorded under ``stage`` (0.0 if it never ran)."""
        return sum(t.seconds for t in self.timings if t.stage == stage)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Wall time across all recorded stages."""
        return sum(t.seconds for t in self.timings)

    @property
    def distance_cache_hit_rate(self) -> float:
        """Fraction of distance calls served by the memo cache."""
        if self.distance_cache_calls == 0:
            return 0.0
        return self.distance_cache_hits / self.distance_cache_calls

    @property
    def buffer_hit_ratio(self) -> float | None:
        """The engine's buffer hit ratio for this run (``None`` without
        an engine) — the paper's Figure 8 quantity."""
        if self.buffer is None:
            return None
        return self.buffer.hit_ratio

    def to_dict(self) -> dict[str, Any]:
        """Render as a JSON-serializable dict."""
        payload: dict[str, Any] = {
            "stages": [
                {"stage": t.stage, "seconds": t.seconds} for t in self.timings
            ],
            "total_seconds": self.total_seconds,
            "n_cs_pairs": self.n_cs_pairs,
            "spilled": self.spilled,
            "phase1": {
                "lookups": self.phase1.lookups,
                "seconds": self.phase1.seconds,
                "evaluations": self.phase1.evaluations,
                "candidates_generated": self.phase1.candidates_generated,
                "evaluations_pruned": self.phase1.evaluations_pruned,
                "kernel_evaluations": self.phase1.kernel_evaluations,
                "prune_rate": self.phase1.prune_rate,
                # On kernel-backed runs every pair bypasses the pair
                # cache, so a 0.0 rate would be misleading: report null
                # plus the explicit bypass flag instead.
                "cache_hit_rate": (
                    None
                    if self.phase1.cache_bypassed
                    else self.phase1.cache_hit_rate
                ),
                "cache_bypassed": self.phase1.cache_bypassed,
                "n_chunks": self.phase1.n_chunks,
                "substages": dict(self.phase1.substage_seconds),
            },
            "kernel_backend": self.kernel_backend,
            "phase2": self.phase2.to_dict(),
            "distance_cache": {
                "calls": self.distance_cache_calls,
                "hits": self.distance_cache_hits,
                "hit_rate": self.distance_cache_hit_rate,
            },
        }
        if self.buffer is not None:
            payload["buffer"] = {
                "hits": self.buffer.hits,
                "misses": self.buffer.misses,
                "evictions": self.buffer.evictions,
                "hit_ratio": self.buffer.hit_ratio,
            }
        if self.shard_plan is not None:
            payload["shards"] = {
                "plan": dict(self.shard_plan),
                "runs": [dict(run) for run in self.shard_runs],
                "merge": dict(self.shard_merge) if self.shard_merge else None,
            }
        if self.constraint_plan is not None:
            payload["constraints"] = dict(self.constraint_plan)
        return payload
