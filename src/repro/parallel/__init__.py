"""Parallel execution: chunked, multi-worker Phase 1.

The paper's Phase 1 (NN-list materialization) dominates the total DE
cost, and its section 4.1 is entirely about lookup throughput.  This
subsystem scales it out: the lookup order is split into contiguous
chunks (preserving per-worker buffer locality, the point of the BF
order of Figure 5), chunks fan out over a ``concurrent.futures`` pool,
and per-chunk results merge deterministically so output is identical to
the sequential path for any worker count.

Phase 2 has no worker pool: its CSPairs self-join and group-extraction
scan run once per source (see :mod:`repro.core.cspairs` and
:mod:`repro.core.partitioner`).

Entry points:

- :func:`repro.parallel.chunking.plan_chunks` — contiguous, balanced
  chunking of a lookup order (no assumption that record ids are dense
  or zero-based);
- :class:`repro.parallel.engine.ParallelNNEngine` — the chunked
  Phase-1 executor; also the single-worker batched fast path used by
  the ``BENCH_phase1`` scalability benchmark.
"""

from repro.parallel.chunking import Chunk, plan_chunks
from repro.parallel.engine import ChunkResult, ParallelNNEngine

__all__ = [
    "Chunk",
    "ChunkResult",
    "ParallelNNEngine",
    "plan_chunks",
]
