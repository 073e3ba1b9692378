"""The chunked, multi-worker Phase-1 executor.

:class:`ParallelNNEngine` runs the NN-list computation of Phase 1 over
a pool of workers.  The lookup order is resolved up front and split
into contiguous chunks (:func:`repro.parallel.chunking.plan_chunks`);
each worker answers its chunk through the index's *batch* API — for
:class:`~repro.index.minhash.MinHashIndex` one blocked pass over the
chunk's LSH candidate pairs, for
:class:`~repro.index.bruteforce.BruteForceIndex` dense kernel blocks,
and without a kernel the per-record sequence inside one batch scope,
which fills the shared pair cache so each pair probed from both
endpoints is evaluated once.  Each chunk's answers stay columns (a
:class:`~repro.index.base.Phase1Batch`), and :meth:`ParallelNNEngine
.run` concatenates them into one columnar
:class:`~repro.core.neighborhood.NNRelation` without building an entry
object per record.
Every entry is a pure function of (relation, distance, params), so the
merged result is identical to the sequential ``prepare_nn_lists``
output for any worker count, pool kind, or chunk size.  A shard's
lookups are one more order: its member rids, ascending.

Each chunk opens a work ledger on the index
(:meth:`~repro.index.base.NNIndex.ledger`) in the thread or process
that answers it, and the run's counts are the sum of the chunks'
ledgers, exact under any interleaving.

Breadth-first order under chunking
----------------------------------
The paper's BF order is produced *online*: each lookup's results decide
which ids are probed next (Figure 5), so the exact global sequence
cannot be known before the lookups run.  The engine instead chunks the
order that seeds the BF traversal — the outer scan of ``R`` — which
keeps each worker on a contiguous region of the relation; within a
chunk, the blocked batch evaluation touches each region of the index
once, which is the same locality the BF order exists to create.

Pool choice
-----------
``pool="thread"`` shares one index (and thus one pair cache) across
workers — cross-chunk pair reuse is preserved, but CPU-bound pure-Python
distances serialize on the GIL.  ``pool="process"`` gives real
parallelism at the cost of pickling the index to each worker and losing
cross-chunk cache sharing.  See ``docs/performance.md`` for guidance.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal, Sequence

from repro.core.bforder import random_order
from repro.core.formulation import DEParams
from repro.core.neighborhood import NNRelation
from repro.data.schema import Relation
from repro.index.base import BatchCounts, NNIndex, Phase1Batch
from repro.parallel.chunking import Chunk, plan_chunks

__all__ = ["ChunkResult", "ParallelNNEngine"]

PoolKind = Literal["thread", "process"]

#: How many chunks the default plan creates per worker.  Several chunks
#: per worker smooth out load imbalance without shrinking chunks so far
#: that the blocked evaluation loses its symmetry savings.
CHUNKS_PER_WORKER = 4


@dataclass
class ChunkResult:
    """One worker's output for one chunk, plus its cost accounting."""

    chunk_index: int
    #: The chunk's query rids, in lookup order.
    rids: list[int]
    #: Their answers, aligned with ``rids``.
    batch: Phase1Batch
    seconds: float
    #: The chunk's work ledger (see :meth:`NNIndex.ledger`).
    work: BatchCounts


def _run_chunk(
    index: NNIndex, params: DEParams, chunk: Chunk, radius_fn
) -> ChunkResult:
    """Compute the NN entries for one chunk (runs inside a worker)."""
    relation = index.relation
    assert relation is not None
    started = time.perf_counter()
    k, theta = params.bounds
    with index.ledger() as work:
        # Materializing the query records (possibly buffer-pool page
        # reads) is the probes' input prep — credited to ``candidates``.
        records = [relation.get(rid) for rid in chunk.rids]
        work.add_seconds("candidates", time.perf_counter() - started)
        batch = index.phase1_batch(
            records, k=k, theta=theta, p=params.p, radius_fn=radius_fn
        )
    return ChunkResult(
        chunk_index=chunk.index,
        rids=list(chunk.rids),
        batch=batch,
        seconds=time.perf_counter() - started,
        work=work,
    )


# ----------------------------------------------------------------------
# Process-pool plumbing: ship the (index, params, radius_fn) payload to
# each worker once via the initializer instead of once per chunk.
# ----------------------------------------------------------------------

_WORKER_PAYLOAD: dict = {}


def _init_process_worker(index, params, radius_fn) -> None:
    _WORKER_PAYLOAD["args"] = (index, params, radius_fn)


def _run_chunk_in_process(chunk: Chunk) -> ChunkResult:
    index, params, radius_fn = _WORKER_PAYLOAD["args"]
    return _run_chunk(index, params, chunk, radius_fn)


class ParallelNNEngine:
    """Chunked Phase-1 executor over a ``concurrent.futures`` pool.

    Parameters
    ----------
    n_workers:
        Worker count.  ``1`` runs the chunks inline — still through the
        batched fast path, which is how the sequential-vs-batch
        benchmark isolates the blocked-evaluation speedup.
    pool:
        ``"thread"`` (default; shared index and pair cache) or
        ``"process"`` (true parallelism; the index must pickle).
    chunk_size:
        Fixed chunk length; default is a balanced split into
        ``n_workers * CHUNKS_PER_WORKER`` chunks.
    """

    def __init__(
        self,
        n_workers: int = 1,
        pool: PoolKind = "thread",
        chunk_size: int | None = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if pool not in ("thread", "process"):
            raise ValueError(f"unknown pool kind {pool!r}")
        self.n_workers = n_workers
        self.pool: PoolKind = pool
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------

    def plan(
        self, rids: Sequence[int], blocks: Sequence[Sequence[int]] | None = None
    ) -> list[Chunk]:
        """The chunk plan the engine will execute for a lookup order.

        ``blocks`` are the index's :attr:`~repro.index.base.NNIndex
        .blocks`: each stays inside one chunk, so the blocked pass
        scores every same-block pair once.
        """
        if self.chunk_size is not None:
            return plan_chunks(rids, chunk_size=self.chunk_size, blocks=blocks)
        if self.n_workers == 1:
            # Inline execution has no load imbalance to smooth, and one
            # whole-order chunk maximizes the blocked pass's symmetry
            # savings: every pair is in-batch, none goes through the
            # cache twice.
            return plan_chunks(rids, n_chunks=1)
        return plan_chunks(
            rids, n_chunks=self.n_workers * CHUNKS_PER_WORKER, blocks=blocks
        )

    def _resolve_order(
        self,
        relation: Relation,
        order: str,
        order_seed: int,
        rids: Sequence[int] | None = None,
    ) -> list[int]:
        if rids is not None:
            return sorted(rids)
        if order == "random":
            return random_order(relation, seed=order_seed)
        if order in ("bf", "sequential"):
            # "bf": the online BF traversal is seeded by the scan of R
            # (see module docstring); chunking that scan order keeps
            # each worker contiguous in the relation.
            return relation.ids()
        raise ValueError(f"unknown lookup order {order!r}")

    def iter_chunk_results(
        self,
        relation: Relation,
        index: NNIndex,
        params: DEParams,
        order: str = "bf",
        order_seed: int = 0,
        stats=None,
        radius_fn=None,
        rids: Sequence[int] | None = None,
    ):
        """Yield :class:`ChunkResult` objects in chunk order.

        The streaming core of :meth:`run`: results are yielded as soon
        as each chunk (in plan order) completes, so a consumer can
        spill rows out of core without the whole NN relation ever
        being resident.  ``rids`` restricts the lookups to a subset,
        in ascending order (``order`` does not apply).  ``stats``
        accounting (lookups, wall time, the chunks' ledgers) is
        finalized when the iterator is exhausted; an abandoned iterator
        records nothing.
        """
        if index.relation is not relation:
            raise ValueError("index was not built over the given relation")

        chunks = self.plan(
            self._resolve_order(relation, order, order_seed, rids),
            index.blocks,
        )
        started = time.perf_counter()
        results: list[ChunkResult] = []
        # ``Executor.map`` yields in submission order — chunk order —
        # regardless of completion order, so no sort is needed.
        if self.n_workers == 1 or len(chunks) <= 1:
            for chunk in chunks:
                result = _run_chunk(index, params, chunk, radius_fn)
                results.append(result)
                yield result
        elif self.pool == "thread":
            with ThreadPoolExecutor(max_workers=self.n_workers) as executor:
                for result in executor.map(
                    lambda chunk: _run_chunk(index, params, chunk, radius_fn),
                    chunks,
                ):
                    results.append(result)
                    yield result
        else:
            with ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_init_process_worker,
                initargs=(index, params, radius_fn),
            ) as executor:
                for result in executor.map(_run_chunk_in_process, chunks):
                    results.append(result)
                    yield result
        if stats is not None:
            work = BatchCounts()
            for result in results:
                work.add(result.work)
            stats.record(
                sum(len(result.rids) for result in results),
                time.perf_counter() - started,
                work,
                chunk_seconds=[result.seconds for result in results],
            )

    def run(
        self,
        relation: Relation,
        index: NNIndex,
        params: DEParams,
        order: str = "bf",
        order_seed: int = 0,
        stats=None,
        radius_fn=None,
        rids: Sequence[int] | None = None,
    ) -> NNRelation:
        """Materialize the NN relation, identically to ``prepare_nn_lists``.

        ``stats`` (a :class:`~repro.core.nn_phase.Phase1Stats`) is
        extended with per-chunk timings on top of the sequential path's
        lookup, wall-time and work accounting.
        """
        return NNRelation.from_batches(
            (result.rids, result.batch)
            for result in self.iter_chunk_results(
                relation,
                index,
                params,
                order=order,
                order_seed=order_seed,
                stats=stats,
                radius_fn=radius_fn,
                rids=rids,
            )
        )
