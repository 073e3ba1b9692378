"""Phase 1 — nearest-neighbor list computation (paper section 4.1).

``prepare_nn_lists`` materializes the NN relation
``NN_Reln[ID, NN-List, NG]``: for every tuple, its nearest neighbors
(the best K for ``DE_S(K)``; all within θ for ``DE_D(θ)``) and its
neighborhood growth ``ng``.  On the scalar path lookups are issued in
breadth-first order by default to maximize index buffer locality
(Figure 5 / section 4.1.1); the Figure 8 benchmark compares this
against random order.  The answers do not depend on lookup order, so
an index with an active batch kernel answers the whole relation through
its batch API instead (see :func:`prepare_nn_lists`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Sequence

from repro.core.bforder import breadth_first_order, random_order, sequential_order
from repro.core.formulation import DEParams
from repro.core.neighborhood import NNEntry, NNRelation
from repro.data.schema import Relation
from repro.index.base import BatchCounts, Neighbor, NNIndex

__all__ = ["Phase1Stats", "prepare_nn_lists"]

LookupOrder = Literal["bf", "random", "sequential"]


@dataclass
class Phase1Stats(BatchCounts):
    """Cost accounting for Phase 1: the work ledger of a run.

    The work counters and sub-stage timers come from
    :class:`~repro.index.base.BatchCounts`; this adds the lookups, the
    Phase-1 wall clock and the chunk timings.  All fields *accumulate*:
    reusing one stats object across several ``prepare_nn_lists`` calls
    (resumed or incremental runs) sums their costs instead of keeping
    only the last call's.  Both drivers — the per-record loop and the
    chunk engine, which the shard runner calls once per shard — fill it
    through :meth:`record`.
    """

    lookups: int = 0
    #: Phase-1 wall time.  Sharded runs set it to the length of the
    #: union of the shards' Phase-1 intervals, never to their sum.
    seconds: float = 0.0
    n_chunks: int = 0
    chunk_seconds: list[float] = field(default_factory=list)

    def add(self, other: BatchCounts) -> None:
        """Accumulate ``other``'s work; from another ``Phase1Stats``
        also its lookups and chunks.

        ``seconds`` is a wall clock and is not added: drivers that may
        overlap in time account their wall time themselves.
        """
        super().add(other)
        if isinstance(other, Phase1Stats):
            self.lookups += other.lookups
            self.n_chunks += other.n_chunks
            self.chunk_seconds.extend(other.chunk_seconds)

    def record(
        self,
        lookups: int,
        seconds: float,
        work: BatchCounts,
        chunk_seconds: "Sequence[float] | None" = None,
    ) -> None:
        """Account one driver call: ``lookups`` answered in ``seconds``
        of wall time, doing ``work`` (the sum of the ledgers the call
        opened).  The wall time the work's sub-stages leave over is the
        driver's own, credited as ``drive`` (none when concurrent
        workers' busy time exceeds the wall clock).
        """
        drive = seconds - sum(work.substage_seconds.values())
        if drive > 0.0:
            work.add_seconds("drive", drive)
        self.add(work)
        self.lookups += lookups
        self.seconds += seconds
        if chunk_seconds is not None:
            self.n_chunks += len(chunk_seconds)
            self.chunk_seconds.extend(chunk_seconds)

    @property
    def cache_bypassed(self) -> bool:
        """Whether distance work skipped the pair cache entirely.

        True on kernel-backed batch runs: every pair went through the
        vectorized kernel, so the pair cache saw zero traffic and
        :attr:`cache_hit_rate` is undefined rather than genuinely 0.0.
        """
        return (
            self.cache_hits + self.cache_misses == 0
            and self.kernel_evaluations > 0
        )

    @property
    def prune_rate(self) -> float:
        """Fraction of considered pairs excluded without evaluation.

        0.0 when nothing was pruned or nothing ran (brute force never
        prunes: it has no candidate-generation stage).
        """
        total = (
            self.evaluations_pruned
            + self.evaluations
            + self.kernel_evaluations
            + self.cache_hits
        )
        if total == 0:
            return 0.0
        return self.evaluations_pruned / total

    @property
    def throughput(self) -> float:
        """Lookups per second (the paper's ``pt`` metric, wall-clock).

        Defined as 0.0 when no lookup has been recorded (or no time has
        elapsed), so resumed/empty runs never divide by zero.
        """
        if self.lookups == 0 or self.seconds <= 0.0:
            return 0.0
        return self.lookups / self.seconds

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of distance requests served by a pair cache."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total


def prepare_nn_lists(
    relation: Relation,
    index: NNIndex,
    params: DEParams,
    order: LookupOrder = "bf",
    order_seed: int = 0,
    stats: Phase1Stats | None = None,
    radius_fn=None,
    n_workers: int = 1,
    pool: str = "thread",
    chunk_size: int | None = None,
    rids: Sequence[int] | None = None,
) -> NNRelation:
    """Materialize the NN relation for a DE problem instance.

    Parameters
    ----------
    relation:
        The input relation (must already be indexed: ``index.build``
        called with the same relation and the problem's distance).
    index:
        A built NN index.
    params:
        The DE parameters; the cut specification decides the query
        shape (top-K vs. within-θ) exactly as in the paper.
    order:
        Index lookup order: ``"bf"`` (breadth-first, the paper's
        choice), ``"random"`` (the paper's baseline), or
        ``"sequential"`` (relation order).
    order_seed:
        Seed for the random order.
    stats:
        Optional mutable stats object to fill with lookup counts and
        wall-clock time.
    radius_fn:
        Optional :class:`~repro.core.radius.RadiusFunction` overriding
        the linear ``p * nn(v)`` neighborhood in the NG computation
        (the non-linear extension the paper's section 2 permits).
    n_workers:
        With ``n_workers > 1`` the computation is delegated to
        :class:`~repro.parallel.engine.ParallelNNEngine`: the lookup
        order is split into contiguous chunks answered through the
        index's batch API over a worker pool, producing a result
        identical to this sequential path for any worker count.  An
        index with an active batch kernel is delegated at one worker
        too: the engine answers the relation inline, as one chunk,
        through the index's blocked ``phase1_batch``.  So is a
        constraint :class:`~repro.index.blocks.BlockIndex` under any
        kernel.  The per-record breadth-first traversal stays the
        scalar reference (kernel ``"python"``, or an index built
        without ``enable_kernel``).
    pool:
        Worker pool kind for the parallel path: ``"thread"`` or
        ``"process"``.
    chunk_size:
        Optional fixed chunk length for the parallel path.
    rids:
        Optional subset of record ids to compute entries for, answered
        in ascending-rid order by the chunk engine (one chunk unless
        ``chunk_size`` is given; ``order`` does not apply).  Queries
        still run against the *full* index, so each returned entry is
        exactly the entry a whole-relation run would produce for that
        rid — the contract the sharded runner's exact merge relies on.
    """
    if index.relation is not relation:
        raise ValueError("index was not built over the given relation")
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")

    # Constraint blocks take the engine under any kernel: its batch scope
    # scores each same-block pair once, for the list and the NG count.
    batched = index.kernel_backend != "python" or index.blocks is not None
    if rids is not None or n_workers > 1 or batched:
        # Imported lazily: repro.parallel depends on repro.core modules.
        from repro.parallel.engine import ParallelNNEngine

        engine = ParallelNNEngine(
            n_workers=n_workers, pool=pool, chunk_size=chunk_size
        )
        return engine.run(
            relation,
            index,
            params,
            order=order,
            order_seed=order_seed,
            stats=stats,
            radius_fn=radius_fn,
            rids=rids,
        )

    nn_relation = NNRelation()
    k, theta = params.bounds
    started = time.perf_counter()

    def lookup(rid: int) -> Sequence[Neighbor]:
        # Materializing the query record (possibly a buffer-pool page
        # read) is the probe's input prep — credited to ``candidates``.
        fetch_started = time.perf_counter()
        record = relation.get(rid)
        work.add_seconds("candidates", time.perf_counter() - fetch_started)
        if theta is not None:
            neighbors = index.within(record, theta)[:k]
        else:
            neighbors = index.knn(record, k)
        # The fetched list already reveals nn(v) when non-empty (for
        # the size spec always; for the diameter spec whenever some
        # neighbor lies within θ), sparing the index a redundant 1-NN
        # probe inside the NG computation.
        nn_distance = neighbors[0].distance if neighbors else None
        ng = index.neighborhood_growth(
            record, p=params.p, nn_distance=nn_distance, radius_fn=radius_fn
        )
        nn_relation.add(NNEntry(rid=rid, neighbors=tuple(neighbors), ng=ng))
        return neighbors

    with index.ledger() as work:
        if order == "bf":
            for _ in breadth_first_order(relation, lookup):
                pass
        else:
            ids = (
                random_order(relation, seed=order_seed)
                if order == "random"
                else sequential_order(relation)
            )
            for rid in ids:
                lookup(rid)

    if stats is not None:
        stats.record(len(nn_relation), time.perf_counter() - started, work)
    return nn_relation
