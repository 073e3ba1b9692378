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
from repro.core.formulation import CombinedCut, DEParams, SizeCut
from repro.core.neighborhood import NNEntry, NNRelation
from repro.data.schema import Relation
from repro.index.base import BatchCounts, Neighbor, NNIndex

__all__ = ["Phase1Stats", "prepare_nn_lists"]

LookupOrder = Literal["bf", "random", "sequential"]


@dataclass
class Phase1Stats:
    """Cost accounting for Phase 1.

    All counters *accumulate*: reusing one stats object across several
    ``prepare_nn_lists`` calls (resumed or incremental runs) sums their
    costs instead of keeping only the last call's.  The chunk fields are
    filled by the parallel engine only; the sequential path is one
    implicit chunk and leaves them untouched.
    """

    lookups: int = 0
    seconds: float = 0.0
    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Candidate (query, record) pairs the index surfaced for
    #: verification — the size of the candidate-generation stage's
    #: output (``n * (n - 1)`` for brute force would examine everything;
    #: approximate indexes surface far fewer).
    candidates_generated: int = 0
    #: Pairs excluded without any distance computation: LSH bucket
    #: misses, q-gram count-filter rejects, triangle-inequality prunes,
    #: BK-tree subtree skips.  The sub-quadratic lever, made visible.
    evaluations_pruned: int = 0
    #: Pairs evaluated inside a vectorized batch kernel (numpy path)
    #: rather than one scalar ``distance()`` call at a time.  Disjoint
    #: from ``evaluations``: a pair is counted in exactly one of the
    #: two, so their sum is the total distance work.
    kernel_evaluations: int = 0
    n_chunks: int = 0
    chunk_seconds: list[float] = field(default_factory=list)
    #: Phase-1 sub-stage wall times — build-side ``tokenize`` / ``sign``
    #: / ``bucket`` plus lookup-side ``candidates`` / ``verify`` —
    #: harvested as deltas from ``NNIndex.substage_seconds`` by the
    #: drivers (sequential, subset, parallel engine, shard runner).
    substage_seconds: dict[str, float] = field(default_factory=dict)
    #: Per-index-name accumulation of {lookups, evaluations,
    #: candidates_generated, evaluations_pruned} — one stats object can
    #: aggregate runs over several indexes (the bench matrix does).
    by_index: dict[str, dict[str, int]] = field(default_factory=dict)

    def credit_index(
        self,
        name: str,
        *,
        lookups: int = 0,
        evaluations: int = 0,
        candidates_generated: int = 0,
        evaluations_pruned: int = 0,
        kernel_evaluations: int = 0,
    ) -> None:
        """Accumulate one run's costs under the index's name."""
        row = self.by_index.setdefault(
            name,
            {
                "lookups": 0,
                "evaluations": 0,
                "candidates_generated": 0,
                "evaluations_pruned": 0,
                "kernel_evaluations": 0,
            },
        )
        row["lookups"] += lookups
        row["evaluations"] += evaluations
        row["candidates_generated"] += candidates_generated
        row["evaluations_pruned"] += evaluations_pruned
        row["kernel_evaluations"] += kernel_evaluations

    def add_counts(self, counts: BatchCounts) -> None:
        """Accumulate one batch call's own work into this object."""
        self.evaluations += counts.evaluations
        self.cache_hits += counts.cache_hits
        self.cache_misses += counts.cache_misses
        self.candidates_generated += counts.candidates_generated
        self.evaluations_pruned += counts.evaluations_pruned
        self.kernel_evaluations += counts.kernel_evaluations
        self.add_substages(counts.substage_seconds)

    def add_substages(self, delta: "dict[str, float] | None") -> None:
        """Accumulate a sub-stage wall-time delta into this object."""
        if not delta:
            return
        for name, seconds in delta.items():
            self.substage_seconds[name] = (
                self.substage_seconds.get(name, 0.0) + seconds
            )

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


def _substage_snapshot(index: NNIndex) -> dict[str, float]:
    """Copy the index's sub-stage ledger (for later delta computation)."""
    return dict(getattr(index, "substage_seconds", None) or {})


def _substage_delta(
    index: NNIndex, before: dict[str, float]
) -> dict[str, float]:
    """Per-stage wall time accrued on ``index`` since ``before``."""
    after = getattr(index, "substage_seconds", None) or {}
    delta = {
        name: seconds - before.get(name, 0.0)
        for name, seconds in after.items()
    }
    return {name: seconds for name, seconds in delta.items() if seconds > 0.0}


def _fetch(
    index: NNIndex, relation: Relation, rid: int, params: DEParams
) -> Sequence[Neighbor]:
    # Materializing the query record (possibly a buffer-pool page read)
    # is the probe's input prep — credited to ``candidates``.
    started = time.perf_counter()
    record = relation.get(rid)
    index._credit_substage("candidates", time.perf_counter() - started)
    if isinstance(params.cut, SizeCut):
        return index.knn(record, params.cut.k)
    if isinstance(params.cut, CombinedCut):
        # The K nearest neighbors within radius theta: both bounds hold.
        return index.within(record, params.theta)[: params.cut.k]
    return index.within(record, params.theta)


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
        through the index's blocked ``phase1_batch``.  The per-record
        breadth-first traversal stays the scalar reference (kernel
        ``"python"``, or an index built without ``enable_kernel``).
    pool:
        Worker pool kind for the parallel path: ``"thread"`` or
        ``"process"``.
    chunk_size:
        Optional fixed chunk length for the parallel path.
    rids:
        Optional subset of record ids to compute entries for.  Queries
        still run against the *full* index, so each returned entry is
        exactly the entry a whole-relation run would produce for that
        rid — the contract the sharded runner's exact merge relies on.
        The subset is answered through :meth:`NNIndex.phase1_batch` in
        ascending-rid chunks (``order``/``n_workers`` do not apply).
    """
    if index.relation is not relation:
        raise ValueError("index was not built over the given relation")
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")

    if rids is not None:
        return _subset_nn_lists(
            relation, index, params, sorted(rids),
            stats=stats, radius_fn=radius_fn,
            chunk_size=chunk_size,
        )

    if n_workers > 1 or index.kernel_backend != "python":
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
        )

    nn_relation = NNRelation()
    started = time.perf_counter()
    evaluations_before = index.evaluations
    hits_before = getattr(index, "cache_hits", 0)
    misses_before = getattr(index, "cache_misses", 0)
    candidates_before = getattr(index, "candidates_generated", 0)
    pruned_before = getattr(index, "evaluations_pruned", 0)
    kernel_before = getattr(index, "kernel_evaluations", 0)
    substages_before = _substage_snapshot(index)
    lookups_before = stats.lookups if stats is not None else 0

    def lookup(rid: int) -> Sequence[Neighbor]:
        neighbors = _fetch(index, relation, rid, params)
        # The fetched list already reveals nn(v) when non-empty (for
        # the size spec always; for the diameter spec whenever some
        # neighbor lies within θ), sparing the index a redundant 1-NN
        # probe inside the NG computation.
        nn_distance = neighbors[0].distance if neighbors else None
        ng = index.neighborhood_growth(
            relation.get(rid),
            p=params.p,
            nn_distance=nn_distance,
            radius_fn=radius_fn,
        )
        nn_relation.add(NNEntry(rid=rid, neighbors=tuple(neighbors), ng=ng))
        if stats is not None:
            stats.lookups += 1
        return neighbors

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
        evaluations = index.evaluations - evaluations_before
        candidates = getattr(index, "candidates_generated", 0) - candidates_before
        pruned = getattr(index, "evaluations_pruned", 0) - pruned_before
        kernel = getattr(index, "kernel_evaluations", 0) - kernel_before
        loop_seconds = time.perf_counter() - started
        stats.seconds += loop_seconds
        stats.evaluations += evaluations
        stats.cache_hits += getattr(index, "cache_hits", 0) - hits_before
        stats.cache_misses += getattr(index, "cache_misses", 0) - misses_before
        stats.candidates_generated += candidates
        stats.evaluations_pruned += pruned
        stats.kernel_evaluations += kernel
        substages = _substage_delta(index, substages_before)
        # The loop's own traversal order + result assembly, attributed
        # explicitly so the timers account for the full wall time.  Can
        # go non-positive when thread-pool workers accrue concurrently
        # on the shared index; skip the entry then.
        drive = loop_seconds - sum(substages.values())
        if drive > 0.0:
            substages["drive"] = drive
        stats.add_substages(substages)
        stats.credit_index(
            index.name,
            lookups=stats.lookups - lookups_before,
            evaluations=evaluations,
            candidates_generated=candidates,
            evaluations_pruned=pruned,
            kernel_evaluations=kernel,
        )
    return nn_relation


def _subset_nn_lists(
    relation: Relation,
    index: NNIndex,
    params: DEParams,
    rids: Sequence[int],
    stats: Phase1Stats | None = None,
    radius_fn=None,
    chunk_size: int | None = None,
) -> NNRelation:
    """Compute entries for a rid subset against the full index.

    The cut dispatch maps onto :meth:`NNIndex.phase1_batch`'s query
    shape exactly as ``_fetch`` does (``k`` = size cut, ``theta`` =
    diameter cut, both = combined cut), so each entry is bit-identical
    to the sequential whole-relation path's entry for the same rid.
    Chunking bounds the batch pair cache while still amortizing the
    index's blocked evaluation across neighbors within a chunk.

    Shard runners call this concurrently on one shared index, so the
    costs are summed from each batch call's own
    :class:`~repro.index.base.BatchCounts`, never read off the index's
    shared counters.
    """
    if isinstance(params.cut, SizeCut):
        k, theta = params.cut.k, None
    elif isinstance(params.cut, CombinedCut):
        k, theta = params.cut.k, params.theta
    else:
        k, theta = None, params.theta

    nn_relation = NNRelation()
    started = time.perf_counter()
    counts = BatchCounts()
    size = chunk_size if chunk_size and chunk_size > 0 else 256
    for start in range(0, len(rids), size):
        chunk = rids[start : start + size]
        fetch_started = time.perf_counter()
        records = [relation.get(rid) for rid in chunk]
        counts.add_seconds("candidates", time.perf_counter() - fetch_started)
        batch = index.phase1_batch(
            records, k=k, theta=theta, p=params.p, radius_fn=radius_fn,
            counts=counts,
        )
        for rid, (neighbors, ng) in zip(chunk, batch):
            nn_relation.add(
                NNEntry(rid=rid, neighbors=tuple(neighbors), ng=ng)
            )

    if stats is not None:
        loop_seconds = time.perf_counter() - started
        stats.lookups += len(rids)
        stats.seconds += loop_seconds
        stats.add_counts(counts)
        # The chunk loop's own bookkeeping, attributed explicitly.
        drive = loop_seconds - sum(counts.substage_seconds.values())
        if drive > 0.0:
            stats.add_substages({"drive": drive})
        stats.credit_index(
            index.name,
            lookups=len(rids),
            evaluations=counts.evaluations,
            candidates_generated=counts.candidates_generated,
            evaluations_pruned=counts.evaluations_pruned,
            kernel_evaluations=counts.kernel_evaluations,
        )
    return nn_relation
