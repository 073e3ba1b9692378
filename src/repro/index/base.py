"""Nearest-neighbor index protocol.

Phase 1 of the DE algorithm assumes "the availability of an index for
efficiently answering: for any given tuple v in R, fetch its nearest
neighbors" (paper section 4.1).  The paper uses probabilistic indexes
for edit distance / fms and *treats them as exact*; we follow suit and
validate approximation quality against :class:`BruteForceIndex`
(benchmark A4).

The protocol supports the two query shapes Phase 1 needs:

- ``knn(record, k)`` — the k nearest other records (DE_S);
- ``within(record, radius)`` — all other records with distance below
  ``radius`` (DE_D);

plus :meth:`NNIndex.neighborhood_growth`, the paper's ``ng(v)``: the
number of tuples (including ``v`` itself) within a sphere of radius
``p * nn(v)``, with ``p = 2`` fixed in the paper.

Phase 1 asks for all three at once through :meth:`NNIndex.phase1_batch`,
which answers with one columnar :class:`Phase1Batch` (``indptr``,
neighbour rids and distances, ``ng``) rather than per-record objects.
An index with a batch kernel only generates and scores candidates
(MinHash: LSH candidate pairs; brute force: dense kernel rows) and
hands them to :func:`read_off`, the one routine that cuts and reads
``nn(v)`` and ``ng(v)``: ``nn(v)`` is a per-query minimum, ``ng(v)`` a
``bincount``, and only each query's head (the entries within θ, or
every entry under the pure size cut) is ranked.  Per-record kernel
queries answer through it as one-query batches; the scalar per-record
path, the reference every batch answer must equal, cuts with
:func:`cut_neighbors`.

Ordering and ties
-----------------
Neighbors are always ordered by ``(distance, rid)``.  The deterministic
rid tie-break keeps DE solutions unique even though real string data
violates the paper's distinct-distances assumption.
"""

from __future__ import annotations

import abc
import heapq
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.data.schema import Record, Relation
from repro.distances.base import DistanceFunction
from repro.distances.kernels import KernelUnavailable

__all__ = [
    "COUNTERS",
    "BatchCounts",
    "Neighbor",
    "NNIndex",
    "Phase1Batch",
    "by_proximity",
    "cut_neighbors",
    "read_off",
    "score_pairs",
]

@dataclass(frozen=True, slots=True, order=True)
class Neighbor:
    """A neighbor hit: distance first so tuples sort by proximity."""

    distance: float
    rid: int


#: Sort key of a :class:`Neighbor`: its ``(distance, rid)`` tuple, read
#: in C.  Sorting, ``bisect`` and ``insort`` by it compare plain tuples
#: instead of calling the dataclass ``__lt__`` per comparison.
by_proximity = attrgetter("distance", "rid")


class Phase1Batch:
    """Phase 1's answers to a batch of queries, held as columns.

    Query ``i``'s cut list is ``rids[indptr[i] : indptr[i + 1]]`` with
    the matching ``distances``, ranked by ``(distance, rid)``, and
    ``ng[i]`` is its neighborhood growth.  The columns are numpy arrays.

    Iterated, the batch is the object view: one ``(list[Neighbor],
    ng)`` per query, built only when asked for and equal to the
    per-record ``knn``/``within`` + :meth:`NNIndex.neighborhood_growth`
    answer.
    """

    __slots__ = ("indptr", "rids", "distances", "ng")

    def __init__(self, indptr, rids, distances, ng) -> None:
        self.indptr = indptr
        self.rids = rids
        self.distances = distances
        self.ng = ng

    @classmethod
    def from_answers(
        cls, answers: "Iterable[tuple[Sequence[Neighbor], int]]"
    ) -> "Phase1Batch":
        """The columns of per-record ``(neighbors, ng)`` answers."""
        indptr = [0]
        rids: list[int] = []
        distances: list[float] = []
        ng: list[int] = []
        for neighbors, growth in answers:
            rids.extend(neighbor.rid for neighbor in neighbors)
            distances.extend(neighbor.distance for neighbor in neighbors)
            indptr.append(len(rids))
            ng.append(growth)
        return cls(
            np.asarray(indptr, dtype=np.int64),
            np.asarray(rids, dtype=np.int64),
            np.asarray(distances, dtype=np.float64),
            np.asarray(ng, dtype=np.int64),
        )

    @classmethod
    def concat(cls, batches: "Sequence[Phase1Batch]") -> "Phase1Batch":
        """One batch holding ``batches``' queries in order."""
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.from_answers(())
        lengths = np.concatenate([np.diff(b.indptr) for b in batches])
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return cls(
            indptr,
            np.concatenate([b.rids for b in batches]),
            np.concatenate([b.distances for b in batches]),
            np.concatenate([b.ng for b in batches]),
        )

    def take(self, queries) -> "Phase1Batch":
        """The batch of queries ``queries`` (positions, an int array), in
        that order."""
        lengths = np.diff(self.indptr)[queries]
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        flat = np.repeat(self.indptr[queries] - indptr[:-1], lengths)
        flat += np.arange(indptr[-1], dtype=np.int64)
        return Phase1Batch(
            indptr, self.rids[flat], self.distances[flat], self.ng[queries]
        )

    def __len__(self) -> int:
        return len(self.ng)

    def neighbors(self, i: int) -> list[Neighbor]:
        """Query ``i``'s cut list as :class:`Neighbor` objects."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return list(map(
            Neighbor,
            self.distances[lo:hi].tolist(),
            self.rids[lo:hi].tolist(),
        ))

    def __iter__(self) -> "Iterator[tuple[list[Neighbor], int]]":
        bounds = self.indptr.tolist()
        distances = self.distances.tolist()
        rids = self.rids.tolist()
        for i, growth in enumerate(self.ng.tolist()):
            lo, hi = bounds[i], bounds[i + 1]
            yield list(map(Neighbor, distances[lo:hi], rids[lo:hi])), growth

    def rows(
        self, queries: "Sequence[int]"
    ) -> "Iterator[tuple[int, tuple[int, ...], tuple[float, ...], int]]":
        """``(ID, NN-List, Distances, NG)`` engine rows, query ``i``
        being record ``queries[i]``; no :class:`Neighbor` is built."""
        bounds = self.indptr.tolist()
        distances = self.distances.tolist()
        rids = self.rids.tolist()
        for i, (rid, growth) in enumerate(zip(queries, self.ng.tolist())):
            lo, hi = bounds[i], bounds[i + 1]
            yield rid, tuple(rids[lo:hi]), tuple(distances[lo:hi]), growth


@dataclass
class BatchCounts:
    """A work ledger: the Phase-1 work done while it was open.

    This is the one declaration of the six work counters and the
    sub-stage timers.  :class:`NNIndex` charges every unit of work to
    the ledger the calling thread opened (:meth:`NNIndex.ledger`), so
    threads that share one index never see each other's work, and a
    driver's counts are the sum of the ledgers it opened.
    :class:`~repro.core.nn_phase.Phase1Stats` extends it with a run's
    lookups, wall clock and chunk timings.
    """

    #: Scalar ``distance()`` calls.
    evaluations: int = 0
    #: Pair-cache traffic of the scalar path.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Candidate (query, record) pairs surfaced for verification.
    candidates_generated: int = 0
    #: Pairs excluded without any distance computation (bucket misses,
    #: count-filter rejects, triangle-inequality prunes, memo hits).
    evaluations_pruned: int = 0
    #: Pair distances computed by a vectorized batch kernel; disjoint
    #: from ``evaluations``, so their sum is the total distance work.
    kernel_evaluations: int = 0
    #: Sub-stage wall times: build-side ``tokenize`` / ``sign`` /
    #: ``bucket``, lookup-side ``candidates`` / ``verify``, and the
    #: driver's own ``drive``.  Summed over threads, so busy time.
    substage_seconds: dict[str, float] = field(default_factory=dict)

    def add_seconds(self, name: str, seconds: float) -> None:
        self.substage_seconds[name] = (
            self.substage_seconds.get(name, 0.0) + seconds
        )

    def add_substages(self, seconds: "dict[str, float] | None") -> None:
        """Accumulate a sub-stage wall-time mapping into this ledger."""
        for name, value in (seconds or {}).items():
            self.add_seconds(name, value)

    def add(self, other: "BatchCounts") -> None:
        """Accumulate ``other``'s work into this ledger."""
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.add_substages(other.substage_seconds)


#: The six work counters, in declaration order.
COUNTERS = tuple(
    f.name for f in fields(BatchCounts) if f.name != "substage_seconds"
)


class NNIndex(abc.ABC):
    """Index answering k-NN and range queries under a distance function."""

    #: Human-readable name used in reports.
    name: str = "index"

    #: Disjoint rid groups outside which no record has candidates (the
    #: constraint blocks of :class:`~repro.index.blocks.BlockIndex`);
    #: the parallel engine keeps each inside one lookup chunk.  ``None``
    #: for an index over the whole relation.
    blocks: list[tuple[int, ...]] | None = None

    def __init__(self) -> None:
        self.relation: Relation | None = None
        self.distance: DistanceFunction | None = None
        #: Distance computations spent constructing the index itself
        #: (BK-tree inserts); zero for structure-free
        #: indexes.  Reported separately so the bench matrix can charge
        #: each index its honest total cost.
        self.build_evaluations = 0
        #: The index's running work totals: every closed top-level
        #: ledger folds in here, and work done with no ledger open (a
        #: bare ``knn``/``within`` call) is charged here directly.  Like
        #: the pair cache, the totals live for one build.
        self.totals = BatchCounts()
        #: Per-thread open ledgers (see :meth:`ledger`), created by the
        #: first ledger opened so that constructing an index stays cheap.
        self._open: threading.local | None = None
        #: Kernel selection: "python" (never) or "auto" (the distance's
        #: batch kernel when it has one).  Scalar by default so a
        #: bare ``build()`` keeps exact historical counter behavior;
        #: the run layer opts in via :meth:`enable_kernel`.
        self.kernel_mode = "python"
        self._kernel = None
        #: The mode the current build's kernel was resolved under.
        self._resolved_mode: str | None = None
        #: Canonical-direction pair cache keyed by ``(min_rid, max_rid)``.
        #: Batch scopes fill it; per-query calls only consult it, so the
        #: plain sequential path stays the honest O(1)-memory baseline.
        self._pair_cache: dict[tuple[int, int], float] = {}
        self._batch_depth = 0
        self._batch_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Locks do not pickle; process-pool workers re-create their own.
        # Batch kernels are dropped too and re-resolved from
        # ``kernel_mode`` on restore.
        state = self.__dict__.copy()
        state["_batch_lock"] = None
        state["_open"] = None
        state["_kernel"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._batch_lock = threading.Lock()
        if self.relation is not None and self.distance is not None:
            self._resolve_kernel()

    def build(self, relation: Relation, distance: DistanceFunction) -> None:
        """Index ``relation`` under ``distance`` (calls ``prepare``).

        ``distance.prepare`` (corpus statistics) and the batch-kernel
        construction (columnar token vectors) both walk the corpus into
        token-derived structures, so their wall time is credited to the
        ``tokenize`` sub-stage alongside the index's own token-set
        extraction.
        """
        self.totals = BatchCounts()
        started = time.perf_counter()
        distance.prepare(relation)
        self._work.add_seconds("tokenize", time.perf_counter() - started)
        self.relation = relation
        self.distance = distance
        self._resolved_mode = None
        # Cached pairs are keyed by rid and scoped to one relation;
        # stale entries across rebuilds would silently answer with
        # another relation's distances.
        self._pair_cache.clear()
        self._build()
        started = time.perf_counter()
        self._resolve_kernel()
        self._work.add_seconds("tokenize", time.perf_counter() - started)

    def enable_kernel(self, mode: str) -> None:
        """Select the batch-kernel mode (``python``/``auto``).

        Takes effect immediately when the index is already built,
        otherwise at the next :meth:`build`.  A distance function
        without a kernel implementation keeps the scalar path under
        every mode.

        Re-selecting the mode the built index already resolved is a
        no-op: shard pipelines wrap the one shared index in their own
        run contexts while other shards are querying it, and a rebuild
        would both repeat the kernel construction and briefly leave the
        index without its kernel.
        """
        if mode not in ("python", "auto"):
            raise ValueError(f"unknown kernel mode: {mode!r}")
        self.kernel_mode = mode
        if mode == self._resolved_mode:
            return
        if self.relation is not None and self.distance is not None:
            self._resolve_kernel()

    def _resolve_kernel(self) -> None:
        """(Re)build the batch kernel according to ``kernel_mode``."""
        self._kernel = None
        self._resolved_mode = None
        if self.relation is None or self.distance is None:
            return
        self._resolved_mode = self.kernel_mode
        if self.kernel_mode == "python":
            return
        try:
            self._kernel = self.distance.make_kernel(self.relation)
        except KernelUnavailable:
            self._kernel = None

    @property
    def kernel_backend(self) -> str:
        """Backend actually answering batch queries ("python" = scalar)."""
        return self._kernel.backend if self._kernel is not None else "python"

    @abc.abstractmethod
    def _build(self) -> None:
        """Construct index structures; relation/distance are set."""

    @abc.abstractmethod
    def knn(self, record: Record, k: int) -> list[Neighbor]:
        """Return up to ``k`` nearest *other* records, sorted."""

    @abc.abstractmethod
    def within(
        self, record: Record, radius: float, inclusive: bool = False
    ) -> list[Neighbor]:
        """Return all other records with ``d < radius`` (or ``<=``), sorted."""

    # ------------------------------------------------------------------
    # Batch queries
    # ------------------------------------------------------------------

    def phase1_batch(
        self,
        records: "Sequence[Record]",
        k: int | None = None,
        theta: float | None = None,
        p: float = 2.0,
        radius_fn: "Callable[[float], float] | None" = None,
    ) -> Phase1Batch:
        """Batched Phase-1 kernel: each record's cut neighbor list and NG.

        The query shape mirrors the DE cut specifications: ``k`` alone
        is the size cut (k nearest), ``theta`` alone the diameter cut
        (all within θ), both together the combined cut (the k nearest
        within θ).  Returns one :class:`Phase1Batch`, positionally
        aligned with ``records``, whose answers are identical to the
        per-record ``knn``/``within`` + :meth:`neighborhood_growth`
        sequence.  The default implementation is exactly that sequence;
        indexes with a blocked evaluation override it.  The call's work
        is charged to the calling thread's open ledger (see
        :meth:`ledger`).
        """
        if k is None and theta is None:
            raise ValueError("phase1_batch needs k, theta, or both")
        results: list[tuple[list[Neighbor], int]] = []
        with self._batch_scope():
            for record in records:
                if theta is not None:
                    neighbors = self.within(record, theta)
                    if k is not None:
                        neighbors = neighbors[:k]
                else:
                    assert k is not None
                    neighbors = self.knn(record, k)
                nn_distance = neighbors[0].distance if neighbors else None
                ng = self.neighborhood_growth(
                    record, p=p, nn_distance=nn_distance, radius_fn=radius_fn
                )
                results.append((neighbors, ng))
        return Phase1Batch.from_answers(results)

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------

    def nn_distance(self, record: Record) -> float:
        """Return ``nn(v)``: the distance to the nearest other record.

        Returns ``inf`` for a singleton relation.
        """
        hits = self.knn(record, 1)
        if not hits:
            return float("inf")
        return hits[0].distance

    def neighborhood_growth(
        self,
        record: Record,
        p: float = 2.0,
        nn_distance: float | None = None,
        radius_fn: "Callable[[float], float] | None" = None,
    ) -> int:
        """Return ``ng(v) = |{u : d(u, v) < p * nn(v)}|`` (self included).

        ``nn_distance`` may be supplied by callers that already hold the
        record's NN list (Phase 1 does), saving a redundant 1-NN query.
        ``radius_fn`` generalizes the linear ``p * nn(v)`` neighborhood
        (paper section 2 allows non-linear functions); when given it
        overrides ``p``.  With exact duplicates present (``nn(v) == 0``,
        outside the paper's distinct-distances assumption) the
        zero-distance records are counted as the neighborhood, which
        preserves the intent that immediate-vicinity tuples contribute
        to growth.
        """
        nn_d = self.nn_distance(record) if nn_distance is None else nn_distance
        if nn_d == float("inf"):
            return 1
        if nn_d == 0.0:
            return 1 + len(self.within(record, 0.0, inclusive=True))
        radius = radius_fn(nn_d) if radius_fn is not None else p * nn_d
        return 1 + len(self.within(record, radius))

    # ------------------------------------------------------------------
    # Helpers for implementations
    # ------------------------------------------------------------------

    def _checked(self) -> tuple[Relation, DistanceFunction]:
        if self.relation is None or self.distance is None:
            raise RuntimeError(f"{type(self).__name__}.build() has not been called")
        return self.relation, self.distance

    # ------------------------------------------------------------------
    # Work ledgers
    # ------------------------------------------------------------------

    @property
    def _work(self) -> BatchCounts:
        """The ledger the calling thread charges work to: its innermost
        open ledger, else :attr:`totals`."""
        ledger = getattr(self._open, "ledger", None)
        return self.totals if ledger is None else ledger

    @contextmanager
    def ledger(self) -> Iterator[BatchCounts]:
        """Charge the calling thread's work on this index to a fresh
        :class:`BatchCounts` while the block runs.

        Ledgers nest: a closed ledger folds into the one it was opened
        inside, or else into :attr:`totals`.  Every unit of work thus
        lands in exactly one ledger however many threads share the
        index, and a driver's counts are the sum of the ledgers it
        opened, never a difference of shared counters.
        """
        with self._batch_lock:
            if self._open is None:
                self._open = threading.local()
        outer = getattr(self._open, "ledger", None)
        work = self._open.ledger = BatchCounts()
        try:
            yield work
        finally:
            self._open.ledger = outer
            if outer is not None:
                outer.add(work)
            else:
                with self._batch_lock:
                    self.totals.add(work)

    # ------------------------------------------------------------------
    # Batch scope and the shared canonical pair cache
    # ------------------------------------------------------------------

    @contextmanager
    def _batch_scope(self) -> Iterator[None]:
        """Mark a batch evaluation in progress.

        Inside the scope :meth:`_pair_distance` *fills* the shared pair
        cache (outside it only consults), so a pair probed from both
        endpoints — or probed again by the NG range count — is evaluated
        once per batch.  Scopes nest and may be entered concurrently by
        thread-pool chunk workers; batch-scoped scratch state is
        released when the outermost scope exits.
        """
        with self._batch_lock:
            self._batch_depth += 1
        try:
            yield
        finally:
            with self._batch_lock:
                self._batch_depth -= 1
                if self._batch_depth == 0:
                    self._on_batch_exit()

    def _on_batch_exit(self) -> None:
        """Hook: drop per-batch scratch state (see ``BKTreeIndex``)."""

    def _pair_distance(
        self, record: Record, other: Record, work: BatchCounts
    ) -> float:
        """Evaluate ``d(record, other)`` through the shared pair cache,
        charging ``work`` (the caller's :attr:`_work`, looked up once per
        candidate list rather than once per pair).

        The pair is always evaluated in canonical (lower rid first)
        direction: the distance protocol is symmetric, but float
        accumulation inside real distance functions need not be
        bit-symmetric, and a fixed direction keeps batch and per-query
        answers bit-identical no matter which side touches a pair first.
        """
        rid, oid = record.rid, other.rid
        key = (rid, oid) if rid <= oid else (oid, rid)
        cached = self._pair_cache.get(key)
        if cached is not None:
            work.cache_hits += 1
            return cached
        work.cache_misses += 1
        work.evaluations += 1
        distance = self.distance
        assert distance is not None
        d = (
            distance.distance(record, other)
            if rid <= oid
            else distance.distance(other, record)
        )
        if self._batch_depth:
            self._pair_cache[key] = d
        return d

    def _verify_cut(
        self,
        record: Record,
        rids: "Sequence[int]",
        k: int | None = None,
        radius: float | None = None,
        inclusive: bool = False,
    ) -> list[Neighbor]:
        """Score a candidate list and cut it like ``knn``/``within``.

        Keeps the candidates with ``d < radius`` (``<=`` when
        ``inclusive``), then the ``k`` nearest of those.  A kernel that
        maps rids to rows scores the list in one array pass and
        :func:`read_off` cuts it as a one-query batch; a kernel with
        only ``pairs`` scores it in one call; otherwise each pair goes
        through :meth:`_pair_distance`, and :func:`cut_neighbors` cuts.
        Every route gives the same list.  Kernels whose row evaluation
        is O(n) advertise ``pairs_min`` to skip tiny candidate lists.
        """
        started = time.perf_counter()
        try:
            kernel = self._kernel
            usable = kernel is not None and len(rids) >= getattr(
                kernel, "pairs_min", 1
            )
            if usable and hasattr(kernel, "resolve_rows"):
                candidates = np.asarray(rids, dtype=np.int64)
                resolved = kernel.resolve_rows(record.rid, candidates)
                if resolved is not None:
                    query_row, rows = resolved
                    self._work.kernel_evaluations += len(candidates)
                    distances = kernel.pairs_array(
                        record.rid, candidates, rows=rows, query_row=query_row
                    )
                    if radius is not None and inclusive:
                        # ``d <= r`` is ``d < nextafter(r, inf)`` on floats.
                        radius = math.nextafter(radius, math.inf)
                    return read_off(
                        np.zeros(len(candidates), dtype=np.int64),
                        candidates, distances, 1, k=k, theta=radius,
                    ).neighbors(0)
            if not isinstance(rids, list):
                rids = rids.tolist()
            if (
                usable
                and record.rid in kernel
                and all(rid in kernel for rid in rids)
            ):
                self._work.kernel_evaluations += len(rids)
                distances = kernel.pairs(record.rid, rids)
            else:
                relation, _ = self._checked()
                work = self._work
                distances = [
                    self._pair_distance(record, relation.get(rid), work)
                    for rid in rids
                ]
            return cut_neighbors(distances, rids, k, radius, inclusive)
        finally:
            self._work.add_seconds("verify", time.perf_counter() - started)


def cut_neighbors(
    distances: "Sequence[float]",
    rids: "Sequence[int]",
    k: int | None = None,
    radius: float | None = None,
    inclusive: bool = False,
) -> list[Neighbor]:
    """The scalar cut: ``(distance, rid)``-ranked hits within ``radius``,
    at most ``k`` of them."""
    hits = zip(distances, rids)
    if radius is not None:
        hits = [
            hit for hit in hits
            if hit[0] < radius or (inclusive and hit[0] == radius)
        ]
    ranked = sorted(hits) if k is None else heapq.nsmallest(k, hits)
    return [Neighbor(d, rid) for d, rid in ranked]


#: Pairs per ``kernel.pair_distances`` call in :func:`score_pairs`.  A
#: call's scratch grows with its pairs' token counts (a few MB per
#: 4,096 org pairs under cosine), so a batch of any size is scored in
#: pieces; each pair's distance does not depend on the others in its call.
_SCORE_PAIRS = 1 << 12


def score_pairs(kernel, kernel_rows, query, other, n: int):
    """Distances of the entries ``(query[i], other[i])`` (relation rows,
    ``n`` in all), each unordered pair scored once: pairs listed from
    both endpoints share one ``kernel.pair_distances`` evaluation,
    mirrored back onto every entry."""
    pairs, inverse = np.unique(
        np.minimum(query, other) * n + np.maximum(query, other),
        return_inverse=True,
    )
    low = pairs // n
    rows_a = kernel_rows[low]
    rows_b = kernel_rows[pairs - low * n]
    distances = np.concatenate([
        kernel.pair_distances(
            rows_a[start : start + _SCORE_PAIRS],
            rows_b[start : start + _SCORE_PAIRS],
        )
        for start in range(0, max(len(pairs), 1), _SCORE_PAIRS)
    ])
    return distances[inverse]


def read_off(
    slot,
    rids,
    distances,
    n_queries: int,
    k: int | None = None,
    theta: float | None = None,
    p: float = 2.0,
    radius_fn: "Callable[[float], float] | None" = None,
    rows=None,
    counted=None,
) -> Phase1Batch:
    """Phase 1's read-off: each query's cut list and ``ng(v)``, as columns.

    The entries ``(slot[i], rids[i], distances[i])`` are the scored
    candidates of query ``slot[i]`` (any order, each rid at most once
    per query).  Each query's list is cut to the ``k`` nearest, to all
    with ``d < theta``, or to the ``k`` nearest of those, and ranked by
    ``(distance, rid)``.  ``nn(v)`` is the query's smallest distance,
    and ``ng(v)`` counts itself plus the records inside the NG sphere:
    ``d < radius_fn(nn)`` (``p * nn`` by default), or ``d == 0`` when
    ``nn = 0`` (exact duplicates, see
    :meth:`NNIndex.neighborhood_growth`); a query without entries has
    ``ng = 1``.

    Only the head is sorted: ``nn(v)`` is a per-query minimum and the
    NG count a ``bincount``, and under ``theta`` only the entries with
    ``d < theta`` are ranked; the pure size cut ranks every entry.

    ``rows``, when given, is a dense block with one row per query
    holding its distance to every record (itself as ``inf``):
    ``nn(v)`` and the NG count are read off it, so the entries need
    only hold each query's possible cut entries.  Otherwise both are
    read off the entries, and ``counted`` (a mask over them) limits
    the NG count to a subset.
    """
    if rows is not None:
        nn = rows.min(axis=1)
    else:
        nn = np.full(n_queries, np.inf)
        np.minimum.at(nn, slot, distances)

    if theta is not None:
        head = np.flatnonzero(distances < theta)
        order = head[
            np.lexsort((rids[head], distances[head], slot[head]))
        ]
    else:
        order = np.lexsort((rids, distances, slot))
    ranked = slot[order]
    kept = np.bincount(ranked, minlength=n_queries)
    if k is not None:
        first = np.cumsum(kept) - kept
        kept = np.minimum(kept, k)
        order = order[np.arange(len(order)) - first[ranked] < kept[ranked]]
    indptr = np.zeros(n_queries + 1, dtype=np.int64)
    np.cumsum(kept, out=indptr[1:])

    if radius_fn is None:
        radius = p * nn
    else:
        radius = np.zeros(n_queries)
        ask = (nn > 0.0) & (nn < np.inf)
        radius[ask] = [radius_fn(value) for value in nn[ask].tolist()]
    # For distances (never negative) ``d == 0`` is ``d < 5e-324``.
    radius[nn == 0.0] = np.nextafter(0.0, 1.0)
    if rows is not None:
        ng = (rows < radius[:, None]).sum(axis=1)
    else:
        inside = distances < radius[slot]
        if counted is not None:
            inside &= counted
        ng = np.bincount(slot[inside], minlength=n_queries)
    return Phase1Batch(indptr, rids[order], distances[order], 1 + ng)
