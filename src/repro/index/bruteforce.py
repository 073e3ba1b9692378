"""Brute-force (nested loop) nearest-neighbor index.

The paper's fallback when no index is available ("otherwise, we apply
nested loop join methods in this phase") and our exactness reference:
every other index is validated against this one.

Batch fast path
---------------
Per-query brute force re-scans the relation for every lookup: Phase 1
over n records costs ``n * (n - 1)`` evaluations for the NN lists and
the same again for the NG range counts.  The batch methods instead run
a *blocked all-pairs* evaluation: each unordered pair inside the batch
is evaluated at most once (distance symmetry), the result feeds both
endpoints' answer heaps in the same pass, and every evaluated pair is
stored in a shared pair cache that the NG range counts following in
Phase 1 are then served from.  For a whole-relation batch this drops
Phase 1 from ``2n(n-1)`` evaluations to ``n(n-1)/2`` — the engine
behind the ``repro.parallel`` chunked executor.

The per-query methods consult the cache but never populate it, so
plain sequential usage keeps its O(1) memory profile and remains the
honest baseline the batch path is benchmarked against.

Evaluation direction is canonicalized by record id (the lower rid is
always the first argument).  The distance protocol is symmetric, but
floating-point accumulation inside real distance functions need not be
bit-symmetric; a fixed direction keeps results bit-identical no matter
which query touches a pair first — the property the parallel engine's
"identical for any worker count" guarantee rests on.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from repro.data.schema import Record
from repro.index.base import BatchCounts, Neighbor, NNIndex

__all__ = ["BruteForceIndex"]


class BruteForceIndex(NNIndex):
    """Exact k-NN / range queries by scanning the whole relation.

    Parameters
    ----------
    cache_pairs:
        Enable the blocked batch evaluation and its shared pair cache.
        With ``False`` the batch methods degrade to the sequential
        per-record fallback.
    max_cache_entries:
        Optional bound on the pair cache (FIFO eviction, as in
        :class:`~repro.distances.base.CachedDistance`).  Unbounded
        caching of a whole-relation batch stores O(n²) floats; see
        ``docs/performance.md`` for sizing guidance.
    """

    name = "bruteforce"

    def __init__(
        self, cache_pairs: bool = True, max_cache_entries: int | None = None
    ):
        super().__init__()
        if max_cache_entries is not None and max_cache_entries <= 0:
            raise ValueError("max_cache_entries must be positive (or None)")
        self.cache_pairs = cache_pairs
        self.max_cache_entries = max_cache_entries
        self._pair_cache: dict[tuple[int, int], float] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        #: How much of the current kernel's ``evaluations`` counter has
        #: been credited to ``kernel_evaluations`` (see _credit_kernel).
        self._kernel_credited = 0

    def _build(self) -> None:
        self._pair_cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    # ------------------------------------------------------------------
    # Pair cache
    # ------------------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of distance requests served by the pair cache."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def _canonical(self, record: Record, other: Record) -> float:
        """Evaluate the pair in canonical (lower rid first) direction."""
        if record.rid <= other.rid:
            return self._evaluate(record, other)
        return self._evaluate(other, record)

    def _pair_distance(self, record: Record, other: Record) -> float:
        """Evaluate ``d(record, other)``, consulting (not filling) the cache."""
        if self._pair_cache:
            rid, oid = record.rid, other.rid
            key = (rid, oid) if rid <= oid else (oid, rid)
            cached = self._pair_cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                return cached
        self.cache_misses += 1
        return self._canonical(record, other)

    def _store(self, key: tuple[int, int], distance: float) -> None:
        cache = self._pair_cache
        if (
            self.max_cache_entries is not None
            and len(cache) >= self.max_cache_entries
        ):
            try:
                # Concurrent thread workers may race on the oldest key;
                # losing the race is harmless.
                cache.pop(next(iter(cache)))
            except (StopIteration, KeyError):
                pass
            else:
                self.cache_evictions += 1
        cache[key] = distance

    def prime_pairs(self, records: Sequence[Record]) -> None:
        """Blocked all-pairs fill: evaluate each (query, other) pair once.

        Symmetry means a pair of two query records is evaluated a single
        time even though both rows need it, and pairs already primed by
        an earlier batch (e.g. a previous chunk of the parallel engine)
        are skipped entirely.  No-op when ``cache_pairs`` is off.
        """
        if not self.cache_pairs:
            return
        relation, _ = self._checked()
        cache = self._pair_cache
        for record in records:
            rid = record.rid
            for other in relation:
                oid = other.rid
                if oid == rid:
                    continue
                key = (rid, oid) if rid <= oid else (oid, rid)
                if key not in cache:
                    self._store(key, self._canonical(record, other))

    # ------------------------------------------------------------------
    # Per-query scans
    # ------------------------------------------------------------------

    def _kernel_row(self, record: Record):
        """Masked kernel distance row for one query, or ``None``."""
        kernel = self._usable_kernel((record,))
        if kernel is None:
            return None
        from repro.distances.kernels.compat import require_numpy

        np = require_numpy()
        rids_arr = np.asarray(kernel.rids, dtype=np.int64)
        d = kernel.block([record.rid])[0]
        d[int(np.searchsorted(rids_arr, record.rid))] = float("inf")
        self._credit_kernel(kernel)
        return np, rids_arr, d

    def knn(self, record: Record, k: int) -> list[Neighbor]:
        relation, _ = self._checked()
        if k <= 0:
            return []
        row = self._kernel_row(record)
        if row is not None:
            np, rids_arr, d = row
            return self._row_knn(np, d, rids_arr, k)
        heap: list[Neighbor] = []
        for other in relation:
            if other.rid == record.rid:
                continue
            hit = Neighbor(self._pair_distance(record, other), other.rid)
            if len(heap) < k:
                # heapq is a min-heap; invert ordering to keep the k smallest.
                heapq.heappush(heap, _Inverted(hit))
            elif hit < heap[0].neighbor:
                heapq.heapreplace(heap, _Inverted(hit))
        return sorted(item.neighbor for item in heap)

    def within(
        self, record: Record, radius: float, inclusive: bool = False
    ) -> list[Neighbor]:
        relation, _ = self._checked()
        row = self._kernel_row(record)
        if row is not None:
            np, rids_arr, d = row
            return self._row_within(np, d, rids_arr, radius, inclusive)
        hits = []
        cache = self._pair_cache
        if cache:
            # Hot path for the NG range counts that follow a blocked
            # batch: almost every pair is a cache hit, so the loop is
            # inlined with hoisted locals and counters batched up.
            rid = record.rid
            get = cache.get
            cache_hits = 0
            cache_misses = 0
            for other in relation:
                oid = other.rid
                if oid == rid:
                    continue
                d = get((rid, oid) if rid <= oid else (oid, rid))
                if d is None:
                    cache_misses += 1
                    d = self._canonical(record, other)
                else:
                    cache_hits += 1
                if d < radius or (inclusive and d == radius):
                    hits.append(Neighbor(d, oid))
            self.cache_hits += cache_hits
            self.cache_misses += cache_misses
        else:
            for other in relation:
                if other.rid == record.rid:
                    continue
                self.cache_misses += 1
                d = self._canonical(record, other)
                if d < radius or (inclusive and d == radius):
                    hits.append(Neighbor(d, other.rid))
        hits.sort()
        return hits

    # ------------------------------------------------------------------
    # Vectorized kernel batch evaluation
    # ------------------------------------------------------------------
    #
    # When a batch kernel is resolved (``enable_kernel``), the batch
    # methods compute whole distance rows at once: queries are processed
    # in sub-blocks of ``_KERNEL_BLOCK`` rows to cap the dense block at
    # a few MB, and per-row selection (k smallest, range filter, NG
    # count) runs on the row arrays.  Kernel distances are bit-identical
    # to the scalar canonical-direction evaluation, so answers match
    # the scalar batch/per-query paths exactly; the work is ledgered in
    # ``kernel_evaluations`` and never touches the pair cache.

    _KERNEL_BLOCK = 64

    def _resolve_kernel(self) -> None:
        super()._resolve_kernel()
        self._kernel_credited = 0

    def _credit_kernel(self, kernel) -> None:
        """Ledger the pairs the kernel computed since the last credit.

        The kernel's own ``evaluations`` counter is the authority: a
        kernel may serve a pair without computing it (the edit kernel
        mirrors symmetric pairs from recent rows).  Crediting the
        counter's advance since the previous credit, under the index
        lock, stays exact when thread-pool workers share this index and
        their kernel calls overlap.
        """
        with self._batch_lock:
            done = kernel.evaluations
            self.kernel_evaluations += done - self._kernel_credited
            self._kernel_credited = done

    def _usable_kernel(self, records: Sequence[Record]):
        kernel = self._kernel
        if kernel is None:
            return None
        relation = self.relation
        if relation is None or len(kernel.rids) != len(relation):
            return None
        if any(record.rid not in kernel for record in records):
            return None
        return kernel

    def _kernel_scan(self, kernel, records: Sequence[Record]):
        """Set up a blocked row scan: returns ``(np, rids_arr, rows)``.

        ``rows`` yields one masked (self = inf) float64 distance row per
        query record, in batch order.
        """
        from repro.distances.kernels.compat import require_numpy

        np = require_numpy()
        rids_arr = np.asarray(kernel.rids, dtype=np.int64)

        def rows():
            inf = float("inf")
            block = self._KERNEL_BLOCK
            for start in range(0, len(records), block):
                chunk = [record.rid for record in records[start : start + block]]
                dense = kernel.block(chunk)
                self._credit_kernel(kernel)
                for r, rid in enumerate(chunk):
                    d = dense[r]
                    d[int(np.searchsorted(rids_arr, rid))] = inf
                    yield d

        return np, rids_arr, rows()

    @staticmethod
    def _row_knn(np, d, rids_arr, k: int) -> list[Neighbor]:
        """The k lexicographically smallest ``(d, rid)`` pairs of a row."""
        if k <= 0:
            return []
        m = d.shape[0] - 1  # self is masked to inf
        if m <= 0:
            return []
        if k < m:
            kth = np.partition(d, k - 1)[k - 1]
            idx = np.flatnonzero(d <= kth)
        else:
            idx = np.flatnonzero(d < np.inf)
        sub_d = d[idx]
        sub_r = rids_arr[idx]
        order = np.lexsort((sub_r, sub_d))[:k]
        return [Neighbor(float(sub_d[o]), int(sub_r[o])) for o in order]

    @staticmethod
    def _row_within(np, d, rids_arr, radius: float, inclusive: bool) -> list[Neighbor]:
        idx = np.flatnonzero(d <= radius if inclusive else d < radius)
        sub_d = d[idx]
        sub_r = rids_arr[idx]
        order = np.lexsort((sub_r, sub_d))
        return [Neighbor(float(sub_d[o]), int(sub_r[o])) for o in order]

    # ------------------------------------------------------------------
    # Blocked batch evaluation
    # ------------------------------------------------------------------
    #
    # Both batch methods share the same skeleton: query i scans the
    # relation but skips records that are *earlier queries of the same
    # batch* — that pair was evaluated during the earlier query's scan
    # and contributed to both answers right then.  Batch records must
    # therefore have distinct rids (relations guarantee this).

    def knn_batch(self, records: Sequence[Record], k: int) -> list[list[Neighbor]]:
        if k <= 0:
            return [[] for _ in records]
        kernel = self._usable_kernel(records)
        if kernel is not None:
            np, rids_arr, rows = self._kernel_scan(kernel, records)
            return [self._row_knn(np, d, rids_arr, k) for d in rows]
        if not self.cache_pairs:
            return [self.knn(record, k) for record in records]
        relation, _ = self._checked()
        cache = self._pair_cache
        position = {record.rid: i for i, record in enumerate(records)}
        # Negated (distance, rid) tuples make a min-heap keep the k
        # lexicographically smallest pairs with its root at the worst.
        heaps: list[list[tuple[float, int]]] = [[] for _ in records]

        def push(heap: list[tuple[float, int]], d: float, rid: int) -> None:
            item = (-d, -rid)
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)

        get = cache.get
        position_get = position.get
        cache_hits = 0
        cache_misses = 0
        for i, record in enumerate(records):
            rid = record.rid
            heap = heaps[i]
            for other in relation:
                oid = other.rid
                if oid == rid:
                    continue
                j = position_get(oid)
                if j is not None and j < i:
                    continue  # already evaluated and pushed by query j
                key = (rid, oid) if rid <= oid else (oid, rid)
                d = get(key)
                if d is None:
                    cache_misses += 1
                    d = self._canonical(record, other)
                    self._store(key, d)
                else:
                    cache_hits += 1
                push(heap, d, oid)
                if j is not None:
                    push(heaps[j], d, rid)
        self.cache_hits += cache_hits
        self.cache_misses += cache_misses
        return [
            sorted(Neighbor(-nd, -nrid) for nd, nrid in heap) for heap in heaps
        ]

    def within_batch(
        self, records: Sequence[Record], radius: float, inclusive: bool = False
    ) -> list[list[Neighbor]]:
        kernel = self._usable_kernel(records)
        if kernel is not None:
            np, rids_arr, rows = self._kernel_scan(kernel, records)
            return [
                self._row_within(np, d, rids_arr, radius, inclusive) for d in rows
            ]
        if not self.cache_pairs:
            return [self.within(record, radius, inclusive) for record in records]
        relation, _ = self._checked()
        cache = self._pair_cache
        position = {record.rid: i for i, record in enumerate(records)}
        rows: list[list[Neighbor]] = [[] for _ in records]

        get = cache.get
        position_get = position.get
        cache_hits = 0
        cache_misses = 0
        for i, record in enumerate(records):
            rid = record.rid
            for other in relation:
                oid = other.rid
                if oid == rid:
                    continue
                j = position_get(oid)
                if j is not None and j < i:
                    continue  # already evaluated and recorded by query j
                key = (rid, oid) if rid <= oid else (oid, rid)
                d = get(key)
                if d is None:
                    cache_misses += 1
                    d = self._canonical(record, other)
                    self._store(key, d)
                else:
                    cache_hits += 1
                if d < radius or (inclusive and d == radius):
                    rows[i].append(Neighbor(d, oid))
                    if j is not None:
                        rows[j].append(Neighbor(d, rid))
        self.cache_hits += cache_hits
        self.cache_misses += cache_misses
        for row in rows:
            row.sort()
        return rows

    def phase1_batch(
        self,
        records: Sequence[Record],
        k: int | None = None,
        theta: float | None = None,
        p: float = 2.0,
        radius_fn=None,
        counts: BatchCounts | None = None,
    ) -> list[tuple[list[Neighbor], int]]:
        """Fused Phase-1 kernel: one blocked pass answers lists *and* NG.

        On top of the blocked-batch skeleton this retains, per query, a
        candidate list for the NG count using a monotone-radius filter:
        a pair is kept while ``d <= p * running_nn``, and since the
        running nearest-neighbor distance only shrinks, the retained
        set is always a superset of the final ``d < p * nn(v)``
        neighborhood — counted exactly at the end.  This removes the
        whole second relation scan (and its cache lookups) that
        per-record NG computation costs.

        The monotonicity argument needs the linear ``p * nn`` radius, so
        a custom ``radius_fn`` (and the cacheless configuration) falls
        back to the generic per-record path.  The kernel route needs
        neither restriction: every query already holds its full distance
        row, so the NG count (including a custom ``radius_fn``) is read
        straight off the row.  ``counts`` receives the index-counter
        delta over the call (see :class:`~repro.index.base.BatchCounts`).
        """
        if k is None and theta is None:
            raise ValueError("phase1_batch needs k, theta, or both")
        with self._counting(counts):
            return self._fused_phase1(records, k, theta, p, radius_fn)

    def _fused_phase1(
        self, records, k, theta, p, radius_fn
    ) -> list[tuple[list[Neighbor], int]]:
        kernel = self._usable_kernel(records)
        if kernel is not None:
            np, rids_arr, rows = self._kernel_scan(kernel, records)
            inf = float("inf")
            results: list[tuple[list[Neighbor], int]] = []
            for d in rows:
                if theta is not None:
                    neighbors = self._row_within(np, d, rids_arr, theta, False)
                    if k is not None:
                        neighbors = neighbors[:k]
                else:
                    assert k is not None
                    neighbors = self._row_knn(np, d, rids_arr, k)
                nn_d = float(d.min()) if d.size else inf
                if nn_d == inf:
                    ng = 1
                elif nn_d == 0.0:
                    # Exact duplicates: the zero-distance records are the
                    # neighborhood (see NNIndex.neighborhood_growth).
                    ng = 1 + int((d == 0.0).sum())
                else:
                    radius = radius_fn(nn_d) if radius_fn is not None else p * nn_d
                    ng = 1 + int((d < radius).sum())
                results.append((neighbors, ng))
            return results
        if (
            radius_fn is not None
            or not self.cache_pairs
            or (theta is None and k is not None and k <= 0)
        ):
            return super().phase1_batch(
                records, k=k, theta=theta, p=p, radius_fn=radius_fn
            )
        relation, _ = self._checked()
        cache = self._pair_cache
        get = cache.get
        n = len(records)
        position = {record.rid: i for i, record in enumerate(records)}
        position_get = position.get
        inf = float("inf")
        running = [inf] * n  # running nn(v) upper bound per query
        cands: list[list[float]] = [[] for _ in range(n)]
        use_heaps = theta is None
        heaps: list[list[tuple[float, int]]] = [[] for _ in range(n)]
        rows: list[list[Neighbor]] = [[] for _ in range(n)]

        cache_hits = 0
        cache_misses = 0
        for i, record in enumerate(records):
            rid = record.rid
            heap = heaps[i]
            row = rows[i]
            cand = cands[i]
            for other in relation:
                oid = other.rid
                if oid == rid:
                    continue
                j = position_get(oid)
                if j is not None and j < i:
                    continue  # already evaluated and fed by query j
                key = (rid, oid) if rid <= oid else (oid, rid)
                d = get(key)
                if d is None:
                    cache_misses += 1
                    d = self._canonical(record, other)
                    self._store(key, d)
                else:
                    cache_hits += 1
                if d < running[i]:
                    running[i] = d
                if d <= p * running[i]:
                    cand.append(d)
                if use_heaps:
                    item = (-d, -oid)
                    if len(heap) < k:
                        heapq.heappush(heap, item)
                    elif item > heap[0]:
                        heapq.heapreplace(heap, item)
                elif d < theta:
                    row.append(Neighbor(d, oid))
                if j is not None:
                    if d < running[j]:
                        running[j] = d
                    if d <= p * running[j]:
                        cands[j].append(d)
                    if use_heaps:
                        item = (-d, -rid)
                        other_heap = heaps[j]
                        if len(other_heap) < k:
                            heapq.heappush(other_heap, item)
                        elif item > other_heap[0]:
                            heapq.heapreplace(other_heap, item)
                    elif d < theta:
                        rows[j].append(Neighbor(d, rid))
        self.cache_hits += cache_hits
        self.cache_misses += cache_misses

        results: list[tuple[list[Neighbor], int]] = []
        for i in range(n):
            if use_heaps:
                neighbors = sorted(
                    Neighbor(-nd, -nrid) for nd, nrid in heaps[i]
                )
            else:
                rows[i].sort()
                neighbors = rows[i] if k is None else rows[i][:k]
            nn_d = running[i]
            if nn_d == inf:
                ng = 1
            elif nn_d == 0.0:
                # Exact duplicates: the zero-distance records are the
                # neighborhood (see NNIndex.neighborhood_growth).
                ng = 1 + sum(1 for d in cands[i] if d == 0.0)
            else:
                radius = p * nn_d
                ng = 1 + sum(1 for d in cands[i] if d < radius)
            results.append((neighbors, ng))
        return results


class _Inverted:
    """Wrap a Neighbor so heapq keeps the *largest* at the root."""

    __slots__ = ("neighbor",)

    def __init__(self, neighbor: Neighbor):
        self.neighbor = neighbor

    def __lt__(self, other: "_Inverted") -> bool:
        return self.neighbor > other.neighbor
