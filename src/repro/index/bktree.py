"""BK-tree index for edit distance.

A Burkhard-Keller tree over *raw* Levenshtein distance (which is a true
metric, unlike its length-normalized variant).  The tree answers raw
range queries exactly; normalized-distance queries are answered by
translating radii:

- ``d_norm(a, b) = ed(a, b) / max(|a|, |b|)`` and ``|b| <= |a| + ed``
  give ``d_norm >= ed / (|a| + ed)``, increasing in ``ed``.  Hence a raw
  search radius ``r`` guarantees that every pruned string has
  ``d_norm >= (r + 1) / (|a| + r + 1)``, which yields exact k-NN by
  radius doubling with a provable stopping rule, and exact range queries
  via ``ed <= radius * |a| / (1 - radius)``.

This is the "exact nearest neighbor index" role of the paper's Phase 1
for the edit distance runs.

Batch traversals
----------------
The tree's edge-window descent (keep children with edge weight in
``[raw - r, raw + r]``) *is* triangle-inequality pruning; per
traversal, ``evaluations_pruned`` counts the nodes it never visited.
Inside a batch scope two caches remove the remaining repeat work, both
exact because raw Levenshtein is an integer and symmetric:

- a per-query *traversal memo* (node -> raw distance) that carries over
  the k-NN radius doubling and into the NG range query that follows in
  ``phase1_batch`` — re-visited nodes cost a dict probe, not a DP;
- a cross-query *canonical pair cache* keyed by ``(min rep, max rep)``
  node-representative rids, so when query ``b`` visits the node holding
  ``a``'s text after query ``a`` already visited ``b``'s, the second
  evaluation is a cache hit.

Per-query (non-batch) traversals consult the pair cache but never fill
it, keeping the sequential path the honest baseline (same convention as
:class:`~repro.index.bruteforce.BruteForceIndex`).
"""

from __future__ import annotations

from repro.data.schema import Record
from repro.distances.base import CachedDistance
from repro.distances.edit import EditDistance, levenshtein
from repro.distances.kernels.edit import myers_levenshtein
from repro.distances.tokens import normalize
from repro.index.base import Neighbor, NNIndex, by_proximity

__all__ = ["BKTreeIndex"]


class _Node:
    __slots__ = ("text", "rids", "children")

    def __init__(self, text: str, rid: int):
        self.text = text
        self.rids = [rid]
        self.children: dict[int, _Node] = {}


class BKTreeIndex(NNIndex):
    """Exact k-NN / range index for (normalized) Levenshtein distance.

    Only meaningful together with :class:`EditDistance` (plain
    Levenshtein, not Damerau: the restricted Damerau variant violates
    the triangle inequality the tree relies on).
    """

    name = "bktree"

    def __init__(self) -> None:
        super().__init__()
        self._root: _Node | None = None
        self._max_length = 0
        self._n_nodes = 0
        self._normalize_text = True
        #: rid -> representative rid (first record inserted with the
        #: same rendered text); the canonical key space of the
        #: cross-query pair cache.
        self._rep_of: dict[int, int] = {}
        #: (min rep, max rep) -> raw distance, filled by batch
        #: traversals, consulted by all.
        self._node_pair_cache: dict[tuple[int, int], int] = {}
        #: Per-query traversal memos, alive for one batch scope only.
        self._query_memos: dict[int, dict[int, int]] = {}

    def _build(self) -> None:
        relation, distance = self._checked()
        while isinstance(distance, CachedDistance):
            distance = distance.inner
        if not isinstance(distance, EditDistance):
            raise TypeError("BKTreeIndex requires an EditDistance function")
        if distance.damerau:
            raise ValueError(
                "BKTreeIndex requires plain Levenshtein; the restricted "
                "Damerau variant is not a metric"
            )
        self._normalize_text = distance.normalize_text
        self._root = None
        self._max_length = 0
        self._n_nodes = 0
        self._rep_of = {}
        self._node_pair_cache = {}
        self._query_memos = {}
        for record in relation:
            text = self._render(record)
            self._max_length = max(self._max_length, len(text))
            self._insert(text, record.rid)

    def _on_batch_exit(self) -> None:
        # Memos key nodes by id(); dropping them with the batch keeps
        # them safe against id reuse after a rebuild.
        self._query_memos = {}

    def _render(self, record: Record) -> str:
        text = record.text()
        return normalize(text) if self._normalize_text else text

    def _raw_distance(self, a: str, b: str) -> int:
        """Exact raw Levenshtein for tree traversal.

        With kernels enabled the bit-parallel Myers scan replaces the
        two-row DP; both algorithms are exact, so traversal decisions
        are unchanged.
        """
        if self._kernel is not None:
            return myers_levenshtein(a, b)
        return levenshtein(a, b)

    def _insert(self, text: str, rid: int) -> None:
        if self._root is None:
            self._root = _Node(text, rid)
            self._n_nodes = 1
            self._rep_of[rid] = rid
            return
        node = self._root
        while True:
            raw = levenshtein(text, node.text)
            self.build_evaluations += 1
            if raw == 0:
                node.rids.append(rid)
                self._rep_of[rid] = node.rids[0]
                return
            child = node.children.get(raw)
            if child is None:
                node.children[raw] = _Node(text, rid)
                self._n_nodes += 1
                self._rep_of[rid] = rid
                return
            node = child

    def _raw_range(
        self, query: str, radius: int, qrid: int | None = None
    ) -> list[tuple[int, _Node]]:
        """Return ``(raw_distance, node)`` for nodes with ``ed <= radius``."""
        if self._root is None:
            return []
        memo: dict[int, int] | None = None
        if qrid is not None and self._batch_depth:
            memo = self._query_memos.setdefault(qrid, {})
        pair_cache = self._node_pair_cache
        work = self._work
        qrep = self._rep_of.get(qrid, -1) if qrid is not None else -1
        hits: list[tuple[int, _Node]] = []
        stack = [self._root]
        visited = 0
        while stack:
            node = stack.pop()
            visited += 1
            nid = id(node)
            raw = memo.get(nid) if memo is not None else None
            if raw is None:
                key: tuple[int, int] | None = None
                if qrep >= 0:
                    nrep = node.rids[0]
                    key = (qrep, nrep) if qrep <= nrep else (nrep, qrep)
                    raw = pair_cache.get(key)
                if raw is None:
                    work.cache_misses += 1
                    # The exact raw distance is needed to decide which
                    # child edges stay inside [raw - radius, raw + radius].
                    raw = self._raw_distance(query, node.text)
                    work.evaluations += 1
                    if key is not None and self._batch_depth:
                        pair_cache[key] = raw
                else:
                    work.cache_hits += 1
                if memo is not None:
                    memo[nid] = raw
            else:
                work.cache_hits += 1
            if raw <= radius:
                hits.append((raw, node))
            lo, hi = raw - radius, raw + radius
            for edge, child in node.children.items():
                if lo <= edge <= hi:
                    stack.append(child)
        work.candidates_generated += visited
        work.evaluations_pruned += self._n_nodes - visited
        return hits

    # ------------------------------------------------------------------

    def _norm(self, query: str, raw: int, other: str) -> float:
        longest = max(len(query), len(other))
        if longest == 0:
            return 0.0
        return raw / longest

    def knn(self, record: Record, k: int) -> list[Neighbor]:
        relation, _ = self._checked()
        if k <= 0 or len(relation) <= 1:
            return []
        query = self._render(record)
        radius = 1
        limit = max(self._max_length, len(query), 1)
        while True:
            hits = self._collect(record, query, radius)
            if len(hits) >= k:
                kth = hits[k - 1].distance
                pruned_lower_bound = (radius + 1) / (len(query) + radius + 1)
                if kth < pruned_lower_bound or radius >= limit:
                    return hits[:k]
            elif radius >= limit:
                return hits[:k]
            radius = min(radius * 2, limit)

    def within(
        self, record: Record, radius: float, inclusive: bool = False
    ) -> list[Neighbor]:
        self._checked()
        query = self._render(record)
        if radius >= 1.0:
            raw_radius = max(self._max_length, len(query))
        else:
            raw_radius = int(radius * len(query) / (1.0 - radius)) + 1
            raw_radius = min(raw_radius, max(self._max_length, len(query)))
        hits = self._collect(record, query, raw_radius)
        if inclusive:
            return [h for h in hits if h.distance <= radius]
        return [h for h in hits if h.distance < radius]

    def _collect(self, record: Record, query: str, raw_radius: int) -> list[Neighbor]:
        """Range-search and convert to normalized-distance neighbors."""
        neighbors: list[Neighbor] = []
        for raw, node in self._raw_range(query, raw_radius, qrid=record.rid):
            norm = self._norm(query, raw, node.text)
            for rid in node.rids:
                if rid != record.rid:
                    neighbors.append(Neighbor(norm, rid))
        neighbors.sort(key=by_proximity)
        return neighbors
