"""Q-gram inverted index with candidate verification.

The workhorse approximate NN index, modelled on the probabilistic
inverted-index structures the paper cites ([24, 9]): posting lists map
each q-gram of the (normalized) record text to the records containing
it.  A query merges the posting lists of its own q-grams, ranks
candidates by shared-gram count, and verifies the most promising ones
with the real distance function.

Exactness
---------
The index is approximate: a true neighbor sharing no q-gram with the
query can be missed.  The paper explicitly "treats these probabilistic
indexes as exact" and shows the assumption does not hurt results; we
additionally offer ``exhaustive_fallback`` (scan the remainder when too
few candidates surface) and validate recall against
:class:`~repro.index.bruteforce.BruteForceIndex` in benchmark A4.

Disk residency
--------------
When built with a :class:`~repro.storage.buffer.BufferPool`, posting
lists live on pages and every lookup goes through the buffer — this is
the configuration the Figure 8 (BF ordering) benchmark measures.
"""

from __future__ import annotations

import heapq
from collections import Counter

from repro.data.schema import Record
from repro.distances.base import CachedDistance
from repro.distances.edit import EditDistance, levenshtein
from repro.distances.kernels.edit import myers_levenshtein
from repro.distances.tokens import normalize, qgrams
from repro.index.base import Neighbor, NNIndex, by_proximity
from repro.index.cache import PagedPostingStore
from repro.storage.buffer import BufferPool

__all__ = ["QgramInvertedIndex"]


def _most_shared(counts: Counter[int], budget: int) -> list[tuple[int, int]]:
    """The ``budget`` candidates sharing the most q-grams, ties by rid
    (``most_common`` ties follow the hash order of q-gram sets)."""
    return heapq.nsmallest(budget, counts.items(), key=lambda c: (-c[1], c[0]))


class QgramInvertedIndex(NNIndex):
    """Approximate NN index over q-grams of the whole-record text.

    Parameters
    ----------
    q:
        Gram length (3 is the usual choice for short strings).
    candidate_factor:
        For ``knn(record, k)``, verify the top ``candidate_factor * k``
        candidates (at least ``min_candidates``).
    min_candidates:
        Floor on the number of candidates verified per query.
    exhaustive_fallback:
        If fewer than ``k`` candidates share a q-gram with the query,
        fall back to scanning the remaining records so short NN-lists
        never silently truncate (rare, but keeps Phase 1 robust).
    max_df:
        Stop-gram threshold: posting lists longer than this are skipped
        during candidate generation (the classic IR optimization — a
        gram occurring in half the relation carries no signal but costs
        O(n) per query).  ``None`` disables skipping; the scalability
        benchmarks enable it.
    enable_fast_path:
        Allow the Levenshtein filter-verify fast path (count filter,
        banded DP, pair cache) when the distance is plain normalized
        edit distance.  Exists so the optimization ablation (benchmark
        A6) can measure the unoptimized baseline; leave on otherwise.
    within_budget:
        Cap on the number of candidates verified per ``within`` query
        (most-shared-grams first, ties by rid).  ``None`` verifies all candidates.
        Range queries power the NG computation; capping them trades a
        slight NG underestimate on very popular strings for linear-time
        behaviour, in the spirit of the paper's probabilistic indexes.
    buffer_pool:
        Optional buffer pool; when given, posting lists are paged and
        all lookups are counted in the pool's hit/miss statistics.
    """

    def __init__(
        self,
        q: int = 3,
        candidate_factor: int = 4,
        min_candidates: int = 24,
        exhaustive_fallback: bool = True,
        max_df: int | None = None,
        within_budget: int | None = None,
        enable_fast_path: bool = True,
        buffer_pool: BufferPool | None = None,
    ):
        super().__init__()
        if q < 1:
            raise ValueError("q must be at least 1")
        if max_df is not None and max_df < 1:
            raise ValueError("max_df must be positive")
        self.q = q
        self.candidate_factor = candidate_factor
        self.min_candidates = min_candidates
        self.exhaustive_fallback = exhaustive_fallback
        self.max_df = max_df
        self.within_budget = within_budget
        self.enable_fast_path = enable_fast_path
        self.buffer_pool = buffer_pool
        self.name = f"qgram{q}-inverted"
        self._postings: dict[str, list[int]] = {}
        self._df: dict[str, int] = {}
        self._paged: PagedPostingStore | None = None
        self._grams: dict[int, list[str]] = {}
        self._texts: dict[int, str] = {}
        self._n_grams: dict[int, int] = {}
        self._edit_fast_path = False
        # The shared canonical pair cache (NNIndex._pair_cache) doubles
        # as the fast path's memo: every pair is probed from both
        # endpoints (knn of a sees b, knn of b sees a) and again by the
        # NG range query; caching exact results halves the DP work.

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        relation, _ = self._checked()
        self._postings = {}
        self._grams = {}
        for record in relation:
            grams = qgrams(record.text(), q=self.q)
            self._grams[record.rid] = grams
            for gram in set(grams):
                self._postings.setdefault(gram, []).append(record.rid)
        self._df = {gram: len(rids) for gram, rids in self._postings.items()}
        # Cutoff-aware verification (classic filter-verify): when the
        # distance is plain normalized Levenshtein, candidates can be
        # rejected with a banded DP bounded by the current k-th best /
        # query radius, instead of a full distance computation.
        inner = self.distance
        while isinstance(inner, CachedDistance):
            inner = inner.inner
        self._edit_fast_path = (
            self.enable_fast_path
            and isinstance(inner, EditDistance)
            and not inner.damerau
            and inner.normalize_text
        )
        if self._edit_fast_path:
            self._texts = {
                record.rid: normalize(record.text()) for record in relation
            }
            self._n_grams = {
                rid: len(set(grams)) for rid, grams in self._grams.items()
            }
        if self.buffer_pool is not None:
            self._paged = PagedPostingStore(self.buffer_pool)
            # Insert in sorted-key order so lexicographically close grams
            # (shared by similar strings) land on neighboring pages.
            for gram in sorted(self._postings):
                self._paged.put(gram, self._postings[gram])
        else:
            self._paged = None

    def _read_postings(self, gram: str) -> list[int]:
        if self._paged is not None:
            return self._paged.get(gram)
        return self._postings.get(gram, [])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _candidates(self, record: Record) -> tuple[Counter[int], int, int]:
        """Count shared q-grams per candidate record id.

        Stop-grams (df above ``max_df``) are skipped: they would touch
        a large fraction of the relation per query while adding no
        discriminative signal.  Returns ``(counts, n_skipped,
        n_query_grams)``; the skip count keeps the count filter sound
        (a candidate may share every skipped gram too).
        """
        grams = self._grams.get(record.rid)
        if grams is None:
            grams = qgrams(record.text(), q=self.q)
        gram_set = set(grams)
        counts: Counter[int] = Counter()
        skipped = 0
        for gram in gram_set:
            if self.max_df is not None and self._df.get(gram, 0) > self.max_df:
                skipped += 1
                continue
            for rid in self._read_postings(gram):
                if rid != record.rid:
                    counts[rid] += 1
        return counts, skipped, len(gram_set)

    def _account_candidates(self, record: Record, n_candidates: int) -> None:
        """Record how many pairs one query surfaced vs. skipped entirely.

        Pairs sharing no (non-stop) q-gram with the query, plus
        candidates cut by the ``candidate_factor`` / ``within_budget``
        ranking, never reach verification — the inverted index's
        sub-quadratic lever.
        """
        relation, _ = self._checked()
        n_others = len(relation) - (1 if record.rid in relation else 0)
        work = self._work
        work.candidates_generated += n_candidates
        work.evaluations_pruned += max(0, n_others - n_candidates)

    def _verify(
        self,
        record: Record,
        rid: int,
        cutoff: float | None,
        shared: int = 0,
        query_grams: int = 0,
    ) -> float | None:
        """Return the distance to ``rid``, or None if provably > cutoff.

        With the edit-distance fast path active, two classic filters
        reject far candidates before any (or with a cheap banded) DP:

        - *count filter*: one edit destroys at most ``q`` gram types,
          so ``ed >= (max(|G_a|, |G_b|) - shared) / q``; if that lower
          bound already exceeds the cutoff, skip with no DP at all;
        - *banded DP*: otherwise run Levenshtein with an early exit at
          ``cutoff * max(len_a, len_b)`` (with kernels enabled, the
          exact Myers scan instead; see :meth:`_bounded_raw`).
        """
        relation, _ = self._checked()
        work = self._work
        if not self._edit_fast_path or cutoff is None or cutoff >= 1.0:
            return self._pair_distance(record, relation.get(rid), work)
        key = (record.rid, rid) if record.rid <= rid else (rid, record.rid)
        cached = self._pair_cache.get(key)
        if cached is not None:
            work.cache_hits += 1
            return cached if cached <= cutoff else None
        work.cache_misses += 1
        query = self._texts.get(record.rid)
        if query is None:
            query = normalize(record.text())
        other = self._texts[rid]
        longest = max(len(query), len(other))
        if longest == 0:
            return 0.0
        bound = int(cutoff * longest)
        if query_grams:
            grams = max(query_grams, self._n_grams.get(rid, 0))
            lower = (grams - shared) / self.q
            if lower > bound:
                # Count filter: ed provably exceeds the band, no DP run.
                work.evaluations_pruned += 1
                return None
        work.evaluations += 1
        raw = self._bounded_raw(query, other, bound)
        if raw > bound:
            return None
        distance = raw / longest
        self._pair_cache[key] = distance
        return distance

    def _bounded_raw(self, query: str, other: str, bound: int) -> int:
        """Raw Levenshtein, exact when <= ``bound`` (any value beyond).

        With kernels enabled the bit-parallel Myers scan replaces the
        banded two-row DP.  Myers is exact at every length, so it meets
        the contract whatever the bound and verified values are
        identical to the scalar baseline's.
        """
        if self._kernel is not None:
            return myers_levenshtein(query, other)
        return levenshtein(query, other, max_distance=bound)

    def knn(self, record: Record, k: int) -> list[Neighbor]:
        from bisect import insort

        relation, _ = self._checked()
        if k <= 0 or len(relation) <= 1:
            return []
        counts, skipped, n_grams = self._candidates(record)
        budget = max(self.candidate_factor * k, self.min_candidates)
        ranked = _most_shared(counts, budget)
        if len(ranked) < k and self.exhaustive_fallback:
            seen = {rid for rid, _ in ranked}
            seen.add(record.rid)
            ranked = ranked + [
                (r.rid, 0) for r in relation if r.rid not in seen
            ]
        self._account_candidates(record, len(ranked))
        if not self._edit_fast_path:
            # No cutoff-based rejection without the edit fast path:
            # every ranked candidate gets a full distance anyway, so
            # verify the whole list in one (kernelizable) batch.
            return self._verify_cut(record, [rid for rid, _ in ranked], k=k)
        hits: list[Neighbor] = []
        cutoff: float | None = None
        for rid, shared in ranked:
            d = self._verify(
                record, rid, cutoff, shared=shared + skipped, query_grams=n_grams
            )
            if d is None:
                continue
            insort(hits, Neighbor(d, rid), key=by_proximity)
            if len(hits) >= k:
                # Ties at the k-th distance are still admitted by the
                # inclusive bound in _verify; the final slice keeps the
                # rid-ordered winners.
                cutoff = hits[k - 1].distance
        return hits[:k]

    def within(
        self, record: Record, radius: float, inclusive: bool = False
    ) -> list[Neighbor]:
        relation, _ = self._checked()
        counts, skipped, n_grams = self._candidates(record)
        if self.within_budget is not None:
            candidates = _most_shared(counts, self.within_budget)
        else:
            candidates = list(counts.items())
        self._account_candidates(record, len(candidates))
        if not self._edit_fast_path:
            return self._verify_cut(
                record, [rid for rid, _ in candidates],
                radius=radius, inclusive=inclusive,
            )
        hits = []
        for rid, shared in candidates:
            d = self._verify(
                record, rid, radius, shared=shared + skipped, query_grams=n_grams
            )
            if d is None:
                continue
            if d < radius or (inclusive and d == radius):
                hits.append(Neighbor(d, rid))
        hits.sort(key=by_proximity)
        return hits
