"""IDF-weighted cosine distance.

One of the standard token-based tuple similarities in the deduplication
literature and a building block the paper contrasts with ``fms``: cosine
with IDF weights places "microsft corporation" close to "boeing
corporation" because the shared token "corporation" carries (some)
weight while the typo token "microsft" matches nothing.

The scalar path evaluates each pair as a merge-join over the records'
``(token, weight)`` lists *sorted by token string*, read from the
:class:`~repro.distances.corpus.Corpus` with their norms.  That fixes
one canonical floating-point summation order — ascending token — which
:class:`~repro.distances.kernels.cosine.CosineKernel` reproduces
exactly, so batch and per-pair results are bit-identical.  The
serving layer's rows come from :class:`LiveCosineRows`, the same sums
scatter-added over the live records' token postings.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.schema import Record, Relation
from repro.distances.base import clamp01
from repro.distances.corpus import Corpus, CorpusDistance

__all__ = ["CosineDistance", "LiveCosineRows", "cosine_similarity"]


def cosine_similarity(u: dict[str, float], v: dict[str, float]) -> float:
    """Return the cosine of two sparse non-negative vectors."""
    if not u or not v:
        return 0.0
    if len(u) > len(v):
        u, v = v, u
    dot = sum(weight * v.get(token, 0.0) for token, weight in u.items())
    if dot == 0.0:
        return 0.0
    nu = math.sqrt(sum(w * w for w in u.values()))
    nv = math.sqrt(sum(w * w for w in v.values()))
    return dot / (nu * nv)


class CosineDistance(CorpusDistance):
    """``1 - cosine`` over tf-idf token vectors of whole records.

    ``prepare`` must be called with the relation before computing
    distances; it builds the corpus.  Distances for records with no
    tokens in common are 1.
    """

    name = "cosine"

    def make_kernel(self, relation: Relation):
        from repro.distances.kernels.columnar import ColumnarVectors
        from repro.distances.kernels.cosine import CosineKernel

        vectors = ColumnarVectors(self._corpus(), relation.ids(), weighted=True)
        return self._register_kernel(CosineKernel(vectors))

    def live_rows(self):
        if self.corpus is None:
            return None
        return LiveCosineRows(self.corpus)

    def distance(self, a: Record, b: Record) -> float:
        vector = self._corpus().vector
        tokens_a, weights_a, norm_a = vector(a)
        tokens_b, weights_b, norm_b = vector(b)
        if not tokens_a or not tokens_b:
            return 1.0
        dot = 0.0
        i = j = 0
        na, nb = len(tokens_a), len(tokens_b)
        while i < na and j < nb:
            ta, tb = tokens_a[i], tokens_b[j]
            if ta == tb:
                dot += weights_a[i] * weights_b[j]
                i += 1
                j += 1
            elif ta < tb:
                i += 1
            else:
                j += 1
        if dot == 0.0:
            return 1.0
        return clamp01(1.0 - dot / (norm_a * norm_b))


class _Posting:
    """One token's ``(slot, weight)`` entries, in growable arrays.

    ``index`` holds, per entry, the token's position in its slot's
    vector: a swap-remove that moves an entry updates that slot's
    record of where the entry sits.
    """

    __slots__ = ("slots", "weights", "index", "n")

    def __init__(self) -> None:
        self.slots = np.empty(4, dtype=np.int64)
        self.weights = np.empty(4, dtype=np.float64)
        self.index = np.empty(4, dtype=np.int64)
        self.n = 0


class LiveCosineRows:
    """:meth:`CosineDistance.distance` rows over the live records'
    token postings: the serving layer's row source.

    The postings idiom of an inverted index, applied to the live
    records: each holds a slot (freed slots are reused) that keeps
    exactly what :meth:`Corpus.vector` returned for it and its norm,
    and each of its distinct tokens — keyed by token string, so tokens
    outside the frozen vocabulary post too — holds one ``(slot,
    weight)`` entry; each slot keeps the position of its entry in every
    one of its tokens' postings, so a removal swaps its entries out in
    O(tokens).  A row walks the query's tokens in ascending order
    and scatter-adds ``w_q * w_b`` into a per-slot array: per slot, the
    scalar merge-join's additions in its order.  Products of
    two weights or two norms commute exactly, and a zero dot (an empty
    vector included) reads 1 before any division, so every distance
    is bit-identical.  Nothing here runs unless the incremental layer
    builds one.
    """

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        #: rid -> slot of every live record.
        self.slot_of: dict[int, int] = {}
        #: slot -> rid (``-1`` for a free slot) and slot -> norm.
        self.rids = np.full(16, -1, dtype=np.int64)
        self.norms = np.zeros(16, dtype=np.float64)
        self._vectors: list[tuple | None] = [None] * 16
        #: slot -> its entry's position in each of its tokens' postings,
        #: aligned with its vector's tokens.
        self._at: list[list[int] | None] = [None] * 16
        self._free: list[int] = list(range(15, -1, -1))
        self._postings: dict[str, _Posting] = {}

    def add(self, record: Record) -> None:
        """Post ``record``'s vector under a free slot."""
        if not self._free:
            size = len(self.rids)
            self.rids = np.concatenate([self.rids, np.full(size, -1, np.int64)])
            self.norms = np.concatenate([self.norms, np.zeros(size)])
            self._vectors.extend([None] * size)
            self._at.extend([None] * size)
            self._free = list(range(2 * size - 1, size - 1, -1))
        slot = self._free.pop()
        vector = self.corpus.vector(record)
        self.slot_of[record.rid] = slot
        self.rids[slot] = record.rid
        self.norms[slot] = vector[2]
        self._vectors[slot] = vector
        postings = self._postings
        at = self._at[slot] = []
        for index, (token, weight) in enumerate(zip(vector[0], vector[1])):
            posting = postings.get(token)
            if posting is None:
                posting = postings[token] = _Posting()
            n = posting.n
            if n == len(posting.slots):
                posting.slots = np.concatenate([posting.slots, posting.slots])
                posting.weights = np.concatenate([posting.weights, posting.weights])
                posting.index = np.concatenate([posting.index, posting.index])
            posting.slots[n] = slot
            posting.weights[n] = weight
            posting.index[n] = index
            posting.n = n + 1
            at.append(n)

    def remove(self, rid: int) -> None:
        """Take ``rid``'s entries out of its postings and free its slot:
        each posting's last entry moves into the freed position."""
        slot = self.slot_of.pop(rid)
        postings = self._postings
        for token, at in zip(self._vectors[slot][0], self._at[slot]):
            posting = postings[token]
            last = posting.n - 1
            if last == 0:
                del postings[token]
                continue
            if at != last:
                moved = int(posting.slots[last])
                index = int(posting.index[last])
                posting.slots[at] = moved
                posting.weights[at] = posting.weights[last]
                posting.index[at] = index
                self._at[moved][index] = at
            posting.n = last
        self.rids[slot] = -1
        self.norms[slot] = 0.0
        self._vectors[slot] = None
        self._at[slot] = None
        self._free.append(slot)

    def row(self, rid: int, others=None):
        """``(slots, distances)`` from live record ``rid`` to every
        other live record, or to the rids of ``others`` in that order;
        ``rids[slots]`` names them."""
        slot = self.slot_of[rid]
        if others is None:
            slots = np.flatnonzero(self.rids >= 0)
            slots = slots[slots != slot]
        else:
            slot_of = self.slot_of
            slots = np.array([slot_of[o] for o in others], dtype=np.int64)
        # Per slot, the merge-join's additions in its (token) order.
        dot = np.zeros(len(self.rids))
        postings = self._postings
        tokens, weights, _ = self._vectors[slot]
        for token, weight in zip(tokens, weights):
            posting = postings[token]
            n = posting.n
            dot[posting.slots[:n]] += weight * posting.weights[:n]
        dot = dot[slots]
        out = np.ones(len(slots))
        hit = np.flatnonzero(dot)
        if len(hit):
            norms = self.norms[slot] * self.norms[slots[hit]]
            out[hit] = np.clip(1.0 - dot[hit] / norms, 0.0, 1.0)
        return slots, out
