"""Vectorized token-set Jaccard distance.

Exact by construction: intersection and union sizes are integers
(``bincount`` counts), and the only float operation is the final
``int / int`` division plus ``1 - sim`` — the same two IEEE ops the
scalar ``jaccard_similarity`` performs — so kernel and scalar paths are
bit-identical without any summation-order argument.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .base import DistanceKernel
from .columnar import ColumnarVectors

__all__ = ["JaccardKernel"]


class JaccardKernel(DistanceKernel):
    """Blocked ``1 - Jaccard`` over a binary columnar chunk."""

    backend = "numpy"
    pairs_min = 16  # pairs() computes a full row; skip tiny lists

    def __init__(self, vectors: ColumnarVectors) -> None:
        self.evaluations = 0
        self._v = vectors
        self._sizes = vectors.row_sizes

    @property
    def rids(self) -> list[int]:
        return self._v.rid_list

    def __contains__(self, rid: int) -> bool:
        return rid in self._v

    def _distance_row(self, i: int):
        size_q = int(self._sizes[i])
        if size_q == 0:
            # Scalar semantics: both-empty -> similarity 1.0 (distance
            # 0), one-empty -> similarity 0.0 (distance 1).
            return np.where(self._sizes == 0, 0.0, 1.0)
        inter = self._v.intersection_row(i)
        denom = self._sizes + (size_q - inter)
        sim = inter / denom
        return np.clip(1.0 - sim, 0.0, 1.0)

    def block(self, query_rids: Sequence[int]):
        n = len(self._v)
        out = np.empty((len(query_rids), n), dtype=np.float64)
        for r, rid in enumerate(query_rids):
            out[r, :] = self._distance_row(self._v.row_of[rid])
        self._count(len(query_rids) * max(0, n - 1))
        return out

    def _subset_distances(self, i: int, rows):
        """Distances from row ``i`` to ``rows`` only, bit-identical.

        Cost ∝ the candidates' total set size instead of the
        relation's: gather each candidate row's CSR segment, membership-
        test against the query row via ``searchsorted``, and count hits
        per candidate.  Intersection/union sizes are integers, so the
        only float ops are the same ``int / int`` divide and ``1 - sim``
        the full row performs.
        """
        v = self._v
        size_q = int(self._sizes[i])
        sizes = self._sizes[rows]
        if size_q == 0:
            return np.where(sizes == 0, 0.0, 1.0)
        starts = v.indptr[rows]
        lengths = v.indptr[rows + 1] - starts
        total = int(lengths.sum())
        inter = np.zeros(len(rows), dtype=np.int64)
        if total:
            offs = np.cumsum(lengths) - lengths
            flat = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offs, lengths)
                + np.repeat(starts, lengths)
            )
            cols = v.indices[flat]
            qs, qe = int(v.indptr[i]), int(v.indptr[i + 1])
            qcols = v.indices[qs:qe]
            pos = np.searchsorted(qcols, cols)
            # Out-of-range cols clamp to 0; safe because such a col is
            # greater than every query col, so the equality check fails.
            pos[pos == len(qcols)] = 0
            hit = qcols[pos] == cols
            seg = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
            inter = np.bincount(seg[hit], minlength=len(rows))
        denom = sizes + (size_q - inter)
        sim = inter / denom
        return np.clip(1.0 - sim, 0.0, 1.0)

    def pair_distances(self, rows_a, rows_b):
        """Distances of aligned row pairs ``(rows_a[p], rows_b[p])``.

        Bit-identical to ``_subset_distances`` in either direction: the
        intersection and union sizes are the same integers, followed by
        the same ``int / int`` divide and ``1 - sim``.  Two empty sets
        are at distance 0, an empty and a non-empty one at distance 1.
        """
        pair, _, _ = self._v.shared_tokens(rows_a, rows_b)
        inter = np.bincount(pair, minlength=len(rows_a))
        sizes_a = self._sizes[rows_a]
        sizes_b = self._sizes[rows_b]
        denom = sizes_b + (sizes_a - inter)
        both_empty = denom == 0
        sim = inter / np.where(both_empty, 1, denom)
        self._count(len(rows_a))
        return np.where(both_empty, 0.0, np.clip(1.0 - sim, 0.0, 1.0))

    def resolve_rows(self, query_rid: int, rids: Sequence[int]):
        """``(query_row, candidate rows array)`` or ``None`` on a miss.

        One vectorized membership-check-plus-row-mapping over the whole
        candidate list; feed the rows back through ``pairs_array`` to
        skip its per-rid dict lookups.
        """
        i = self._v.row_of.get(query_rid)
        if i is None:
            return None
        rows = self._v.resolve_rows(rids)
        if rows is None:
            return None
        return i, rows

    def pairs_array(
        self,
        query_rid: int,
        rids: Sequence[int],
        rows=None,
        query_row: int | None = None,
    ):
        """Distances to ``rids`` as a float64 array.

        Short candidate lists take the subset gather (cost ∝ candidate
        set sizes); lists a sizable fraction of the relation fall back
        to one full ``_distance_row``.  Both are bit-identical.
        ``rows``/``query_row`` (from :meth:`resolve_rows`) skip the
        rid → row dict mapping.
        """
        v = self._v
        i = v.row_of[query_rid] if query_row is None else query_row
        if rows is None:
            row_of = v.row_of
            rows = np.fromiter(
                (row_of[rid] for rid in rids), dtype=np.int64, count=len(rids)
            )
        self._count(len(rids))
        if len(rids) * 4 >= len(v):
            return self._distance_row(i)[rows]
        return self._subset_distances(i, rows)

    def pairs(self, query_rid: int, rids: Sequence[int]) -> list[float]:
        return self.pairs_array(query_rid, rids).tolist()
