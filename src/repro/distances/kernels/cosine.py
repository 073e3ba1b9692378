"""Vectorized IDF-weighted cosine distance.

Bit-identity contract with the scalar path: ``CosineDistance``'s
merge-join accumulates ``dot`` over shared tokens in ascending token
order and divides by python-precomputed norms; this kernel reproduces
the identical floating-point operation sequence via
``ColumnarVectors.dot_row`` (sequential ``bincount`` accumulation in
the same token order) and the *same* norm values (the corpus's), so
every distance is the same float64 down to the last bit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .base import DistanceKernel
from .columnar import ColumnarVectors

__all__ = ["CosineKernel"]


class CosineKernel(DistanceKernel):
    """Blocked ``1 - cosine`` over a columnar tf-idf chunk."""

    backend = "numpy"
    pairs_min = 16  # pairs() computes a full row; skip tiny lists

    def __init__(self, vectors: ColumnarVectors) -> None:
        self.evaluations = 0
        self._v = vectors
        self._norms = vectors.norms

    @property
    def rids(self) -> list[int]:
        return self._v.rid_list

    def __contains__(self, rid: int) -> bool:
        return rid in self._v

    def _distance_row(self, i: int):
        dot = self._v.dot_row(i)
        denom = self._norms * float(self._norms[i])
        sim = np.divide(
            dot, denom, out=np.zeros_like(dot), where=denom > 0.0
        )
        return np.where(dot == 0.0, 1.0, np.clip(1.0 - sim, 0.0, 1.0))

    def block(self, query_rids: Sequence[int]):
        n = len(self._v)
        out = np.empty((len(query_rids), n), dtype=np.float64)
        for r, rid in enumerate(query_rids):
            out[r, :] = self._distance_row(self._v.row_of[rid])
        self._count(len(query_rids) * max(0, n - 1))
        return out

    def _subset_distances(self, i: int, rows):
        """Distances from row ``i`` to ``rows`` only, bit-identical.

        Cost is proportional to the candidates' total nnz instead of the
        relation's: each candidate row's CSR segment is gathered flat,
        matched against the query row by ``searchsorted``, and reduced
        per candidate with a sequential ``bincount``.  Per candidate the
        shared-token products accumulate in ascending token order — the
        same order ``dot_row`` (and the scalar merge-join) applies them
        — with zero-weight misses interleaved, which is exact because
        tf-idf weights are strictly positive (``x + 0.0`` preserves
        bits for non-negative partial sums).
        """
        v = self._v
        qs, qe = int(v.indptr[i]), int(v.indptr[i + 1])
        starts = v.indptr[rows]
        lengths = v.indptr[rows + 1] - starts
        total = int(lengths.sum())
        dot = np.zeros(len(rows), dtype=np.float64)
        if total and qe > qs:
            offs = np.cumsum(lengths) - lengths
            flat = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offs, lengths)
                + np.repeat(starts, lengths)
            )
            cols = v.indices[flat]
            cvals = v.values[flat]
            qcols = v.indices[qs:qe]
            qvals = v.values[qs:qe]
            pos = np.searchsorted(qcols, cols)
            # Out-of-range cols clamp to 0; safe because such a col is
            # greater than every query col, so the equality check fails.
            pos[pos == len(qcols)] = 0
            hit = qcols[pos] == cols
            qv = np.where(hit, qvals[pos], 0.0)
            seg = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
            dot = np.bincount(
                seg, weights=cvals * qv, minlength=len(rows)
            )
        denom = self._norms[rows] * float(self._norms[i])
        sim = np.divide(
            dot, denom, out=np.zeros_like(dot), where=denom > 0.0
        )
        return np.where(dot == 0.0, 1.0, np.clip(1.0 - sim, 0.0, 1.0))

    def pair_distances(self, rows_a, rows_b):
        """Distances of aligned row pairs ``(rows_a[p], rows_b[p])``.

        Bit-identical to ``_subset_distances(rows_a[p], [rows_b[p]])``
        and to its mirror ``_subset_distances(rows_b[p], [rows_a[p]])``:
        each pair's shared-token products accumulate in ascending token
        order through a sequential ``bincount`` (the misses the subset
        path adds as ``+ 0.0`` change no bits), and IEEE products and
        the norm product commute.  One call answers any mix of queries,
        so a blocked caller computes each unordered pair once.
        """
        v = self._v
        pair, flat_a, flat_b = v.shared_tokens(rows_a, rows_b)
        dot = np.zeros(len(rows_a), dtype=np.float64)
        if len(pair):
            dot = np.bincount(
                pair,
                weights=v.values[flat_b] * v.values[flat_a],
                minlength=len(rows_a),
            )
        denom = self._norms[rows_b] * self._norms[rows_a]
        sim = np.divide(
            dot, denom, out=np.zeros_like(dot), where=denom > 0.0
        )
        self._count(len(rows_a))
        return np.where(dot == 0.0, 1.0, np.clip(1.0 - sim, 0.0, 1.0))

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
        nnz); lists a sizable fraction of the relation fall back to one
        full ``_distance_row`` (cost ∝ relation nnz, lower constants).
        Both produce bit-identical values.  ``rows``/``query_row`` (from
        :meth:`resolve_rows`) skip the rid → row dict mapping.
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
