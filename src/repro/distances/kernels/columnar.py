"""Columnar (CSR + CSC) token-vector storage for one relation chunk.

``ColumnarVectors`` holds the sparse token vectors of a chunk's records
in three contiguous arrays — ``indptr`` / ``indices`` / ``values`` —
gathered straight from the rows of a
:class:`~repro.distances.corpus.Corpus` CSR: no second interning, no
sort.  Rows are ordered by ascending record id; the vocabulary is the
corpus's *sorted* token universe, so ascending vocabulary index is
exactly ascending token string.  That invariant is what makes the
kernels bit-identical to the scalar merge-join paths: ``similarity_row``
accumulates each dot product with ``np.bincount``, whose C loop adds
contributions sequentially in concatenation order = ascending token
order = the order the scalar merge-join uses.

    rids:    [r0, r1, ...]                       (ascending)
    indptr:  [0, nnz(r0), nnz(r0)+nnz(r1), ...]  row boundaries
    indices: vocab indices, ascending inside each row
    values:  tf-idf weights aligned with indices (None for set kernels)

A CSC view (``postings``) is derived lazily for the column-gather step;
within each posting, rows appear in ascending order (stable argsort of
a row-major scan).

Being plain numpy arrays, instances also cross process-pool boundaries
as flat buffers instead of per-record dicts.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


__all__ = ["ColumnarVectors"]


class ColumnarVectors:
    """CSR token matrix over a relation chunk, with lazy CSC postings.

    Holds the rows of ``corpus`` for the rids of ``rids`` it covers
    (any subset, e.g. a block or a shard of the corpus's relation);
    ``weighted`` keeps the tf-idf ``values`` and ``norms`` a weighted
    kernel needs.
    """

    def __init__(self, corpus, rids: Iterable[int], weighted: bool = False) -> None:
        row_of = corpus.row_of
        self.rid_list = sorted(int(rid) for rid in rids if rid in row_of)
        self.rids = np.asarray(self.rid_list, dtype=np.int64)
        self.row_of = {rid: i for i, rid in enumerate(self.rid_list)}
        self.n_vocab = len(corpus.vocab)

        _, indices, tfidf, norms = corpus.arrays()
        rows = np.asarray([row_of[rid] for rid in self.rid_list], dtype=np.int64)
        self.indptr, flat = corpus.gather(rows)
        self.row_sizes = np.diff(self.indptr)
        self.indices = indices[flat]
        self.values = tfidf[flat] if weighted else None
        self.norms = norms[rows] if weighted else None
        self._pindptr = None
        self._prows = None
        self._pvals = None
        self._rid_table = None
        self._rid_table_built = False

    def __len__(self) -> int:
        return len(self.rid_list)

    def __contains__(self, rid: int) -> bool:
        return rid in self.row_of

    def rid_row_table(self):
        """Dense ``rid → row`` int64 table (``-1`` marks absent rids).

        Built lazily; ``None`` when the rid space is too sparse for a
        dense table to be worth its memory (callers then fall back to
        the ``row_of`` dict).
        """
        if not self._rid_table_built:
            if len(self.rid_list):
                lo = int(self.rids[0])
                hi = int(self.rids[-1])
                if lo >= 0 and hi <= 4 * len(self.rid_list) + 1024:
                    table = np.full(hi + 1, -1, dtype=np.int64)
                    table[self.rids] = np.arange(
                        len(self.rid_list), dtype=np.int64
                    )
                    self._rid_table = table
            self._rid_table_built = True
        return self._rid_table

    def resolve_rows(self, rids):
        """Vectorized ``rid → row`` mapping for a candidate array.

        Returns an int64 row array aligned with ``rids``, or ``None``
        when any rid is not indexed — one bulk table gather instead of
        a python dict lookup per candidate.
        """
        arr = np.asarray(rids, dtype=np.int64)
        if len(arr) == 0:
            return arr
        table = self.rid_row_table()
        if table is None:
            row_of = self.row_of
            rows = np.empty(len(arr), dtype=np.int64)
            for k, rid in enumerate(arr.tolist()):
                row = row_of.get(rid)
                if row is None:
                    return None
                rows[k] = row
            return rows
        if int(arr.min()) < 0 or int(arr.max()) >= len(table):
            return None
        rows = table[arr]
        if rows.min() < 0:
            return None
        return rows

    def postings(self):
        """CSC view ``(pindptr, prows, pvals)``; built on first use."""
        if self._pindptr is None:
            pindptr = np.zeros(self.n_vocab + 1, dtype=np.int64)
            if len(self.indices):
                counts = np.bincount(self.indices, minlength=self.n_vocab)
                np.cumsum(counts, out=pindptr[1:])
                # Stable sort of a row-major scan: rows stay ascending
                # inside every posting list.
                order = np.argsort(self.indices, kind="stable")
                rows = np.repeat(
                    np.arange(len(self.rid_list), dtype=np.int64),
                    self.row_sizes,
                )
                self._prows = rows[order]
                self._pvals = (
                    self.values[order] if self.values is not None else None
                )
            else:
                self._prows = np.empty(0, dtype=np.int64)
                self._pvals = (
                    np.empty(0, dtype=np.float64)
                    if self.values is not None
                    else None
                )
            self._pindptr = pindptr
        return self._pindptr, self._prows, self._pvals

    def _segments(self, rows):
        """Pair index and flat CSR position of every token of ``rows``.

        Row ``rows[p]``'s tokens come out as one run tagged ``p``, in
        ascending vocabulary order, runs in ``rows`` order.
        """
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        owner = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
        offsets = np.cumsum(lengths) - lengths
        flat = (
            np.arange(len(owner), dtype=np.int64)
            - offsets[owner]
            + starts[owner]
        )
        return owner, flat

    def shared_tokens(self, rows_a, rows_b):
        """Tokens shared by each aligned row pair ``(rows_a[p], rows_b[p])``.

        Returns ``(pair, flat_a, flat_b)``: per shared token, the pair
        index and the token's flat positions in ``indices`` / ``values``
        of both rows.  Hits come out by pair, and within a pair in
        ascending token order — the order the scalar merge-join and the
        row kernels accumulate in.  One ``searchsorted`` over
        ``(pair, token)`` keys answers every pair at once: the keys of
        ``rows_a`` are strictly ascending by construction.
        """
        owner_a, flat_a = self._segments(rows_a)
        owner_b, flat_b = self._segments(rows_b)
        width = max(self.n_vocab, 1)
        key_a = owner_a * width + self.indices[flat_a]
        key_b = owner_b * width + self.indices[flat_b]
        if not len(key_a) or not len(key_b):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        pos = np.searchsorted(key_a, key_b)
        # A key past the end clamps to 0; it is larger than every key_a,
        # so the equality test below rejects it.
        pos[pos == len(key_a)] = 0
        hit = key_a[pos] == key_b
        return owner_b[hit], flat_a[pos[hit]], flat_b[hit]

    def dot_row(self, i: int):
        """Weighted dot products of row ``i`` against every row.

        Gathers the posting segment of each query token in ascending
        token order and accumulates with ``np.bincount`` — additions
        land on each target row in the same order the scalar merge-join
        would apply them.
        """
        pindptr, prows, pvals = self.postings()
        start, end = int(self.indptr[i]), int(self.indptr[i + 1])
        if start == end:
            return np.zeros(len(self.rid_list), dtype=np.float64)
        cols = self.indices[start:end]
        qw = self.values[start:end]
        row_chunks = []
        val_chunks = []
        for k in range(len(cols)):
            c = int(cols[k])
            s, e = int(pindptr[c]), int(pindptr[c + 1])
            row_chunks.append(prows[s:e])
            val_chunks.append(pvals[s:e] * qw[k])
        return np.bincount(
            np.concatenate(row_chunks),
            weights=np.concatenate(val_chunks),
            minlength=len(self.rid_list),
        )

    def intersection_row(self, i: int):
        """Integer set-intersection sizes of row ``i`` vs every row."""
        pindptr, prows, _ = self.postings()
        start, end = int(self.indptr[i]), int(self.indptr[i + 1])
        if start == end:
            return np.zeros(len(self.rid_list), dtype=np.int64)
        cols = self.indices[start:end]
        row_chunks = [
            prows[int(pindptr[int(c)]) : int(pindptr[int(c) + 1])] for c in cols
        ]
        return np.bincount(
            np.concatenate(row_chunks), minlength=len(self.rid_list)
        )
