"""Brute-force (nested loop) nearest-neighbor index.

The paper's fallback when no index is available ("otherwise, we apply
nested loop join methods in this phase") and our exactness reference:
every other index is validated against this one.

Candidates are the whole relation.  With a batch kernel, queries are
scored in blocks of dense ``kernel.block`` rows; each row is filtered
to its possible cut entries (``d < θ``, and ``d`` at most the row's
k-th smallest distance) before anything is sorted, and the shared
:func:`~repro.index.base.read_off` ranks and cuts those entries while
reading ``nn(v)`` and ``ng(v)`` off the whole row with one vectorized
compare.  Per-record ``knn``/``within`` answer through the same
read-off as one-query blocks.

Without a kernel every pair is scored by the scalar distance in
canonical (lower rid first) direction through
:meth:`~repro.index.base.NNIndex._pair_distance`: per-query scans
consult the pair cache, and :meth:`NNIndex.phase1_batch`'s batch scope
fills it, so inside one batch each unordered pair is evaluated once and
the NG range counts are served from the cache.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from repro.data.schema import Record
from repro.index.base import Neighbor, NNIndex, Phase1Batch, read_off

__all__ = ["BruteForceIndex"]


class BruteForceIndex(NNIndex):
    """Exact k-NN / range queries by scanning the whole relation."""

    name = "bruteforce"

    #: Queries per dense kernel block: caps the block at a few MB.
    _KERNEL_BLOCK = 64

    def __init__(self) -> None:
        super().__init__()
        #: The kernel's rids as an int64 array (its column order).
        self._kernel_rids = None

    def _build(self) -> None:
        """Nothing to build: every query scans the relation."""

    def _resolve_kernel(self) -> None:
        super()._resolve_kernel()
        self._kernel_rids = None
        if self._kernel is not None:
            self._kernel_rids = np.asarray(self._kernel.rids, dtype=np.int64)

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

    def _read_block(
        self, kernel, rids: Sequence[int], k, theta, p=2.0, radius_fn=None
    ) -> Phase1Batch:
        """Score one block of queries against the relation and read off
        each query's cut list and NG."""
        # The kernel's own count is the authority (the edit kernel
        # mirrors recent rows without computing them); its growth on
        # this thread is this block's work, whatever other threads do.
        before = kernel.thread_evaluations()
        dense = kernel.block(rids)
        work = self._work
        work.kernel_evaluations += kernel.thread_evaluations() - before
        started = time.perf_counter()
        columns = self._kernel_rids
        n_queries, n = dense.shape
        dense[np.arange(n_queries), np.searchsorted(columns, rids)] = np.inf
        # A row's cut entries lie within θ, or among its k smallest.
        if theta is not None:
            keep = dense < theta
        elif min(k, n - 1) < 1:
            keep = np.zeros(dense.shape, dtype=bool)
        else:
            kth = min(k, n - 1) - 1
            keep = dense <= np.partition(dense, kth, axis=1)[:, kth : kth + 1]
        query, column = np.divmod(np.flatnonzero(keep), n)
        answers = read_off(
            query, columns[column], dense[query, column], n_queries,
            k=k, theta=theta, p=p, radius_fn=radius_fn, rows=dense,
        )
        work.add_seconds("verify", time.perf_counter() - started)
        return answers

    def _others(self, record: Record) -> list[int]:
        relation, _ = self._checked()
        return [other.rid for other in relation if other.rid != record.rid]

    def knn(self, record: Record, k: int) -> list[Neighbor]:
        self._checked()
        if k <= 0:
            return []
        kernel = self._usable_kernel((record,))
        if kernel is not None:
            return self._read_block(kernel, [record.rid], k, None).neighbors(0)
        return self._verify_cut(record, self._others(record), k=k)

    def within(
        self, record: Record, radius: float, inclusive: bool = False
    ) -> list[Neighbor]:
        self._checked()
        kernel = self._usable_kernel((record,))
        if kernel is not None:
            if inclusive:
                # ``d <= r`` is ``d < nextafter(r, inf)`` on floats.
                radius = math.nextafter(radius, math.inf)
            return self._read_block(
                kernel, [record.rid], None, radius
            ).neighbors(0)
        return self._verify_cut(
            record, self._others(record), radius=radius, inclusive=inclusive
        )

    def phase1_batch(
        self,
        records: Sequence[Record],
        k: int | None = None,
        theta: float | None = None,
        p: float = 2.0,
        radius_fn=None,
    ) -> Phase1Batch:
        """Phase-1 answers for ``records``, a kernel block at a time.

        Without a usable kernel this is the generic per-record sequence
        of :meth:`NNIndex.phase1_batch`.
        """
        if k is None and theta is None:
            raise ValueError("phase1_batch needs k, theta, or both")
        kernel = self._usable_kernel(records)
        if kernel is None:
            return super().phase1_batch(
                records, k=k, theta=theta, p=p, radius_fn=radius_fn
            )
        block = self._KERNEL_BLOCK
        return Phase1Batch.concat([
            self._read_block(
                kernel,
                [record.rid for record in records[start : start + block]],
                k, theta, p, radius_fn,
            )
            for start in range(0, len(records), block)
        ])
