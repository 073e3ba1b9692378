"""Batch edit-distance kernel: bit-parallel Myers at any string length.

:func:`myers_levenshtein` is Hyyrö's formulation of Myers' bit-vector
algorithm.  It computes the *exact* Levenshtein distance, so the kernel
is bit-identical to the scalar two-row DP in
:mod:`repro.distances.edit` by construction (the normalized distance is
an integer divided by an integer).  What changes is the constant.

The pattern's match positions are packed into one python int per
distinct character; the DP column then lives in two bit vectors, and
each text character costs a fixed handful of int operations instead of
a DP row.  Python ints are arbitrary-precision, so no pattern is too
long: an ``m``-char pattern spans ``⌈m/30⌉`` CPython digits and every
operation runs over them in C.  One code path serves every length.

:class:`EditKernel` holds the normalized text of every record in the
relation, so batch callers never re-normalize per pair, and keeps a
small memo of its most recently computed rows.  Levenshtein and its
``raw / max(len)`` normalization are exactly symmetric, so a new row
copies ``d(j, i)`` from a memoized row ``j`` instead of recomputing it:
inside a block of at most :attr:`EditKernel.memo_rows` queries every
unordered pair is computed once.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

from .base import DistanceKernel


def _build_peq(pattern: str) -> dict[str, int]:
    """Per-character match masks: bit ``i`` set where ``pattern[i] == ch``."""
    peq: dict[str, int] = {}
    for i, ch in enumerate(pattern):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    return peq


def myers_levenshtein(pattern: str, text: str, peq: dict[str, int] | None = None) -> int:
    """Exact Levenshtein distance between ``pattern`` and ``text``.

    ``peq`` may be passed in when the same pattern is scored against
    many texts (the batch case): building the masks once amortizes the
    only per-pattern cost.
    """
    m = len(pattern)
    if m == 0:
        return len(text)
    if peq is None:
        peq = _build_peq(pattern)
    get = peq.get
    mask = (1 << m) - 1
    # vp / vn: the +1 / -1 vertical deltas of the current DP column.
    vp = mask
    vn = 0
    for ch in text:
        eq = get(ch, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        # Horizontal deltas, shifted into the next column; the |1 is
        # row 0's D[0][j] = j.  Bits at or above m may hold carries, but
        # carries, shifts and bitwise ops only move information upward,
        # so masking vp and vn once per character keeps bits < m exact.
        hp = (vn | ((d0 | vp) ^ mask)) << 1 | 1
        vp = ((d0 & vp) << 1 | ((d0 | hp) ^ mask)) & mask
        vn = d0 & hp & mask
    # D[m][n] = D[0][n] plus the last column's vertical deltas.
    return len(text) + vp.bit_count() - vn.bit_count()


def _normalized(query: str, peq: dict[str, int], text: str) -> float:
    """``levenshtein / max(len)``; 0.0 for two empty strings."""
    longest = max(len(query), len(text))
    if longest == 0:
        return 0.0
    return myers_levenshtein(query, text, peq) / longest


class EditKernel(DistanceKernel):
    """Batch normalized edit distance over a relation's texts.

    Despite living in the kernel layer this path is pure python — the
    speedup comes from Myers bit-parallelism, from normalizing every
    text exactly once, and from computing each unordered pair of a
    block once, not from numpy.  ``block()`` still returns numpy rows so
    :class:`~repro.index.bruteforce.BruteForceIndex` consumes every
    kernel through one uniform array interface.

    ``evaluations`` counts the pairs actually computed: a distance
    copied from a memoized row costs nothing and is not counted.
    """

    backend = "numpy"

    #: Rows kept for mirroring, the query block ``BruteForceIndex``
    #: scans in; the memo holds at most ``memo_rows * n`` floats.
    memo_rows = 64

    def __init__(self, rids: Sequence[int], texts: Sequence[str]) -> None:
        from .compat import require_numpy

        self._np = require_numpy()
        self.evaluations = 0
        self._rids = list(rids)
        self._row_of = {rid: i for i, rid in enumerate(self._rids)}
        self._texts = list(texts)
        #: Row index -> float64 distance row, oldest first.
        self._memo: dict[int, object] = {}
        #: Guards the memo's evict-and-insert and ``evaluations``.
        self._lock = threading.Lock()

    def __contains__(self, rid: int) -> bool:
        return rid in self._row_of

    @property
    def rids(self) -> list[int]:
        return self._rids

    def _remember(self, qi: int, row, computed: int) -> None:
        # Thread-pool workers share one index, hence one kernel: evict
        # and insert under a lock so the bound holds under any
        # interleaving.  Readers need no lock, since a row enters the
        # memo only once it is complete.
        with self._lock:
            self.evaluations += computed
            memo = self._memo
            while len(memo) >= self.memo_rows:
                del memo[next(iter(memo))]
            memo[qi] = row

    def _row(self, qi: int):
        """Distances from text ``qi`` to every text (0.0 at ``qi``)."""
        memo = self._memo
        row = memo.get(qi)
        if row is not None:
            return row
        texts = self._texts
        query = texts[qi]
        peq = _build_peq(query)
        out = [0.0] * len(texts)
        computed = 0
        for i, text in enumerate(texts):
            if i == qi:
                continue
            mirror = memo.get(i)
            if mirror is not None:
                out[i] = mirror[qi]
                continue
            out[i] = _normalized(query, peq, text)
            computed += 1
        row = self._np.array(out, dtype=self._np.float64)
        self._remember(qi, row, computed)
        return row

    def block(self, query_rids: Sequence[int]):
        np = self._np
        out = np.empty((len(query_rids), len(self._rids)), dtype=np.float64)
        for r, rid in enumerate(query_rids):
            out[r, :] = self._row(self._row_of[rid])
        return out

    def pair_distances(self, rows_a, rows_b):
        """Distances of aligned row pairs ``(rows_a[p], rows_b[p])``,
        equal to ``block`` in both directions (Levenshtein and ``raw /
        max(len)`` are exactly symmetric); a run of pairs sharing
        ``rows_a[p]`` builds its match masks once."""
        np = self._np
        texts = self._texts
        out = []
        last = None
        for a, b in zip(np.asarray(rows_a).tolist(), np.asarray(rows_b).tolist()):
            if a != last:
                last, query = a, texts[a]
                peq = _build_peq(query)
            out.append(_normalized(query, peq, texts[b]))
        with self._lock:
            self.evaluations += len(out)
        return np.array(out, dtype=np.float64)

    def pairs(self, query_rid: int, rids: Sequence[int]) -> list[float]:
        row_of = self._row_of
        return self.pair_distances(
            [row_of[query_rid]] * len(rids), [row_of[rid] for rid in rids]
        ).tolist()

