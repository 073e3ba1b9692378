"""Batch edit-distance kernel: Myers' bit vectors, one lane per pair.

:func:`myers_levenshtein` is Hyyrö's formulation of Myers' bit-vector
algorithm.  It computes the *exact* Levenshtein distance, so the kernel
is bit-identical to the scalar two-row DP in
:mod:`repro.distances.edit` by construction (the normalized distance is
an integer divided by an integer).  What changes is the constant.

The scalar form packs the pattern's match positions into one python int
per distinct character; the DP column then lives in two bit vectors,
and each text character costs a fixed handful of int operations instead
of a DP row.  Python ints are arbitrary-precision, so no pattern is too
long.  The BK-tree, the q-gram verify and small batches use it.

:class:`EditKernel` runs the same recurrence across a whole batch of
pairs at once: each pair is one *lane*, its bit vectors are columns of
``uint64`` words of shape ``(W, lanes)``, and the loop runs over text
positions, so one numpy operation advances every lane by one text
character.  The kernel encodes its texts once into small integer codes,
and scores each pair with its shorter string as the pattern
(Levenshtein and its ``raw / max(len)`` normalization are exactly
symmetric).  It also keeps a small memo of its most recently computed
rows: a new row copies ``d(j, i)`` from a memoized row ``j`` instead of
recomputing it, so inside a block of at most :attr:`EditKernel.memo_rows`
queries every unordered pair is computed once.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

from .base import DistanceKernel

#: Batches of fewer pairs keep the scalar :func:`myers_levenshtein`
#: loop: a lane call pays a fixed setup (encoding gathers, match-mask
#: table, one numpy call per operation per text position) that only a
#: batch of about this many pairs amortizes (``docs/performance.md``).
LANE_CROSSOVER = 48

#: Upper bound, in bytes, on the scratch one chunk of lanes holds (the
#: match-mask table, the text's table offsets and the bit vectors).  A
#: call is split into chunks of as many lanes as fit, so its scratch
#: grows neither with the number of pairs nor with the alphabet.
LANE_BUDGET = 2 << 20

#: ``uint64`` vectors of shape ``(W, lanes)`` a chunk holds at once
#: besides the match-mask table: the two state vectors and the loop's
#: temporaries.
_STATE_VECTORS = 12


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


def chunk_lanes(words: int, alphabet: int, text_length: int) -> int:
    """Lanes per chunk under :data:`LANE_BUDGET`.

    A lane costs ``(alphabet + 1) * words`` table words (one mask per
    character its chunk's patterns use, plus the all-zero mask every
    other character reads), :data:`_STATE_VECTORS` vectors of ``words``
    words, and at most 24 bytes per text character while the table and
    the text's table offsets are built (an 8-byte table index, the
    8-byte bit ``np.add.at`` broadcasts against it, and a character
    code of at most 4 bytes).
    """
    per_lane = 8 * ((alphabet + 1 + _STATE_VECTORS) * words + 3 * text_length)
    return max(1, LANE_BUDGET // per_lane)


def _popcount(x):
    """Set bits of each ``uint64`` in ``x`` (SWAR; numpy < 2 has no
    ``bitwise_count``)."""
    x = x - ((x >> 1) & 0x5555555555555555)
    x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F
    return (x * 0x0101010101010101) >> 56


def _normalized(query: str, peq: dict[str, int], text: str) -> float:
    """``levenshtein / max(len)``; 0.0 for two empty strings."""
    longest = max(len(query), len(text))
    if longest == 0:
        return 0.0
    return myers_levenshtein(query, text, peq) / longest


class EditKernel(DistanceKernel):
    """Batch normalized edit distance over a relation's texts.

    A batch of at least :data:`LANE_CROSSOVER` pairs runs as numpy
    bit-vector lanes (:meth:`_lanes`); a smaller one keeps the scalar
    :func:`myers_levenshtein` loop.  Both are exact, so every distance
    is the same bit for bit whichever path scored it.  The kernel is
    shared read-only by thread-pool workers: a call's scratch is its
    own, and only the memo and ``evaluations`` sit under a lock.

    ``evaluations`` counts the pairs actually computed: a distance
    copied from a memoized row costs nothing and is not counted.
    """

    backend = "numpy"

    #: Rows kept for mirroring, the query block ``BruteForceIndex``
    #: scans in; the memo holds at most ``memo_rows * n`` floats.
    memo_rows = 64

    def __init__(self, rids: Sequence[int], texts: Sequence[str]) -> None:
        self.evaluations = 0
        self._rids = list(rids)
        self._row_of = {rid: i for i, rid in enumerate(self._rids)}
        self._texts = list(texts)
        # Every text once as small integer codes, one flat array in row
        # order: text i is codes[starts[i] : starts[i] + lengths[i]].
        # Codes number the relation's distinct characters in code point
        # order, one byte each up to 256 of them, else four
        # ("surrogatepass" encodes a code that lands among surrogates).
        joined = "".join(self._texts)
        chars = sorted(set(joined))
        self._alphabet = len(chars)
        coded = joined.translate({ord(ch): code for code, ch in enumerate(chars)})
        narrow = self._alphabet <= 256
        self._codes = np.frombuffer(
            coded.encode("latin-1" if narrow else "utf-32-le", "surrogatepass"),
            "u1" if narrow else "<u4",
        )
        self._lengths = np.array([len(t) for t in self._texts], dtype=np.intp)
        self._starts = np.zeros(len(self._texts), dtype=np.intp)
        np.cumsum(self._lengths[:-1], out=self._starts[1:])
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
        self._count(computed)
        with self._lock:
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
        row = np.zeros(len(self._texts), dtype=np.float64)
        todo = np.ones(len(self._texts), dtype=bool)
        todo[qi] = False
        with self._lock:
            mirrors = list(memo.items())
        for i, mirror in mirrors:
            row[i] = mirror[qi]
            todo[i] = False
        rows = np.flatnonzero(todo)
        row[rows] = self._distances(np.full(len(rows), qi), rows)
        self._remember(qi, row, len(rows))
        return row

    def block(self, query_rids: Sequence[int]):
        out = np.empty((len(query_rids), len(self._rids)), dtype=np.float64)
        for r, rid in enumerate(query_rids):
            out[r, :] = self._row(self._row_of[rid])
        return out

    def pair_distances(self, rows_a, rows_b):
        """Distances of aligned row pairs ``(rows_a[p], rows_b[p])``,
        equal to ``block`` in both directions (Levenshtein and ``raw /
        max(len)`` are exactly symmetric)."""
        out = self._distances(
            np.asarray(rows_a, dtype=np.intp), np.asarray(rows_b, dtype=np.intp)
        )
        self._count(len(out))
        return out

    def pairs(self, query_rid: int, rids: Sequence[int]) -> list[float]:
        row_of = self._row_of
        return self.pair_distances(
            [row_of[query_rid]] * len(rids), [row_of[rid] for rid in rids]
        ).tolist()

    def _distances(self, rows_a, rows_b):
        """``levenshtein / max(len)`` of the row pairs (0.0 for two empty
        texts): lanes from :data:`LANE_CROSSOVER` pairs up, else the
        scalar loop, whose runs of pairs sharing ``rows_a[p]`` build
        their match masks once."""
        if len(rows_a) >= LANE_CROSSOVER:
            raw, longest = self._lanes(rows_a, rows_b)
            out = np.zeros(len(raw), dtype=np.float64)
            return np.divide(raw, longest, out=out, where=longest > 0)
        texts = self._texts
        out = []
        last = None
        for a, b in zip(rows_a.tolist(), rows_b.tolist()):
            if a != last:
                last, query = a, texts[a]
                peq = _build_peq(query)
            out.append(_normalized(query, peq, texts[b]))
        return np.array(out, dtype=np.float64)

    def _lanes(self, rows_a, rows_b):
        """Raw Levenshtein distances of the row pairs, one lane each,
        and the longer text's length.

        Each pair's shorter text is its pattern.  Lanes run longest text
        first, so the lanes still reading text at position ``j`` are a
        prefix and a finished lane's bit vectors stay as its last
        column left them.  Chunks of :func:`chunk_lanes` lanes keep the
        scratch under :data:`LANE_BUDGET`.
        """
        lengths = self._lengths
        len_a, len_b = lengths[rows_a], lengths[rows_b]
        swap = len_a > len_b
        pattern = np.where(swap, rows_b, rows_a)
        text = np.where(swap, rows_a, rows_b)
        m = np.minimum(len_a, len_b)
        n = np.maximum(len_a, len_b)
        raw = n.copy()  # an empty pattern's distance is the text's length
        live = np.flatnonzero(m)
        if not len(live):
            return raw, n
        order = live[np.argsort(-n[live], kind="stable")]
        words = (int(m[order].max()) + 63) >> 6
        step = chunk_lanes(words, self._alphabet, int(n[order[0]]))
        for start in range(0, len(order), step):
            lanes = order[start : start + step]
            raw[lanes] = self._chunk(pattern[lanes], text[lanes], m[lanes], n[lanes])
        return raw, n

    def _positions(self, rows, length):
        """Indices into ``codes`` of each row's first ``length``
        characters, shape ``(length, len(rows))``; past a row's end they
        point at whatever follows it."""
        at = self._starts[rows] + np.arange(length)[:, None]
        np.minimum(at, len(self._codes) - 1, out=at)
        return at

    def _chunk(self, pattern, text, m, n):
        """Hyyrö's recurrence over one chunk of lanes (texts sorted by
        length, longest first); returns each lane's distance."""
        codes = self._codes
        lanes = len(pattern)
        longest = int(m.max())
        words = (longest + 63) >> 6
        # Match masks over the characters this chunk's patterns use:
        # table[w, c * lanes + p] holds word w of lane p's mask for its
        # chunk code c; chunk code ``used`` is every other character.
        # Past a pattern's end its lane reads the next text's characters:
        # they only set mask bits at or above m, which never reach the
        # bits below m that hold the distance.
        slot = self._positions(pattern, longest)
        chars = codes[slot]
        present = np.flatnonzero(np.bincount(chars.ravel(), minlength=self._alphabet))
        used = len(present)
        local = np.full(self._alphabet, used, dtype=np.intp)
        local[present] = np.arange(used)
        width = (used + 1) * lanes
        local.take(chars, out=slot)
        del chars
        slot *= lanes
        slot += np.arange(lanes)
        slot += (np.arange(longest) >> 6)[:, None] * width
        table = np.zeros(words * width, dtype=np.uint64)
        bit = np.uint64(1) << (np.arange(longest) & 63).astype(np.uint64)
        # One bit per pattern position, so adding the bits is or-ing them.
        np.add.at(table, slot, bit[:, None])
        table = table.reshape(words, width)
        del slot
        # Lane p reads table column offset[j, p] at text position j.
        offset = self._positions(text, int(n[0]))
        local.take(codes[offset], out=offset)
        offset *= lanes
        offset += np.arange(lanes)
        # Lanes still reading text at position j: a prefix, as n falls.
        reading = np.searchsorted(-n, -np.arange(len(offset))).tolist()
        vp = np.full((words, lanes), ~np.uint64(0))
        vn = np.zeros((words, lanes), dtype=np.uint64)
        # (hp, hn) and the pair shifted up one row, stacked so that one
        # shift moves both.
        delta = np.empty((2, words, lanes), dtype=np.uint64)
        delta_up = np.empty_like(delta)
        for j, live in enumerate(reading):
            eq = table.take(offset[j, :live], axis=1)
            p, q = vp[:, :live], vn[:, :live]
            # d0 = (((eq & vp) + vp) ^ vp) | eq | vn, the add carrying
            # from each word into the next.
            x = eq & p
            d0 = x + p
            if words > 1:
                carry = d0[0] < x[0]
                for w in range(1, words - 1):
                    overflow = d0[w] < x[w]
                    d0[w] += carry
                    carry = overflow | (carry & (d0[w] == 0))
                d0[-1] += carry
            d0 ^= p
            d0 |= eq
            d0 |= q
            # Horizontal deltas hp = vn | ~(d0 | vp), hn = d0 & vp,
            # shifted up one row across words; the |1 is row 0's
            # D[0][j] = j.  Bits at or above m only ever feed bits above
            # them, so no mask is needed.
            h, up = delta[:, :, :live], delta_up[:, :, :live]
            hp, hn = h
            np.bitwise_or(d0, p, out=hp)
            np.invert(hp, out=hp)
            hp |= q
            np.bitwise_and(d0, p, out=hn)
            np.left_shift(h, 1, out=up)
            if words > 1:
                up[:, 1:] |= h[:, :-1] >> 63
            up[0, 0] |= 1
            hp_up, hn_up = up
            # vp = hn_up | ~(d0 | hp_up), vn = hp_up & d0
            np.bitwise_and(hp_up, d0, out=q)
            d0 |= hp_up
            np.invert(d0, out=d0)
            np.bitwise_or(hn_up, d0, out=p)
        # D[m][n] = D[0][n] plus the last column's vertical deltas below m.
        below = np.clip(m - 64 * np.arange(words)[:, None], 0, 64).astype(np.uint64)
        mask = np.where(below == 64, ~np.uint64(0), (np.uint64(1) << (below & 63)) - 1)
        return n + (
            _popcount(vp & mask).sum(axis=0, dtype=np.int64)
            - _popcount(vn & mask).sum(axis=0, dtype=np.int64)
        )
