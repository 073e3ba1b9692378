"""Vocabulary-hashed MinHash signature factory.

The scalar :func:`~repro.index.minhash.minhash_signature` hashes every
*occurrence* of a token once per salt: ``sum_r |tokens(r)| * n_hashes``
keyed blake2b calls for a relation.  Token sets are Zipfian, so the
number of *distinct* tokens ``V`` is far smaller than the number of
occurrences — on the Org generator roughly 12–17x smaller at n >= 5k,
and the gap widens with n.  :class:`SignatureFactory` exploits that,
signing a :class:`~repro.distances.corpus.Corpus` (whose vocabulary and
CSR of distinct token ids per record are already interned):

1. **Hash each vocabulary token once per salt** into one ``(V,
   n_hashes)`` table ``H``.  Each salt gets one
   ``blake2b(digest_size=8, salt=...)`` prototype; a token's hash under
   that salt is ``proto.copy()`` updated with the token's utf-8 bytes —
   the very digest the scalar ``blake2b(token, digest_size=8,
   salt=...)`` returns, without a keyword-parsed constructor per
   (token, salt).  All ``V * n_hashes`` 8-byte digests are joined into
   one bytes object, read as little-endian uint64 by
   ``np.frombuffer`` — the scalar ``int.from_bytes(digest, "little")``
   decode.
2. **Gather + column-min**: record ``r``'s signature is the
   element-wise minimum of the rows ``H[ids(r)]``, a vectorized
   ``np.minimum.reduceat`` over CSR segments.

The gather is **bit-identical** to the scalar function by
construction: the per-(token, salt) hashes are the very same blake2b
values, min over uint64 equals min over the non-negative python ints,
and empty element sets sign as all-``_PRIME`` exactly like the scalar
path.  Persistent-postings warm restarts, shard plans, and every parity
checksum therefore hold against the scalar signatures.  The signatures
live in the ``(n, n_hashes)`` matrix; the per-record python tuple view
is built the first time a caller reads it.

:func:`group_band_buckets` is the companion bucketing step, array-only:
one stable lexsort per band groups equal sub-signature rows into a flat
layout of bucket ids, member rows and bucket bounds, and no python
object is made per record or per bucket.  Bucket membership order
equals relation order — the scalar append order.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "BandGrouping",
    "RelationSignatures",
    "SignatureFactory",
    "group_band_buckets",
]

_PRIME = (1 << 61) - 1

#: Most token occurrences one numpy gather step holds; bounds the
#: ``(occurrences, n_hashes)`` scratch of the min-gather.
_GATHER_BUDGET = 1 << 18


@dataclass
class RelationSignatures:
    """Signatures of one relation, aligned with ``rids``.

    ``matrix`` is the ``(n, n_hashes)`` uint64 signature matrix;
    ``tuples`` is the per-record python-int tuple view — byte-for-byte
    what :func:`minhash_signature` returns — made from the matrix the
    first time it is read.
    """

    rids: list[int]
    n_hashes: int
    matrix: object
    #: Sub-stage wall time: ``sign`` (hashing + min-gather).
    timings: dict[str, float] = field(default_factory=dict)
    _tuples: list[tuple[int, ...]] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.rids)

    @property
    def tuples(self) -> list[tuple[int, ...]]:
        if self._tuples is None:
            self._tuples = [tuple(row) for row in self.matrix.tolist()]
        return self._tuples

    def matches(self, rids: Sequence[int], n_hashes: int) -> bool:
        """Whether these signatures cover exactly ``rids`` at ``n_hashes``."""
        return self.n_hashes == n_hashes and list(rids) == self.rids


@dataclass
class BandGrouping:
    """The LSH bucketing of a signature batch.

    Three flat int64 arrays number the buckets of all bands
    consecutively (band 0's first):

    - ``row_bucket_ids``: ``(n_bands, n)``, the bucket of each row in
      each band;
    - ``bucket_rows``: ``(n_bands * n,)``, every bucket's member *rows*
      (relation-order positions) in relation order, bucket after bucket;
    - ``bucket_bounds``: ``(n_buckets + 1,)``, bucket ``g``'s members
      are ``bucket_rows[bucket_bounds[g]:bucket_bounds[g + 1]]``.

    Probes then gather a row's bands as array slices, and a blocked
    pass gathers a whole batch's candidate pairs in one step.  The
    buckets are exactly the scalar ``(band, sub-signature)`` keys', with
    the same members in the same order.
    """

    rids: list[int]
    row_bucket_ids: object
    bucket_rows: object
    bucket_bounds: object
    seconds: float = 0.0

    @property
    def n_buckets(self) -> int:
        return len(self.bucket_bounds) - 1

    def shared_buckets(self) -> list[list[int]]:
        """Member rids, in relation order, of every bucket holding two
        or more records."""
        bounds = self.bucket_bounds
        multi = np.diff(bounds) > 1
        members = np.asarray(self.rids, dtype=np.int64)[self.bucket_rows].tolist()
        return [
            members[lo:hi]
            for lo, hi in zip(bounds[:-1][multi].tolist(), bounds[1:][multi].tolist())
        ]


class SignatureFactory:
    """Vocabulary-hashed MinHash signer of ``n_hashes`` salts."""

    def __init__(self, n_hashes: int) -> None:
        if n_hashes < 1:
            raise ValueError("n_hashes must be at least 1")
        self.n_hashes = n_hashes
        self._salts = [salt.to_bytes(8, "little") for salt in range(n_hashes)]

    def vocabulary_table(self, vocab: Sequence[str]):
        """The hashes of every token of ``vocab`` under every salt.

        A ``(len(vocab), n_hashes)`` uint64 array.  Entry ``(t, s)`` is
        exactly ``_stable_hash(vocab[t], s)``: salt ``s``'s prototype,
        copied and updated with the token's utf-8 bytes, yields the
        digest ``blake2b(token, digest_size=8, salt=...)`` does, and
        both decodes read it as little-endian — which is the whole
        bit-identity argument.
        """
        prototypes = [
            hashlib.blake2b(digest_size=8, salt=salt) for salt in self._salts
        ]
        digests: list[bytes] = []
        for token in vocab:
            encoded = token.encode("utf-8")
            hashes = [prototype.copy() for prototype in prototypes]
            for h in hashes:
                h.update(encoded)
            digests.extend([h.digest() for h in hashes])
        table = b"".join(digests)
        return np.frombuffer(table, dtype="<u8").reshape(-1, self.n_hashes)

    def sign(self, corpus, rids: Sequence[int] | None = None) -> RelationSignatures:
        """Sign the element sets of ``corpus``'s records ``rids`` (all of
        them, in corpus order, by default), timed as ``sign``."""
        started = time.perf_counter()
        rids = list(corpus.rids if rids is None else rids)
        row_of = corpus.row_of
        rows = [row_of[rid] for rid in rids]
        matrix = self._gather(self.vocabulary_table(corpus.vocab), corpus, rows)
        return RelationSignatures(
            rids=rids,
            n_hashes=self.n_hashes,
            matrix=matrix,
            timings={"sign": time.perf_counter() - started},
        )

    def _gather(self, table, corpus, rows):
        bounds, flat = corpus.gather(np.asarray(rows, dtype=np.int64))
        ids = corpus.arrays()[1][flat]
        sizes = np.diff(bounds)
        signatures = np.full((len(rows), self.n_hashes), _PRIME, dtype=np.uint64)
        row = 0
        while row < len(rows):
            lo = int(bounds[row])
            end = max(
                row + 1,
                int(np.searchsorted(bounds, lo + _GATHER_BUDGET, "right")) - 1,
            )
            mask = sizes[row:end] > 0
            if mask.any():
                # Empty rows are dropped from the reduceat boundary list
                # (duplicate offsets would mis-reduce); their signatures
                # stay the all-_PRIME fill.
                signatures[row:end][mask] = np.minimum.reduceat(
                    table[ids[lo : int(bounds[end])]],
                    (bounds[row:end] - lo)[mask],
                    axis=0,
                )
            row = end
        return signatures


def group_band_buckets(
    signatures: RelationSignatures, n_bands: int
) -> BandGrouping:
    """Bucket signed records by LSH band.

    One stable lexsort per band over the band's columns groups equal
    sub-signatures into the flat layout (stable, so members keep
    relation order — the scalar append order).  An empty batch has no
    bucket.
    """
    if signatures.n_hashes % n_bands != 0:
        raise ValueError("n_hashes must be divisible by n_bands")
    started = time.perf_counter()
    rows_per_band = signatures.n_hashes // n_bands
    rids = signatures.rids
    n = len(rids)
    matrix = signatures.matrix
    band_ids: list = []
    band_rows: list = []
    band_bounds: list = []
    n_buckets = 0
    for band in range(n_bands):
        sub = matrix[:, band * rows_per_band : (band + 1) * rows_per_band]
        # lexsort's last key is the primary one: column 0 leads.
        order = np.lexsort(sub.T[::-1])
        sorted_sub = sub[order]
        # Where each bucket starts in sorted order (none when n == 0).
        starts = np.concatenate(
            ([n > 0], np.any(sorted_sub[1:] != sorted_sub[:-1], axis=1))
        )
        # row -> bucket ordinal, inverted from the sort positions.
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.cumsum(starts)[:n] - 1
        # This band's buckets follow the previous bands' in the
        # global numbering and in ``bucket_rows``.
        heads = np.flatnonzero(starts)
        band_ids.append(inverse + n_buckets)
        band_rows.append(order)
        band_bounds.append(heads + band * n)
        n_buckets += len(heads)
    return BandGrouping(
        rids=rids,
        row_bucket_ids=np.stack(band_ids),
        bucket_rows=np.concatenate(band_rows).astype(np.int64, copy=False),
        bucket_bounds=np.concatenate(band_bounds + [[n_bands * n]]).astype(
            np.int64, copy=False
        ),
        seconds=time.perf_counter() - started,
    )
