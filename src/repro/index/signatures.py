"""Vocabulary-hashed MinHash signature factory.

The scalar :func:`~repro.index.minhash.minhash_signature` hashes every
*occurrence* of a token once per salt: ``sum_r |tokens(r)| * n_hashes``
keyed blake2b calls for a relation.  Token sets are Zipfian, so the
number of *distinct* tokens ``V`` is far smaller than the number of
occurrences — on the Org generator roughly 12–17x smaller at n >= 5k,
and the gap widens with n.  :class:`SignatureFactory` exploits that,
signing a :class:`~repro.distances.corpus.Corpus` (whose vocabulary and
CSR of distinct token ids per record are already interned):

1. **Hash each vocabulary token once per salt** with the *same* keyed
   blake2b the scalar path uses, into a ``(V, n_hashes)`` table ``H``.
2. **Gather + column-min**: record ``r``'s signature is the
   element-wise minimum of the rows ``H[ids(r)]`` — a vectorized
   ``np.minimum.reduceat`` over CSR segments when numpy can be
   imported, a C-speed ``map(min, zip(*rows))`` otherwise (numpy is an
   optional extra).

Both gathers are **bit-identical** to the scalar function by
construction: the per-(token, salt) hashes are the very same blake2b
values, min over uint64 equals min over the non-negative python ints,
and empty element sets sign as all-``_PRIME`` exactly like the scalar
path.  Persistent-postings warm restarts, shard plans, and every parity
checksum therefore stay valid whichever gather signed.

:func:`group_band_buckets` is the companion bucketing step: instead of
``n * n_bands`` per-record tuple-keyed dict inserts it packs each band's
sub-signature rows and groups equal rows via a stable lexsort, emitting
one shared key tuple (and one shared member list) per *bucket*.  Bucket
membership order equals relation order — identical to the scalar
append order.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.distances.kernels.compat import numpy_or_none

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
    """Signatures of one relation, columnar plus scalar views.

    ``matrix`` is the ``(n, n_hashes)`` uint64 signature matrix (``None``
    without numpy); ``tuples`` is the per-record python-int tuple view —
    byte-for-byte what :func:`minhash_signature` returns — aligned with
    ``rids``.
    """

    rids: list[int]
    tuples: list[tuple[int, ...]]
    n_hashes: int
    matrix: object | None = None
    #: Sub-stage wall time: ``sign`` (hashing + min-gather).
    timings: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rids)

    def matches(self, rids: Sequence[int], n_hashes: int) -> bool:
        """Whether these signatures cover exactly ``rids`` at ``n_hashes``."""
        return self.n_hashes == n_hashes and list(rids) == self.rids


@dataclass
class BandGrouping:
    """The vectorized LSH bucketing of a signature batch.

    All three views alias the *same* key tuples and member lists, so a
    relation-sized index pays one tuple per bucket, not one per
    (record, band) insert:

    - ``buckets``: ``(band, sub-signature) -> member rids`` in relation
      order — exactly the scalar ``setdefault``/``append`` result;
    - ``row_keys``: per record its ``n_bands`` keys (the scalar
      ``band_keys`` output), sharing key tuples across records;
    - ``row_buckets``: per band, row -> member list, the hash-free probe
      path for in-relation candidate lookups.

    With a signature matrix the same buckets are also kept as three flat
    int64 arrays (``None`` otherwise), numbering the buckets of all
    bands consecutively (band 0's first):

    - ``row_bucket_ids``: ``(n_bands, n)``, the bucket of each row in
      each band;
    - ``bucket_rows``: ``(n_bands * n,)``, every bucket's member *rows*
      (relation-order positions) in relation order, bucket after bucket;
    - ``bucket_bounds``: ``(n_buckets + 1,)``, bucket ``g``'s members
      are ``bucket_rows[bucket_bounds[g]:bucket_bounds[g + 1]]``.

    Probes then gather a row's bands as array slices, and a blocked
    pass gathers a whole batch's candidate pairs in one step.
    """

    buckets: dict[tuple[int, tuple[int, ...]], list[int]]
    row_keys: list[tuple[tuple[int, tuple[int, ...]], ...]]
    row_buckets: list[list[list[int]]]
    seconds: float = 0.0
    row_bucket_ids: object | None = None
    bucket_rows: object | None = None
    bucket_bounds: object | None = None


class SignatureFactory:
    """Vocabulary-hashed MinHash signer of ``n_hashes`` salts."""

    def __init__(self, n_hashes: int) -> None:
        if n_hashes < 1:
            raise ValueError("n_hashes must be at least 1")
        self.n_hashes = n_hashes
        self._salts = [salt.to_bytes(8, "little") for salt in range(n_hashes)]

    def _hash_token(self, token: str) -> list[int]:
        """All ``n_hashes`` keyed blake2b values of one distinct token.

        The per-(token, salt) value is exactly ``_stable_hash(token,
        salt)`` — same digest size, same little-endian decode — which is
        the whole bit-identity argument.
        """
        encoded = token.encode("utf-8")
        blake2b = hashlib.blake2b
        return [
            int.from_bytes(
                blake2b(encoded, digest_size=8, salt=salt).digest(), "little"
            )
            for salt in self._salts
        ]

    def sign(self, corpus, rids: Sequence[int] | None = None) -> RelationSignatures:
        """Sign the element sets of ``corpus``'s records ``rids`` (all of
        them, in corpus order, by default), timed as ``sign``."""
        started = time.perf_counter()
        rids = list(corpus.rids if rids is None else rids)
        row_of = corpus.row_of
        rows = [row_of[rid] for rid in rids]
        hashes = [self._hash_token(token) for token in corpus.vocab]
        np = numpy_or_none()
        if np is None:
            matrix, tuples = None, self._gather_python(hashes, corpus, rows)
        else:
            matrix = self._gather_numpy(np, hashes, corpus, rows)
            tuples = [tuple(row) for row in matrix.tolist()]
        return RelationSignatures(
            rids=rids,
            tuples=tuples,
            n_hashes=self.n_hashes,
            matrix=matrix,
            timings={"sign": time.perf_counter() - started},
        )

    def _gather_numpy(self, np, hashes, corpus, rows):
        bounds, flat = corpus.gather(np.asarray(rows, dtype=np.int64))
        ids = corpus.arrays()[1][flat]
        sizes = np.diff(bounds)
        table = np.array(hashes, dtype=np.uint64).reshape(-1, self.n_hashes)
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

    def _gather_python(self, hashes, corpus, rows) -> list[tuple[int, ...]]:
        empty = tuple([_PRIME] * self.n_hashes)
        indptr, indices = corpus.indptr, corpus.indices
        tuples: list[tuple[int, ...]] = []
        for row in rows:
            token_rows = [hashes[i] for i in indices[indptr[row] : indptr[row + 1]]]
            if not token_rows:
                tuples.append(empty)
            elif len(token_rows) == 1:
                tuples.append(tuple(token_rows[0]))
            else:
                tuples.append(tuple(map(min, zip(*token_rows))))
        return tuples


def group_band_buckets(
    signatures: RelationSignatures, n_bands: int
) -> BandGrouping:
    """Bucket signed records by LSH band, vectorized when possible.

    Equal-key grouping runs as one stable lexsort per band over the
    signature matrix (stable, so members keep relation order — the scalar append
    order) and as the classic dict-``setdefault`` loop otherwise.  Both
    produce identical ``buckets`` / ``row_keys`` structures.
    """
    if signatures.n_hashes % n_bands != 0:
        raise ValueError("n_hashes must be divisible by n_bands")
    started = time.perf_counter()
    rows_per_band = signatures.n_hashes // n_bands
    rids = signatures.rids
    n = len(rids)
    np = numpy_or_none()

    buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    per_band_keys: list[list] = []
    row_buckets: list[list[list[int]]] = []
    row_bucket_ids = bucket_rows = bucket_bounds = None

    if signatures.matrix is not None and np is not None and n:
        matrix = signatures.matrix
        rid_array = np.asarray(rids, dtype=np.int64)
        band_ids: list = []
        band_rows: list = []
        band_bounds: list = []
        n_buckets = 0
        for band in range(n_bands):
            sub = matrix[:, band * rows_per_band : (band + 1) * rows_per_band]
            # Stable sort: within an equal-key run, relation order is
            # preserved — the scalar append order.
            order = np.lexsort(tuple(sub[:, c] for c in reversed(range(rows_per_band))))
            sorted_sub = sub[order]
            if n > 1:
                changed = np.any(sorted_sub[1:] != sorted_sub[:-1], axis=1)
                heads = np.concatenate(([0], np.flatnonzero(changed) + 1))
            else:
                heads = np.zeros(1, dtype=np.int64)
            starts = np.concatenate((heads, [n]))
            counts = np.diff(starts)
            # row -> bucket ordinal, inverted from the sort positions.
            inverse = np.empty(n, dtype=np.int64)
            inverse[order] = np.repeat(np.arange(len(heads)), counts)
            ordered_rids = rid_array[order].tolist()
            bounds = starts.tolist()
            # One python tuple per *bucket*, not per (record, band), and
            # one C-speed slice per bucket for its member list.
            keys = [
                (band, tuple(key_row))
                for key_row in sorted_sub[heads].tolist()
            ]
            bucket_lists = [
                ordered_rids[bounds[g] : bounds[g + 1]]
                for g in range(len(keys))
            ]
            buckets.update(zip(keys, bucket_lists))
            inverse_list = inverse.tolist()
            per_band_keys.append([keys[g] for g in inverse_list])
            row_buckets.append([bucket_lists[g] for g in inverse_list])
            # The flat layout: this band's buckets follow the previous
            # bands' in the global numbering and in ``bucket_rows``.
            band_ids.append(inverse + n_buckets)
            band_rows.append(order)
            band_bounds.append(heads + band * n)
            n_buckets += len(heads)
        row_bucket_ids = np.stack(band_ids)
        bucket_rows = np.concatenate(band_rows).astype(np.int64, copy=False)
        bucket_bounds = np.concatenate(band_bounds + [[n_bands * n]]).astype(
            np.int64, copy=False
        )
    else:
        per_band_keys = [[None] * n for _ in range(n_bands)]
        row_buckets = [[None] * n for _ in range(n_bands)]  # type: ignore[list-item]
        for i, signature in enumerate(signatures.tuples):
            for band in range(n_bands):
                key = (
                    band,
                    signature[band * rows_per_band : band * rows_per_band + rows_per_band],
                )
                bucket = buckets.setdefault(key, [])
                bucket.append(rids[i])
                per_band_keys[band][i] = key
                row_buckets[band][i] = bucket

    row_keys = [tuple(keys) for keys in zip(*per_band_keys)] if n else []
    return BandGrouping(
        buckets=buckets,
        row_keys=row_keys,
        row_buckets=row_buckets,
        seconds=time.perf_counter() - started,
        row_bucket_ids=row_bucket_ids,
        bucket_rows=bucket_rows,
        bucket_bounds=bucket_bounds,
    )
