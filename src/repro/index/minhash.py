"""MinHash / LSH index over token sets.

A locality-sensitive candidate generator in the family of probabilistic
indexes the paper cites for cosine / fuzzy match similarity.  Records
are signed with ``n_hashes`` min-hashes of their word-token sets; the
signature is cut into bands, and records colliding in any band become
candidates, which are then verified with the actual distance function.

The banding scheme makes candidate probability an S-curve in Jaccard
similarity; with the defaults (64 hashes, 16 bands of 4 rows) pairs with
token Jaccard above ~0.4 are found with high probability, which is the
regime fuzzy duplicates live in.

Cost model
----------
Signatures and band buckets are computed exactly once, in ``_build``
(:mod:`repro.index.signatures`: prototype-copied blake2b over the
vocabulary, and an array-only grouping that makes no python object per
record or bucket); a lookup for an in-relation record gathers its
``n_bands`` bucket member slices (no hashing) plus one verification
per surfaced candidate.  An out-of-relation probe is signed on the fly
and matched against the signature matrix's band columns, one
vectorized compare per band.

The index only generates and scores candidates; the shared
:func:`~repro.index.base.read_off` ranks them and reads every cut list,
``nn(v)`` and ``ng(v)``, as it does for brute force's kernel rows.
With a batch kernel that scores explicit row pairs (cosine, Jaccard,
edit), :meth:`MinHashIndex.phase1_batch` is a *blocked* pass that answers a
whole batch at once:

1. gather every query's candidate pairs from the flat band layout in
   one vectorized step and drop duplicates — across bands, and between
   the two endpoints of a pair when both are queries;
2. score each remaining unordered pair once with the kernel's
   ``pair_distances``;
3. hand both endpoints' entries to ``read_off``.

Every answer equals the per-record ``knn``/``within`` +
``neighborhood_growth`` sequence: ``ng(v)`` counts over the same LSH
candidate set, so a record without candidates has ``ng = 1``, and a
size-cut record with fewer than ``k`` candidates still ranks the rest
of the relation (the exhaustive fallback), entries the NG count does
not see.  Queries are sliced so that one slice gathers at most
``_PAIR_BUDGET`` pairs before de-duplication; scratch memory is bounded
by that budget, not by the batch size, and a pair whose endpoints land
in different slices is scored once per slice.  Per-record ``knn`` and
``within`` score one candidate set through ``NNIndex._verify_cut``;
that path (the scalar reference, and batches the blocked pass cannot
serve) verifies a candidate set once per probe: the cut list, then the
NG range count.  See ``docs/performance.md`` ("Choosing an index") for
the knobs.
"""

from __future__ import annotations

import hashlib
import time
from functools import partial

import numpy as np

from repro.data.schema import Record
from repro.distances.corpus import Corpus
from repro.distances.tokens import qgrams, tokenize
from repro.index.base import (
    Neighbor,
    NNIndex,
    Phase1Batch,
    read_off,
    score_pairs,
)
from repro.index.signatures import (
    RelationSignatures,
    SignatureFactory,
    group_band_buckets,
)

__all__ = ["MinHashIndex", "minhash_signature", "band_keys"]

_PRIME = (1 << 61) - 1

#: Most candidate pairs (counted before de-duplication) one slice of the
#: blocked Phase-1 pass gathers; bounds that pass's scratch arrays.
_PAIR_BUDGET = 1 << 18


def _stable_hash(token: str, salt: int) -> int:
    """Deterministic 64-bit hash of ``token`` under ``salt``."""
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, salt=salt.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


def minhash_signature(elements: set[str], n_hashes: int) -> tuple[int, ...]:
    """The ``n_hashes``-wide min-hash signature of a token/q-gram set.

    Stable across processes and sessions (keyed blake2b, no process
    salt), which is what lets the persistent postings index
    (:mod:`repro.index.postings`) restore logged signatures instead of
    re-hashing on a warm restart.  Empty sets sign as all-``_PRIME``.
    """
    if not elements:
        return tuple([_PRIME] * n_hashes)
    return tuple(
        min(_stable_hash(element, salt) for element in elements)
        for salt in range(n_hashes)
    )


def band_keys(
    signature: tuple[int, ...], n_bands: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Cut a signature into its ``n_bands`` LSH bucket keys."""
    rows = len(signature) // n_bands
    return tuple(
        (band, signature[band * rows : band * rows + rows])
        for band in range(n_bands)
    )


class MinHashIndex(NNIndex):
    """LSH candidate index verified against the true distance function.

    Parameters
    ----------
    n_hashes:
        Signature length; must be divisible by ``n_bands``.
    n_bands:
        Number of LSH bands.  More bands (fewer rows per band) lower
        the collision threshold of the S-curve: candidates multiply and
        recall rises at the cost of more verifications.
    use_qgrams:
        Sign q-gram sets instead of word-token sets.  Q-grams make the
        index robust to in-token typos at the cost of larger sets.
    exhaustive_fallback:
        Scan the remainder when a query surfaces fewer candidates than
        the requested ``k``.
    """

    def __init__(
        self,
        n_hashes: int = 64,
        n_bands: int = 16,
        use_qgrams: bool = False,
        q: int = 3,
        exhaustive_fallback: bool = True,
    ):
        super().__init__()
        if n_hashes % n_bands != 0:
            raise ValueError("n_hashes must be divisible by n_bands")
        self.n_hashes = n_hashes
        self.n_bands = n_bands
        self.rows_per_band = n_hashes // n_bands
        self.use_qgrams = use_qgrams
        self.q = q
        self.exhaustive_fallback = exhaustive_fallback
        self.name = f"minhash{n_hashes}x{n_bands}"
        #: rid -> relation-order row.
        self._row_of: dict[int, int] = {}
        #: The grouping's flat bucket layout (see ``BandGrouping``):
        #: per-band bucket ids of every row, member rows bucket after
        #: bucket, and bucket bounds.
        self._row_bucket_ids = None
        self._bucket_rows = None
        self._bucket_bounds = None
        #: Relation rids in relation order (int64), backing the
        #: vectorized exhaustive-fallback extension.
        self._rid_array = None
        #: Relation row -> batch-kernel row, set when the kernel scores
        #: explicit row pairs: the blocked ``phase1_batch`` runs then.
        self._kernel_rows = None
        self._relation_signatures: RelationSignatures | None = None

    def _elements(self, record: Record) -> list[str]:
        text = record.text()
        return qgrams(text, q=self.q) if self.use_qgrams else tokenize(text)

    def _signature(self, record: Record) -> tuple[int, ...]:
        return minhash_signature(set(self._elements(record)), self.n_hashes)

    def _build(self) -> None:
        """Sign every record and bucket it — once, idempotently.

        Rebuilding (same or different relation) starts from empty
        structures, so a second ``build`` never duplicates bucket
        entries, and no lookup ever recomputes a signature or band key
        for an in-relation record.

        Word-token signing reads the distance's
        :class:`~repro.distances.corpus.Corpus` when it covers the
        relation; otherwise (q-grams, a corpus-free distance such as
        edit) the index builds its own corpus, timed as ``tokenize``.
        :class:`~repro.index.signatures.SignatureFactory` hashes each
        vocabulary token once and min-gathers the signatures;
        :func:`~repro.index.signatures.group_band_buckets` buckets them
        into flat arrays.  Both are bit-identical to the scalar
        :func:`minhash_signature` / :func:`band_keys` path.  The
        signature batch is kept: shard planning shares it, and
        out-of-relation probes compare against its matrix.
        Build wall time lands in ``substage_seconds`` under
        ``tokenize`` / ``sign`` / ``bucket``.
        """
        relation, distance = self._checked()
        started = time.perf_counter()
        rids = relation.ids()
        corpus = None if self.use_qgrams else distance.corpus
        if corpus is None or not corpus.covers(rids):
            corpus = Corpus(
                relation,
                elements=partial(qgrams, q=self.q) if self.use_qgrams else None,
            )
        work = self._work
        work.add_seconds("tokenize", time.perf_counter() - started)
        signatures = SignatureFactory(self.n_hashes).sign(corpus, rids)
        grouping = group_band_buckets(signatures, self.n_bands)
        started = time.perf_counter()
        self._row_of = {rid: i for i, rid in enumerate(rids)}
        self._row_bucket_ids = grouping.row_bucket_ids
        self._bucket_rows = grouping.bucket_rows
        self._bucket_bounds = grouping.bucket_bounds
        self._rid_array = np.asarray(rids, dtype=np.int64)
        self._relation_signatures = signatures
        work.add_seconds("sign", signatures.timings["sign"])
        work.add_seconds(
            "bucket", grouping.seconds + (time.perf_counter() - started)
        )

    def _resolve_kernel(self) -> None:
        super()._resolve_kernel()
        self._kernel_rows = None
        kernel = self._kernel
        rids = self._rid_array
        if (
            rids is None
            or not hasattr(kernel, "pair_distances")
            or not len(rids)
        ):
            return
        # The blocked pass scores row pairs of any kernel that has
        # ``pair_distances``; it needs every relation rid's kernel row.
        position = {rid: row for row, rid in enumerate(kernel.rids)}
        rows = [position.get(rid) for rid in rids.tolist()]
        if None not in rows:
            self._kernel_rows = np.asarray(rows, dtype=rids.dtype)

    def relation_signatures(self) -> RelationSignatures | None:
        """The build's signature batch, shareable with shard planning.

        ``None`` when the index signs q-gram sets (shard planning signs
        word-token sets) or has not been built.  Callers must still
        check :meth:`RelationSignatures.matches` against their own rid
        list and signature width.
        """
        if self.use_qgrams:
            return None
        return self._relation_signatures

    def _candidates(self, record: Record):
        """Candidate rids, an ascending int64 array."""
        row = self._row_of.get(record.rid)
        if row is None:
            return self._probe(record)
        # In-relation probe: no hashing; union the bands' member slices
        # with one C-level sort.
        bounds = self._bucket_bounds
        members = self._bucket_rows
        merged = np.unique(
            self._rid_array[
                np.concatenate([
                    members[bounds[g] : bounds[g + 1]]
                    for g in self._row_bucket_ids[:, row].tolist()
                ])
            ]
        )
        return merged[merged != record.rid]

    def _probe(self, record: Record):
        """Candidates of a record outside the relation: signed on the
        fly (the only case where a signature is ever computed outside
        ``_build``) and matched band by band against the matrix."""
        matrix = self._relation_signatures.matrix
        probe = np.asarray(self._signature(record), dtype=np.uint64)
        hit = np.zeros(len(matrix), dtype=bool)
        for lo in range(0, self.n_hashes, self.rows_per_band):
            hi = lo + self.rows_per_band
            hit |= (matrix[:, lo:hi] == probe[lo:hi]).all(axis=1)
        found = self._rid_array[hit]
        return np.sort(found[found != record.rid])

    def _has_candidates(self, record: Record) -> bool:
        """Whether any band bucket of ``record`` holds another record."""
        row = self._row_of.get(record.rid)
        if row is None:
            return len(self._probe(record)) > 0
        ids = self._row_bucket_ids[:, row]
        bounds = self._bucket_bounds
        return bool((bounds[ids + 1] - bounds[ids] > 1).any())

    def _fallback_rest(self, record: Record, candidates: list[int]) -> list[int]:
        """Relation rids not already surfaced, in relation order."""
        exclude = np.asarray(candidates + [record.rid], dtype=np.int64)
        return self._rid_array[~np.isin(self._rid_array, exclude)].tolist()

    def _final_candidates(self, record: Record, k: int | None) -> list[int]:
        """Candidate rids for one query, with pruning accounting.

        ``candidates_generated`` counts the pairs handed to
        verification (including any exhaustive-fallback extension);
        ``evaluations_pruned`` counts the pairs never examined at all.
        Wall time is credited to the ``candidates`` sub-stage.
        """
        started = time.perf_counter()
        try:
            relation, _ = self._checked()
            candidates = self._candidates(record)
            if (
                k is not None
                and len(candidates) < k
                and self.exhaustive_fallback
            ):
                candidates = candidates.tolist()
                candidates = candidates + self._fallback_rest(
                    record, candidates
                )
            n_others = len(relation) - (1 if record.rid in relation else 0)
            work = self._work
            work.candidates_generated += len(candidates)
            work.evaluations_pruned += n_others - len(candidates)
            return candidates
        finally:
            self._work.add_seconds(
                "candidates", time.perf_counter() - started
            )

    def knn(self, record: Record, k: int) -> list[Neighbor]:
        relation, _ = self._checked()
        if k <= 0 or len(relation) <= 1:
            return []
        return self._verify_cut(record, self._final_candidates(record, k), k=k)

    def within(
        self, record: Record, radius: float, inclusive: bool = False
    ) -> list[Neighbor]:
        self._checked()
        return self._verify_cut(
            record, self._final_candidates(record, None),
            radius=radius, inclusive=inclusive,
        )

    def neighborhood_growth(
        self,
        record: Record,
        p: float = 2.0,
        nn_distance: float | None = None,
        radius_fn=None,
    ) -> int:
        """``ng(v)``, counted over the LSH candidate set like every query.

        A record with no candidate is its own whole neighborhood
        whatever ``nn(v)`` is, so it answers 1 without the 1-NN probe,
        whose exhaustive fallback would scan the whole relation.
        """
        if not self._has_candidates(record):
            return 1
        return super().neighborhood_growth(
            record, p=p, nn_distance=nn_distance, radius_fn=radius_fn
        )

    # ------------------------------------------------------------------
    # Blocked Phase 1
    # ------------------------------------------------------------------

    def phase1_batch(
        self,
        records,
        k: int | None = None,
        theta: float | None = None,
        p: float = 2.0,
        radius_fn=None,
    ) -> Phase1Batch:
        """Phase-1 answers for ``records`` in one blocked pass.

        See the module docstring's cost model.  Falls back to the
        per-record sequence when the kernel cannot score row pairs or a
        record is not in the relation.  The pass tallies
        its own work into the calling thread's ledger.
        """
        if k is None and theta is None:
            raise ValueError("phase1_batch needs k, theta, or both")
        rows = self._blocked_rows(records, k)
        if rows is None:
            return super().phase1_batch(
                records, k=k, theta=theta, p=p, radius_fn=radius_fn
            )
        work = self._work
        started = time.perf_counter()
        ids = self._row_bucket_ids[:, rows]
        bounds = self._bucket_bounds
        widths = bounds[ids + 1] - bounds[ids]
        # Pairs each query gathers (itself included once per band):
        # slice boundaries keep every slice within the pair budget.
        gathered = np.cumsum(widths.sum(axis=0))
        work.add_seconds("candidates", time.perf_counter() - started)
        results: list[Phase1Batch] = []
        start = 0
        while start < len(rows):
            done = int(gathered[start - 1]) if start else 0
            end = max(
                start + 1,
                int(np.searchsorted(gathered, done + _PAIR_BUDGET, "right")),
            )
            results.append(
                self._blocked_slice(
                    rows[start:end], ids[:, start:end],
                    widths[:, start:end], k, theta, p, radius_fn, work,
                )
            )
            start = end
        return Phase1Batch.concat(results)

    def _blocked_rows(self, records, k: int | None):
        """Relation rows of ``records`` if the blocked pass can answer
        them (else ``None``)."""
        if self._kernel_rows is None or not records:
            return None
        if k is not None and k < 1:
            return None
        row_of = self._row_of
        rows = [row_of.get(record.rid) for record in records]
        if None in rows:
            return None
        return np.asarray(rows, dtype=np.int64)

    def _blocked_slice(
        self, rows, ids, widths, k, theta, p, radius_fn, work
    ) -> Phase1Batch:
        """One slice of the blocked pass (see the module docstring)."""
        started = time.perf_counter()
        n = len(self._rid_array)
        n_queries = len(rows)
        # 1. Candidate pairs, gathered band by band as (query slot,
        #    member row), deduplicated to each query's candidate set.
        lengths = widths.ravel()
        segment = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        offsets = np.cumsum(lengths) - lengths
        flat = (
            np.arange(len(segment), dtype=np.int64)
            - offsets[segment]
            + self._bucket_bounds[ids].ravel()[segment]
        )
        slot = segment % n_queries
        other = self._bucket_rows[flat]
        mine = other != rows[slot]
        keys = np.unique(slot[mine] * n + other[mine])
        slot = keys // n
        other = keys - slot * n
        verify_started = time.perf_counter()
        work.add_seconds("candidates", verify_started - started)

        # 2. Score each unordered pair once, even when both endpoints
        #    are queries.  The slice is charged what the kernel computed
        #    on this thread, fallback rows included.
        computed = self._kernel.thread_evaluations()
        distance = score_pairs(
            self._kernel, self._kernel_rows, rows[slot], other, n
        )
        other_rid = self._rid_array[other]
        counted = None
        fallback_pairs = 0
        if theta is None and self.exhaustive_fallback:
            # Size-cut queries short of k candidates rank the rest of
            # the relation too, exactly like ``knn``; NG still counts
            # over the LSH candidates only.
            per_query = np.bincount(slot, minlength=n_queries)
            short = np.flatnonzero(per_query < k).tolist()
            if short:
                # ``keys`` are sorted, so each query's candidates are
                # one contiguous run of ``other``.
                ends = np.cumsum(per_query).tolist()
                extra = [
                    self._rest(
                        int(rows[i]), i,
                        other[ends[i] - int(per_query[i]) : ends[i]],
                    )
                    for i in short
                ]
                fallback_pairs = sum(len(e[1]) for e in extra)
                counted = np.concatenate((
                    np.ones(len(slot), dtype=bool),
                    np.zeros(fallback_pairs, dtype=bool),
                ))
                slot = np.concatenate([slot] + [e[0] for e in extra])
                other_rid = np.concatenate([other_rid] + [e[1] for e in extra])
                distance = np.concatenate([distance] + [e[2] for e in extra])

        # 3. The shared read-off: cut lists, nn(v) and ng(v).
        answers = read_off(
            slot, other_rid, distance, n_queries, k=k, theta=theta,
            p=p, radius_fn=radius_fn, counted=counted,
        )
        generated = len(keys) + fallback_pairs
        work.candidates_generated += generated
        work.evaluations_pruned += n_queries * (n - 1) - generated
        work.kernel_evaluations += self._kernel.thread_evaluations() - computed
        work.add_seconds("verify", time.perf_counter() - verify_started)
        return answers

    def _rest(self, row: int, i: int, candidates):
        """Entries ``(slot, rid, distance)`` of query slot ``i`` (relation
        row ``row``) for the rows outside its candidate set, read off the
        query's full kernel row (``block``, which every kernel has)."""
        rest = np.ones(len(self._rid_array), dtype=bool)
        rest[row] = False
        rest[candidates] = False
        rest = np.flatnonzero(rest)
        distances = self._kernel.block([int(self._rid_array[row])])[0]
        return (
            np.full(len(rest), i, dtype=np.int64),
            self._rid_array[rest],
            distances[self._kernel_rows[rest]],
        )
