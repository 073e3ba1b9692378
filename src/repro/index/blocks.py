"""Exact candidates restricted to blocks: the index of constraint pushdown.

Hard constraints partition the relation into blocks no duplicate pair
crosses (:func:`~repro.shard.plan.plan_constraint_blocks`), so pushdown
runs Phase 1 once over the whole relation through :class:`BlockIndex`:
a record's candidates are its block mates, every one scored, and each
block's answers are brute force's over that block alone.

The blocks are laid out as the buckets of a single band, so the index
reuses :class:`~repro.index.minhash.MinHashIndex`'s bucket machinery
without signatures or exhaustive fallback.  With a kernel that scores
row pairs (cosine, Jaccard, edit), ``phase1_batch`` is MinHash's
blocked pass: it gathers the batch's same-block pairs, scores each
unordered pair once (:func:`~repro.index.base.score_pairs`) and reads
every answer off them (:func:`~repro.index.base.read_off`), so a batch
of the whole relation costs ``Σ b(b-1)/2`` evaluations over blocks of
size ``b``.  Otherwise ``knn``/``within`` score the mates through
``NNIndex._verify_cut``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.index.minhash import MinHashIndex

__all__ = ["BlockIndex"]


class BlockIndex(MinHashIndex):
    """Exact queries over block mates; ``blocks`` are disjoint rid lists
    covering the relation the index is built over."""

    def __init__(self, blocks: Sequence[Sequence[int]]):
        super().__init__(n_hashes=1, n_bands=1, exhaustive_fallback=False)
        self.name = "blocks"
        self.blocks = [tuple(block) for block in blocks]

    def _build(self) -> None:
        relation, _ = self._checked()
        self._row_of = {rid: row for row, rid in enumerate(relation.ids())}
        members = [self._row_of.get(rid) for block in self.blocks for rid in block]
        if len(members) != len(self._row_of) or set(members) != set(
            range(len(members))
        ):
            raise ValueError("blocks must partition the relation's rids")
        sizes = [len(block) for block in self.blocks]
        self._rid_array = np.asarray(list(self._row_of), dtype=np.int64)
        self._bucket_rows = np.asarray(members, dtype=np.int64)
        self._bucket_bounds = np.cumsum([0] + sizes, dtype=np.int64)
        self._row_bucket_ids = np.empty((1, len(members)), dtype=np.int64)
        self._row_bucket_ids[0, self._bucket_rows] = np.repeat(
            np.arange(len(sizes)), sizes
        )

    def _probe(self, record):
        """A record outside the relation is in no block: no candidates."""
        return np.empty(0, dtype=np.int64)
