"""IDF-weighted cosine distance.

One of the standard token-based tuple similarities in the deduplication
literature and a building block the paper contrasts with ``fms``: cosine
with IDF weights places "microsft corporation" close to "boeing
corporation" because the shared token "corporation" carries (some)
weight while the typo token "microsft" matches nothing.

The scalar path evaluates each pair as a merge-join over the records'
``(token, weight)`` lists *sorted by token string*, read from the
:class:`~repro.distances.corpus.Corpus` with their norms.  That fixes
one canonical floating-point summation order — ascending token — which
:class:`~repro.distances.kernels.cosine.CosineKernel` reproduces
exactly, so batch and per-pair results are bit-identical.
"""

from __future__ import annotations

import math

from repro.data.schema import Record, Relation
from repro.distances.base import clamp01
from repro.distances.corpus import CorpusDistance

__all__ = ["CosineDistance", "cosine_similarity"]


def cosine_similarity(u: dict[str, float], v: dict[str, float]) -> float:
    """Return the cosine of two sparse non-negative vectors."""
    if not u or not v:
        return 0.0
    if len(u) > len(v):
        u, v = v, u
    dot = sum(weight * v.get(token, 0.0) for token, weight in u.items())
    if dot == 0.0:
        return 0.0
    nu = math.sqrt(sum(w * w for w in u.values()))
    nv = math.sqrt(sum(w * w for w in v.values()))
    return dot / (nu * nv)


class CosineDistance(CorpusDistance):
    """``1 - cosine`` over tf-idf token vectors of whole records.

    ``prepare`` must be called with the relation before computing
    distances; it builds the corpus.  Distances for records with no
    tokens in common are 1.
    """

    name = "cosine"

    def make_kernel(self, relation: Relation):
        from repro.distances.kernels.columnar import ColumnarVectors
        from repro.distances.kernels.cosine import CosineKernel

        vectors = ColumnarVectors(self._corpus(), relation.ids(), weighted=True)
        return self._register_kernel(CosineKernel(vectors))

    def distance(self, a: Record, b: Record) -> float:
        vector = self._corpus().vector
        tokens_a, weights_a, norm_a = vector(a)
        tokens_b, weights_b, norm_b = vector(b)
        if not tokens_a or not tokens_b:
            return 1.0
        dot = 0.0
        i = j = 0
        na, nb = len(tokens_a), len(tokens_b)
        while i < na and j < nb:
            ta, tb = tokens_a[i], tokens_b[j]
            if ta == tb:
                dot += weights_a[i] * weights_b[j]
                i += 1
                j += 1
            elif ta < tb:
                i += 1
            else:
                j += 1
        if dot == 0.0:
            return 1.0
        return clamp01(1.0 - dot / (norm_a * norm_b))
