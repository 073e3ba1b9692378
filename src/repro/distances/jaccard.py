"""Jaccard distances over tokens and q-grams.

Used as additional baselines and by the MinHash index, whose collision
probability estimates exactly the token-set Jaccard similarity.
"""

from __future__ import annotations

from repro.data.schema import Record, Relation
from repro.distances.base import DistanceFunction, clamp01
from repro.distances.corpus import CorpusDistance
from repro.distances.tokens import qgrams

__all__ = [
    "jaccard_similarity",
    "weighted_jaccard_similarity",
    "TokenJaccardDistance",
    "QgramJaccardDistance",
    "WeightedJaccardDistance",
]


def jaccard_similarity(a: set[str], b: set[str]) -> float:
    """Return ``|a ∩ b| / |a ∪ b|`` (1.0 for two empty sets)."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    intersection = len(a & b)
    if intersection == 0:
        return 0.0
    return intersection / (len(a) + len(b) - intersection)


def weighted_jaccard_similarity(
    a: set[str], b: set[str], weight: dict[str, float]
) -> float:
    """Return IDF-weighted Jaccard: sum of shared weights over union weights."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    shared = sum(weight.get(t, 0.0) for t in a & b)
    union = sum(weight.get(t, 0.0) for t in a | b)
    if union == 0.0:
        return 0.0
    return shared / union


class TokenJaccardDistance(CorpusDistance):
    """``1 - Jaccard`` over word-token sets of whole records.

    Token sets are read from the corpus ``prepare`` builds, which the
    vectorized kernel shares; unprepared, or for out-of-corpus
    records, tokens are computed on the fly.
    """

    name = "jaccard"
    uses_idf = False

    def make_kernel(self, relation: Relation):
        from repro.distances.kernels.columnar import ColumnarVectors
        from repro.distances.kernels.jaccard import JaccardKernel

        if self.corpus is None:
            self.prepare(relation)
        vectors = ColumnarVectors(self.corpus, relation.ids())
        return self._register_kernel(JaccardKernel(vectors))

    def distance(self, a: Record, b: Record) -> float:
        corpus = self._corpus()
        return clamp01(
            1.0 - jaccard_similarity(set(corpus.tokens(a)), set(corpus.tokens(b)))
        )


class QgramJaccardDistance(DistanceFunction):
    """``1 - Jaccard`` over q-gram sets; robust to in-token typos."""

    def __init__(self, q: int = 3):
        self.q = q
        self.name = f"qgram{q}-jaccard"

    def distance(self, a: Record, b: Record) -> float:
        sa = set(qgrams(a.text(), q=self.q))
        sb = set(qgrams(b.text(), q=self.q))
        return clamp01(1.0 - jaccard_similarity(sa, sb))


class WeightedJaccardDistance(CorpusDistance):
    """``1 - weighted Jaccard`` with IDF token weights.

    Requires ``prepare(relation)`` to build the corpus.
    """

    name = "wjaccard"

    def distance(self, a: Record, b: Record) -> float:
        corpus = self._corpus()
        sa, sb = set(corpus.tokens(a)), set(corpus.tokens(b))
        if not sa and not sb:
            return 0.0
        weight = {t: corpus.weight(t) for t in sa | sb}
        return clamp01(1.0 - weighted_jaccard_similarity(sa, sb, weight))
