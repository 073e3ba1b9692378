"""Hybrid token/character similarities from the record-linkage
literature.

The paper's fms is one member of a family of *hybrid* measures that
combine token-level structure with character-level typo tolerance.  Two
other classics are provided for comparison studies (the distance
shootout benchmark B1 uses them):

- **Monge-Elkan** — the average, over the tokens of one record, of the
  best character-level similarity to any token of the other record;
  symmetrized by averaging both directions.
- **SoftTFIDF** (Cohen, Ravikumar, Fienberg) — tf-idf cosine where
  tokens match not only on equality but whenever their Jaro-Winkler
  similarity exceeds a threshold; matched pairs contribute their weight
  product scaled by the similarity.

Both are normalized to distances in [0, 1] and are symmetric, as the
DE formalization requires.
"""

from __future__ import annotations

import math

from repro.data.schema import Record
from repro.distances.base import clamp01
from repro.distances.corpus import CorpusDistance
from repro.distances.jaro import jaro_winkler_similarity

__all__ = ["MongeElkanDistance", "SoftTfIdfDistance"]


class MongeElkanDistance(CorpusDistance):
    """Symmetric Monge-Elkan distance with Jaro-Winkler inner similarity.

    ``me(a -> b) = mean over tokens s of a of max_t sim(s, t)``; the
    distance is ``1 - (me(a->b) + me(b->a)) / 2``.
    """

    name = "monge-elkan"
    uses_idf = False

    @staticmethod
    def _directed(source: list[str], target: list[str]) -> float:
        if not source:
            return 1.0 if not target else 0.0
        if not target:
            return 0.0
        total = 0.0
        for s in source:
            total += max(jaro_winkler_similarity(s, t) for t in target)
        return total / len(source)

    def distance(self, a: Record, b: Record) -> float:
        corpus = self._corpus()
        ta, tb = corpus.tokens(a), corpus.tokens(b)
        if not ta and not tb:
            return 0.0
        similarity = (self._directed(ta, tb) + self._directed(tb, ta)) / 2.0
        return clamp01(1.0 - similarity)


class SoftTfIdfDistance(CorpusDistance):
    """SoftTFIDF distance: tf-idf cosine with fuzzy token matching.

    Parameters
    ----------
    threshold:
        Minimum Jaro-Winkler similarity for two different tokens to
        count as a match (0.9 is the standard setting).
    """

    name = "soft-tfidf"

    def __init__(self, threshold: float = 0.9):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold

    def _norm(self, tokens: list[str]) -> float:
        return math.sqrt(sum(self.corpus.weight(t) ** 2 for t in set(tokens)))

    def _directed_score(
        self, source: list[str], target: list[str], norm_s: float, norm_t: float
    ) -> float:
        score = 0.0
        for s in source:
            best_sim = 0.0
            best_token: str | None = None
            for t in target:
                sim = 1.0 if s == t else jaro_winkler_similarity(s, t)
                if sim > best_sim:
                    best_sim = sim
                    best_token = t
            if best_token is not None and best_sim >= self.threshold:
                score += (
                    (self.corpus.weight(s) / norm_s)
                    * (self.corpus.weight(best_token) / norm_t)
                    * best_sim
                )
        return score

    def distance(self, a: Record, b: Record) -> float:
        """Symmetrized SoftTFIDF (the classic CLOSE() sum is directed;
        averaging both directions restores the symmetry the DE
        formalization requires)."""
        corpus = self._corpus()
        ta = sorted(set(corpus.tokens(a)))
        tb = sorted(set(corpus.tokens(b)))
        if not ta and not tb:
            return 0.0
        if not ta or not tb:
            return 1.0
        norm_a, norm_b = self._norm(ta), self._norm(tb)
        if norm_a == 0.0 or norm_b == 0.0:
            return 1.0
        forward = self._directed_score(ta, tb, norm_a, norm_b)
        backward = self._directed_score(tb, ta, norm_b, norm_a)
        return clamp01(1.0 - (forward + backward) / 2.0)
