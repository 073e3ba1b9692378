"""Fuzzy match similarity (fms).

The paper's second evaluation distance is the *fuzzy match similarity*
of its reference [9] (Chaudhuri, Ganti, Kaushik, Motwani: fuzzy match
for online data cleaning), used in a **symmetric variant**.  It combines
edit distance and IDF weighting:

- the directed fuzzy match distance ``fmd(u -> v)`` is the minimum
  IDF-weighted cost of transforming the token sequence of ``u`` into
  that of ``v``, where replacing token ``s`` by token ``t`` costs
  ``w(s) * ed(s, t) / max(|s|, |t|)``, deleting ``s`` costs ``w(s)``, and
  inserting ``t`` costs ``c_in * w(t)``;
- the cost is normalized by the total token weight of ``u`` and clipped
  to 1, so ``fmd`` lands in [0, 1];
- the symmetric distance is the average of the two directions.

This realizes the behaviour in the paper's example: "microsoft corp" and
"microsft corporation" are close, because "microsoft"/"microsft" are
close in edit distance and "corp"/"corporation" carry low IDF weight.

Token matching is solved exactly as a rectangular assignment problem via
:func:`scipy.optimize.linear_sum_assignment`, with a pure-Python greedy
fallback for environments without scipy.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import Record
from repro.distances.base import clamp01
from repro.distances.corpus import Corpus, CorpusDistance
from repro.distances.edit import levenshtein

try:  # pragma: no cover - exercised implicitly
    from scipy.optimize import linear_sum_assignment as _lsa
except ImportError:  # pragma: no cover
    _lsa = None

__all__ = ["FuzzyMatchDistance", "directed_fuzzy_match_distance"]


def _token_edit_fraction(a: str, b: str) -> float:
    """Normalized token edit distance in [0, 1]."""
    if a == b:
        return 0.0
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


def _assignment(cost: list[list[float]]) -> list[tuple[int, int]]:
    """Solve a (rectangular) min-cost assignment; rows may go unmatched."""
    if not cost or not cost[0]:
        return []
    if _lsa is not None:
        matrix = np.asarray(cost, dtype=float)
        rows, cols = _lsa(matrix)
        return list(zip(rows.tolist(), cols.tolist()))
    # Greedy fallback: repeatedly take the globally cheapest pair.
    pairs = sorted(
        ((cost[i][j], i, j) for i in range(len(cost)) for j in range(len(cost[0])))
    )
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    result: list[tuple[int, int]] = []
    for _, i, j in pairs:
        if i in used_rows or j in used_cols:
            continue
        used_rows.add(i)
        used_cols.add(j)
        result.append((i, j))
    return result


def directed_fuzzy_match_distance(
    source_tokens: list[str],
    target_tokens: list[str],
    corpus: Corpus,
    insertion_factor: float = 0.5,
) -> float:
    """Return ``fmd(source -> target)`` in [0, 1].

    The transformation matches each source token to at most one target
    token (replacement), deletes unmatched source tokens and inserts
    unmatched target tokens.  A match is only kept when replacing is
    cheaper than deleting + inserting the pair.
    """
    if not source_tokens and not target_tokens:
        return 0.0
    if not source_tokens:
        return 1.0

    source_weights = [corpus.weight(t) for t in source_tokens]
    target_weights = [corpus.weight(t) for t in target_tokens]
    total_weight = sum(source_weights)
    if total_weight <= 0.0:
        return 0.0

    replace = [
        [source_weights[i] * _token_edit_fraction(s, t) for t in target_tokens]
        for i, s in enumerate(source_tokens)
    ]

    matched_sources: set[int] = set()
    matched_targets: set[int] = set()
    cost = 0.0
    for i, j in _assignment(replace):
        replace_cost = replace[i][j]
        break_even = source_weights[i] + insertion_factor * target_weights[j]
        if replace_cost < break_even:
            cost += replace_cost
            matched_sources.add(i)
            matched_targets.add(j)

    for i, weight in enumerate(source_weights):
        if i not in matched_sources:
            cost += weight  # deletion
    for j, weight in enumerate(target_weights):
        if j not in matched_targets:
            cost += insertion_factor * weight  # insertion

    return clamp01(cost / total_weight)


class FuzzyMatchDistance(CorpusDistance):
    """Symmetric fuzzy match distance over whole records.

    ``prepare(relation)`` builds the corpus: each record's tokens and
    the IDF weights.  The symmetric variant averages the two directed
    distances, preserving symmetry as the DE formalization requires.
    """

    name = "fms"

    def __init__(self, insertion_factor: float = 0.5):
        self.insertion_factor = insertion_factor

    def distance(self, a: Record, b: Record) -> float:
        corpus = self._corpus()
        ta, tb = corpus.tokens(a), corpus.tokens(b)
        forward = directed_fuzzy_match_distance(
            ta, tb, corpus, self.insertion_factor
        )
        backward = directed_fuzzy_match_distance(
            tb, ta, corpus, self.insertion_factor
        )
        return (forward + backward) / 2.0
