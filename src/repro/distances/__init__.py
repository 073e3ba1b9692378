"""Distance functions over records.

All distances are symmetric and normalized to [0, 1] as the paper's
formalization requires; corpus-dependent functions expose a
``prepare(relation)`` hook, which token-based ones answer with one
shared :class:`~repro.distances.corpus.Corpus`.  The CS/SN framework is orthogonal to the
specific choice (paper section 1).
"""

from repro.distances.base import (
    CachedDistance,
    DistanceFunction,
    FunctionDistance,
    ScaledDistance,
)
from repro.distances.corpus import Corpus
from repro.distances.cosine import CosineDistance
from repro.distances.edit import EditDistance, damerau_levenshtein, levenshtein
from repro.distances.fms import FuzzyMatchDistance
from repro.distances.hybrid import MongeElkanDistance, SoftTfIdfDistance
from repro.distances.jaccard import (
    QgramJaccardDistance,
    TokenJaccardDistance,
    WeightedJaccardDistance,
)
from repro.distances.jaro import JaroWinklerDistance
from repro.distances.record import MaxFieldDistance, WeightedFieldDistance

__all__ = [
    "DistanceFunction",
    "FunctionDistance",
    "CachedDistance",
    "ScaledDistance",
    "EditDistance",
    "levenshtein",
    "damerau_levenshtein",
    "CosineDistance",
    "Corpus",
    "TokenJaccardDistance",
    "QgramJaccardDistance",
    "WeightedJaccardDistance",
    "JaroWinklerDistance",
    "FuzzyMatchDistance",
    "MongeElkanDistance",
    "SoftTfIdfDistance",
    "WeightedFieldDistance",
    "MaxFieldDistance",
]
