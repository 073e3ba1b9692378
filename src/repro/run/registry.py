"""Name registries for distances and indexes.

The CLI, :class:`~repro.run.config.RunConfig`, and the benchmarks all
refer to distance functions and NN indexes by short names; this module
is the single place those names are defined, so a configuration built
anywhere (CLI arguments, a JSON round-trip, a programmatic
``replace``) resolves to the same classes.
"""

from __future__ import annotations

from typing import Callable

from repro.distances.base import DistanceFunction
from repro.distances.cosine import CosineDistance
from repro.distances.edit import EditDistance
from repro.distances.fms import FuzzyMatchDistance
from repro.distances.jaccard import TokenJaccardDistance
from repro.index.base import NNIndex
from repro.index.bktree import BKTreeIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.inverted import QgramInvertedIndex
from repro.index.minhash import MinHashIndex

__all__ = ["DISTANCES", "INDEXES", "make_distance", "make_index"]

DISTANCES: dict[str, type[DistanceFunction]] = {
    "edit": EditDistance,
    "fms": FuzzyMatchDistance,
    "cosine": CosineDistance,
    "jaccard": TokenJaccardDistance,
}

INDEXES: dict[str, Callable[[], NNIndex]] = {
    "brute": BruteForceIndex,
    "bktree": BKTreeIndex,
    "qgram": QgramInvertedIndex,
    "minhash": MinHashIndex,
}


def make_distance(name: str) -> DistanceFunction:
    """Instantiate a registered distance function by name."""
    try:
        return DISTANCES[name]()
    except KeyError:
        raise ValueError(
            f"unknown distance {name!r}; expected one of {sorted(DISTANCES)}"
        ) from None


def make_index(name: str) -> NNIndex:
    """Instantiate a registered NN index by name."""
    try:
        return INDEXES[name]()
    except KeyError:
        raise ValueError(
            f"unknown index {name!r}; expected one of {sorted(INDEXES)}"
        ) from None
