"""Nearest-neighbor indexes for Phase 1 of the DE algorithm.

:class:`BruteForceIndex` is the one exact index, the nested-loop scan
the paper falls back to; :class:`QgramInvertedIndex` and
:class:`MinHashIndex` are the approximate, inverted-index-style
structures the paper cites and "treats as exact".
"""

from repro.index.base import Neighbor, NNIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.cache import PagedPostingStore
from repro.index.inverted import QgramInvertedIndex
from repro.index.minhash import MinHashIndex, band_keys, minhash_signature
from repro.index.postings import PersistentMinHashPostings

__all__ = [
    "Neighbor",
    "NNIndex",
    "BruteForceIndex",
    "QgramInvertedIndex",
    "MinHashIndex",
    "PagedPostingStore",
    "PersistentMinHashPostings",
    "minhash_signature",
    "band_keys",
]
