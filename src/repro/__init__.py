"""repro — Robust Identification of Fuzzy Duplicates (ICDE 2005).

A full reproduction of Chaudhuri, Ganti, and Motwani's duplicate
elimination framework: the compact set (CS) and sparse neighborhood
(SN) criteria, the ``DE_S(K)`` / ``DE_D(θ)`` problem formulations, the
two-phase algorithm with breadth-first index lookup ordering, the SN
threshold heuristic — plus every substrate it runs on (string distance
functions, nearest-neighbor indexes, a paged storage engine, baseline
clusterers, and synthetic evaluation datasets).

Quickstart
----------
>>> from repro import DEParams, DuplicateEliminator, EditDistance
>>> from repro.data import table1_relation
>>> solver = DuplicateEliminator(EditDistance())
>>> result = solver.run(table1_relation(), DEParams.size(5, c=4.0))
>>> result.duplicate_groups
[(0, 1), (2, 3), (4, 5), (7, 8, 9)]

All three true duplicate pairs of the paper's Table 1 are found; the
fourth group is the mutually-close "Ears/Eyes Part II-IV" series, a
formally valid compact SN set (see ``examples/music_catalog.py``).
"""

from repro.core import (
    CombinedCut,
    DEParams,
    DEResult,
    DiameterCut,
    DuplicateEliminator,
    IncrementalDeduplicator,
    NNRelation,
    Partition,
    SizeCut,
    estimate_sn_threshold,
    explain_pair,
    merge_partition,
)
from repro.data.schema import Record, Relation
from repro.distances import (
    CosineDistance,
    DistanceFunction,
    EditDistance,
    FuzzyMatchDistance,
    JaroWinklerDistance,
    TokenJaccardDistance,
)
from repro.index import BruteForceIndex, MinHashIndex, QgramInvertedIndex
from repro.parallel import ParallelNNEngine
from repro.run import RunConfig, RunContext, RunStats

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Record",
    "Relation",
    "DEParams",
    "SizeCut",
    "DiameterCut",
    "CombinedCut",
    "DEResult",
    "DuplicateEliminator",
    "Partition",
    "NNRelation",
    "estimate_sn_threshold",
    "DistanceFunction",
    "EditDistance",
    "CosineDistance",
    "FuzzyMatchDistance",
    "TokenJaccardDistance",
    "JaroWinklerDistance",
    "BruteForceIndex",
    "QgramInvertedIndex",
    "MinHashIndex",
    "ParallelNNEngine",
    "RunConfig",
    "RunContext",
    "RunStats",
    "StagedPipeline",
    "deduplicate",
    "IncrementalDeduplicator",
    "explain_pair",
    "merge_partition",
]


def __getattr__(name):
    # StagedPipeline loads lazily (repro.run defers its pipeline module
    # to keep the core <-> run import graph acyclic at load time).
    if name == "StagedPipeline":
        from repro.run.pipeline import StagedPipeline

        return StagedPipeline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def deduplicate(relation, k=5, c=4.0, agg="max", distance=None):
    """One-call convenience API: solve ``DE_S(K)`` with sane defaults.

    Parameters
    ----------
    relation:
        A :class:`Relation` (see :meth:`Relation.from_strings` /
        :meth:`Relation.from_rows` for easy construction).
    k:
        Maximum duplicate-group size.
    c:
        Sparse-neighborhood threshold (see
        :func:`repro.core.estimate_sn_threshold` to derive it from an
        estimated duplicate fraction).
    agg:
        SN aggregation: ``"max"``, ``"avg"``, or ``"max2"``.
    distance:
        Distance function; default is :class:`FuzzyMatchDistance`.

    Returns
    -------
    DEResult
        ``result.duplicate_groups`` holds the detected groups.
    """
    solver = DuplicateEliminator(distance or FuzzyMatchDistance())
    return solver.run(relation, DEParams.size(k, agg=agg, c=c))
