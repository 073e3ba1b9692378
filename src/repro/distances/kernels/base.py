"""Batch kernel protocol sitting beneath ``DistanceFunction``.

A kernel is a relation-bound evaluator built once by
``DistanceFunction.make_kernel(relation)`` after ``prepare()``.  It
answers two batch shapes:

* ``block(query_rids)`` — a dense ``(len(query_rids), n)`` numpy
  float64 matrix of distances against *every* record in the relation,
  in the kernel's row order (``rids``).  This feeds the
  ``BruteForceIndex`` batch paths.
* ``pairs(query_rid, rids)`` — distances from one query to an explicit
  candidate list, feeding the approximate indexes' verification step.

Kernels must be *bit-identical* to their scalar counterpart: each
distance module fixes one canonical floating-point summation order and
implements it on both sides.  Kernels count their own work in
``evaluations`` (reported as ``kernel_evaluations`` upstream) and never
touch the per-pair cache.

Kernels only serve records that belong to the prepared relation;
``rid in kernel`` gates every call so out-of-relation records fall
back to the scalar path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence


class DistanceKernel(ABC):
    """Relation-bound batch distance evaluator."""

    #: Which backend computed the distances ("numpy" for all current
    #: kernels); surfaced in bench output and run stats.
    backend: str = "numpy"

    #: Number of pair distances this kernel has computed (a distance
    #: served from a kernel-side memo is not counted again).
    evaluations: int = 0

    #: Smallest candidate-list size worth routing through ``pairs``;
    #: kernels whose per-query cost is O(n) regardless of list length
    #: (the bincount row kernels) set this above 1 so tiny verification
    #: lists stay on the cheaper scalar path.
    pairs_min: int = 1

    @property
    @abstractmethod
    def rids(self) -> list[int]:
        """Record ids in kernel row order (ascending)."""

    @abstractmethod
    def __contains__(self, rid: int) -> bool:
        """Whether ``rid`` is served by this kernel."""

    @abstractmethod
    def block(self, query_rids: Sequence[int]):
        """Dense distance block: rows = queries, columns = ``rids``."""

    @abstractmethod
    def pairs(self, query_rid: int, rids: Sequence[int]) -> list[float]:
        """Distances from one in-relation query to candidate ``rids``."""
