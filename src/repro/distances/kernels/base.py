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

import threading
from abc import ABC, abstractmethod
from collections.abc import Sequence

#: Guards every kernel's work counters (one short section per call).
_COUNT_LOCK = threading.Lock()


class KernelUnavailable(RuntimeError):
    """A distance function has no batch kernel implementation.

    ``kernel="auto"`` callers catch it and keep the scalar path.
    """


class DistanceKernel(ABC):
    """Relation-bound batch distance evaluator."""

    #: Which backend computed the distances ("numpy" for all current
    #: kernels); surfaced in bench output and run stats.
    backend: str = "numpy"

    #: Number of pair distances this kernel has computed (a distance
    #: served from a kernel-side memo is not counted again).
    evaluations: int = 0

    #: ``evaluations`` split by the thread that computed them.
    _shares: "dict[int, int] | None" = None

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

    def _count(self, pairs: int) -> None:
        """Add ``pairs`` computed distances to ``evaluations`` and to the
        calling thread's share of it."""
        me = threading.get_ident()
        with _COUNT_LOCK:
            self.evaluations += pairs
            if self._shares is None:
                self._shares = {}
            self._shares[me] = self._shares.get(me, 0) + pairs

    def thread_evaluations(self) -> int:
        """Pairs computed on the calling thread so far: a call's own
        work is the growth of this over the call, whatever other
        threads sharing the kernel compute meanwhile."""
        return (self._shares or {}).get(threading.get_ident(), 0)
