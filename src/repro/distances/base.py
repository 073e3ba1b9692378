"""Distance-function protocol and helpers.

The paper requires a symmetric distance ``d : R x R -> [0, 1]`` over
tuples.  All distance functions in this package implement
:class:`DistanceFunction`:

- ``prepare(relation)`` lets corpus-dependent functions (IDF-weighted
  cosine, fuzzy match similarity) collect statistics before any distance
  is computed — one :class:`~repro.distances.corpus.Corpus`, exposed as
  ``corpus``.  Corpus-free functions (edit distance) ignore it.
- ``distance(a, b)`` returns a value in ``[0, 1]``, ``0`` meaning
  identical.

The CS and SN criteria are *orthogonal to the choice of distance
function* (paper section 1); the DE pipeline accepts any implementation
of this protocol.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Callable, Collection, Sequence

from repro.data.schema import Record, Relation

__all__ = [
    "DistanceFunction",
    "FrozenDistance",
    "FunctionDistance",
    "CachedDistance",
    "ScaledDistance",
    "clamp01",
]


def clamp01(value: float) -> float:
    """Clamp ``value`` into the closed interval [0, 1]."""
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


class DistanceFunction(abc.ABC):
    """A symmetric, normalized distance between records."""

    #: Human-readable name used in reports and experiment indexes.
    name: str = "distance"

    #: The :class:`~repro.distances.corpus.Corpus` ``prepare`` built
    #: (token-based distances), which indexes sign from; ``None``
    #: otherwise.
    corpus = None

    def prepare(self, relation: Relation) -> None:
        """Collect corpus statistics from ``relation`` (optional hook)."""

    def make_kernel(self, relation: Relation):
        """Build a batch :class:`~repro.distances.kernels.DistanceKernel`.

        Called after :meth:`prepare` by indexes running with a kernel
        mode enabled.  The default raises
        :class:`~repro.distances.kernels.KernelUnavailable`: distances
        without a vectorized implementation simply keep the scalar
        path.  Implementations must be bit-identical to ``distance``
        for in-relation record pairs and should register the kernel via
        :meth:`_register_kernel` so ``kernel_evaluations`` reconciles.
        """
        from repro.distances.kernels import KernelUnavailable

        raise KernelUnavailable(
            f"{type(self).__name__} has no vectorized kernel"
        )

    def live_rows(self):
        """A fresh, empty index of live records that answers whole
        distance rows (``add(record)``, ``remove(rid)``, ``row(rid,
        others=None) -> (slots, distances)``, bit-identical to
        :meth:`distance`, with ``slot_of`` and ``rids`` mapping rids and
        slots), or ``None``: the serving layer then scores rows pair by
        pair.  Offered only after :meth:`prepare`.
        """
        return None

    def _register_kernel(self, kernel):
        """Track ``kernel`` so its work shows in ``kernel_evaluations``."""
        kernels = getattr(self, "_kernels", None)
        if kernels is None:
            kernels = []
            self._kernels = kernels
        kernels.append(kernel)
        return kernel

    def __getstate__(self) -> dict:
        # Registered kernels are not shipped: a process-pool worker
        # rebuilds (and re-registers) its own kernels when the index
        # re-resolves them, so the worker-side ledger starts at zero by
        # design.
        state = self.__dict__.copy()
        state.pop("_kernels", None)
        return state

    @property
    def kernel_evaluations(self) -> int:
        """Pair distances computed by kernels built from this function.

        Kernel batches bypass the per-pair cache and the scalar
        ``distance`` call counter; this is the matching ledger entry
        that keeps evaluation totals reconcilable.
        """
        return sum(k.evaluations for k in getattr(self, "_kernels", ()))

    @abc.abstractmethod
    def distance(self, a: Record, b: Record) -> float:
        """Return the distance between two records, in [0, 1]."""

    def similarity(self, a: Record, b: Record) -> float:
        """Return ``1 - distance(a, b)``."""
        return 1.0 - self.distance(a, b)

    def __call__(self, a: Record, b: Record) -> float:
        return self.distance(a, b)


class FunctionDistance(DistanceFunction):
    """Adapt a plain ``f(a, b) -> float`` callable to the protocol.

    Useful for tests and for the paper's integer example in section 3
    (absolute difference of integer values rendered as strings).
    """

    def __init__(self, func: Callable[[Record, Record], float], name: str = "custom"):
        self._func = func
        self.name = name

    def distance(self, a: Record, b: Record) -> float:
        return clamp01(self._func(a, b))


class CachedDistance(DistanceFunction):
    """Memoize an underlying distance on record-id pairs.

    Phase 1 probes the same pairs repeatedly (index candidate
    verification, NG counting); caching keeps the pure-Python
    implementation tractable at the sizes the benchmarks use.

    Without a bound the cache can grow to O(n²) entries on an n-record
    relation; ``max_entries`` caps it with cheap FIFO eviction (the
    oldest pair is dropped first).  Bounded caches store entries in an
    :class:`~collections.OrderedDict`: ``popitem(last=False)`` evicts
    in O(1), whereas popping ``next(iter(dict))`` from a plain dict
    degrades linearly — deleted slots are never compacted while the
    size stays pinned at the bound, so every eviction re-skips an
    ever-growing tombstone prefix.  Eviction only costs recomputation
    on a later probe of the evicted pair — results never change.
    :meth:`row` answers a whole distance row in one call.
    """

    def __init__(self, inner: DistanceFunction, max_entries: int | None = None):
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.inner = inner
        self.name = f"cached({inner.name})"
        self.max_entries = max_entries
        self._cache: dict[tuple[int, int], float] = (
            {} if max_entries is None else OrderedDict()
        )
        self.calls = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hits(self) -> int:
        """Number of calls served from the cache."""
        return self.calls - self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of calls served from the cache (0.0 before any call)."""
        if self.calls == 0:
            return 0.0
        return (self.calls - self.misses) / self.calls

    def __len__(self) -> int:
        return len(self._cache)

    def prepare(self, relation: Relation) -> None:
        self._cache.clear()
        self.inner.prepare(relation)

    @property
    def corpus(self):
        return self.inner.corpus

    def make_kernel(self, relation: Relation):
        # Kernels are exact replicas of the inner distance; memoizing
        # their batch output pair-by-pair would defeat the point, so
        # the wrapper passes straight through (and kernel work is
        # ledgered in ``kernel_evaluations``, not ``calls``).
        return self.inner.make_kernel(relation)

    def live_rows(self):
        # Rows from a live index never read or write the pair cache.
        return self.inner.live_rows()

    def invalidate_rid(self, rid: int, partners: Collection[int]) -> int:
        """Drop every cached pair of ``rid`` with one of ``partners``;
        returns the count.

        Record deletions make pairs with the removed id unreachable;
        dropping them keeps the cache from accumulating dead entries
        across a long-lived online session.  The incremental layer
        passes the live records, the only rids a removed record can
        share a cached pair with.  The shorter of the two is walked: one
        probe per partner, or one pass over a smaller cache (an empty
        one, when rows come from a live index, costs nothing).
        """
        cache = self._cache
        before = len(cache)
        if before < len(partners):
            mine = [b if a == rid else a for a, b in cache if rid in (a, b)]
            partners = [other for other in mine if other in partners]
        for other in partners:
            cache.pop((rid, other) if rid < other else (other, rid), None)
        return before - len(cache)

    @property
    def kernel_evaluations(self) -> int:
        return self.inner.kernel_evaluations

    def _store(self, key: tuple[int, int], value: float) -> None:
        if self.max_entries is not None and len(self._cache) >= self.max_entries:
            try:
                # Thread-pool Phase-1 workers may share this cache;
                # racing on the oldest key is harmless.
                self._cache.popitem(last=False)
            except KeyError:
                pass
            else:
                self.evictions += 1
        self._cache[key] = value

    def distance(self, a: Record, b: Record) -> float:
        self.calls += 1
        if a.rid > b.rid:
            # Canonical (lower rid first) direction: the protocol is
            # symmetric, but float accumulation inside real distances
            # need not be bit-symmetric, and a fixed direction keeps
            # results independent of which caller touches a pair first.
            a, b = b, a
        key = (a.rid, b.rid)
        cached = self._cache.get(key)
        if cached is None:
            cached = self.inner.distance(a, b)
            self._store(key, cached)
            self.misses += 1
        return cached

    def row(self, record: Record, others: Sequence[Record]) -> list[float]:
        """``distance(record, other)`` for every record of ``others``.

        One call for a whole distance row: a cached pair costs one dict
        lookup, and a miss goes straight to the inner distance in
        canonical direction, exactly as :meth:`distance` would.
        """
        get = self._cache.get
        store = self._store
        inner = self.inner.distance
        rid = record.rid
        out: list[float] = []
        append = out.append
        misses = 0
        for other in others:
            oid = other.rid
            key = (rid, oid) if rid < oid else (oid, rid)
            value = get(key)
            if value is None:
                value = inner(record, other) if rid < oid else inner(other, record)
                store(key, value)
                misses += 1
            append(value)
        self.calls += len(out)
        self.misses += misses
        return out


class FrozenDistance(DistanceFunction):
    """Delegate to an already-prepared distance; ``prepare`` is a no-op.

    Two consumers rely on pinning corpus statistics this way: the
    incremental-parity batch reference (parity is defined against the
    statistics the online session actually used), and the standalone
    per-block reference of constraint pushdown's block-parity check
    (each block must measure distances under the *global* corpus
    statistics pushdown used, or block-local IDF weights would make
    the two answers diverge).
    """

    def __init__(self, inner: DistanceFunction):
        self.inner = inner
        self.name = f"frozen({inner.name})"

    def prepare(self, relation: Relation) -> None:  # noqa: ARG002
        pass

    @property
    def corpus(self):
        return self.inner.corpus

    def make_kernel(self, relation: Relation):
        return self.inner.make_kernel(relation)

    def live_rows(self):
        return self.inner.live_rows()

    @property
    def kernel_evaluations(self) -> int:
        return self.inner.kernel_evaluations

    def distance(self, a: Record, b: Record) -> float:
        return self.inner.distance(a, b)


class ScaledDistance(DistanceFunction):
    """``alpha * d`` for a positive scale factor ``alpha``.

    Exists to exercise scale invariance (paper Lemma 2): ``DE_S(K)``
    must produce the same partition under ``d`` and ``alpha * d``.
    Values are clamped to [0, 1] only when ``alpha <= 1``; larger alphas
    raise, because clamping would destroy the scale-invariance property
    the class exists to demonstrate.
    """

    def __init__(self, inner: DistanceFunction, alpha: float):
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if alpha > 1.0:
            raise ValueError(
                "alpha > 1 would push distances out of [0, 1]; "
                "scale the complement instead"
            )
        self.inner = inner
        self.alpha = alpha
        self.name = f"{alpha}*{inner.name}"

    def prepare(self, relation: Relation) -> None:
        self.inner.prepare(relation)

    def distance(self, a: Record, b: Record) -> float:
        return self.alpha * self.inner.distance(a, b)
