"""The end-to-end duplicate elimination pipeline (paper Figure 3).

:class:`DuplicateEliminator` is the stable entry point for solving DE
instances.  Since the staged-architecture refactor it is a thin facade:
the constructor's knobs build a frozen
:class:`~repro.run.config.RunConfig`, the live machinery lives on a
:class:`~repro.run.context.RunContext`, and execution is delegated to
the :class:`~repro.run.pipeline.StagedPipeline` — Phase 1, the optional
NN-relation spill, the CSPairs join, partitioning, post-processing, and
verification, each a :class:`~repro.run.stages.Stage`.

The facade guarantees:

- the historical constructor signature keeps working (every kwarg maps
  onto a ``RunConfig`` field or a context component);
- ``run`` / ``run_from_nn`` return the same :class:`DEResult` with
  bit-identical partitions to the pre-refactor pipeline on every
  execution path (in-memory, engine Phase 2, spilled NN relation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cspairs import CSPair
from repro.core.formulation import DEParams
from repro.core.neighborhood import NNRelation
from repro.core.nn_phase import LookupOrder
from repro.core.predicates import CannotLinkPredicate
from repro.core.result import Partition
from repro.data.schema import Relation
from repro.distances.base import DistanceFunction
from repro.index.base import NNIndex
from repro.run.config import RunConfig
from repro.run.stats import RunStats
from repro.storage.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.run.context import RunContext
    from repro.verify.report import VerificationReport

__all__ = ["DEResult", "DuplicateEliminator"]


@dataclass
class DEResult:
    """Everything a DE run produces.

    The NN relation is part of the result because downstream consumers
    need it: the SN threshold heuristic reuses the NG values, and the
    ``thr`` baseline induces its threshold graph from the same NN lists
    (as in the paper's experimental setup).  On a spilled run it is a
    :class:`~repro.run.spill.SpilledNNRelation` — same interface,
    answered through the storage engine's buffer pool.
    """

    partition: Partition
    nn_relation: NNRelation
    params: DEParams
    #: Unified run telemetry: per-stage wall times, Phase-1 counters,
    #: distance-cache traffic, and (for engine runs) buffer statistics.
    stats: RunStats = field(default_factory=RunStats)
    #: The Phase-2 CSPairs rows, kept when the solver is configured
    #: with ``keep_cs_pairs`` (or any ``verify`` mode) so the verifier
    #: can audit the actual rows instead of a reconstruction.
    cs_pairs: list[CSPair] | None = field(default=None, repr=False)
    #: Invariant-verification outcome, filled by
    #: ``DuplicateEliminator(verify=...)``; ``None`` when not verified.
    verification: "VerificationReport | None" = field(default=None, repr=False)

    @property
    def duplicate_groups(self) -> list[tuple[int, ...]]:
        """The non-trivial groups (reported duplicates)."""
        return self.partition.non_trivial_groups()


class DuplicateEliminator:
    """Configurable solver for DE problem instances.

    Parameters
    ----------
    distance:
        The tuple distance function (wrapped in a memo cache unless
        ``cache_distance=False``).
    index:
        NN index instance; defaults to :class:`BruteForceIndex`.  The
        index is (re)built per :meth:`run` call.  Approximate indexes
        (MinHash, q-gram, BK-tree) trade distance evaluations
        for recall — see ``docs/performance.md`` ("Choosing an index");
        the result's ``stats.phase1`` records the candidate counts and
        pruning each run actually achieved.
    engine:
        Optional storage engine.  When given (or ``use_engine=True``),
        Phase 2 executes through the engine's relational operators,
        faithfully to the paper's client-over-SQL-server architecture.
    order:
        Phase 1 lookup order (``"bf"``, ``"random"``, ``"sequential"``).
    minimal:
        Enforce minimal compact sets (off by default, as in the paper).
    cannot_link:
        Optional constraining predicate; violating groups are split.
    radius_fn:
        Optional :class:`~repro.core.radius.RadiusFunction` overriding
        the linear ``p * nn(v)`` neighborhood in the NG computation.
    n_workers:
        Phase-1 worker count.  ``1`` (default) runs the sequential
        lookup loop; more workers run the chunked parallel engine
        (:class:`~repro.parallel.engine.ParallelNNEngine`), which
        produces an identical NN relation and partition.
    pool:
        Worker pool kind for the parallel path (``"thread"`` or
        ``"process"``).
    chunk_size:
        Optional fixed chunk length for the parallel path.
    verify:
        Runtime invariant verification of every result.  ``False``
        (default) skips it; ``True`` or ``"report"`` attaches a
        :class:`~repro.verify.report.VerificationReport` to
        ``DEResult.verification`` without ever raising; ``"strict"``
        additionally raises :class:`~repro.verify.report
        .VerificationError` when any check fails.  Postprocessed runs
        (``minimal`` or ``cannot_link``) intentionally reshape groups,
        so they are checked only for partition well-formedness, the cut
        specification, and NN parity.
    keep_cs_pairs:
        Keep the Phase-2 CSPairs rows on the result (implied by any
        ``verify`` mode).
    spill:
        Stream the Phase-1 output into a storage-engine heap table
        instead of materializing it in memory (implies an engine);
        Phase 2 and partitioning read it back through the buffer pool.
    buffer_pages, page_capacity:
        Sizing for an engine the solver creates itself (ignored when an
        ``engine`` instance is passed in).
    config:
        A prebuilt :class:`~repro.run.config.RunConfig`; wins over the
        individual execution kwargs.
    """

    def __init__(
        self,
        distance: DistanceFunction,
        index: NNIndex | None = None,
        engine: Engine | None = None,
        use_engine: bool = False,
        order: LookupOrder = "bf",
        order_seed: int = 0,
        minimal: bool = False,
        cannot_link: CannotLinkPredicate | None = None,
        cache_distance: bool = True,
        radius_fn=None,
        n_workers: int = 1,
        pool: str = "thread",
        chunk_size: int | None = None,
        verify: bool | str = False,
        keep_cs_pairs: bool = False,
        spill: bool = False,
        buffer_pages: int = 256,
        page_capacity: int = 64,
        config: RunConfig | None = None,
    ):
        if config is None:
            config = RunConfig(
                order=order,
                order_seed=order_seed,
                n_workers=n_workers,
                pool=pool,
                chunk_size=chunk_size,
                use_engine=use_engine or engine is not None or spill,
                spill=spill,
                buffer_pages=buffer_pages,
                page_capacity=page_capacity,
                minimal=minimal,
                cache_distance=cache_distance,
                verify=verify,
                keep_cs_pairs=keep_cs_pairs,
            )
        # Imported lazily: repro.run.context sits above this module in
        # the import graph (it pulls in core submodules at load time).
        from repro.run.context import RunContext

        self.context: RunContext = RunContext.create(
            config,
            distance=distance,
            index=index,
            engine=engine,
            radius_fn=radius_fn,
            cannot_link=cannot_link,
        )

    # ------------------------------------------------------------------
    # Facade attributes (historical API)
    # ------------------------------------------------------------------

    @property
    def config(self) -> RunConfig:
        return self.context.config

    @property
    def distance(self) -> DistanceFunction:
        return self.context.distance

    @property
    def index(self) -> NNIndex:
        return self.context.index

    @property
    def engine(self) -> Engine | None:
        return self.context.engine

    @property
    def radius_fn(self):
        return self.context.radius_fn

    @property
    def cannot_link(self) -> CannotLinkPredicate | None:
        return self.context.cannot_link

    @property
    def order(self) -> LookupOrder:
        return self.context.config.order  # type: ignore[return-value]

    @property
    def order_seed(self) -> int:
        return self.context.config.order_seed

    @property
    def minimal(self) -> bool:
        return self.context.config.minimal

    @property
    def n_workers(self) -> int:
        return self.context.config.n_workers

    @property
    def pool(self) -> str:
        return self.context.config.pool

    @property
    def chunk_size(self) -> int | None:
        return self.context.config.chunk_size

    @property
    def verify(self) -> bool | str:
        return self.context.config.verify

    @property
    def keep_cs_pairs(self) -> bool:
        config = self.context.config
        return config.keep_cs_pairs or bool(config.verify)

    # ------------------------------------------------------------------

    def _pipeline(self):
        # Imported lazily: repro.run.pipeline imports this module.
        from repro.run.pipeline import StagedPipeline

        return StagedPipeline(self.context)

    def run(self, relation: Relation, params: DEParams) -> DEResult:
        """Solve the DE instance over ``relation``."""
        return self._pipeline().run(relation, params)

    def run_from_nn(
        self, relation: Relation, nn_relation: NNRelation, params: DEParams
    ) -> DEResult:
        """Solve Phase 2 only, over a precomputed NN relation.

        Useful for parameter sweeps that share one (expensive) Phase 1:
        the paper notes the SN threshold is not needed until Phase 2,
        and the quality benchmarks sweep ``c``/``AGG``/``K`` this way.
        """
        return self._pipeline().run_from_nn(relation, nn_relation, params)
