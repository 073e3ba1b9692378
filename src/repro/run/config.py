"""Declarative run configuration (the former 15-kwarg constructor).

:class:`RunConfig` is a frozen, validated, serializable description of
*how* a DE instance should be executed: which index and distance (by
registry name), the Phase-1 lookup order and worker pool, whether
Phase 2 goes through the storage engine, whether the NN relation is
spilled out of core, and which post-processing and verification steps
run.  It deliberately excludes the *problem* (relation, ``DEParams``)
and any live machinery (built indexes, engines, caches) — those live on
:class:`~repro.run.context.RunContext`.

Configurations round-trip: ``RunConfig.from_cli_args(args)`` builds one
from the CLI namespace, ``to_dict`` / ``from_dict`` serialize it, and
``replace`` derives validated variants — the cross-path parity checks
construct all execution paths from one base config this way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.core.constraints import (
    Constraint,
    ConstraintError,
    TimeWindow,
    constraint_from_dict,
    constraints_to_dicts,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "VERIFY_MODES",
    "CONSTRAINT_MODES",
    "constraints_from_cli_args",
]

#: Accepted values of :attr:`RunConfig.verify` (see the facade docs).
VERIFY_MODES = (False, True, "report", "strict")

#: Accepted values of :attr:`RunConfig.constraint_mode`:
#: ``postprocess`` is the paper-exact reference (constraints split
#: groups after partitioning); ``pushdown`` turns hard constraints into
#: blocks and restricts Phase 1 to same-block pairs; ``inline`` filters
#: candidate pairs during the CSPairs join without re-planning.
CONSTRAINT_MODES = ("postprocess", "pushdown", "inline")

_ORDERS = ("bf", "random", "sequential")
_POOLS = ("thread", "process")
_KERNELS = ("auto", "python")


class ConfigError(ValueError):
    """An invalid run configuration (bad value or combination)."""


def constraints_from_cli_args(args: Any) -> tuple:
    """Build the constraint tuple from the shared CLI flags.

    Reads ``--cannot-link FIELD`` / ``--block-key FIELD`` (repeatable)
    and ``--time-window DAYS`` + ``--time-field FIELD``; used by both
    the ``dedup`` and ``serve`` subcommands.  Raises
    :class:`ConfigError` on inconsistent flags (the CLI's exit-2
    convention).
    """
    from repro.core.constraints import BlockKey, CannotLink

    constraints: list = []
    for field_name in getattr(args, "cannot_link", None) or ():
        constraints.append(CannotLink(field_name))
    for field_name in getattr(args, "block_key", None) or ():
        constraints.append(BlockKey(field_name))
    window = getattr(args, "time_window", None)
    time_field = getattr(args, "time_field", None)
    if window is not None:
        if not time_field:
            raise ConfigError(
                "--time-window requires --time-field FIELD (the ISO date "
                "column the window applies to)"
            )
        if window < 0:
            raise ConfigError("--time-window must be non-negative")
        constraints.append(TimeWindow(time_field, days=window))
    elif time_field:
        raise ConfigError("--time-field requires --time-window DAYS")
    return tuple(constraints)


@dataclass(frozen=True)
class RunConfig:
    """Validated, serializable execution knobs for one DE run.

    Parameters
    ----------
    distance, index:
        Registry names (see :mod:`repro.run.registry`).  A
        :class:`~repro.run.context.RunContext` built with explicit
        instances keeps these as labels only.
    order, order_seed:
        Phase-1 lookup order (``bf`` / ``random`` / ``sequential``) and
        the seed for the random order.
    n_workers, pool, chunk_size:
        Phase-1 parallelism: worker count, pool kind, and optional
        fixed chunk length (see
        :class:`~repro.parallel.engine.ParallelNNEngine`).
    use_engine:
        Run Phase 2 through the storage engine (the paper's SQL path).
    spill:
        Stream the Phase-1 output (``NN_Reln``) chunk-by-chunk into a
        storage-engine heap table instead of materializing it in
        memory; Phase 2 and partitioning then read it back through the
        buffer pool.  Requires ``use_engine``.
    buffer_pages, page_capacity:
        Storage-engine sizing (pages resident in the buffer pool, rows
        per page) for engine/spill runs.
    minimal:
        Apply the minimality refinement (paper section 4.5.2).
    cache_distance:
        Wrap the distance function in a memo cache.
    verify:
        ``False`` / ``True`` / ``"report"`` / ``"strict"`` — runtime
        invariant verification of the result (see ``repro.verify``).
    keep_cs_pairs:
        Keep the Phase-2 CSPairs rows on the result (implied by any
        ``verify`` mode).
    kernel:
        Batch-kernel selection for Phase-1 distance evaluation:
        ``auto`` (the distance's vectorized numpy kernel when it
        provides one, scalar otherwise) or ``python`` (always the
        scalar per-pair baseline).  Kernel and scalar paths produce
        bit-identical results.
    shards, shard_overlap, shards_in_flight:
        Sharded scale-out (see :mod:`repro.shard`): with ``shards > 1``
        the relation is blocked into that many overlapping LSH-band
        shards, the staged pipeline runs once per shard on a
        ``pool``-kind worker pool with at most ``shards_in_flight``
        shards resident (``None`` = all), and the per-shard partitions
        are merged exactly.  ``shard_overlap`` is the fraction of a
        shard's capacity replicated between consecutive chunks of a
        split blocking component, in ``[0, 1]``.
    """

    distance: str = "fms"
    index: str = "brute"
    order: str = "bf"
    order_seed: int = 0
    n_workers: int = 1
    pool: str = "thread"
    chunk_size: int | None = None
    use_engine: bool = False
    spill: bool = False
    buffer_pages: int = 256
    page_capacity: int = 64
    minimal: bool = False
    cache_distance: bool = True
    verify: bool | str = False
    keep_cs_pairs: bool = False
    kernel: str = "auto"
    shards: int = 1
    shard_overlap: float = 0.2
    shards_in_flight: int | None = None
    constraints: tuple = ()
    constraint_mode: str = "postprocess"

    def __post_init__(self) -> None:
        # Constraints may arrive as serialized dicts (from_dict, CLI
        # round trips); normalize to the frozen algebra objects first so
        # the rest of validation — and every consumer — sees one shape.
        normalized = []
        for entry in self.constraints:
            if isinstance(entry, Constraint):
                normalized.append(entry)
            elif isinstance(entry, Mapping):
                try:
                    normalized.append(constraint_from_dict(entry))
                except ConstraintError as exc:
                    raise ConfigError(str(exc)) from exc
            else:
                raise ConfigError(
                    f"constraints entries must be Constraint objects or "
                    f"dicts; got {entry!r}"
                )
        object.__setattr__(self, "constraints", tuple(normalized))
        if self.order not in _ORDERS:
            raise ConfigError(
                f"unknown lookup order {self.order!r}; expected one of {_ORDERS}"
            )
        if self.pool not in _POOLS:
            raise ConfigError(
                f"unknown pool kind {self.pool!r}; expected one of {_POOLS}"
            )
        if self.n_workers < 1:
            raise ConfigError("n_workers must be at least 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigError("chunk_size must be at least 1 (or None)")
        if self.buffer_pages < 1:
            raise ConfigError("buffer_pages must be at least 1")
        if self.page_capacity < 1:
            raise ConfigError("page_capacity must be at least 1")
        if self.verify not in VERIFY_MODES:
            raise ConfigError(
                f"verify must be False, True, 'report', or 'strict'; "
                f"got {self.verify!r}"
            )
        if self.spill and not self.use_engine:
            raise ConfigError(
                "spill requires the storage engine (pass use_engine=True / "
                "--engine): the NN relation is spilled into an engine table"
            )
        if self.kernel not in _KERNELS:
            raise ConfigError(
                f"unknown kernel mode {self.kernel!r}; expected one of {_KERNELS}"
            )
        if self.shards < 1:
            raise ConfigError("shards must be at least 1")
        if not 0.0 <= self.shard_overlap <= 1.0:
            raise ConfigError(
                f"shard_overlap must be within [0, 1]; got {self.shard_overlap!r}"
            )
        if self.shards_in_flight is not None:
            if self.shards_in_flight < 1:
                raise ConfigError("shards_in_flight must be at least 1 (or None)")
            if self.shards_in_flight > self.shards:
                raise ConfigError(
                    f"shards_in_flight ({self.shards_in_flight}) cannot exceed "
                    f"shards ({self.shards})"
                )
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ConfigError(
                f"unknown constraint_mode {self.constraint_mode!r}; "
                f"expected one of {CONSTRAINT_MODES}"
            )
        if (
            self.constraint_mode == "pushdown"
            and self.constraints
            and self.shards > 1
        ):
            raise ConfigError(
                "constraint pushdown plans its own blocks and cannot be "
                "combined with LSH sharding (shards > 1); use "
                "constraint_mode='postprocess' with shards, or shards=1"
            )

    # ------------------------------------------------------------------
    # Derivation and round-tripping
    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> "RunConfig":
        """A validated variant of this config (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Render as a JSON-serializable dict (inverse of :meth:`from_dict`)."""
        payload = dataclasses.asdict(self)
        # asdict recurses into the constraint dataclasses but drops
        # their class-level ``kind`` tags; serialize them explicitly.
        payload["constraints"] = list(constraints_to_dicts(self.constraints))
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected — a config that silently dropped a
        knob would run something other than what was asked for.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown RunConfig keys {unknown}")
        return cls(**dict(payload))

    @classmethod
    def from_cli_args(cls, args: Any) -> "RunConfig":
        """Build a config from an ``argparse`` namespace.

        Reads the flags the ``dedup`` subcommand defines; attributes a
        subcommand does not define fall back to the field defaults, so
        the same constructor serves every subcommand.
        """
        verify: bool | str = False
        if getattr(args, "verify", False):
            verify = "report"
        return cls(
            distance=getattr(args, "distance", cls.distance),
            index=getattr(args, "index", cls.index),
            order=getattr(args, "order", cls.order),
            order_seed=getattr(args, "order_seed", cls.order_seed),
            n_workers=getattr(args, "workers", cls.n_workers),
            pool=getattr(args, "pool", cls.pool),
            chunk_size=getattr(args, "chunk_size", None),
            use_engine=getattr(args, "engine", False) or getattr(args, "spill", False),
            spill=getattr(args, "spill", False),
            buffer_pages=getattr(args, "buffer_pages", cls.buffer_pages),
            page_capacity=getattr(args, "page_capacity", cls.page_capacity),
            minimal=getattr(args, "minimal", False),
            verify=verify,
            kernel=getattr(args, "kernel", cls.kernel),
            shards=getattr(args, "shards", cls.shards),
            shard_overlap=getattr(args, "shard_overlap", cls.shard_overlap),
            shards_in_flight=getattr(args, "shards_in_flight", None),
            constraints=constraints_from_cli_args(args),
            constraint_mode=getattr(args, "constraint_mode", cls.constraint_mode),
        )

    def describe(self) -> str:
        """A compact human-readable rendering of the non-default knobs."""
        defaults = RunConfig()
        parts = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if getattr(self, f.name) != getattr(defaults, f.name)
        ]
        return f"RunConfig({', '.join(parts)})" if parts else "RunConfig()"
