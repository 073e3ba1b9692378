"""First-class constraint algebra for constraint-aware deduplication.

The paper's constraining predicates (section 4.5.1) model *negative*
domain knowledge: certain tuple pairs cannot be duplicates.  This
module turns that idea into a small typed algebra that every execution
layer speaks:

- :class:`CannotLink` — two records whose values in a field *differ*
  (both non-empty) cannot be duplicates (the paper's "identical but for
  the version number" example);
- :class:`BlockKey` — a hard must-share-key predicate: records are
  duplicate candidates only when they agree exactly on the field.  Hard
  keys partition the relation into equivalence classes, so the pushdown
  planner can turn them into blocks;
- :class:`TimeWindow` — a temporal predicate: records are duplicate
  candidates only when their ISO dates in a field lie within ``days``
  of each other.  ``hard`` windows participate in block planning
  (timestamp-sorted gap splits are sound equivalence cuts); soft ones
  only filter pairs.

A *conjunction* of constraints is just a tuple — every layer evaluates
all of them (:class:`PairFilter`).  Constraints are frozen dataclasses
that serialize to plain dicts (:func:`constraint_to_dict` /
:func:`constraint_from_dict`), so they ride inside
:class:`~repro.run.config.RunConfig` and pickle across process pools.

Missing-value semantics are strict and mode-independent by design:

- ``CannotLink`` never fires when either value is empty (absence of a
  version number forbids nothing);
- ``BlockKey`` compares raw values, so empty keys form their own block;
- ``TimeWindow`` treats an unparseable or empty date as *violating*
  (the record can match nothing under the window).  Strictness is what
  keeps postprocess and pushdown semantics coincident: a lenient
  "can't evaluate, allow" rule would admit pairs in postprocess mode
  that pushdown blocking can never co-locate.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Iterable, Mapping, Sequence

import numpy as np

from repro.data.schema import Record, Relation

__all__ = [
    "BlockKey",
    "CannotLink",
    "Constraint",
    "ConstraintError",
    "PairFilter",
    "RelationPairFilter",
    "TimeWindow",
    "constraint_from_dict",
    "constraint_to_dict",
    "constraints_from_dicts",
    "constraints_to_dicts",
    "hard_constraints",
    "parse_day",
    "plan_blocks",
    "validate_constraints",
]


class ConstraintError(ValueError):
    """An invalid constraint (unknown kind, bad field, bad window)."""


def parse_day(value: str) -> int | None:
    """Parse an ISO ``YYYY-MM-DD`` date to its ordinal day, else ``None``."""
    try:
        return datetime.date.fromisoformat(value.strip()).toordinal()
    except ValueError:
        return None


@dataclass(frozen=True)
class Constraint:
    """Base class: one predicate over a named schema field."""

    #: Serialization tag; each subclass sets its own.
    kind: ClassVar[str] = ""

    field: str

    @property
    def hard(self) -> bool:
        """Hard constraints define equivalence classes the planner may
        turn into blocks; soft ones only filter pairs."""
        return False

    def validate(self, schema: Sequence[str]) -> None:
        if self.field not in schema:
            raise ConstraintError(
                f"{self.kind} constraint references field {self.field!r} "
                f"not in schema {tuple(schema)}"
            )

    def allows(self, a: Record, b: Record, schema: Sequence[str]) -> bool:
        """Convenience single-pair evaluation (tests, small groups)."""
        return PairFilter((self,), schema)(a, b)


@dataclass(frozen=True)
class CannotLink(Constraint):
    """Records with *differing* non-empty values in ``field`` cannot link."""

    kind: ClassVar[str] = "cannot-link"


@dataclass(frozen=True)
class BlockKey(Constraint):
    """Records must agree exactly on ``field`` to be duplicate candidates."""

    kind: ClassVar[str] = "block-key"

    @property
    def hard(self) -> bool:
        return True


@dataclass(frozen=True)
class TimeWindow(Constraint):
    """Records' ISO dates in ``field`` must lie within ``days`` of each other.

    ``hard`` windows additionally drive pushdown block planning: sorting
    a block by date and cutting wherever consecutive records are more
    than ``days`` apart yields sound equivalence classes (any cross-cut
    pair is separated by more than ``days``).  The cut is coarser than
    the pairwise window — records chained through intermediates can
    share a block yet violate the window pairwise — so a window always
    also acts as a pair filter, in every mode.
    """

    kind: ClassVar[str] = "time-window"

    days: int = 30
    hard_window: bool = True

    @property
    def hard(self) -> bool:
        return self.hard_window

    def validate(self, schema: Sequence[str]) -> None:
        super().validate(schema)
        if self.days < 0:
            raise ConstraintError(
                f"time-window days must be non-negative; got {self.days!r}"
            )


_KINDS: dict[str, type[Constraint]] = {
    cls.kind: cls for cls in (CannotLink, BlockKey, TimeWindow)
}


def constraint_to_dict(constraint: Constraint) -> dict[str, Any]:
    """Serialize one constraint to a plain JSON-friendly dict."""
    payload: dict[str, Any] = {"kind": constraint.kind}
    for f in fields(constraint):
        payload[f.name] = getattr(constraint, f.name)
    return payload


def constraint_from_dict(payload: Mapping[str, Any]) -> Constraint:
    """Rebuild a constraint from :func:`constraint_to_dict` output."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = _KINDS.get(kind)
    if cls is None:
        raise ConstraintError(
            f"unknown constraint kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConstraintError(f"unknown {kind} constraint keys {unknown}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConstraintError(f"invalid {kind} constraint: {exc}") from exc


def constraints_to_dicts(constraints: Iterable[Constraint]) -> tuple[dict, ...]:
    return tuple(constraint_to_dict(c) for c in constraints)


def constraints_from_dicts(payloads: Iterable[Mapping]) -> tuple[Constraint, ...]:
    return tuple(constraint_from_dict(p) for p in payloads)


def validate_constraints(
    constraints: Iterable[Constraint], schema: Sequence[str]
) -> None:
    """Check every constraint's field against ``schema`` (raises)."""
    for constraint in constraints:
        constraint.validate(schema)


def hard_constraints(
    constraints: Iterable[Constraint],
) -> tuple[Constraint, ...]:
    """The constraints eligible to drive pushdown block planning."""
    return tuple(c for c in constraints if c.hard)


class PairFilter:
    """Compiled conjunction: ``filter(a, b)`` is True when the pair is
    *allowed* by every constraint.

    Field indexes are resolved once against the schema, and date parses
    are memoized per distinct value.  Instances pickle (process-pool
    join workers ship them inside the chunk payload); the memo travels
    along, which is harmless.
    """

    def __init__(
        self, constraints: Sequence[Constraint], schema: Sequence[str]
    ) -> None:
        validate_constraints(constraints, schema)
        self.constraints = tuple(constraints)
        self.schema = tuple(schema)
        self._checks: list[tuple[str, int, int]] = []
        for constraint in self.constraints:
            idx = self.schema.index(constraint.field)
            days = constraint.days if isinstance(constraint, TimeWindow) else 0
            self._checks.append((constraint.kind, idx, days))
        self._day_memo: dict[str, int | None] = {}

    def __call__(self, a: Record, b: Record) -> bool:
        for kind, idx, days in self._checks:
            va, vb = a.fields[idx], b.fields[idx]
            if kind == "block-key":
                if va != vb:
                    return False
            elif kind == "cannot-link":
                if va and vb and va != vb:
                    return False
            else:  # time-window
                da, db = self._day(va), self._day(vb)
                if da is None or db is None or abs(da - db) > days:
                    return False
        return True

    def allowed(self, records: Sequence[Record], a, b):
        """The vectorized :meth:`__call__`: a bool mask saying whether
        each pair ``(records[a[i]], records[b[i]])`` is allowed.

        Each check's per-record column is computed once: block-key and
        cannot-link values as integer codes, dates as day ordinals
        (``nan`` when they do not parse, so every window compare fails).
        """
        ok = np.ones(len(a), dtype=bool)
        for kind, idx, days in self._checks:
            values = [record.fields[idx] for record in records]
            if kind == "time-window":
                day = np.array(
                    [self._day(value) for value in values], dtype=float
                )
                ok &= np.abs(day[a] - day[b]) <= days
                continue
            codes: dict[str, int] = {}
            code = np.array(
                [codes.setdefault(value, len(codes)) for value in values],
                dtype=np.int64,
            )
            same = code[a] == code[b]
            if kind == "cannot-link":
                # Empty values forbid nothing.
                empty = np.array([not value for value in values], dtype=bool)
                same |= empty[a] | empty[b]
            ok &= same
        return ok

    def forbids(self, a: Record, b: Record) -> bool:
        """The cannot-link view of the conjunction (postprocess split)."""
        return not self(a, b)

    def _day(self, value: str) -> int | None:
        try:
            return self._day_memo[value]
        except KeyError:
            day = parse_day(value)
            self._day_memo[value] = day
            return day


class RelationPairFilter:
    """A :class:`PairFilter` bound to a relation: evaluates *rid* pairs.

    The Phase-2 join speaks record ids, not records; this adapter
    resolves them.
    """

    def __init__(self, pair_filter: PairFilter, relation: Relation) -> None:
        self.pair_filter = pair_filter
        self.relation = relation

    def __call__(self, rid1: int, rid2: int) -> bool:
        return self.pair_filter(
            self.relation.get(rid1), self.relation.get(rid2)
        )

    def allowed(self, rids1, rids2):
        """The vectorized :meth:`__call__` over rid arrays: each distinct
        record is resolved and encoded once (:meth:`PairFilter.allowed`)."""
        rids, inverse = np.unique(
            np.concatenate((rids1, rids2)), return_inverse=True
        )
        records = [self.relation.get(rid) for rid in rids.tolist()]
        return self.pair_filter.allowed(
            records, inverse[: len(rids1)], inverse[len(rids1) :]
        )


def plan_blocks(
    relation: Relation, constraints: Sequence[Constraint]
) -> list[list[int]]:
    """Partition the relation's rids into hard-constraint blocks.

    Starts from one block per combination of ``BlockKey`` values, then
    refines each block under every hard ``TimeWindow``: sort by date
    ordinal and cut wherever consecutive records lie more than ``days``
    apart.  Records whose date fails to parse become singleton blocks
    (the strict window semantics: they match nothing).  Blocks are
    disjoint, cover the relation, and are ordered by minimum rid.
    """
    hard = hard_constraints(constraints)
    schema = relation.schema
    validate_constraints(hard, schema)
    key_indexes = [
        schema.index(c.field) for c in hard if isinstance(c, BlockKey)
    ]
    windows = [
        (schema.index(c.field), c.days)
        for c in hard
        if isinstance(c, TimeWindow)
    ]

    by_key: dict[tuple[str, ...], list[int]] = {}
    for record in relation:
        key = tuple(record.fields[idx] for idx in key_indexes)
        by_key.setdefault(key, []).append(record.rid)

    blocks = [sorted(rids) for rids in by_key.values()]
    for idx, days in windows:
        refined: list[list[int]] = []
        for block in blocks:
            dated: list[tuple[int, int]] = []
            for rid in block:
                day = parse_day(relation.get(rid).fields[idx])
                if day is None:
                    refined.append([rid])
                else:
                    dated.append((day, rid))
            dated.sort()
            current: list[int] = []
            previous: int | None = None
            for day, rid in dated:
                if previous is not None and day - previous > days:
                    refined.append(sorted(current))
                    current = []
                current.append(rid)
                previous = day
            if current:
                refined.append(sorted(current))
        blocks = refined

    return sorted((sorted(block) for block in blocks), key=lambda b: b[0])
