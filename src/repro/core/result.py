"""Partition and group types shared by the DE solver and baselines.

A duplicate-elimination result is a *partition* of the relation's record
ids into groups; singleton groups mean "no duplicate found".  The class
stores a canonical form (each group sorted by id, groups sorted by their
minimum id) so that equality comparisons — used heavily by the
uniqueness / scale-invariance / consistency property tests — are
structural.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["Partition"]


@dataclass(frozen=True)
class Partition:
    """An immutable partition of record ids into groups."""

    groups: tuple[tuple[int, ...], ...]
    #: rid -> the group holding it.
    _owner: dict[int, tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        seen: dict[int, tuple[int, ...]] = {}
        for group in self.groups:
            for rid in group:
                if rid in seen:
                    raise ValueError(f"record {rid} appears in two groups")
                seen[rid] = group
        self._owner.update(seen)

    @classmethod
    def _trusted(
        cls,
        groups: tuple[tuple[int, ...], ...],
        owner: dict[int, tuple[int, ...]],
    ) -> "Partition":
        """A partition taken as given, without validation: ``groups``
        must already be canonical and disjoint, and ``owner`` map each
        of their records to its group.  For a caller that maintains
        both (the incremental layer), so building one reads no record
        in Python."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "groups", groups)
        object.__setattr__(partition, "_owner", owner)
        return partition

    @classmethod
    def from_groups(cls, groups: Iterable[Iterable[int]]) -> "Partition":
        """Build a partition in canonical form from arbitrary groups."""
        canonical = sorted(
            (tuple(sorted(set(group))) for group in groups if group),
            key=lambda g: g[0],
        )
        return cls(groups=tuple(canonical))

    @classmethod
    def singletons(cls, rids: Iterable[int]) -> "Partition":
        """The all-singletons partition (no duplicates anywhere)."""
        return cls.from_groups([[rid] for rid in rids])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def group_of(self, rid: int) -> tuple[int, ...]:
        """Return the group containing ``rid``."""
        return self._owner[rid]

    def checksum(self) -> str:
        """A deterministic digest of the canonical groups.

        Two partitions share a checksum iff they are structurally equal
        (the stored form is canonical), which is how the benchmarks and
        the incremental-parity verify check phrase "bit-identical".
        """
        digest = hashlib.sha256()
        for group in self.groups:
            digest.update(repr(tuple(group)).encode())
        return digest.hexdigest()

    def ids(self) -> list[int]:
        """All record ids covered by the partition."""
        return sorted(self._owner)

    def non_trivial_groups(self) -> list[tuple[int, ...]]:
        """Groups of size at least 2 (the reported duplicates)."""
        return [group for group in self.groups if len(group) >= 2]

    def duplicate_pairs(self) -> set[tuple[int, int]]:
        """All unordered within-group pairs, as ``(min_id, max_id)``.

        This is the unit the paper's precision/recall metrics count.
        """
        pairs: set[tuple[int, int]] = set()
        for group in self.groups:
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    pairs.add((a, b))
        return pairs

    def same_group(self, a: int, b: int) -> bool:
        """Return whether two ids share a group."""
        group = self._owner.get(a)
        return group is not None and group == self._owner.get(b)

    # ------------------------------------------------------------------
    # Relations between partitions
    # ------------------------------------------------------------------

    def refines(self, other: "Partition") -> bool:
        """True if every group of ``self`` is contained in a group of ``other``."""
        for group in self.groups:
            try:
                container = set(other.group_of(group[0]))
            except KeyError:
                return False
            if not set(group).issubset(container):
                return False
        return True

    def is_union_of_groups(self, group: Iterable[int], other: "Partition") -> bool:
        """True if ``group`` equals a union of whole groups of ``other``."""
        members = set(group)
        covered: set[int] = set()
        for rid in members:
            try:
                other_group = set(other.group_of(rid))
            except KeyError:
                return False
            if not other_group.issubset(members):
                return False
            covered |= other_group
        return covered == members

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def __contains__(self, rid: int) -> bool:
        return rid in self._owner
