"""The NN relation: Phase 1 output (paper's ``NN_Reln[ID, NN-List, NG]``).

Each record has an ordered nearest-neighbor list and a neighborhood
growth ``ng``.  For the size specification ``DE_S(K)`` the list holds
the K nearest others; for the diameter specification ``DE_D(θ)`` it
holds all others within θ.

A batch Phase 1 hands its answers over as columns: the chunk engine
concatenates each chunk's :class:`~repro.index.base.Phase1Batch` into
one :class:`NNRelation` holding ascending rids, a CSR of neighbour rids
and distances, and the NGs (:meth:`NNRelation.from_batches`).  The
CSPairs join (:func:`repro.core.cspairs.build_cs_pairs`) and the engine
rows (:meth:`NNRelation.as_rows`) read those columns directly.  An
:class:`NNEntry` (with its :class:`~repro.index.base.Neighbor` objects)
is built only when a consumer asks for one (``get``, iteration); the
scalar Phase 1, serving and deserialization add entries one by one
(:meth:`NNRelation.add`).

The *i-neighbor set* of a record — the set containing the record itself
plus its ``i - 1`` nearest others — is the object the CS criterion
compares between tuple pairs: a set ``S`` of size ``m`` is compact iff
the m-neighbor sets of all its members coincide (and equal ``S``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.index.base import Neighbor, Phase1Batch

__all__ = ["NNEntry", "NNRelation", "entry_to_row", "entry_from_row"]


@dataclass(frozen=True)
class NNEntry:
    """One row of the NN relation.

    Parameters
    ----------
    rid:
        Record identifier.
    neighbors:
        Other records ordered by ``(distance, rid)``; self excluded.
    ng:
        Neighborhood growth of the record (self included, as in the
        paper's Table 1 discussion where unique tuples sit in growth-4
        neighborhoods).
    """

    rid: int
    neighbors: tuple[Neighbor, ...]
    ng: int

    @property
    def neighbor_ids(self) -> tuple[int, ...]:
        return tuple(n.rid for n in self.neighbors)

    @property
    def nn_distance(self) -> float:
        """Distance to the nearest other record (``inf`` if none)."""
        if not self.neighbors:
            return float("inf")
        return self.neighbors[0].distance

    def prefix_set(self, size: int) -> frozenset[int]:
        """The ``size``-neighbor set: self plus the ``size - 1`` nearest.

        Raises :class:`ValueError` when the stored list is too short to
        answer (callers bound ``size`` by :meth:`max_group_size`).
        """
        if size < 1:
            raise ValueError("neighbor-set size must be at least 1")
        if size - 1 > len(self.neighbors):
            raise ValueError(
                f"record {self.rid} has only {len(self.neighbors)} neighbors; "
                f"cannot form a {size}-neighbor set"
            )
        return frozenset((self.rid, *(n.rid for n in self.neighbors[: size - 1])))

    @property
    def max_group_size(self) -> int:
        """Largest group size this entry can participate in checks for."""
        return len(self.neighbors) + 1

    def contains_within_list(self, rid: int) -> bool:
        """Whether ``rid`` appears anywhere in the stored NN list."""
        return any(n.rid == rid for n in self.neighbors)


class NNRelation:
    """The materialized Phase-1 output, keyed by record id.

    It holds either entries added one by one, or the columns of a batch
    Phase 1 (:meth:`from_batches`); every accessor answers the same for
    both.  Adding an entry to a columnar relation first turns its rows
    into entries.
    """

    def __init__(self, entries: Mapping[int, NNEntry] | None = None):
        self._entries: dict[int, NNEntry] = dict(entries or {})
        #: The columnar store: ascending rids (int64) and their
        #: aligned batch; ``None`` while the relation holds entries.
        self._rids = None
        self._batch: Phase1Batch | None = None
        #: rid -> row of the columnar store, built on the first probe.
        self._position: dict[int, int] | None = None

    @classmethod
    def from_batches(
        cls, parts: "Iterable[tuple[Sequence[int], Phase1Batch]]"
    ) -> "NNRelation":
        """The relation of batch answers ``(query rids, batch)``.

        Rows are put in ascending rid order; a rid answered twice raises
        :class:`ValueError`, as :meth:`add` does.
        """
        return cls._from_parts(list(parts), keep_first=False)

    @classmethod
    def union(cls, relations: "Sequence[NNRelation]") -> "NNRelation":
        """Every rid of ``relations``, with the first holder's entry
        where several relations hold one."""
        return cls._from_parts(
            [relation.columns() for relation in relations], keep_first=True
        )

    @classmethod
    def _from_parts(cls, parts: list, keep_first: bool) -> "NNRelation":
        relation = cls()
        rids = np.concatenate(
            [np.asarray(part[0], dtype=np.int64) for part in parts]
            or [np.zeros(0, dtype=np.int64)]
        )
        batch = Phase1Batch.concat([part[1] for part in parts])
        if keep_first:
            rids, rows = np.unique(rids, return_index=True)
        else:
            rows = np.argsort(rids, kind="stable")
            rids = rids[rows]
            repeated = np.flatnonzero(rids[1:] == rids[:-1])
            if len(repeated):
                raise ValueError(
                    f"duplicate NN entry for record {int(rids[repeated[0]])}"
                )
        if len(rows) != len(batch) or (np.diff(rows) != 1).any():
            batch = batch.take(rows)
        relation._rids = rids
        relation._batch = batch
        return relation

    def columns(self) -> tuple:
        """``(rids, batch)``: the ascending rids (int64) and an aligned
        :class:`~repro.index.base.Phase1Batch` of their rows.  A
        columnar relation returns its own store."""
        if self._batch is not None:
            return self._rids, self._batch
        entries = list(self)
        return (
            np.asarray([entry.rid for entry in entries], dtype=np.int64),
            Phase1Batch.from_answers(
                (entry.neighbors, entry.ng) for entry in entries
            ),
        )

    def _materialize(self) -> None:
        """Turn the columnar store into entries."""
        if self._batch is not None:
            self._entries = {entry.rid: entry for entry in self}
            self._rids = self._batch = self._position = None

    def _row(self, rid: int) -> int | None:
        if self._position is None:
            self._position = {
                other: row for row, other in enumerate(self._rids.tolist())
            }
        return self._position.get(rid)

    def add(self, entry: NNEntry) -> None:
        self._materialize()
        if entry.rid in self._entries:
            raise ValueError(f"duplicate NN entry for record {entry.rid}")
        self._entries[entry.rid] = entry

    def get(self, rid: int) -> NNEntry:
        if self._batch is None:
            return self._entries[rid]
        row = self._row(rid)
        if row is None:
            raise KeyError(rid)
        return NNEntry(
            rid=rid,
            neighbors=tuple(self._batch.neighbors(row)),
            ng=int(self._batch.ng[row]),
        )

    def __contains__(self, rid: int) -> bool:
        if self._batch is None:
            return rid in self._entries
        return self._row(rid) is not None

    def __len__(self) -> int:
        if self._batch is None:
            return len(self._entries)
        return len(self._batch)

    def __iter__(self) -> Iterator[NNEntry]:
        """Iterate entries in ascending record-id order."""
        if self._batch is None:
            return iter(sorted(self._entries.values(), key=lambda e: e.rid))
        return (
            NNEntry(rid=rid, neighbors=tuple(neighbors), ng=ng)
            for rid, (neighbors, ng) in zip(self._rids.tolist(), self._batch)
        )

    def ids(self) -> list[int]:
        if self._batch is None:
            return sorted(self._entries)
        return self._rids.tolist()

    def ng_values(self) -> list[int]:
        """All neighborhood growths (input to the SN threshold heuristic)."""
        if self._batch is None:
            return [entry.ng for entry in self]
        return self._batch.ng.tolist()

    def nn_lists(self) -> dict[int, tuple[Neighbor, ...]]:
        """id -> neighbor list mapping (used by the ``thr`` baseline)."""
        if self._batch is None:
            return {rid: entry.neighbors for rid, entry in self._entries.items()}
        return {entry.rid: entry.neighbors for entry in self}

    def as_rows(self) -> list[tuple[int, tuple[int, ...], tuple[float, ...], int]]:
        """Render as ``(ID, NN-List, Distances, NG)`` rows for the
        storage engine (see ``repro.core.cspairs.NN_RELN_SCHEMA``).

        Distances ride along so a spilled table can be read back into a
        bit-identical NN relation (:func:`repro.core.cspairs
        .nn_relation_from_table`); the CSPairs join itself only touches
        the id list.  A columnar relation renders its rows straight from
        the columns.
        """
        if self._batch is None:
            return [entry_to_row(entry) for entry in self]
        return list(self._batch.rows(self._rids.tolist()))


def entry_to_row(
    entry: NNEntry,
) -> tuple[int, tuple[int, ...], tuple[float, ...], int]:
    """One NN entry as an ``(ID, NN-List, Distances, NG)`` engine row."""
    return (
        entry.rid,
        entry.neighbor_ids,
        tuple(neighbor.distance for neighbor in entry.neighbors),
        entry.ng,
    )


def entry_from_row(row: tuple) -> NNEntry:
    """Inverse of :func:`entry_to_row` (exact, including distances)."""
    rid, neighbor_ids, distances, ng = row
    return NNEntry(
        rid=rid,
        neighbors=tuple(
            Neighbor(distance=distance, rid=other)
            for other, distance in zip(neighbor_ids, distances)
        ),
        ng=ng,
    )
