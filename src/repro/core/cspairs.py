"""CSPairs construction — first step of Phase 2 (paper section 4.2).

For every *mutual* pair in the NN relation (each appears in the other's
NN-list; ``ID1 < ID2``), compute the boolean vector ``[CS2, .., CSm]``
where ``CSi`` says whether the two records' i-neighbor sets are equal.
The paper materializes this as a SQL *select into* over a self-join of
``NN_Reln``; we provide both a direct in-memory builder and an
engine-backed builder that issues the same logical plan against the
storage layer (self-join via an id hash index, then ``ORDER BY ID1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.formulation import CombinedCut, DEParams, SizeCut
from repro.core.neighborhood import NNRelation, entry_from_row
from repro.storage.engine import Engine
from repro.storage.table import HeapTable

__all__ = [
    "CSPair",
    "max_pair_size",
    "nn_list_limit",
    "prefix_equal_flags",
    "build_cs_pairs",
    "materialize_nn_reln",
    "nn_relation_from_table",
    "build_cs_pairs_engine",
    "cs_pairs_from_table",
    "iter_cs_pairs",
]

#: Schema of the materialized CSPairs relation.
CSPAIRS_SCHEMA = ("id1", "id2", "ng1", "ng2", "flags")
#: Schema of the materialized NN relation.  The distance column exists
#: so an out-of-core (spilled) table can be read back into an exact NN
#: relation; the CSPairs self-join reads only ``id``/``nn_list``/``ng``.
NN_RELN_SCHEMA = ("id", "nn_list", "dists", "ng")


@dataclass(frozen=True)
class CSPair:
    """One CSPairs row: a mutual-NN pair and its prefix-set equalities.

    ``flags[i]`` corresponds to group size ``m = i + 2``: whether the
    (i + 2)-neighbor sets of the two records coincide.
    """

    id1: int
    id2: int
    ng1: int
    ng2: int
    flags: tuple[bool, ...]

    def supports_size(self, m: int) -> bool:
        """Whether the pair's m-neighbor sets are known to be equal."""
        index = m - 2
        return 0 <= index < len(self.flags) and self.flags[index]


def nn_list_limit(params: DEParams, n_neighbors: int) -> int:
    """How much of an NN list the cut specification lets Phase 2 read.

    Under a size bound only the first ``K`` entries are candidates; the
    diameter bound already shaped the list (all within θ), so the whole
    list is read.  Shared by the CSPairs builders, the explainer, and
    the runtime verifier so candidate visibility stays consistent.
    """
    if isinstance(params.cut, (SizeCut, CombinedCut)):
        return min(params.cut.k, n_neighbors)
    return n_neighbors


def max_pair_size(
    len1: int, len2: int, params: DEParams
) -> int:
    """Largest group size ``m`` checkable for a pair with the given
    NN-list lengths (lists exclude self)."""
    bound = min(len1 + 1, len2 + 1)
    if isinstance(params.cut, (SizeCut, CombinedCut)):
        bound = min(bound, params.cut.k)
    return bound


def prefix_equal_flags(
    id1: int,
    ids1: tuple[int, ...],
    id2: int,
    ids2: tuple[int, ...],
    max_m: int,
) -> tuple[bool, ...]:
    """Compute ``[CS2, .., CS_max_m]`` from two ordered NN-id lists.

    The i-neighbor set of a record is itself plus its ``i - 1`` nearest
    others; equality is set equality, computed incrementally.
    """
    flags: list[bool] = []
    set1: set[int] = {id1}
    set2: set[int] = {id2}
    for m in range(2, max_m + 1):
        set1.add(ids1[m - 2])
        set2.add(ids2[m - 2])
        # Growing sets of equal cardinality: equal iff same elements.
        flags.append(len(set1) == len(set2) == m and set1 == set2)
    return tuple(flags)


def build_cs_pairs(
    nn_relation: NNRelation,
    params: DEParams,
    pair_filter: Callable[[int, int], bool] | None = None,
    stats=None,
) -> list[CSPair]:
    """Direct (in-memory) CSPairs construction, sorted by ``(id1, id2)``.

    Each entry's neighbour-id tuple is read once up front; probes then
    cost one dict lookup.  NN lists may name rids outside the relation
    (a shard's sub-relation): such partners have no row and yield no
    pair.  ``pair_filter`` (a rid-pair predicate, e.g.
    :class:`repro.core.constraints.RelationPairFilter`) drops mutual
    pairs the constraints forbid — the inline constraint mode's
    join-time discharge; ``stats`` (a :class:`~repro.run.stats
    .Phase2Stats`, duck-typed) accumulates how many it dropped.
    """
    lists = {
        entry.rid: (entry.neighbor_ids, entry.ng) for entry in nn_relation
    }
    pairs: list[CSPair] = []
    filtered = 0
    for rid, (ids, ng) in lists.items():
        for other_id in ids[: nn_list_limit(params, len(ids))]:
            if other_id <= rid:
                continue
            other = lists.get(other_id)
            if other is None:
                continue
            other_ids, other_ng = other
            if rid not in other_ids[: nn_list_limit(params, len(other_ids))]:
                continue  # not mutual
            if pair_filter is not None and not pair_filter(rid, other_id):
                filtered += 1
                continue
            max_m = max_pair_size(len(ids), len(other_ids), params)
            pairs.append(
                CSPair(
                    id1=rid,
                    id2=other_id,
                    ng1=ng,
                    ng2=other_ng,
                    flags=prefix_equal_flags(
                        rid, ids, other_id, other_ids, max_m
                    ),
                )
            )
    pairs.sort(key=lambda pair: (pair.id1, pair.id2))
    if stats is not None:
        stats.pairs_filtered += filtered
    return pairs


# ----------------------------------------------------------------------
# Engine-backed path (faithful to the paper's SQL architecture)
# ----------------------------------------------------------------------


def materialize_nn_reln(
    engine: Engine, nn_relation: NNRelation, table_name: str = "NN_Reln"
) -> HeapTable:
    """Write the Phase-1 output into a heap table ``(id, nn_list, ng)``."""
    table = engine.create_table(table_name, NN_RELN_SCHEMA, replace=True)
    table.insert_many(nn_relation.as_rows())
    return table


def nn_relation_from_table(table: HeapTable) -> NNRelation:
    """Read a materialized ``NN_Reln`` table back into an NN relation.

    Exact inverse of :func:`materialize_nn_reln` — distances included —
    so a spilled run can still serve consumers that need the full
    Phase-1 output (the verifier, the ``thr`` baseline).
    """
    nn_relation = NNRelation()
    for row in table.scan():
        nn_relation.add(entry_from_row(row))
    return nn_relation


def build_cs_pairs_engine(
    engine: Engine,
    params: DEParams,
    nn_table_name: str = "NN_Reln",
    cs_table_name: str = "CSPairs",
    pair_filter: Callable[[int, int], bool] | None = None,
    stats=None,
) -> HeapTable:
    """CSPairs via the storage engine: index self-join + ORDER BY.

    Mirrors the paper's SQL: ``SELECT .. INTO CSPairs FROM NN_Reln,
    NN_Reln2 WHERE NN_Reln.ID < NN_Reln2.ID AND mutual(NN-lists)``, with
    the case-expression flag columns packed into one ``flags`` tuple,
    followed by the CS-group query ``SELECT * FROM CSPairs ORDER BY ID``.
    When the unsorted join outgrows the buffer pool, ``order_by`` runs
    its external merge sort (runs of at most one pool of rows), so an
    out-of-core run stays bounded; the unsorted intermediate is dropped
    afterwards.  ``pair_filter`` and ``stats`` behave as in
    :func:`build_cs_pairs`.
    """
    nn_table = engine.table(nn_table_name)
    id_index = engine.hash_index(nn_table, "id")
    filtered = 0

    def probe_keys(row):
        rid, nn_list, _dists, _ng = row
        limit = nn_list_limit(params, len(nn_list))
        return [other for other in nn_list[:limit] if other > rid]

    def on(left, right) -> bool:
        nonlocal filtered
        lid = left[0]
        r_list = right[1]
        if lid not in r_list[: nn_list_limit(params, len(r_list))]:
            return False  # not mutual
        if pair_filter is not None and not pair_filter(lid, right[0]):
            filtered += 1
            return False
        return True

    def project(left, right):
        lid, l_list, _l_dists, l_ng = left
        rid, r_list, _r_dists, r_ng = right
        max_m = max_pair_size(len(l_list), len(r_list), params)
        flags = prefix_equal_flags(lid, l_list, rid, r_list, max_m)
        return (lid, rid, l_ng, r_ng, flags)

    unsorted = engine.index_join(
        dest=f"{cs_table_name}_unsorted",
        schema=CSPAIRS_SCHEMA,
        outer=nn_table,
        probe_keys=probe_keys,
        index=id_index,
        on=on,
        project=project,
    )
    table = engine.order_by(
        cs_table_name, unsorted, key=lambda row: (row[0], row[1])
    )
    engine.catalog.drop_table(unsorted.name)
    if stats is not None:
        stats.pairs_filtered += filtered
    return table


def iter_cs_pairs(table: HeapTable) -> Iterator[CSPair]:
    """Stream a materialized CSPairs table as row objects.

    One page at a time through the buffer pool — the access path the
    streaming partitioner uses, so a CSPairs relation larger than the
    pool is consumed without ever being fully resident.
    """
    for row in table.scan():
        yield CSPair(
            id1=row[0], id2=row[1], ng1=row[2], ng2=row[3], flags=tuple(row[4])
        )


def cs_pairs_from_table(table: HeapTable) -> list[CSPair]:
    """Read a materialized CSPairs table back into row objects."""
    return list(iter_cs_pairs(table))
