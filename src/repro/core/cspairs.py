"""CSPairs construction — first step of Phase 2 (paper section 4.2).

For every *mutual* pair in the NN relation (each appears in the other's
NN-list; ``ID1 < ID2``), compute the boolean vector ``[CS2, .., CSm]``
where ``CSi`` says whether the two records' i-neighbor sets are equal.
The paper materializes this as a SQL *select into* over a self-join of
``NN_Reln``; we provide both a direct in-memory builder and an
engine-backed builder that issues the same logical plan against the
storage layer (self-join via an id hash index, then ``ORDER BY ID1``).

The in-memory builder is the same set-oriented join over arrays: it
reads the NN relation's columns (ascending rids, a CSR of neighbour
rids, NGs), finds the mutual pairs with one sorted-key lookup and
computes every flag from ranks and a running maximum, without a
per-pair Python loop.  :func:`prefix_equal_flags` stays the scalar
reference; serving and ``explain`` use it per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

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
    "scalar_cs_pairs",
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
    """Direct (in-memory) CSPairs construction, sorted by ``(id1, id2)``:
    one array join over the relation's columns
    (:meth:`~repro.core.neighborhood.NNRelation.columns`, see
    :func:`_join_columns`).  NN lists may name rids outside the relation
    (a shard's sub-relation): such partners have no row and yield no
    pair.  ``pair_filter`` (e.g.
    :class:`repro.core.constraints.RelationPairFilter`) drops mutual
    pairs the constraints forbid — the inline constraint mode's
    join-time discharge; the join asks its ``allowed(ids1, ids2)``
    method about all mutual pairs in one call.  ``stats`` (a
    :class:`~repro.run.stats.Phase2Stats`, duck-typed) accumulates how
    many pairs the filter dropped.
    """
    pairs, filtered = _join_columns(*nn_relation.columns(), params, pair_filter)
    if stats is not None:
        stats.pairs_filtered += filtered
    return pairs


def scalar_cs_pairs(nn_relation: NNRelation, params: DEParams) -> list[CSPair]:
    """CSPairs pair by pair through :func:`prefix_equal_flags`, sorted
    by ``(id1, id2)``: the scalar reference for the array join, which
    the runtime verifier re-derives the pipeline's rows from."""
    return _join_rows(nn_relation.as_rows(), params)


def _join_rows(rows, params: DEParams) -> list[CSPair]:
    """The join pair by pair over ``(ID, NN-List, Distances, NG)`` rows."""
    lists = {row[0]: (row[1], row[3]) for row in rows}
    pairs: list[CSPair] = []
    for rid, (ids, ng) in lists.items():
        for other_id in ids[: nn_list_limit(params, len(ids))]:
            other = lists.get(other_id)
            if other_id <= rid or other is None:
                continue
            other_ids, other_ng = other
            if rid not in other_ids[: nn_list_limit(params, len(other_ids))]:
                continue  # not mutual
            max_m = max_pair_size(len(ids), len(other_ids), params)
            flags = prefix_equal_flags(rid, ids, other_id, other_ids, max_m)
            pairs.append(CSPair(rid, other_id, ng, other_ng, flags))
    pairs.sort(key=lambda pair: (pair.id1, pair.id2))
    return pairs


def _join_columns(
    rids, batch, params: DEParams, pair_filter
) -> tuple[list[CSPair], int]:
    """The CSPairs self-join over the NN relation's columns.

    1. The directed edges ``a -> x`` within each list's limit, with the
       rank of ``x`` in ``a``'s list, keyed by ``(row of a, code of x)``
       and sorted once: every "where is ``x`` in ``b``'s list" question
       is one ``searchsorted`` on those keys.  A rid with a row codes as
       its row, any other rid (a partner outside a shard's relation) as
       a code above every row.
    2. The mutual pairs: edges with ``a < b``, ``b`` a row of the
       relation, and the key ``(b, a)`` present.
    3. For ``m = 2..max_m`` with ``t = m - 2``, the m-neighbor sets of
       duplicate-free lists ``A`` and ``B`` are equal iff every member
       of ``{a} ∪ A[:t+1]`` lies in ``{b} ∪ B[:t+1]``: iff
       ``max(rank of a in B, max over p <= t of need(A[p])) <= t``,
       where ``need(b) = -1`` and ``need(x)`` is ``x``'s rank in ``B``.
       A running maximum over each pair's ``max_m - 1`` members gives
       every flag, so scratch is ``O(Σ max_m)`` however long the lists.
       Pairs touching a list that repeats a rid or names its own record
       take :func:`prefix_equal_flags`.
    """
    indptr, neighbors, ng = batch.indptr, batch.rids, batch.ng
    n = len(rids)
    lengths = np.diff(indptr)
    k = params.cut.k if isinstance(params.cut, (SizeCut, CombinedCut)) else None
    limit = lengths if k is None else np.minimum(lengths, k)

    # 1. Directed edges within the limits, their codes and sorted keys.
    first_edge = np.cumsum(limit) - limit
    src = np.repeat(np.arange(n, dtype=np.int64), limit)
    rank = np.arange(len(src), dtype=np.int64) - first_edge[src]
    partner = neighbors[indptr[:-1][src] + rank]
    universe = np.concatenate((rids, partner))
    lo = int(universe.min()) if len(universe) else 0
    span = int(universe.max()) - lo + 1 if len(universe) else 0
    if span > 8 * len(universe) + 1024:
        # Sparse rids: rank them first so the code table stays small.
        universe = np.unique(universe, return_inverse=True)[1]
        lo, span = 0, int(universe.max()) + 1
    offset = universe - lo
    code = np.full(span, -1, dtype=np.int64)
    code[offset[:n]] = np.arange(n, dtype=np.int64)
    code = code[offset[n:]]
    outside = code < 0
    code[outside] = n + offset[n:][outside]
    width = n + span
    keys = src * width + code
    key_order = np.argsort(keys, kind="stable")
    sorted_keys = keys[key_order]

    def rank_in(probe):
        """Rank of each probed ``(row, code)`` edge, or -1."""
        at = np.minimum(np.searchsorted(sorted_keys, probe), len(keys) - 1)
        return np.where(sorted_keys[at] == probe, rank[key_order[at]], -1)

    # 2. Mutual pairs a < b, ``b`` a row of the relation.
    forward = np.flatnonzero(~outside & (partner > rids[src]))
    back = rank_in(code[forward] * width + src[forward])
    edges = forward[back >= 0]
    back = back[back >= 0]
    row_a, row_b = src[edges], code[edges]
    filtered = 0
    if pair_filter is not None and len(edges):
        keep = pair_filter.allowed(rids[row_a], rids[row_b])
        filtered = len(edges) - int(keep.sum())
        row_a, row_b, back = row_a[keep], row_b[keep], back[keep]
    order = np.lexsort((row_b, row_a))
    row_a, row_b, back = row_a[order], row_b[order], back[order]

    # 3. Flags from each member's rank in the partner's list.
    flag_count = np.minimum(lengths[row_a], lengths[row_b])
    if k is not None:
        flag_count = np.minimum(flag_count, max(k - 1, 0))
    cap = int(flag_count.max()) if len(flag_count) else 0
    pair = np.repeat(np.arange(len(row_a), dtype=np.int64), flag_count)
    t = np.arange(len(pair), dtype=np.int64) - np.repeat(
        np.cumsum(flag_count) - flag_count, flag_count
    )
    member = code[first_edge[row_a][pair] + t]
    partner_row = row_b[pair]
    need = rank_in(partner_row * width + member)
    need = np.where(need < 0, cap, np.minimum(need, cap))
    need[member == partner_row] = -1
    need = np.maximum(need, np.minimum(back, cap)[pair])
    stride = cap + 2
    flags = (
        np.maximum.accumulate(need + pair * stride) - pair * stride <= t
    ).tolist()

    # Lists that repeat a rid or name their own record.
    irregular = np.zeros(n, dtype=bool)
    irregular[src[code == src]] = True
    irregular[src[key_order[1:][sorted_keys[1:] == sorted_keys[:-1]]]] = True

    id_a, id_b = rids[row_a].tolist(), rids[row_b].tolist()
    ng_a, ng_b = ng[row_a].tolist(), ng[row_b].tolist()
    ends = np.cumsum(flag_count).tolist()
    flag_rows = [
        tuple(flags[end - count : end])
        for end, count in zip(ends, flag_count.tolist())
    ]
    pairs = list(map(CSPair, id_a, id_b, ng_a, ng_b, flag_rows))
    for i in np.flatnonzero(irregular[row_a] | irregular[row_b]).tolist():
        a, b = int(row_a[i]), int(row_b[i])
        list_a = tuple(neighbors[indptr[a] : indptr[a + 1]].tolist())
        list_b = tuple(neighbors[indptr[b] : indptr[b + 1]].tolist())
        max_m = max_pair_size(len(list_a), len(list_b), params)
        pairs[i] = CSPair(
            id_a[i], id_b[i], ng_a[i], ng_b[i],
            prefix_equal_flags(id_a[i], list_a, id_b[i], list_b, max_m),
        )
    return pairs, filtered


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
