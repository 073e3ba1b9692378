"""Partitioning step — second step of Phase 2 (paper section 4.2).

Consume the CSPairs rows grouped by their minimum id (``Q[ID = v]`` in
the paper) and extract, for each unassigned ``v``, the largest
non-trivial compact SN set ``G_v`` that ``v`` can belong to:

- a group of size ``m`` exists under ``v`` iff exactly ``m - 1``
  partners ``w`` have equal m-neighbor sets with ``v`` (set equality is
  transitive, so the pairwise checks extend to the whole group);
- the group must satisfy the SN criterion ``AGG({ng}) < c``;
- the cut specification is honored by construction (flags are only
  computed up to ``K`` for the size spec; for the diameter spec, equal
  prefix sets of within-θ lists imply ``Diameter(G) <= θ``).

Scanning candidate sizes from largest to smallest guarantees maximality
("it cannot be extended to a larger compact SN set"); records never
claimed by any group become singletons.  The correctness argument is
the paper's: every compact SN set in the solution is grouped under its
minimum id, because its members' m-neighbor sets all equal the set
itself.

Two properties of the scan are exploited here:

- **Streaming** — the CS-group query emits rows sorted by ``(id1,
  id2)``, so :func:`partition_records` consumes them through a
  :func:`itertools.groupby` over any sorted *iterator*: one anchor's
  rows are resident at a time, never the whole relation.  A spilled
  run feeds it straight from the ``CSPairs`` heap table through the
  buffer pool.  (:func:`rows_by_anchor` still materializes the full
  ``Q[ID = v]`` dict for the runtime verifier, which genuinely needs
  random access.)
- **Components** — groups never span connected components of the
  mutual-NN graph (a compact set's members are pairwise mutual, so its
  edges all lie inside one component), so extraction over one
  component equals the global scan's slice of it
  (:func:`extract_component_groups`).  The incremental layer and the
  shard merge re-extract only the components they touched.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator, Sequence

from repro.core.criteria import aggregate
from repro.core.cspairs import CSPair
from repro.core.formulation import DEParams
from repro.core.result import Partition

__all__ = [
    "partition_records",
    "extract_group",
    "extract_component_groups",
    "iter_anchor_groups",
    "mutual_components",
    "rows_by_anchor",
]


def rows_by_anchor(cs_pairs: Sequence[CSPair]) -> dict[int, list[CSPair]]:
    """Group sorted CSPairs rows by their anchor ``id1``, as a dict.

    This materialized form of the paper's ``Q[ID = v]`` access pattern
    exists for the runtime verifier, which re-derives group support
    from the same rows and needs random access by anchor.  The
    partitioner itself streams through :func:`iter_anchor_groups`.
    """
    return {
        anchor: list(rows)
        for anchor, rows in groupby(cs_pairs, key=lambda row: row.id1)
    }


def iter_anchor_groups(
    cs_pairs: Iterable[CSPair],
) -> Iterator[tuple[int, list[CSPair]]]:
    """Stream ``(anchor, rows)`` groups from ``(id1, id2)``-sorted rows.

    Only one anchor's rows are resident at a time, so a CSPairs
    relation larger than memory can be consumed directly from its heap
    table scan.
    """
    for anchor, rows in groupby(cs_pairs, key=lambda row: row.id1):
        yield anchor, list(rows)


def extract_group(
    anchor: int,
    anchor_ng: int,
    rows: Sequence[CSPair],
    params: DEParams,
    assigned: set[int],
) -> list[int] | None:
    """Return the largest valid compact SN group under ``anchor``.

    ``rows`` are the CSPairs rows with ``id1 == anchor``.  Returns the
    sorted member list (anchor included) or ``None`` when no non-trivial
    group qualifies.
    """
    if not rows:
        return None
    max_m = max(len(row.flags) + 1 for row in rows)
    for m in range(max_m, 1, -1):
        partners = [row for row in rows if row.supports_size(m)]
        if len(partners) != m - 1:
            continue
        if any(row.id2 in assigned for row in partners):
            # Only possible under tie/approximation noise; the paper's
            # distinct-distance analysis rules it out.  Try smaller m.
            continue
        growths = [float(anchor_ng)] + [float(row.ng2) for row in partners]
        if aggregate(params.agg, growths) >= params.c:
            continue
        return sorted([anchor] + [row.id2 for row in partners])
    return None


def _scan_groups(
    anchored: Iterable[tuple[int, list[CSPair]]],
    params: DEParams,
    stats=None,
) -> list[list[int]]:
    """The paper's anchor scan over one stream of ``(anchor, rows)``.

    ``anchored`` must arrive in ascending anchor order (the CS-group
    query order); the ``assigned`` set only ever consults ids reachable
    from earlier anchors of the *same* stream, which is what makes
    per-component extraction exact.
    """
    assigned: set[int] = set()
    groups: list[list[int]] = []
    for anchor, rows in anchored:
        if stats is not None:
            stats.peak_group_rows = max(stats.peak_group_rows, len(rows))
        if anchor in assigned:
            continue
        group = extract_group(anchor, rows[0].ng1, rows, params, assigned)
        if group is not None:
            groups.append(group)
            assigned.update(group)
    return groups


def partition_records(
    ids: Iterable[int],
    cs_pairs: Iterable[CSPair],
    params: DEParams,
    stats=None,
) -> Partition:
    """Partition the relation given its (sorted) CSPairs rows.

    ``cs_pairs`` must be sorted by ``(id1, id2)`` — the output order of
    the CS-group query — and may be any iterable, including a
    streaming read of a spilled ``CSPairs`` table: consumption is a
    streaming group-by, so peak residency is one anchor's rows.
    ``ids`` is the full id universe; records claimed by no group become
    singletons.  ``stats`` (a :class:`~repro.run.stats.Phase2Stats`,
    duck-typed) records the peak anchor-group size.
    """
    groups = _scan_groups(iter_anchor_groups(cs_pairs), params, stats=stats)
    return _with_singletons(groups, ids)


# ----------------------------------------------------------------------
# Component-wise extraction (incremental repair and the shard merge)
# ----------------------------------------------------------------------


def mutual_components(cs_pairs: Sequence[CSPair]) -> list[list[CSPair]]:
    """Split CSPairs rows into connected components of the mutual-NN
    graph, preserving the global ``(id1, id2)`` row order within each.

    Components never share a compact SN group: every group is a clique
    of mutual pairs, so all of its CSPairs edges lie inside one
    component.  That makes per-component extraction independent.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for row in cs_pairs:
        union(row.id1, row.id2)

    components: dict[int, list[CSPair]] = {}
    for row in cs_pairs:
        components.setdefault(find(row.id1), []).append(row)
    # Keyed by each component's minimum id; dict order follows first
    # appearance, which is already ascending-minimum for sorted input.
    return list(components.values())


def extract_component_groups(
    component: Sequence[CSPair], params: DEParams
) -> list[list[int]]:
    """Run the anchor scan over one mutual-NN component's sorted rows.

    Exactly the slice of the global scan that touches this component —
    the component argument above makes the concatenation over
    components equal the global result.  The incremental layer leans
    on this for bounded repair: a component whose rows did not change
    yields the same groups, so only touched components need
    re-extraction.
    """
    return _scan_groups(iter_anchor_groups(component), params)


def _with_singletons(
    groups: list[list[int]], ids: Iterable[int]
) -> Partition:
    """Close the partition: every unclaimed record is a singleton."""
    assigned = {rid for group in groups for rid in group}
    singles = [[rid] for rid in ids if rid not in assigned]
    return Partition.from_groups(groups + singles)
