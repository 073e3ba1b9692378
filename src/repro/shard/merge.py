"""Exact cross-shard merge: union edges, re-extract only boundaries.

The merge's correctness argument rests on three facts:

1. **Shard NN entries are globally exact** — each shard queried the
   full index (:class:`~repro.shard.runner.ShardRunner`), so the union
   of shard entries *is* the unsharded ``NN_Reln`` (replicated rids
   carry identical rows).
2. **Shard CSPairs rows are a subset of the global rows** — the
   builder reads only the (global) entries and skips partners outside
   the shard, so every emitted row has the global row's exact values,
   and every mutual pair co-resident on some shard *was* emitted there.
   The only missing rows are the mutual pairs no shard held together.
   :func:`merge_partitions` concatenates the shards' NN columns into
   the global relation and rebuilds every row with the one array join
   (:func:`~repro.core.cspairs.build_cs_pairs`); the rows no shard
   emitted are counted as the cross-shard rows.
3. **Groups never span mutual-NN components**
   (:func:`~repro.core.partitioner.mutual_components`), so group
   extraction over the merged rows decomposes per component.  A
   component wholly contained in one shard's member set is **clean**:
   that shard saw exactly the component's global rows, so its groups
   are reused verbatim.  Everything else is a **boundary** component
   and is re-extracted by the same anchor scan the partitioner runs —
   the only recomputation the merge performs.

Containment in a *single* shard is the criterion, not "no cross-shard
rows were added": with members ``{a, b}`` / ``{b, c}`` and global rows
``(a, b), (b, c)``, the second shard would extract ``{b, c}`` while the
global scan (anchors ascending) assigns ``b`` to ``a``'s group — no
reconstructed row distinguishes the two, but only a shard holding all
of ``{a, b, c}`` can witness the component's true row set.

The ``shard-merge-parity`` verify check
(:mod:`repro.verify.shard`) proves the end result: merged partition
checksum-identical to the unsharded reference across all three cut
specifications and both kernel backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.cspairs import CSPair, build_cs_pairs
from repro.core.formulation import DEParams
from repro.core.neighborhood import NNRelation
from repro.core.partitioner import (
    _scan_groups,
    _with_singletons,
    iter_anchor_groups,
    mutual_components,
)
from repro.core.result import Partition
from repro.shard.plan import ShardPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.runner import ShardOutcome

__all__ = ["MergeResult", "merge_partitions"]


@dataclass
class MergeResult:
    """The merged global view plus the merge's own telemetry."""

    #: The exact global NN relation (union of shard entries).
    nn_relation: NNRelation
    #: The exact global CSPairs rows, ``(id1, id2)``-sorted.
    cs_pairs: list[CSPair]
    partition: Partition
    n_components: int
    #: Components not contained in any single shard (re-extracted).
    n_boundary_components: int
    #: Components whose witness shard's groups were reused verbatim.
    n_reused_components: int
    #: Global CSPairs rows no shard emitted (the cross-shard rows).
    n_cross_pairs: int

    def to_dict(self) -> dict:
        return {
            "n_components": self.n_components,
            "n_boundary_components": self.n_boundary_components,
            "n_reused_components": self.n_reused_components,
            "n_cross_pairs": self.n_cross_pairs,
            "n_cs_pairs": len(self.cs_pairs),
        }


def merge_partitions(
    plan: ShardPlan,
    outcomes: "Sequence[ShardOutcome]",
    ids: Iterable[int],
    params: DEParams,
) -> MergeResult:
    """Union per-shard results into the exact global partition.

    ``ids`` is the full relation's id universe (records claimed by no
    group close as singletons, exactly as in the unsharded scan).
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.shard_id)

    # 1. The exact global NN relation, the shards' columns concatenated:
    #    first writer wins (duplicates across shards are identical by
    #    the global-query invariant).
    nn_relation = NNRelation.union(
        [outcome.nn_relation for outcome in ordered]
    )

    # 2. Every global row from the one join; the rows no shard emitted
    #    are the cross-shard ones.
    merged = build_cs_pairs(nn_relation, params)
    emitted = set().union(*(outcome.cs_keys for outcome in ordered))
    n_cross = sum((pair.id1, pair.id2) not in emitted for pair in merged)

    # 3. Per-component extraction: reuse clean components' groups from
    #    their witness shard, re-scan boundary components.
    member_sets = [frozenset(members) for members in plan.members]
    group_of: dict[int, dict[int, tuple[int, ...]]] = {}
    for outcome in ordered:
        owner: dict[int, tuple[int, ...]] = {}
        for group in outcome.groups:
            frozen = tuple(group)
            for rid in frozen:
                owner[rid] = frozen
        group_of[outcome.shard_id] = owner

    groups: list[list[int]] = []
    components = mutual_components(merged)
    n_boundary = 0
    n_reused = 0
    for component in components:
        component_rids: set[int] = set()
        for row in component:
            component_rids.add(row.id1)
            component_rids.add(row.id2)
        witness = next(
            (
                shard_id
                for shard_id, members in enumerate(member_sets)
                if component_rids <= members
            ),
            None,
        )
        if witness is None:
            n_boundary += 1
            groups.extend(
                _scan_groups(iter_anchor_groups(component), params)
            )
        else:
            n_reused += 1
            owner = group_of.get(witness, {})
            seen: set[int] = set()
            for rid in sorted(component_rids):
                group = owner.get(rid)
                if group is not None and group[0] not in seen:
                    seen.add(group[0])
                    groups.append(list(group))

    return MergeResult(
        nn_relation=nn_relation,
        cs_pairs=merged,
        partition=_with_singletons(groups, ids),
        n_components=len(components),
        n_boundary_components=n_boundary,
        n_reused_components=n_reused,
        n_cross_pairs=n_cross,
    )
