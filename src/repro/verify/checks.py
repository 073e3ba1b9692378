"""Invariant checks over a finished DE run.

Each check inspects one paper-defined property of a
:class:`~repro.core.pipeline.DEResult` against the relation, distance
function, and parameters it was produced from, and returns a
:class:`~repro.verify.report.CheckResult`:

- ``partition`` — partition well-formedness: every relation id in
  exactly one group, no foreign ids, no empty groups;
- ``compact-set`` — every non-trivial group satisfies the section-2
  compact-set criterion (each member's mutual-NN closure) by brute
  force over the whole relation;
- ``sn-bound`` — every non-trivial group satisfies ``AGG({ng}) < c``
  under the configured aggregate, using the NG values the run stored;
- ``cut-spec`` — every group honors the size and/or diameter bound;
- ``cspairs`` — the CSPairs rows are consistent with the NN relation
  (mutuality, NG echoes, prefix-set flags), and every emitted group is
  supported by its anchor rows;
- ``maximality`` — no two output groups merge into a set that would
  still satisfy compactness, SN, and the cut (the solution really is
  the minimum-number-of-groups partition);
- ``nn-parity`` — NN-list and NG spot-checks of a sampled subset
  against a freshly built :class:`~repro.index.bruteforce
  .BruteForceIndex` (catches approximate-index drift);
- ``reproducible`` — re-partitioning the re-derived CSPairs rows
  reproduces the stored partition bit-for-bit.

Checks never raise on invariant violations — they collect them — so a
single verification pass reports every breach at once.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.criteria import aggregate, group_diameter
from repro.core.cspairs import (
    CSPair,
    nn_list_limit,
    scalar_cs_pairs,
)
from repro.core.formulation import DEParams
from repro.core.partitioner import partition_records, rows_by_anchor
from repro.core.pipeline import DEResult
from repro.data.schema import Relation
from repro.distances.base import DistanceFunction
from repro.index.bruteforce import BruteForceIndex
from repro.verify.report import CheckResult, Violation

__all__ = [
    "VerificationContext",
    "check_partition",
    "check_compact_sets",
    "check_sn_bound",
    "check_cut_spec",
    "check_cspairs",
    "check_maximality",
    "check_nn_parity",
    "check_reproducible",
]

#: Absolute tolerance for distance comparisons recomputed through a
#: second code path (floating-point, not semantic, differences).
DISTANCE_TOLERANCE = 1e-9


@dataclass
class VerificationContext:
    """Everything the checks need about one DE run.

    ``cs_pairs`` is the run's *actual* Phase-2 rows when the pipeline
    kept them (``DuplicateEliminator(verify=...)`` does); the context
    always re-derives a reference row set from the NN relation, so the
    CSPairs check works — more shallowly — even without them.
    """

    result: DEResult
    relation: Relation
    distance: DistanceFunction | None = None
    params: DEParams | None = None
    cs_pairs: list[CSPair] | None = None
    #: How many records the NN spot-check samples.
    sample: int = 8
    seed: int = 0
    #: The run's radius function override, if any (affects NG parity).
    radius_fn: Callable[[float], float] | None = None
    _reference_pairs: list[CSPair] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.params is None:
            self.params = self.result.params
        if self.cs_pairs is None and self.result.cs_pairs is not None:
            self.cs_pairs = self.result.cs_pairs

    @property
    def reference_pairs(self) -> list[CSPair]:
        """CSPairs re-derived from the NN relation by the scalar join,
        independent of the array join that built the run's rows
        (cached)."""
        if self._reference_pairs is None:
            self._reference_pairs = scalar_cs_pairs(
                self.result.nn_relation, self.params
            )
        return self._reference_pairs

    # Convenience accessors -------------------------------------------

    @property
    def partition(self):
        return self.result.partition

    @property
    def nn_relation(self):
        return self.result.nn_relation


# ----------------------------------------------------------------------
# Partition well-formedness
# ----------------------------------------------------------------------


def check_partition(ctx: VerificationContext) -> CheckResult:
    """Every relation id appears in exactly one group; no strangers."""
    violations: list[Violation] = []
    counts: Counter[int] = Counter()
    for group in ctx.partition.groups:
        if not group:
            violations.append(
                Violation("partition", (), "empty group in partition")
            )
        counts.update(group)
    universe = set(ctx.relation.ids())
    for rid, count in sorted(counts.items()):
        if count > 1:
            violations.append(
                Violation(
                    "partition",
                    (rid,),
                    f"record {rid} appears in {count} groups",
                )
            )
        if rid not in universe:
            violations.append(
                Violation(
                    "partition",
                    (rid,),
                    f"record {rid} is not in the relation",
                )
            )
    for rid in sorted(universe - set(counts)):
        violations.append(
            Violation(
                "partition",
                (rid,),
                f"record {rid} of the relation is missing from the partition",
            )
        )
    return CheckResult.from_violations(
        "partition", len(ctx.partition.groups), violations,
        detail=f"{len(universe)} records",
    )


# ----------------------------------------------------------------------
# Compact-set criterion
# ----------------------------------------------------------------------


def _compactness_witness(
    relation: Relation,
    distance: DistanceFunction,
    members: list[int],
) -> tuple[int, int, float, float] | None:
    """First counterexample to the CS criterion, or None if compact.

    Returns ``(member, outsider, inside_worst, outside_distance)``: a
    group member whose farthest fellow member is farther than some
    outsider (ties broken by record id, as in the index layer).
    """
    member_set = set(members)
    for rid in members:
        record = relation.get(rid)
        inside_worst: tuple[float, int] = (-1.0, -1)
        for other_rid in members:
            if other_rid == rid:
                continue
            d = distance.distance(record, relation.get(other_rid))
            inside_worst = max(inside_worst, (d, other_rid))
        for other in relation:
            if other.rid in member_set:
                continue
            d = distance.distance(record, other)
            if (d, other.rid) < inside_worst:
                return rid, other.rid, inside_worst[0], d
    return None


def check_compact_sets(ctx: VerificationContext) -> CheckResult:
    """Every non-trivial group is a compact set (section 2, brute force)."""
    if ctx.distance is None:
        return CheckResult.skip("compact-set", "no distance function supplied")
    violations: list[Violation] = []
    groups = ctx.partition.non_trivial_groups()
    for group in groups:
        witness = _compactness_witness(ctx.relation, ctx.distance, list(group))
        if witness is not None:
            member, outsider, inside, outside = witness
            violations.append(
                Violation(
                    "compact-set",
                    group,
                    f"member {member} is closer to outsider {outsider} "
                    f"(d={outside:.6g}) than to fellow member "
                    f"(worst inside d={inside:.6g})",
                )
            )
    return CheckResult.from_violations("compact-set", len(groups), violations)


# ----------------------------------------------------------------------
# Sparse-neighborhood bound
# ----------------------------------------------------------------------


def check_sn_bound(ctx: VerificationContext) -> CheckResult:
    """Every non-trivial group satisfies ``AGG({ng}) < c``."""
    params = ctx.params
    violations: list[Violation] = []
    groups = ctx.partition.non_trivial_groups()
    for group in groups:
        missing = [rid for rid in group if rid not in ctx.nn_relation]
        if missing:
            violations.append(
                Violation(
                    "sn-bound",
                    group,
                    f"members {missing} have no NN-relation entry",
                )
            )
            continue
        growths = [float(ctx.nn_relation.get(rid).ng) for rid in group]
        value = aggregate(params.agg, growths)
        if not value < params.c:
            violations.append(
                Violation(
                    "sn-bound",
                    group,
                    f"{params.agg}(ng) = {value:g} is not below c = "
                    f"{params.c:g} (growths {sorted(growths, reverse=True)})",
                )
            )
    return CheckResult.from_violations(
        "sn-bound", len(groups), violations,
        detail=f"AGG={params.agg}, c={params.c:g}",
    )


# ----------------------------------------------------------------------
# Cut specification
# ----------------------------------------------------------------------


def check_cut_spec(ctx: VerificationContext) -> CheckResult:
    """Every group honors the size and/or diameter bound."""
    params = ctx.params
    k, theta = params.bounds
    if theta is not None and ctx.distance is None:
        return CheckResult.skip(
            "cut-spec", "diameter bound needs a distance function"
        )
    violations: list[Violation] = []
    groups = ctx.partition.non_trivial_groups()
    for group in groups:
        if k is not None and len(group) > k:
            violations.append(
                Violation(
                    "cut-spec",
                    group,
                    f"group size {len(group)} exceeds the bound K = {k}",
                )
            )
        if theta is not None:
            diameter = group_diameter(ctx.relation, ctx.distance, group)
            if diameter > theta:
                violations.append(
                    Violation(
                        "cut-spec",
                        group,
                        f"group diameter {diameter:.6g} exceeds θ = {theta:g}",
                    )
                )
    return CheckResult.from_violations(
        "cut-spec", len(groups), violations, detail=str(params.cut)
    )


# ----------------------------------------------------------------------
# CSPairs consistency
# ----------------------------------------------------------------------


def _pair_key(pair: CSPair) -> tuple[int, int]:
    return pair.id1, pair.id2


def check_cspairs(ctx: VerificationContext) -> CheckResult:
    """CSPairs rows agree with the NN relation, and groups are supported.

    The reference rows are rebuilt from the NN relation with the same
    builder Phase 2 uses.  When the run's actual rows are available they
    are compared field-by-field (mutual pairs, NG echoes, prefix-set
    flags); the stored pair count is checked either way, and every
    emitted non-trivial group must be supported by its anchor's rows at
    the group's size.
    """
    reference = {_pair_key(pair): pair for pair in ctx.reference_pairs}
    violations: list[Violation] = []
    checked = len(reference)

    if ctx.cs_pairs is not None:
        actual = {_pair_key(pair): pair for pair in ctx.cs_pairs}
        for key in sorted(set(actual) - set(reference)):
            violations.append(
                Violation(
                    "cspairs",
                    key,
                    "CSPairs row has no mutual-NN support in the NN relation",
                )
            )
        for key in sorted(set(reference) - set(actual)):
            violations.append(
                Violation(
                    "cspairs",
                    key,
                    "mutual-NN pair is missing from the CSPairs rows",
                )
            )
        for key in sorted(set(actual) & set(reference)):
            got, want = actual[key], reference[key]
            if (got.ng1, got.ng2) != (want.ng1, want.ng2):
                violations.append(
                    Violation(
                        "cspairs",
                        key,
                        f"NG echo ({got.ng1}, {got.ng2}) disagrees with the "
                        f"NN relation ({want.ng1}, {want.ng2})",
                    )
                )
            if got.flags != want.flags:
                violations.append(
                    Violation(
                        "cspairs",
                        key,
                        f"prefix-set flags {list(got.flags)} disagree with "
                        f"the NN lists ({list(want.flags)})",
                    )
                )
    elif ctx.result.stats.n_cs_pairs != len(reference):
        violations.append(
            Violation(
                "cspairs",
                (),
                f"run reports {ctx.result.stats.n_cs_pairs} CSPairs rows; "
                f"the NN relation yields {len(reference)}",
            )
        )

    # Every emitted group must be supported by its anchor's rows: the
    # partitioner's premise that m-neighbor-set equality is transitive.
    anchored = rows_by_anchor(ctx.cs_pairs or ctx.reference_pairs)
    for group in ctx.partition.non_trivial_groups():
        anchor, m = group[0], len(group)
        supporters = {
            row.id2
            for row in anchored.get(anchor, [])
            if row.supports_size(m)
        }
        unsupported = [rid for rid in group[1:] if rid not in supporters]
        if unsupported:
            violations.append(
                Violation(
                    "cspairs",
                    group,
                    f"anchor {anchor} has no size-{m} CSPairs support for "
                    f"members {unsupported}",
                )
            )
    return CheckResult.from_violations("cspairs", checked, violations)


# ----------------------------------------------------------------------
# Maximality
# ----------------------------------------------------------------------


def _adjacent_group_pairs(
    ctx: VerificationContext,
) -> Iterable[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Group pairs linked by at least one NN-list edge (merge candidates).

    Groups with no NN-list edge between them cannot have equal neighbor
    sets, so they can never merge into a compact set; this prunes the
    quadratic all-group-pairs scan down to O(n · K) candidates.
    """
    owner: dict[int, int] = {}
    for idx, group in enumerate(ctx.partition.groups):
        for rid in group:
            owner[rid] = idx
    seen: set[tuple[int, int]] = set()
    for entry in ctx.nn_relation:
        if entry.rid not in owner:
            continue
        own = owner[entry.rid]
        limit = nn_list_limit(ctx.params, len(entry.neighbors))
        for neighbor in entry.neighbors[:limit]:
            other = owner.get(neighbor.rid)
            if other is None or other == own:
                continue
            key = (min(own, other), max(own, other))
            if key in seen:
                continue
            seen.add(key)
            yield ctx.partition.groups[key[0]], ctx.partition.groups[key[1]]


def check_maximality(ctx: VerificationContext) -> CheckResult:
    """No two output groups merge into a valid compact SN set.

    The DE problem asks for the *minimum number* of groups; a pair of
    groups whose union still satisfies the compact-set, SN, and cut
    criteria means the output was not maximal.
    """
    if ctx.distance is None:
        return CheckResult.skip("maximality", "no distance function supplied")
    params = ctx.params
    k, theta = params.bounds
    violations: list[Violation] = []
    checked = 0
    for group_a, group_b in _adjacent_group_pairs(ctx):
        checked += 1
        union = sorted(group_a + group_b)
        if k is not None and len(union) > k:
            continue
        if any(rid not in ctx.nn_relation for rid in union):
            continue
        growths = [float(ctx.nn_relation.get(rid).ng) for rid in union]
        if not aggregate(params.agg, growths) < params.c:
            continue
        if theta is not None:
            if group_diameter(ctx.relation, ctx.distance, union) > theta:
                continue
        if _compactness_witness(ctx.relation, ctx.distance, union) is None:
            violations.append(
                Violation(
                    "maximality",
                    tuple(union),
                    f"groups {group_a} and {group_b} merge into a valid "
                    f"compact SN set under {params.describe()}",
                )
            )
    return CheckResult.from_violations(
        "maximality", checked, violations, detail="adjacent group pairs"
    )


# ----------------------------------------------------------------------
# NN-list parity spot-check
# ----------------------------------------------------------------------


def check_nn_parity(ctx: VerificationContext) -> CheckResult:
    """Sampled NN lists and NGs match a fresh brute-force index.

    This is the paper's section-4.1 assumption made checkable: whatever
    (possibly approximate) index produced the run, its answers on the
    sampled records must match exact brute-force semantics.
    """
    if ctx.distance is None:
        return CheckResult.skip("nn-parity", "no distance function supplied")
    ids = [rid for rid in ctx.relation.ids() if rid in ctx.nn_relation]
    if not ids:
        return CheckResult.skip("nn-parity", "no records to sample")
    size = min(ctx.sample, len(ids))
    sampled = sorted(random.Random(ctx.seed).sample(ids, size))

    params = ctx.params
    k, theta = params.bounds
    index = BruteForceIndex()
    index.build(ctx.relation, ctx.distance)
    records = [ctx.relation.get(rid) for rid in sampled]
    expected = index.phase1_batch(
        records, k=k, theta=theta, p=params.p, radius_fn=ctx.radius_fn
    )

    violations: list[Violation] = []
    for rid, (neighbors, ng) in zip(sampled, expected):
        entry = ctx.nn_relation.get(rid)
        want_ids = tuple(neighbor.rid for neighbor in neighbors)
        if entry.neighbor_ids != want_ids:
            violations.append(
                Violation(
                    "nn-parity",
                    (rid,),
                    f"NN list {list(entry.neighbor_ids)} differs from "
                    f"brute force {list(want_ids)}",
                )
            )
            continue
        drift = [
            (stored.rid, stored.distance, exact.distance)
            for stored, exact in zip(entry.neighbors, neighbors)
            if abs(stored.distance - exact.distance) > DISTANCE_TOLERANCE
        ]
        if drift:
            nid, stored_d, exact_d = drift[0]
            violations.append(
                Violation(
                    "nn-parity",
                    (rid, nid),
                    f"stored distance {stored_d:.9g} differs from exact "
                    f"{exact_d:.9g}",
                )
            )
        if entry.ng != ng:
            violations.append(
                Violation(
                    "nn-parity",
                    (rid,),
                    f"stored ng = {entry.ng} differs from brute force {ng}",
                )
            )
    return CheckResult.from_violations(
        "nn-parity", size, violations,
        detail=f"sampled {size} of {len(ids)} records",
    )


# ----------------------------------------------------------------------
# Partition reproducibility
# ----------------------------------------------------------------------


def check_reproducible(ctx: VerificationContext) -> CheckResult:
    """Re-partitioning the reference CSPairs reproduces the partition.

    Uses the *reference* rows (re-derived from the NN relation), so a
    corrupted CSPairs row set is caught by ``cspairs`` rather than
    smearing into this check.
    """
    rebuilt = partition_records(
        ctx.relation.ids(), ctx.reference_pairs, ctx.params
    )
    violations: list[Violation] = []
    if rebuilt != ctx.partition:
        ours = {group for group in ctx.partition.groups}
        theirs = {group for group in rebuilt.groups}
        for group in sorted(ours - theirs):
            violations.append(
                Violation(
                    "reproducible",
                    group,
                    "stored group is not reproduced by re-partitioning the "
                    "NN relation",
                )
            )
        for group in sorted(theirs - ours):
            violations.append(
                Violation(
                    "reproducible",
                    group,
                    "re-partitioning produces this group, absent from the "
                    "stored partition",
                )
            )
    return CheckResult.from_violations(
        "reproducible", len(ctx.partition.groups), violations
    )
