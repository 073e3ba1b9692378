"""Shard planning: blocking by MinHash LSH bands.

A :class:`ShardPlan` splits the relation's rids into ``n_shards``
member sets so that records likely to be near duplicates land on the
same shard.  The blocking signal is the LSH band bucket — two records
sharing at least one band key over a 64-hash MinHash signature (the
band-key machinery of :class:`~repro.index.minhash.MinHashIndex` and
:class:`~repro.index.postings.PersistentMinHashPostings`) are
*candidates*, so the planner:

1. signs every record once and buckets rids by ``(band, key)``;
2. union-finds the buckets into **LSH components** — the transitive
   closure of candidacy, the unit that is never split voluntarily;
3. packs components onto the currently lightest shard (size-descending,
   min-rid tiebreak — the same deterministic heap rule Phase 2's
   component balancer uses);
4. splits only components larger than the per-shard capacity into
   consecutive ascending-rid chunks, prepending each chunk after the
   first with the trailing ``overlap`` fraction of its predecessor —
   the deterministic overlap rule that keeps neighboring rids of a
   split component co-resident somewhere.

The plan records its own **recall**: the fraction of LSH candidate
pairs that end up co-resident in at least one shard.  Components that
were never split contribute only co-resident pairs, so recall is 1.0
unless a component outgrew a shard; the recorded value is what
``bench-scale --min-recall`` gates.

Correctness never depends on this recall.  The sharded runner queries
the *global* index from every shard, so each NN entry is exact no
matter where its rid lives; the plan's recall only decides how much
cross-shard work the merge step has to reconstruct.

**Why 8 bands of 8 rows, not the index's 16 x 4.**  Banding tunes the
LSH S-curve threshold ``(1/b)**(1/r)``: 16 bands of 4 rows fire
around Jaccard ~0.5 — right for an index's *candidate generation*
(cheap to verify, misses nothing), wrong for *blocking*, where every
collision welds records into one transitive component.  On the Org
generator's finite vocabulary that threshold saturates: at n ≈ 106k,
16 x 4 banding fuses the whole relation into one giant component that
must be split across shards (measured co-residency recall 0.326),
while 8 bands of 8 rows (threshold ~0.77, the near-duplicate regime)
yields ~51k small components that pack whole — recall 1.000 with
perfectly balanced shards on the same input.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.constraints import plan_blocks
from repro.data.schema import Relation
from repro.distances.corpus import Corpus
from repro.index.signatures import (
    RelationSignatures,
    SignatureFactory,
    group_band_buckets,
)

__all__ = ["ShardPlan", "plan_constraint_blocks", "plan_shards"]

#: Buckets larger than this are still unioned into one component but
#: excluded from pair-level recall accounting (their pair count is
#: quadratic; membership of one bucket already forces co-residency
#: decisions at the component level).
_MAX_BUCKET_PAIR_ENUM = 512


@dataclass(frozen=True)
class ShardPlan:
    """An immutable assignment of rids to (possibly overlapping) shards."""

    n_shards: int
    overlap: float
    #: Per-shard sorted member rids.  A rid may appear on several
    #: shards (the overlap rule); every rid appears on at least one.
    members: tuple[tuple[int, ...], ...]
    #: Fraction of LSH candidate pairs co-resident in >= 1 shard.
    recall: float
    n_candidate_pairs: int
    n_coresident_pairs: int
    n_components: int
    #: Components larger than the per-shard capacity, split into chunks.
    n_split_components: int
    #: Wall time the planner spent signing the relation (building a
    #: corpus included); 0.0 when the index's signature batch was
    #: reused (or no signing was needed).
    sign_seconds: float = 0.0

    @classmethod
    def from_members(
        cls,
        members: Sequence[Sequence[int]],
        overlap: float = 0.0,
    ) -> "ShardPlan":
        """Build a plan from explicit member sets (tests, custom blocking).

        No LSH accounting is available, so the plan reports zero
        candidate pairs and recall 1.0 by convention.
        """
        shards = tuple(tuple(sorted(set(shard))) for shard in members)
        return cls(
            n_shards=len(shards),
            overlap=overlap,
            members=shards,
            recall=1.0,
            n_candidate_pairs=0,
            n_coresident_pairs=0,
            n_components=0,
            n_split_components=0,
        )

    def shards_of(self, rid: int) -> tuple[int, ...]:
        """All shard ids holding ``rid`` (ascending)."""
        return tuple(
            idx for idx, shard in enumerate(self.members) if rid in self._sets[idx]
        )

    def co_resident(self, a: int, b: int) -> bool:
        """True when some shard holds both rids."""
        return any(a in s and b in s for s in self._sets)

    @property
    def _sets(self) -> tuple[frozenset, ...]:
        sets = getattr(self, "_member_sets", None)
        if sets is None:
            sets = tuple(frozenset(shard) for shard in self.members)
            object.__setattr__(self, "_member_sets", sets)
        return sets

    def to_dict(self) -> dict:
        """Telemetry view for ``RunStats`` / bench payloads."""
        return {
            "n_shards": self.n_shards,
            "overlap": self.overlap,
            "shard_sizes": [len(shard) for shard in self.members],
            "recall": self.recall,
            "n_candidate_pairs": self.n_candidate_pairs,
            "n_coresident_pairs": self.n_coresident_pairs,
            "n_components": self.n_components,
            "n_split_components": self.n_split_components,
            "sign_seconds": self.sign_seconds,
        }


def _lsh_components(
    relation: Relation,
    n_hashes: int,
    n_bands: int,
    signatures: RelationSignatures | None = None,
    corpus: Corpus | None = None,
) -> tuple[list[list[int]], list[set[tuple[int, int]]], int, float]:
    """Union-find rids over LSH band buckets.

    Returns ``(components, component_pairs, n_skipped_buckets,
    sign_seconds)`` with components sorted internally by rid and
    ordered by (size desc, min rid asc); ``component_pairs[i]`` is the
    deduped set of bucket-co-occurrence pairs whose endpoints lie in
    component ``i``.

    ``signatures`` (an index's build output) is reused when it covers
    exactly this relation at this signature width — the planner then
    hashes nothing at all; otherwise
    :class:`~repro.index.signatures.SignatureFactory` signs ``corpus``
    (the distance's, when it covers the relation) or a corpus of the
    relation built here, timed as ``sign_seconds``.  The buckets are
    read through :meth:`~repro.index.signatures.BandGrouping.shared_buckets`,
    which both grouping layouts provide.  The component structure is
    independent of which route signed or which layout grouped: union-find
    components do not depend on bucket iteration order, and every route
    produces the very same signatures and buckets.
    """
    ids = relation.ids()
    parent: dict[int, int] = {rid: rid for rid in ids}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    sign_seconds = 0.0
    if signatures is None or not signatures.matches(ids, n_hashes):
        started = time.perf_counter()
        if corpus is None or not corpus.covers(ids):
            corpus = Corpus(relation)
        signatures = SignatureFactory(n_hashes).sign(corpus, ids)
        sign_seconds = time.perf_counter() - started
    pair_buckets: list[list[int]] = []
    n_skipped = 0
    for bucket in group_band_buckets(signatures, n_bands).shared_buckets():
        first = bucket[0]
        for other in bucket[1:]:
            ra, rb = find(first), find(other)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        if len(bucket) <= _MAX_BUCKET_PAIR_ENUM:
            pair_buckets.append(bucket)
        else:
            n_skipped += 1

    grouped: dict[int, list[int]] = {}
    for rid in ids:
        grouped.setdefault(find(rid), []).append(rid)
    components = sorted(
        (sorted(component) for component in grouped.values()),
        key=lambda c: (-len(c), c[0]),
    )

    root_to_idx = {component[0]: idx for idx, component in enumerate(components)}
    component_pairs: list[set[tuple[int, int]]] = [set() for _ in components]
    for bucket in pair_buckets:
        idx = root_to_idx[find(bucket[0])]
        pairs = component_pairs[idx]
        ordered = sorted(bucket)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                pairs.add((a, b))
    return components, component_pairs, n_skipped, sign_seconds


def _split_component(
    component: Sequence[int], cap: int, overlap: float
) -> list[list[int]]:
    """Split an oversized component into overlapping ascending chunks."""
    ov = max(1, round(overlap * cap)) if overlap > 0 else 0
    chunks: list[list[int]] = []
    for start in range(0, len(component), cap):
        chunk = list(component[start : start + cap])
        if chunks and ov:
            chunk = list(chunks[-1][-ov:]) + chunk
        chunks.append(chunk)
    return chunks


def plan_constraint_blocks(relation: Relation, constraints) -> ShardPlan:
    """Plan shards from hard-constraint equivalence blocks.

    Unlike :func:`plan_shards`, the blocking signal here is *semantic*:
    :func:`repro.core.constraints.plan_blocks` partitions the relation
    into the equivalence classes of the hard ``BlockKey`` /
    ``TimeWindow`` constraints, and each block becomes one shard.
    Blocks are disjoint (overlap 0), so the merge is a concatenation.

    Co-residency accounting records the plan's pruning power rather
    than a recall deficit: ``n_candidate_pairs`` is the all-pairs
    total, ``n_coresident_pairs`` the within-block pairs the pipelines
    will actually consider.  Every cross-block pair is *excluded by
    construction of the constraint semantics*, so the plan's recall is
    1.0 by definition — nothing a constrained run may emit is lost.
    """
    blocks = plan_blocks(relation, constraints)
    n = len(relation)
    n_pairs = n * (n - 1) // 2
    n_coresident = sum(len(block) * (len(block) - 1) // 2 for block in blocks)
    return ShardPlan(
        n_shards=len(blocks),
        overlap=0.0,
        members=tuple(tuple(block) for block in blocks),
        recall=1.0,
        n_candidate_pairs=n_pairs,
        n_coresident_pairs=n_coresident,
        n_components=len(blocks),
        n_split_components=0,
    )


def plan_shards(
    relation: Relation,
    n_shards: int,
    overlap: float = 0.2,
    n_hashes: int = 64,
    n_bands: int = 8,
    signatures: RelationSignatures | None = None,
    corpus: Corpus | None = None,
) -> ShardPlan:
    """Block the relation into ``n_shards`` overlapping shards.

    Deterministic for a given relation (the MinHash hash family is
    seeded by position, not process state).  ``overlap`` is the
    fraction of the per-shard capacity replicated between consecutive
    chunks of a *split* component; whole components never need it.
    ``signatures`` lets the caller share an index's already-computed
    signature batch, and ``corpus`` a distance's tokenized relation
    (see :func:`_lsh_components`); the plan is identical with or
    without them.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be in [0, 1]")

    ids = relation.ids()
    if n_shards == 1:
        return ShardPlan(
            n_shards=1,
            overlap=overlap,
            members=(tuple(sorted(ids)),),
            recall=1.0,
            n_candidate_pairs=0,
            n_coresident_pairs=0,
            n_components=0,
            n_split_components=0,
        )

    components, component_pairs, _, sign_seconds = _lsh_components(
        relation, n_hashes, n_bands, signatures=signatures, corpus=corpus
    )
    cap = max(1, -(-len(ids) // n_shards))  # ceil(n / n_shards)

    pieces: list[tuple[int, list[int]]] = []  # (component idx, chunk)
    n_split = 0
    for idx, component in enumerate(components):
        if len(component) > cap:
            n_split += 1
            for chunk in _split_component(component, cap, overlap):
                pieces.append((idx, chunk))
        else:
            pieces.append((idx, list(component)))

    # Heap-pack pieces (already size-descending by component order;
    # re-sort so split chunks interleave deterministically too).
    pieces.sort(key=lambda piece: (-len(piece[1]), piece[1][0]))
    shard_members: list[set[int]] = [set() for _ in range(n_shards)]
    heap = [(0, idx) for idx in range(n_shards)]
    placement: dict[int, list[int]] = {}  # component idx -> shard ids
    for comp_idx, chunk in pieces:
        load, shard_idx = heapq.heappop(heap)
        shard_members[shard_idx].update(chunk)
        placement.setdefault(comp_idx, []).append(shard_idx)
        heapq.heappush(heap, (load + len(chunk), shard_idx))

    members = tuple(tuple(sorted(shard)) for shard in shard_members)
    member_sets = [frozenset(shard) for shard in members]

    n_pairs = 0
    n_coresident = 0
    for comp_idx, pairs in enumerate(component_pairs):
        if not pairs:
            continue
        shard_ids = placement.get(comp_idx, [])
        n_pairs += len(pairs)
        if len(shard_ids) == 1:
            # Whole component on one shard: every pair co-resident.
            n_coresident += len(pairs)
        else:
            for a, b in pairs:
                if any(
                    a in member_sets[sid] and b in member_sets[sid]
                    for sid in set(shard_ids)
                ):
                    n_coresident += 1

    recall = n_coresident / n_pairs if n_pairs else 1.0
    return ShardPlan(
        n_shards=n_shards,
        overlap=overlap,
        members=members,
        recall=recall,
        n_candidate_pairs=n_pairs,
        n_coresident_pairs=n_coresident,
        n_components=len(components),
        n_split_components=n_split,
        sign_seconds=sign_seconds,
    )
