"""Stateful property test of the serving layer.

A hypothesis state machine drives a cosine
:class:`~repro.core.incremental.IncrementalDeduplicator` over org
records with insert, remove and refit rules (some arrivals carry a
token outside the frozen vocabulary), on bounded and unbounded pair
caches under the size and the combined cut, each SN aggregation and
two thresholds ``c`` that the org NGs straddle (so NG changes both
keep and cross their verdict class).  After every step the
maintained solution must pass :func:`~repro.verify.incremental
.verify_incremental` (NN lists, CSPairs rows and partition checksum
equal a from-scratch batch run), no removed record may linger in the
corpus's live-vector cache or in the pair cache, the live-row index
must hold exactly the live records, the reverse reference map must
equal one recomputed from the maintained cut lists and exact nearest
neighbors (and so name each record at most once per entry of its cut
list plus once for its NN), and every maintained NG must equal a
brute-force count of the live records inside its radius.  With numpy the
session's cosine rows come from the live postings, without it from the
pair cache: one machine checks both row sources.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.formulation import DEParams
from repro.core.incremental import IncrementalDeduplicator
from repro.data.loaders import load_dataset
from repro.data.schema import Record, Relation
from repro.distances.cosine import CosineDistance
from repro.verify.incremental import verify_incremental

ORG = load_dataset("org", n_entities=20, duplicate_fraction=0.5, seed=7).relation

CUTS = {
    "size": DEParams.size(3, c=4.0),
    "combined": DEParams.combined(3, 0.4, c=4.0),
}
#: The paper's three SN aggregations.
AGGS = ("max", "max2", "avg")
#: Org NGs here run 2, 3, 4, … 12: both thresholds split them.
THRESHOLDS = (4.0, 3.0)
#: ``None`` is the unbounded cache; 16 entries evict within one scan.
CACHE_BOUNDS = (None, 16)
#: Tokens no org record carries, so no corpus statistic covers them.
FRESH_TOKENS = ("zyxt", "qqvw", "\U0001d538lpha")


class ServeMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dedup: IncrementalDeduplicator | None = None
        self.removed: set[int] = set()

    @initialize(
        cut=st.sampled_from(sorted(CUTS)),
        agg=st.sampled_from(AGGS),
        c=st.sampled_from(THRESHOLDS),
        max_entries=st.sampled_from(CACHE_BOUNDS),
        n_seed=st.integers(0, 6),
    )
    def open(self, cut, agg, c, max_entries, n_seed):
        seed = None
        if n_seed:
            seed = Relation(name="seed", schema=ORG.schema)
            for record in ORG.records[:n_seed]:
                seed.add(Record(record.rid, record.fields))
        self.dedup = IncrementalDeduplicator(
            CosineDistance(),
            replace(CUTS[cut], agg=agg, c=c),
            seed=seed,
            schema=ORG.schema,
            max_cache_entries=max_entries,
        )

    @rule(pick=st.integers(0, len(ORG) - 1))
    def insert(self, pick):
        self.dedup.add(ORG.records[pick].fields)

    @rule(
        pick=st.integers(0, len(ORG) - 1),
        token=st.sampled_from(FRESH_TOKENS),
    )
    def insert_fresh_token(self, pick, token):
        first, *rest = ORG.records[pick].fields
        self.dedup.add((f"{first} {token}", *rest))

    @precondition(lambda self: self.dedup is not None and len(self.dedup) > 0)
    @rule(pick=st.integers(0, 10**6))
    def remove(self, pick):
        live = self.dedup.relation.ids()
        rid = live[pick % len(live)]
        self.dedup.remove(rid)
        self.removed.add(rid)

    @precondition(lambda self: self.dedup is not None and len(self.dedup) > 0)
    @rule()
    def refit(self):
        self.dedup.refit()

    @invariant()
    def matches_batch(self):
        if self.dedup is None:
            return
        report = verify_incremental(self.dedup)
        assert report.ok, report.render()

    @invariant()
    def holds_no_removed_record(self):
        if self.dedup is None:
            return
        live = set(self.dedup.relation.ids())
        corpus = self.dedup.distance.corpus
        if corpus is not None:
            assert not self.removed & set(corpus._live)
            assert not self.removed & set(corpus._vectors)
        for key in self.dedup.distance._cache:
            assert key[0] in live and key[1] in live, key

    @invariant()
    def live_index_holds_the_live_rids(self):
        if self.dedup is None or not self.dedup._prepared:
            return
        index = self.dedup._live
        assert set(index.slot_of) == set(self.dedup.relation.ids())
        assert len(index.slot_of) == len(self.dedup.relation)

    @invariant()
    def reverse_map_matches_the_entries(self):
        # The map holds cut-list and exact-NN referrers, nothing else.
        if self.dedup is None:
            return
        dedup = self.dedup
        expected = {rid: set() for rid in dedup.relation.ids()}
        for rid, cut in dedup._neighbors.items():
            held = {nb.rid for nb in cut}
            nn = int(dedup._nn_rid[dedup._slot_of[rid]])
            if nn >= 0:
                held.add(nn)
            for orid in held:
                expected[orid].add(rid)
        assert dedup._refs == expected

    @invariant()
    def references_are_one_cut_list_plus_one_nn(self):
        if self.dedup is None:
            return
        dedup = self.dedup
        named = Counter(rid for held in dedup._refs.values() for rid in held)
        for rid, count in named.items():
            assert count <= len(dedup._neighbors[rid]) + 1, rid

    @invariant()
    def ng_matches_a_brute_force_count(self):
        if self.dedup is None:
            return
        dedup = self.dedup
        inner, p = dedup.distance.inner, dedup.params.p
        records = list(dedup.relation)
        maintained = dedup.nn_relation()
        for record in records:
            row = [
                inner.distance(*sorted((record, other), key=lambda r: r.rid))
                for other in records
                if other.rid != record.rid
            ]
            nn = min(row, default=math.inf)
            # ``d < radius``; for ``nn = 0`` that is ``d == 0``.
            radius = p * nn if nn > 0.0 else math.nextafter(0.0, 1.0)
            expected = 1 + sum(d < radius for d in row)
            assert maintained.get(record.rid).ng == expected, record.rid

TestServeMachine = ServeMachine.TestCase
TestServeMachine.settings = settings(
    max_examples=50, stateful_step_count=16, deadline=None
)
