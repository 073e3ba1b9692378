"""Stateful property test of the serving layer.

A hypothesis state machine drives a cosine
:class:`~repro.core.incremental.IncrementalDeduplicator` over org
records with insert, remove and refit rules, on bounded and unbounded
pair caches under the size and the combined cut.  After every step the
maintained solution must pass :func:`~repro.verify.incremental
.verify_incremental` (NN lists, CSPairs rows and partition checksum
equal a from-scratch batch run), and no removed record may linger in
the corpus's live-vector cache or in the pair cache.
"""

from __future__ import annotations

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
#: ``None`` is the unbounded cache; 16 entries evict within one scan.
CACHE_BOUNDS = (None, 16)


class ServeMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dedup: IncrementalDeduplicator | None = None
        self.removed: set[int] = set()

    @initialize(
        cut=st.sampled_from(sorted(CUTS)),
        max_entries=st.sampled_from(CACHE_BOUNDS),
        n_seed=st.integers(0, 6),
    )
    def open(self, cut, max_entries, n_seed):
        seed = None
        if n_seed:
            seed = Relation(name="seed", schema=ORG.schema)
            for record in ORG.records[:n_seed]:
                seed.add(Record(record.rid, record.fields))
        self.dedup = IncrementalDeduplicator(
            CosineDistance(),
            CUTS[cut],
            seed=seed,
            schema=ORG.schema,
            max_cache_entries=max_entries,
        )

    @rule(pick=st.integers(0, len(ORG) - 1))
    def insert(self, pick):
        self.dedup.add(ORG.records[pick].fields)

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


TestServeMachine = ServeMachine.TestCase
TestServeMachine.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
