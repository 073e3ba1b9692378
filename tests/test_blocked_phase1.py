"""The blocked Phase-1 passes and their exact work accounting.

``MinHashIndex.phase1_batch`` answers a batch in one vectorized pass:
candidate pairs gathered from the flat band layout, each unordered pair
scored once through the kernel's ``pair_distances``.
``BruteForceIndex.phase1_batch`` scores dense kernel rows.  Both hand
their scored candidates to the shared ``read_off``, which reads every
cut list, ``nn(v)`` and ``ng(v)``.  The contract is equality with the
per-record ``within``/``knn`` + ``neighborhood_growth`` sequence, which
these tests check against the scalar (``kernel="python"``) index of
both kinds across cuts, distances, radius functions, exact duplicates,
isolated records and subset batches; for MinHash also across size-cut
records short of ``k`` candidates, batches larger than the pair budget,
and the thread and process pools.  ``BlockIndex`` (constraint pushdown)
scores the same-block pairs of a batch once each and must also equal
brute force over each block alone.
"""

from __future__ import annotations

import functools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.minhash as minhash_module
from repro.core.formulation import DEParams
from repro.core.nn_phase import Phase1Stats, prepare_nn_lists
from repro.core.radius import AffineRadius
from repro.data.loaders import load_dataset
from repro.data.schema import Record, Relation
from repro.distances.cosine import CosineDistance
from repro.distances.edit import EditDistance
from repro.distances.jaccard import TokenJaccardDistance
from repro.index.base import COUNTERS, NNIndex
from repro.index.blocks import BlockIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.minhash import MinHashIndex
from repro.run.config import RunConfig
from repro.run.context import RunContext
from repro.run.pipeline import StagedPipeline
from repro.verify.parity import nn_signature


DISTANCES = {
    "cosine": CosineDistance,
    "jaccard": TokenJaccardDistance,
    "edit": EditDistance,
}

#: The two candidate generators feeding the shared read-off.
INDEXES = (MinHashIndex, BruteForceIndex)

#: (index, distance) cases of the parity test; bare ids are MinHash's.
PARITY_CASES = [
    pytest.param(MinHashIndex, "cosine", id="cosine"),
    pytest.param(MinHashIndex, "jaccard", id="jaccard"),
    pytest.param(MinHashIndex, "edit", id="edit"),
    pytest.param(BruteForceIndex, "cosine", id="bruteforce-cosine"),
    pytest.param(BruteForceIndex, "jaccard", id="bruteforce-jaccard"),
    pytest.param(BruteForceIndex, "edit", id="bruteforce-edit"),
]

#: (k, theta): size, diameter and combined cuts.
CUTS = [(3, None), (None, 0.5), (3, 0.5)]

VOCAB = [
    "acme", "corp", "inc", "global", "tech", "data",
    "systems", "north", "labs", "group", "first", "bank",
]


@st.composite
def relations(draw):
    """Token-soup records with exact duplicates and isolated records."""
    texts = [
        " ".join(tokens)
        for tokens in draw(
            st.lists(
                st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4),
                min_size=2,
                max_size=16,
            )
        )
    ]
    texts += [
        texts[i]
        for i in draw(
            st.lists(st.integers(0, len(texts) - 1), max_size=3)
        )
    ]
    # Tokens no other record holds: almost surely no LSH candidate.
    texts += [
        f"solo{i} only{i}" for i in range(draw(st.integers(0, 2)))
    ]
    return Relation.from_strings("r", texts)


def _built(relation, distance, kernel, factory=MinHashIndex):
    index = factory()
    index.enable_kernel(kernel)
    index.build(relation, DISTANCES[distance]())
    return index


def _per_record(index, records, k, theta, p=2.0, radius_fn=None, growth=None):
    """The reference: per-record cut query, then neighborhood_growth."""
    growth = growth or index.neighborhood_growth
    answers = []
    for record in records:
        if theta is not None:
            neighbors = index.within(record, theta)
            if k is not None:
                neighbors = neighbors[:k]
        else:
            neighbors = index.knn(record, k)
        nn = neighbors[0].distance if neighbors else None
        answers.append(
            (
                neighbors,
                growth(record, p=p, nn_distance=nn, radius_fn=radius_fn),
            )
        )
    return answers


class TestPairDistances:
    @pytest.mark.parametrize("distance", ["cosine", "jaccard"])
    @settings(max_examples=30, deadline=None)
    @given(relation=relations(), data=st.data())
    def test_bit_identical_to_subset_distances(self, distance, relation, data):
        import numpy as np

        index = _built(relation, distance, "auto")
        kernel = index._kernel
        n = len(relation)
        rows_a = np.asarray(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20)),
            dtype=np.int64,
        )
        rows_b = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, n - 1),
                    min_size=len(rows_a),
                    max_size=len(rows_a),
                )
            ),
            dtype=np.int64,
        )
        got = kernel.pair_distances(rows_a, rows_b)
        for a, b, d in zip(rows_a, rows_b, got.tolist()):
            forward = kernel._subset_distances(int(a), np.asarray([b]))[0]
            mirror = kernel._subset_distances(int(b), np.asarray([a]))[0]
            assert d == forward == mirror


class TestBlockedParity:
    @pytest.mark.parametrize("factory,distance", PARITY_CASES)
    @pytest.mark.parametrize("k,theta", CUTS)
    @settings(max_examples=25, deadline=None)
    @given(relation=relations())
    def test_equals_per_record_reference(
        self, factory, distance, k, theta, relation
    ):
        blocked = _built(relation, distance, "auto", factory)
        assert blocked.kernel_backend == "numpy"  # the blocked pass runs
        if factory is MinHashIndex:
            assert blocked._kernel_rows is not None
        reference = _built(relation, distance, "python", factory)
        records = list(relation)
        got = list(blocked.phase1_batch(records, k=k, theta=theta))
        assert got == _per_record(reference, records, k, theta)

    @pytest.mark.parametrize("factory,distance", PARITY_CASES)
    @pytest.mark.parametrize("k,theta", CUTS)
    @pytest.mark.parametrize("texts", [[], ["acme corp"]], ids=["empty", "single"])
    def test_edge_sizes_equal_per_record_reference(
        self, factory, distance, k, theta, texts
    ):
        """0- and 1-record relations: the batch, and a probe from
        outside the relation, answer like the scalar path."""
        relation = Relation.from_strings("r", texts)
        blocked = _built(relation, distance, "auto", factory)
        reference = _built(relation, distance, "python", factory)
        records = list(relation)
        got = list(blocked.phase1_batch(records, k=k, theta=theta))
        assert got == _per_record(reference, records, k, theta)
        assert got == [([], 1)] * len(texts)
        probe = [Record(len(texts), ("acme corp",))]
        assert _per_record(blocked, probe, k, theta) == _per_record(
            reference, probe, k, theta
        )

    @pytest.mark.parametrize("k,theta", CUTS)
    @settings(max_examples=20, deadline=None)
    @given(relation=relations(), p=st.sampled_from([1.5, 2.0, 3.0]))
    def test_custom_radius_fn(self, k, theta, relation, p):
        radius_fn = AffineRadius(p=p, delta=0.05)
        records = list(relation)
        for factory in INDEXES:
            blocked = _built(relation, "cosine", "auto", factory)
            reference = _built(relation, "cosine", "python", factory)
            assert list(blocked.phase1_batch(
                records, k=k, theta=theta, radius_fn=radius_fn
            )) == _per_record(
                reference, records, k, theta, radius_fn=radius_fn
            )

    @pytest.mark.parametrize("k,theta", CUTS)
    @settings(max_examples=20, deadline=None)
    @given(relation=relations(), data=st.data())
    def test_subset_batches(self, k, theta, relation, data):
        records = list(relation)
        subset = data.draw(
            st.lists(st.sampled_from(records), min_size=1, unique_by=lambda r: r.rid)
        )
        for factory in INDEXES:
            blocked = _built(relation, "jaccard", "auto", factory)
            reference = _built(relation, "jaccard", "python", factory)
            assert list(blocked.phase1_batch(
                subset, k=k, theta=theta
            )) == _per_record(reference, subset, k, theta)

    @pytest.mark.parametrize("k,theta", CUTS)
    def test_batch_larger_than_pair_budget(self, monkeypatch, k, theta):
        relation = load_dataset(
            "org", n_entities=60, duplicate_fraction=0.4, seed=5
        ).relation
        records = list(relation)
        blocked = _built(relation, "cosine", "auto")
        whole = list(blocked.phase1_batch(records, k=k, theta=theta))
        # A budget of a few pairs forces one slice per query or so.
        monkeypatch.setattr(minhash_module, "_PAIR_BUDGET", 40)
        sliced = list(blocked.phase1_batch(records, k=k, theta=theta))
        reference = _built(relation, "cosine", "python")
        assert sliced == whole == _per_record(reference, records, k, theta)

    def test_exact_duplicates_and_isolated_records(self):
        relation = Relation.from_strings(
            "r",
            [
                "acme corp", "acme corp", "acme corp inc", "acme inc",
                "north labs", "north labs group",
                "solo0 only0", "solo1 only1",
            ],
        )
        records = list(relation)
        isolated = records[-2:]
        for factory in INDEXES:
            blocked = _built(relation, "cosine", "auto", factory)
            reference = _built(relation, "cosine", "python", factory)
            for k, theta in CUTS + [(5, None)]:
                answers = list(blocked.phase1_batch(records, k=k, theta=theta))
                assert answers == _per_record(reference, records, k, theta)
                by_rid = dict(zip((r.rid for r in records), answers))
                # nn = 0 between the exact duplicates: both counted.
                assert by_rid[records[0].rid][1] == 2
                for record in isolated:
                    if factory is MinHashIndex:
                        # No LSH candidate: its own whole neighborhood.
                        assert not blocked._has_candidates(record)
                        assert by_rid[record.rid][1] == 1
                    else:
                        # nn = 1 to everyone: the whole relation.
                        assert by_rid[record.rid][1] == len(records)

    def test_size_cut_short_of_k_takes_the_exhaustive_fallback(self):
        relation = Relation.from_strings(
            "r",
            ["acme corp", "acme corp inc", "north labs", "data bank",
             "first data bank", "solo0 only0"],
        )
        blocked = _built(relation, "cosine", "auto")
        reference = _built(relation, "cosine", "python")
        records = list(relation)
        with blocked.ledger() as counts:
            answers = list(blocked.phase1_batch(records, k=4))
        assert answers == _per_record(reference, records, 4, None)
        # Every list is filled to k from the whole relation ...
        assert all(len(neighbors) == 4 for neighbors, _ in answers)
        # ... so nothing was pruned, while NG stays on the LSH set.
        assert counts.evaluations_pruned == 0
        assert answers[-1][1] == 1

    def test_fallback_charges_the_kernel_rows_it_computes(self):
        # A short query's fallback computes its whole kernel row, the
        # candidates already scored included: every computed pair is
        # reported.
        relation = load_dataset("org", n_entities=300, seed=0).relation
        distance = CosineDistance()
        result = StagedPipeline(
            RunContext.create(
                RunConfig(distance="cosine", index="minhash", kernel="auto"),
                distance,
            )
        ).run(relation, DEParams.size(5, c=4.0))
        assert distance.kernel_evaluations == 118_172
        assert result.stats.phase1.kernel_evaluations == 118_172

    def test_fallback_disabled_keeps_short_lists(self):
        relation = Relation.from_strings(
            "r", ["acme corp", "acme corp inc", "north labs", "solo0 only0"]
        )
        blocked = MinHashIndex(exhaustive_fallback=False)
        blocked.enable_kernel("auto")
        blocked.build(relation, CosineDistance())
        reference = MinHashIndex(exhaustive_fallback=False)
        reference.build(relation, CosineDistance())
        records = list(relation)
        assert list(blocked.phase1_batch(records, k=3)) == _per_record(
            reference, records, 3, None
        )

    def test_each_unordered_pair_scored_once(self):
        relation = load_dataset(
            "org", n_entities=60, duplicate_fraction=0.4, seed=5
        ).relation
        records = list(relation)
        blocked = _built(relation, "cosine", "auto")
        with blocked.ledger() as counts:
            blocked.phase1_batch(records, k=2, theta=0.9)
        uses = sum(len(blocked._candidates(record)) for record in records)
        # Candidacy is symmetric: every unordered pair is used by both
        # endpoints and scored once.
        assert counts.candidates_generated == uses == 2 * counts.kernel_evaluations
        assert blocked.totals.kernel_evaluations == counts.kernel_evaluations
        assert counts.evaluations_pruned == len(records) * (len(records) - 1) - uses

    def test_edit_takes_the_blocked_pass(self):
        # Any kernel with pair_distances maps its rows through
        # kernel.rids: edit scores each distinct candidate pair once,
        # and its NN relation equals the per-record scalar run's.
        relation = load_dataset(
            "org", n_entities=150, duplicate_fraction=0.4, seed=5
        ).relation
        params = DEParams.combined(5, 0.4, c=4.0)
        results = {
            kernel: StagedPipeline(
                RunContext.create(
                    RunConfig(distance="edit", index="minhash", kernel=kernel)
                )
            ).run(relation, params)
            for kernel in ("auto", "python")
        }
        index = _built(relation, "edit", "auto")
        assert index._kernel_rows is not None
        pairs = {
            (min(record.rid, other), max(record.rid, other))
            for record in relation
            for other in index._candidates(record).tolist()
        }
        assert results["auto"].stats.phase1.kernel_evaluations == len(pairs)
        assert nn_signature(results["auto"].nn_relation) == nn_signature(
            results["python"].nn_relation
        )
        assert results["auto"].partition == results["python"].partition


class TestBlockIndex:
    """Pushdown's block index: the same read-off over same-block pairs."""

    @staticmethod
    def blocks(relation, labels):
        rids = relation.ids()
        groups = [
            [rid for rid, label in zip(rids, labels) if label == block]
            for block in range(4)
        ]
        return [group for group in groups if group]

    @pytest.mark.parametrize("distance", sorted(DISTANCES))
    @pytest.mark.parametrize("k,theta", CUTS)
    @settings(max_examples=20, deadline=None)
    @given(relation=relations(), data=st.data())
    def test_equals_per_record_and_per_block_brute_force(
        self, distance, k, theta, relation, data
    ):
        from repro.distances.base import FrozenDistance

        n = len(relation)
        blocks = self.blocks(
            relation,
            data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        )
        factory = functools.partial(BlockIndex, blocks)
        blocked = _built(relation, distance, "auto", factory)
        reference = _built(relation, distance, "python", factory)
        records = list(relation)
        answers = list(blocked.phase1_batch(records, k=k, theta=theta))
        assert answers == _per_record(reference, records, k, theta)
        # Each unordered same-block pair is scored once.
        assert blocked.totals.kernel_evaluations == sum(
            len(block) * (len(block) - 1) // 2 for block in blocks
        )
        by_rid = dict(zip(relation.ids(), answers))
        for block in blocks:
            sub = relation.subset(block)
            alone = BruteForceIndex()
            alone.build(sub, FrozenDistance(blocked.distance))
            assert [by_rid[rid] for rid in block] == _per_record(
                alone, list(sub), k, theta
            )

    @pytest.mark.parametrize("distance", sorted(DISTANCES))
    @pytest.mark.parametrize("k,theta", CUTS)
    def test_singleton_blocks(self, distance, k, theta):
        """Every block a single record: no pair is scored, and a record
        outside the relation is in no block."""
        relation = Relation.from_strings(
            "r", ["acme corp", "acme corp", "data labs"]
        )
        factory = functools.partial(BlockIndex, [[rid] for rid in relation.ids()])
        blocked = _built(relation, distance, "auto", factory)
        reference = _built(relation, distance, "python", factory)
        records = list(relation)
        answers = list(blocked.phase1_batch(records, k=k, theta=theta))
        assert answers == _per_record(reference, records, k, theta)
        assert answers == [([], 1)] * 3
        assert blocked.totals.kernel_evaluations == 0
        probe = [Record(9, ("acme corp",))]
        assert _per_record(blocked, probe, k, theta) == [([], 1)]

    def test_blocks_must_partition_the_relation(self):
        relation = Relation.from_strings("r", ["a", "b", "c"])
        for blocks in ([[0, 1]], [[0, 1], [1, 2]]):
            with pytest.raises(ValueError, match="partition"):
                BlockIndex(blocks).build(relation, EditDistance())


class TestPools:
    @pytest.mark.parametrize("pool", ["thread", "process"])
    @pytest.mark.parametrize("distance", sorted(DISTANCES))
    def test_pools_match_scalar_reference(self, pool, distance):
        relation = load_dataset(
            "org", n_entities=40, duplicate_fraction=0.4, seed=2
        ).relation
        params = DEParams.combined(4, 0.45, c=4.0)
        want = nn_signature(
            prepare_nn_lists(
                relation, _built(relation, distance, "python"), params
            )
        )
        for n_workers in (1, 2):
            got = prepare_nn_lists(
                relation,
                _built(relation, distance, "auto"),
                params,
                n_workers=n_workers,
                pool=pool,
            )
            assert nn_signature(got) == want


class TestScalarNoDeadScan:
    def test_zero_candidate_ng_costs_nothing(self):
        relation = Relation.from_strings(
            "r", ["acme corp", "acme corp inc", "north labs", "solo0 only0"]
        )
        index = _built(relation, "cosine", "python")
        isolated = [r for r in relation if not index._has_candidates(r)]
        assert isolated
        for record in isolated:
            before = (index.totals.evaluations, index.totals.kernel_evaluations)
            assert index.neighborhood_growth(record) == 1
            assert (index.totals.evaluations, index.totals.kernel_evaluations) == before
            # The generic definition agrees, at the price of a full scan.
            assert NNIndex.neighborhood_growth(index, record) == 1
            assert index.totals.evaluations > before[0]

    @pytest.mark.parametrize("k,theta", CUTS)
    def test_scalar_runs_keep_their_checksums(self, k, theta):
        relation = load_dataset(
            "org", n_entities=40, duplicate_fraction=0.3, seed=7
        ).relation
        params = (
            DEParams.size(k, c=4.0) if theta is None
            else DEParams.diameter(theta, c=4.0) if k is None
            else DEParams.combined(k, theta, c=4.0)
        )
        index = _built(relation, "cosine", "python")
        got = nn_signature(prepare_nn_lists(relation, index, params))
        # The per-record sequence under the generic NG definition,
        # exhaustive scans for records without candidates included.
        reference = _built(relation, "cosine", "python")
        records = sorted(relation, key=lambda r: r.rid)
        assert any(not reference._has_candidates(r) for r in records)
        answers = _per_record(
            reference, records, k, theta,
            growth=functools.partial(NNIndex.neighborhood_growth, reference),
        )
        want = tuple(
            (record.rid, tuple(n.rid for n in neighbors),
             tuple(n.distance for n in neighbors), ng)
            for record, (neighbors, ng) in zip(records, answers)
        )
        assert got == want


class _CountingCosine(CosineDistance):
    """Cosine distance counting its scalar calls across threads."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0
        self._calls_lock = threading.Lock()

    def distance(self, a, b):
        with self._calls_lock:
            self.calls += 1
        return super().distance(a, b)


class TestShardedCounters:
    """Reported counts are the work done, under any concurrency."""

    @pytest.fixture(autouse=True)
    def _interleave(self):
        # Switch threads often, so concurrent lookups interleave finely.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(switch)

    @staticmethod
    def _stats(relation, params, index, kernel, **overrides):
        config = RunConfig(
            distance="cosine", index=index, kernel=kernel,
            cache_distance=False, **overrides
        )
        distance = _CountingCosine()
        result = StagedPipeline(
            RunContext.create(config, distance)
        ).run(relation, params)
        stats = result.stats.phase1
        # Every scalar call and every kernel pair is reported once.
        assert stats.evaluations == distance.calls
        assert stats.kernel_evaluations == distance.kernel_evaluations
        return stats

    @staticmethod
    def _counters(stats: Phase1Stats) -> dict:
        return {
            name: getattr(stats, name)
            for name in ("lookups", *COUNTERS)
        }

    @pytest.mark.parametrize(
        "kernel", ["python", "auto"]
    )
    @pytest.mark.parametrize("index", ["brute", "minhash"])
    def test_in_flight_does_not_change_counters(self, index, kernel):
        relation = load_dataset(
            "org", n_entities=120, duplicate_fraction=0.4, seed=3
        ).relation
        params = DEParams.combined(4, 0.4, c=4.0)
        unsharded, one, two, four, pooled = (
            self._counters(
                self._stats(relation, params, index, kernel, **overrides)
            )
            for overrides in (
                {},
                {"shards": 4, "shards_in_flight": 1},
                {"shards": 4, "shards_in_flight": 2},
                {"shards": 4, "shards_in_flight": 4},
                {"n_workers": 2, "pool": "thread"},
            )
        )
        # Every rid is looked up once, against the same candidate set.
        for counters in (one, two, four, pooled):
            for name in (
                "lookups", "candidates_generated", "evaluations_pruned"
            ):
                assert counters[name] == unsharded[name]
        if kernel == "python":
            # The scalar pair cache is shared: concurrent lookups may
            # both miss a pair and score it twice, so only the
            # per-run reconciliation above holds exactly.
            return
        assert one == two == four
        # Pairs whose endpoints sit in different batches are scored in
        # each; never more than once per candidate use.
        assert unsharded["kernel_evaluations"] <= one["kernel_evaluations"]
        if index == "minhash":
            assert one["kernel_evaluations"] <= one["candidates_generated"]

    def test_phase1_clock_is_not_summed_over_shards(self):
        # On the scalar path the shards in flight take turns on the GIL,
        # so their Phase-1 intervals overlap for most of their length.
        relation = load_dataset(
            "org", n_entities=120, duplicate_fraction=0.4, seed=3
        ).relation
        config = RunConfig(
            distance="cosine", kernel="python", shards=4, shards_in_flight=4
        )
        result = StagedPipeline(RunContext.create(config)).run(
            relation, DEParams.combined(5, 0.4, c=4.0)
        )
        stats = result.stats
        assert 0.0 < stats.phase1.seconds <= stats.stage_seconds("shard")
