"""Property tests: incremental DE equals batch DE at every prefix."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formulation import DEParams
from repro.core.incremental import IncrementalDeduplicator
from repro.core.pipeline import DuplicateEliminator
from repro.data.schema import Relation
from repro.distances.base import CachedDistance, DistanceFunction
from repro.distances.edit import EditDistance
from repro.run.config import RunConfig
from repro.verify.incremental import (
    FrozenDistance,
    batch_reference,
    verify_incremental,
)

from tests.helpers import absdiff_distance, numbers_relation

values_strategy = st.lists(
    st.integers(0, 900), min_size=1, max_size=14, unique=True
)


def batch_partition(values, params):
    relation = numbers_relation(values)
    solver = DuplicateEliminator(absdiff_distance(), cache_distance=False)
    return solver.run(relation, params).partition


class TestMatchesBatch:
    @settings(max_examples=30, deadline=None)
    @given(values_strategy, st.integers(2, 5), st.sampled_from([2.0, 3.0, 4.0]))
    def test_size_spec_final_state(self, values, k, c):
        params = DEParams.size(k, c=c)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        for value in values:
            inc.add((str(value),))
        assert inc.partition() == batch_partition(values, params)

    @settings(max_examples=20, deadline=None)
    @given(values_strategy, st.floats(0.01, 0.2))
    def test_diameter_spec_final_state(self, values, theta):
        params = DEParams.diameter(theta, c=4.0)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        for value in values:
            inc.add((str(value),))
        assert inc.partition() == batch_partition(values, params)

    @settings(max_examples=12, deadline=None)
    @given(values_strategy)
    def test_every_prefix_matches_batch(self, values):
        """The maintained solution is correct after *each* insert."""
        params = DEParams.size(3, c=4.0)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        for i, value in enumerate(values):
            inc.add((str(value),))
            assert inc.partition() == batch_partition(values[: i + 1], params)

    @settings(max_examples=15, deadline=None)
    @given(values_strategy)
    def test_nn_state_matches_batch_phase1(self, values):
        from repro.core.nn_phase import prepare_nn_lists
        from repro.index.bruteforce import BruteForceIndex

        params = DEParams.size(4, c=4.0)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        for value in values:
            inc.add((str(value),))
        relation = numbers_relation(values)
        index = BruteForceIndex()
        index.build(relation, absdiff_distance())
        batch_nn = prepare_nn_lists(relation, index, params)
        inc_nn = inc.nn_relation()
        for entry in batch_nn:
            other = inc_nn.get(entry.rid)
            assert other.neighbor_ids == entry.neighbor_ids, entry.rid
            assert other.ng == entry.ng, entry.rid


class TestBehaviour:
    def test_duplicate_detected_after_insert(self):
        # c = 3 keeps the far record (ng = 3: everything is within twice
        # its huge nn distance) out of any group.
        params = DEParams.size(3, c=3.0)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        inc.add(("0",))
        inc.add(("500",))
        # In a 2-record relation, the pair is vacuously a compact SN set.
        assert inc.partition().non_trivial_groups() == [(0, 1)]
        inc.add(("1",))  # duplicate of record 0
        # The true duplicate displaces the spurious pair; the far
        # record's ng rises to 3 and SN (c=3) expels it.
        assert inc.partition().non_trivial_groups() == [(0, 2)]

    def test_seed_relation_bulk_load(self):
        seed = numbers_relation([0, 1, 100, 101])
        params = DEParams.size(3, c=4.0)
        inc = IncrementalDeduplicator(absdiff_distance(), params, seed=seed)
        assert len(inc) == 4
        assert inc.partition().non_trivial_groups() == [(0, 1), (2, 3)]

    def test_ids_are_sequential(self):
        inc = IncrementalDeduplicator(
            absdiff_distance(), DEParams.size(2, c=4.0)
        )
        assert inc.add(("5",)) == 0
        assert inc.add(("6",)) == 1

    def test_string_records_with_edit_distance(self):
        seed = Relation.from_strings(
            "r", ["cascade systems", "granite manufacturing"]
        )
        params = DEParams.size(3, c=4.0)
        inc = IncrementalDeduplicator(EditDistance(), params, seed=seed)
        inc.add(("cascade sistems",))
        # The typo'd copy must land in record 0's group (the whole
        # 3-record relation is trivially compact, so the group may
        # legitimately also contain the third record at K = 3).
        assert inc.partition().same_group(0, 2)

    def test_dense_insertions_update_ng(self):
        # Insert a whole family around record 0: its NG must grow and
        # the SN criterion must eventually reject its pairings.
        params = DEParams.size(3, c=3.0)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        inc.add(("0",))
        inc.add(("1",))
        assert inc.partition().non_trivial_groups() == [(0, 1)]
        inc.add(("2",))
        inc.add(("3",))
        # Interior records now have ng >= 3; c=3 dissolves the clump.
        assert inc.partition().non_trivial_groups() == []


class TestVerdictGatedRepair:
    """Phase-2 repair moves only when an SN verdict can: under ``max``
    and ``max2`` an NG change re-extracts its component only when it
    crosses ``c``; under ``avg`` every NG change does."""

    def pair_and_bystander(self, agg, c):
        # 100 and 110 are a mutual pair (θ = 11); 85 lies inside 100's
        # neighbourhood (radius 20) but outside every cut list, so its
        # insertion and removal only move 100's NG between 2 and 3.
        inc = IncrementalDeduplicator(
            absdiff_distance(), DEParams.diameter(0.011, agg=agg, c=c)
        )
        inc.add(("100",))
        inc.add(("110",))
        assert inc.partition().non_trivial_groups() == [(0, 1)]
        return inc

    def repair(self, inc):
        partition = inc.partition()
        assert partition.checksum() == batch_reference(inc).partition.checksum()
        return partition

    @pytest.mark.parametrize("agg", ["max", "max2"])
    def test_same_class_ng_change_reextracts_nothing(self, agg):
        inc = self.pair_and_bystander(agg, c=4.0)
        x = inc.add(("85",))
        assert inc.nn_relation().get(0).ng == 3 and inc.last_op.dirty == 2
        self.repair(inc)
        assert inc.last_repair.components_repaired == 0
        assert inc.last_repair.components_reused == 1
        inc.remove(x)
        self.repair(inc)
        assert inc.nn_relation().get(0).ng == 2
        assert inc.last_repair.components_repaired == 0

    @pytest.mark.parametrize(
        "agg, grouped", [("max", []), ("max2", [(0, 1)])]
    )
    def test_ng_crossing_c_reextracts_its_component(self, agg, grouped):
        inc = self.pair_and_bystander(agg, c=3.0)
        x = inc.add(("85",))
        partition = self.repair(inc)
        assert inc.last_repair.components_repaired == 1
        # max sees NG 3 >= c; max2 needs two members at or above c.
        assert partition.non_trivial_groups() == grouped
        inc.remove(x)
        partition = self.repair(inc)
        assert inc.last_repair.components_repaired == 1
        assert partition.non_trivial_groups() == [(0, 1)]

    def test_avg_reextracts_on_every_ng_change(self):
        inc = self.pair_and_bystander("avg", c=4.0)
        x = inc.add(("85",))
        self.repair(inc)
        assert inc.last_repair.components_repaired == 1
        inc.remove(x)
        self.repair(inc)
        assert inc.last_repair.components_repaired == 1

    def test_avg_verdict_flips_without_an_ng_crossing_c(self):
        # 110's neighbourhood (radius 20) also holds 122, 125 and 128,
        # outside θ, so its NG is 5 and avg(2, 5) = 3.5 < 4 groups the
        # pair.  85 lifts 100's NG from 2 to 3 — below c both times —
        # and avg(3, 5) = 4 dissolves it.
        inc = self.pair_and_bystander("avg", c=4.0)
        for value in ("122", "125", "128"):
            inc.add((value,))
        partition = self.repair(inc)
        assert inc.nn_relation().get(1).ng == 5 and (0, 1) in partition.non_trivial_groups()
        inc.add(("85",))
        partition = self.repair(inc)
        assert (0, 1) not in partition.non_trivial_groups()

    def test_rebuild_touches_a_class_change_its_flags_hide(self):
        # Removing 50 rebuilds 31: its cut list drops 50 and its NG falls
        # from 3 to 2, below c, while the rebuilt (20, 31) row's flags
        # come back identical, so only the NG change can re-extract the
        # component that now groups 20 and 31.
        inc = IncrementalDeduplicator(
            absdiff_distance(), DEParams.combined(2, 0.02, c=3.0)
        )
        for value in (59, 55, 31, 50, 20):
            inc.add((str(value),))
        assert inc.partition().non_trivial_groups() == []
        inc.remove(3)
        partition = self.repair(inc)
        assert partition.non_trivial_groups() == [(0, 1), (2, 4)]


class TestZeroDistanceDuplicates:
    """Regression: a third exact duplicate must mark the first two as
    NG-affected.

    With ``old_nn == 0.0`` the affected test ``d < p * old_nn`` can
    never fire for a co-located newcomer (``d == 0.0``), even though
    ``_compute_ng`` counts zero-distance records into the degenerate
    zero-radius neighborhood — the maintained NG froze at 2 while a
    from-scratch batch run reports 3.
    """

    def run_batch(self, values, params):
        relation = numbers_relation(values)
        solver = DuplicateEliminator(absdiff_distance(), cache_distance=False)
        return solver.run(relation, params)

    def check_matches_batch(self, values, params):
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        for value in values:
            inc.add((str(value),))
        batch = self.run_batch(values, params)
        inc_nn = inc.nn_relation()
        for entry in batch.nn_relation:
            assert inc_nn.get(entry.rid).ng == entry.ng, entry.rid
        assert inc.partition() == batch.partition

    def test_triple_exact_duplicate_diameter_cut(self):
        self.check_matches_batch(
            [7, 7, 7, 500], DEParams.diameter(0.05, c=2.5)
        )

    def test_triple_exact_duplicate_size_cut(self):
        self.check_matches_batch([7, 7, 7, 500], DEParams.size(3, c=2.5))

    def test_ng_refreshes_on_each_colocated_insert(self):
        params = DEParams.diameter(0.05, c=2.5)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        inc.add(("7",))
        inc.add(("7",))
        for expected_ng in (3, 4):
            inc.add(("7",))
            nn = inc.nn_relation()
            assert nn.get(0).ng == expected_ng
            assert nn.get(1).ng == expected_ng


class _PrepareTracking(DistanceFunction):
    """A distance that records every corpus it was prepared on."""

    def __init__(self):
        self.name = "tracking"
        self.prepared_sizes = []

    def prepare(self, relation):
        self.prepared_sizes.append(len(relation))

    def distance(self, a, b):
        return abs(float(a.fields[0]) - float(b.fields[0])) / 1000.0


class TestLazyPrepare:
    """Regression: a no-seed construction must still prepare the
    distance — the old path only called ``prepare`` on a seed relation,
    so corpus-statistic distances (IDF cosine, fms) scored every
    arrival against an empty corpus."""

    def test_first_add_triggers_prepare(self):
        tracking = _PrepareTracking()
        inc = IncrementalDeduplicator(tracking, DEParams.size(3, c=4.0))
        assert tracking.prepared_sizes == []  # lazy, not at construction
        inc.add(("5",))
        assert tracking.prepared_sizes == [1]
        assert inc.refits == 1
        inc.add(("6",))
        inc.add(("7",))
        # Statistics are frozen after the first arrival by default.
        assert tracking.prepared_sizes == [1]

    def test_seed_prepares_once_on_the_seed(self):
        tracking = _PrepareTracking()
        IncrementalDeduplicator(
            tracking, DEParams.size(3, c=4.0), seed=numbers_relation([1, 2, 3])
        )
        assert tracking.prepared_sizes == [3]

    def test_refit_every_reprepares_on_the_live_relation(self):
        tracking = _PrepareTracking()
        inc = IncrementalDeduplicator(
            tracking, DEParams.size(3, c=4.0), refit_every=2
        )
        for value in (1, 2, 3, 4, 5):
            inc.add((str(value),))
        # Prepared at arrival 1 (lazy), then every second operation.
        assert tracking.prepared_sizes == [1, 3, 5]
        assert inc.refits == 3

    def test_refit_every_one_keeps_batch_parity_with_idf_weights(self):
        from repro.distances.cosine import CosineDistance

        words = [
            "alpha beta", "alpha beta", "gamma delta corp",
            "gamma delta corporation", "omega systems", "zzz unrelated",
        ]
        inc = IncrementalDeduplicator(
            CosineDistance(),
            DEParams.size(3, c=4.0),
            schema=("value",),
            refit_every=1,
        )
        for i, word in enumerate(words):
            inc.add((word,))
            relation = Relation.from_strings("r", words[: i + 1])
            batch = DuplicateEliminator(CosineDistance()).run(
                relation, DEParams.size(3, c=4.0)
            )
            assert inc.partition() == batch.partition, i

    def test_explicit_refit_resets_statistics(self):
        tracking = _PrepareTracking()
        inc = IncrementalDeduplicator(tracking, DEParams.size(3, c=4.0))
        inc.add(("1",))
        inc.add(("900",))
        inc.refit()
        assert tracking.prepared_sizes == [1, 2]
        assert inc.refits == 2

    def test_refit_every_must_be_positive(self):
        with pytest.raises(ValueError):
            IncrementalDeduplicator(
                absdiff_distance(), DEParams.size(3, c=4.0), refit_every=0
            )


class TestBoundedCacheMemo:
    """Regression: a bounded ``CachedDistance`` silently evicted pairs
    the insert path re-probes, so the documented "free re-probe" turned
    into silent recomputation.  The fix pins each operation's working
    set in a per-operation memo and warns on bounded caches."""

    def test_bounded_cache_warns(self):
        bounded = CachedDistance(absdiff_distance(), max_entries=4)
        with pytest.warns(UserWarning, match="bounded"):
            IncrementalDeduplicator(bounded, DEParams.size(3, c=4.0))

    def test_unbounded_cache_does_not_warn(self, recwarn):
        IncrementalDeduplicator(
            CachedDistance(absdiff_distance()), DEParams.size(3, c=4.0)
        )
        assert not [w for w in recwarn if "bounded" in str(w.message)]

    def test_memo_pins_working_set_under_tiny_cache(self):
        # max_entries=1 thrashes the shared cache constantly; the
        # per-operation memo must still evaluate each unordered pair
        # exactly once per insert.
        params = DEParams.size(3, c=4.0)
        with pytest.warns(UserWarning, match="bounded"):
            inc = IncrementalDeduplicator(
                CachedDistance(absdiff_distance(), max_entries=1), params
            )
        values = [0, 3, 7, 200, 204, 500, 801]
        for i, value in enumerate(values):
            inc.add((str(value),))
            assert inc.last_op.pinned_pairs == i  # one per existing record
        assert inc.partition() == batch_partition(values, params)

    def test_op_hit_rate_is_perfect_within_an_operation(self):
        # The insert path probes each pair twice (scan + update loop);
        # the second probe must be a memo hit, so the underlying cache
        # sees exactly one miss per pair.
        inc = IncrementalDeduplicator(
            absdiff_distance(), DEParams.size(3, c=4.0)
        )
        for value in (1, 2, 3, 4):
            inc.add((str(value),))
        op = inc.last_op
        assert op.cache_misses == op.pinned_pairs == 3


class TestNoRescanAccounting:
    """Regression: ``_compute_ng`` rescanned the full relation per
    affected record.  The maintained exact NN makes inserts O(n) total
    and keeps no-reference removals free of distance calls; the ranking
    heads repair a removal's referrers without reading their rows."""

    def test_insert_evaluates_each_other_record_exactly_once(self):
        inc = IncrementalDeduplicator(
            absdiff_distance(), DEParams.size(4, c=4.0)
        )
        for i, value in enumerate([0, 1, 2, 3, 100, 101, 102, 500]):
            inc.add((str(value),))
            assert inc.last_op.pinned_pairs == i

    def test_removing_an_unreferenced_record_costs_no_distance_calls(self):
        # theta = 0.01 (absdiff scale 1000 -> radius 10): the outlier at
        # 500 is in nobody's cut list, is nobody's exact NN, and sits in
        # nobody's neighborhood, so its removal repairs nothing.
        params = DEParams.diameter(0.01, c=4.0)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        for value in (0, 1, 2, 500):
            inc.add((str(value),))
        inc.remove(3)
        assert inc.last_op.rebuilt == 0
        assert inc.last_op.rows == 0
        assert inc.last_op.pinned_pairs == 0

    def test_removing_a_referenced_record_rebuilds_only_referencers(self):
        params = DEParams.diameter(0.01, c=4.0)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        for value in (0, 1, 2, 500):
            inc.add((str(value),))
        assert inc._refs[1] == {0, 2}  # not the outlier
        inc.remove(1)
        # Its referrers 0 and 2 take it out of their heads, and each
        # other's head covers its new radius: no referrer reads a row.
        # The one row is the removed record's own (the outlier's NG
        # counted it), so it costs its 3 distances.
        op = inc.last_op
        assert (op.rebuilt, op.rows, op.pinned_pairs) == (0, 1, 3)
        assert inc._heads[0] == [(0.002, 2)]
        assert inc._heads[2] == [(0.002, 0)]
        assert verify_incremental(inc).ok


def head_of(inc, rid):
    """``rid``'s ranking head and whether it is truncated."""
    return inc._heads[rid], bool(inc._past[inc._slot_of[rid]])


class TestRankingHeads:
    """Each record keeps the first 2K entries of its ``(distance,
    rid)`` ranking; a removal takes itself out of its referrers' heads,
    and only a truncated head drained below K (a refill) or a new
    radius past the head (a recount) reads the referrer's own row."""

    def served(self, params, values):
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        for value in values:
            inc.add((str(value),))
        return inc

    @pytest.mark.parametrize(
        "params, tail",
        [(DEParams.size(2, c=4.0), [(0.9, 7)]),
         (DEParams.combined(2, 0.5, c=4.0), [])],
        ids=["size", "comb"],
    )
    def test_a_drained_truncated_head_refills_from_its_row(self, params, tail):
        # Record 0's ranking inside θ holds six or seven records, its
        # head the first four; 900 lies outside θ under the combined cut.
        inc = self.served(params, (0, 1, 100, 101, 102, 103, 104, 900))
        assert head_of(inc, 0) == (
            [(0.001, 1), (0.1, 2), (0.101, 3), (0.102, 4)], True
        )
        inc.remove(2)
        inc.remove(3)
        # Still K entries: no refill, and the cut list is (1, 4).
        assert head_of(inc, 0) == ([(0.001, 1), (0.102, 4)], True)
        assert verify_incremental(inc).ok
        inc.remove(4)
        assert head_of(inc, 0) == (
            [(0.001, 1), (0.103, 5), (0.104, 6), *tail], False
        )
        op = inc.last_op
        assert op.rebuilt >= 1
        assert op.rows >= op.rebuilt
        assert verify_incremental(inc).ok

    @pytest.mark.parametrize(
        "params, values, head, ng",
        [
            # Truncated size-cut head: radius 0.08 passes its last 0.06.
            (
                DEParams.size(2, c=4.0), (0, 10, 40, 50, 60, 70),
                [(0.04, 2), (0.05, 3), (0.06, 4), (0.07, 5)], 5,
            ),
            # Whole θ-lists: radius 0.3 passes θ = 0.2.
            (
                DEParams.combined(2, 0.2, c=4.0), (0, 10, 150, 900),
                [(0.15, 2)], 2,
            ),
            (DEParams.diameter(0.2, c=4.0), (0, 10, 150, 900), [(0.15, 2)], 2),
        ],
        ids=["size", "comb", "diam"],
    )
    def test_a_radius_past_the_head_recounts_from_the_row(
        self, params, values, head, ng
    ):
        inc = self.served(params, values)
        assert inc._nn_rid[inc._slot_of[0]] == 1
        inc.remove(1)
        op = inc.last_op
        assert op.rebuilt >= 1
        assert op.rows >= op.rebuilt
        assert inc._heads[0] == head
        assert inc.nn_relation().get(0).ng == ng
        assert verify_incremental(inc).ok

    @pytest.mark.parametrize(
        "params",
        [DEParams.combined(2, 0.05, c=4.0), DEParams.diameter(0.05, c=4.0)],
        ids=["comb", "diam"],
    )
    def test_an_exact_nn_outside_theta_is_found_by_a_row(self, params):
        inc = self.served(params, (0, 10, 900))
        assert inc._heads[0] == [(0.01, 1)]
        inc.remove(1)
        # Nothing is left inside θ: the exact NN is no head's entry.
        assert inc._heads[0] == []
        assert inc._nn_rid[inc._slot_of[0]] == 2
        assert inc.last_op.rebuilt >= 1
        assert verify_incremental(inc).ok

    def test_a_radius_inside_the_head_is_counted_by_bisection(self):
        inc = self.served(DEParams.size(2, c=4.0), (0, 10, 12, 14, 30, 40))
        assert head_of(inc, 0) == (
            [(0.01, 1), (0.012, 2), (0.014, 3), (0.03, 4)], True
        )
        inc.remove(1)
        # Radius 0.024 stays inside the head (last 0.03): 2 and 3.
        assert inc.nn_relation().get(0).ng == 3
        assert inc._nn_rid[inc._slot_of[0]] == 2
        assert verify_incremental(inc).ok

    def test_an_arrival_past_a_full_head_truncates_it(self):
        inc = self.served(DEParams.size(2, c=4.0), (0, 10, 20, 30, 40))
        assert head_of(inc, 0) == (
            [(0.01, 1), (0.02, 2), (0.03, 3), (0.04, 4)], False
        )
        inc.add(("40",))  # ties the last entry and ranks after it
        assert head_of(inc, 0) == (
            [(0.01, 1), (0.02, 2), (0.03, 3), (0.04, 4)], True
        )
        inc.add(("5",))  # enters first and pushes the last one out
        assert head_of(inc, 0) == (
            [(0.005, 6), (0.01, 1), (0.02, 2), (0.03, 3)], True
        )
        assert verify_incremental(inc).ok

    def test_a_head_nothing_ranks_past_admits_again(self):
        inc = self.served(DEParams.size(2, c=4.0), (0, 10, 20, 30, 40, 50))
        inc.remove(1)
        assert head_of(inc, 0) == ([(0.02, 2), (0.03, 3), (0.04, 4)], True)
        inc.remove(5)  # the one record past the head, which never held it
        assert head_of(inc, 0) == ([(0.02, 2), (0.03, 3), (0.04, 4)], False)
        inc.add(("45",))  # past the last entry, but the head is whole
        assert head_of(inc, 0) == (
            [(0.02, 2), (0.03, 3), (0.04, 4), (0.045, 6)], False
        )
        assert verify_incremental(inc).ok


class TestRemoval:
    def run_batch(self, inc, params):
        return batch_reference(inc).partition

    def test_remove_returns_state_to_batch(self):
        params = DEParams.size(3, c=4.0)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        for value in (0, 1, 100, 101, 500):
            inc.add((str(value),))
        inc.remove(1)
        assert len(inc) == 4
        assert inc.partition() == self.run_batch(inc, params)
        # Batch-verified grouping of the survivors: the far outlier
        # stays out, everything else is compact at this K.
        assert inc.partition().non_trivial_groups() == [(0, 2, 3)]

    def test_remove_unknown_rid_raises_before_touching_state(self):
        inc = IncrementalDeduplicator(
            absdiff_distance(), DEParams.size(3, c=4.0)
        )
        inc.add(("1",))
        before = inc.partition()
        with pytest.raises(KeyError):
            inc.remove(77)
        assert inc.partition() == before

    def test_double_remove_raises(self):
        inc = IncrementalDeduplicator(
            absdiff_distance(), DEParams.size(3, c=4.0)
        )
        inc.add(("1",))
        inc.add(("2",))
        inc.remove(0)
        with pytest.raises(KeyError):
            inc.remove(0)

    def test_rids_are_never_reused_after_removal(self):
        inc = IncrementalDeduplicator(
            absdiff_distance(), DEParams.size(3, c=4.0)
        )
        assert inc.add(("1",)) == 0
        inc.remove(0)
        assert inc.add(("2",)) == 1

    def test_remove_down_to_empty(self):
        inc = IncrementalDeduplicator(
            absdiff_distance(), DEParams.size(3, c=4.0)
        )
        for value in (1, 2):
            inc.add((str(value),))
        inc.remove(0)
        inc.remove(1)
        assert len(inc) == 0
        assert inc.partition().groups == ()

    def test_removing_group_member_dissolves_group(self):
        params = DEParams.size(3, c=3.0)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        inc.add(("0",))
        inc.add(("500",))
        inc.add(("1",))  # displaces the spurious (0, 500) pairing
        assert inc.partition().non_trivial_groups() == [(0, 2)]
        inc.remove(2)
        # Back to the 2-record relation: vacuously compact again.
        assert inc.partition().non_trivial_groups() == [(0, 1)]
        assert inc.partition() == self.run_batch(inc, params)


@st.composite
def interleaved_ops(draw):
    """A random insert/delete trace; removes target live rids only."""
    n_ops = draw(st.integers(3, 14))
    ops = []
    live = []
    rid = 0
    for _ in range(n_ops):
        removable = live and draw(st.integers(0, 3)) == 0
        if removable:
            victim = draw(st.sampled_from(live))
            live.remove(victim)
            ops.append(("remove", victim))
        else:
            ops.append(("add", draw(st.integers(0, 900))))
            live.append(rid)
            rid += 1
    return ops


CUT_PARAMS = [
    DEParams.size(3, c=4.0),
    DEParams.diameter(0.08, c=4.0),
    DEParams.combined(3, 0.1, c=4.0),
]


def apply_ops(inc, ops):
    for op, payload in ops:
        if op == "add":
            inc.add((str(payload),))
        else:
            inc.remove(payload)


class TestInterleavedMatchesBatch:
    """The tentpole invariant: after ANY interleaved insert/delete
    sequence the maintained partition is bit-identical (checksum) to a
    from-scratch batch run over the surviving records — across all
    three cut specifications and both kernel backends."""

    @pytest.mark.parametrize("params", CUT_PARAMS, ids=["size", "diam", "comb"])
    @settings(max_examples=25, deadline=None)
    @given(ops=interleaved_ops())
    def test_final_state_matches_batch(self, params, ops):
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        apply_ops(inc, ops)
        batch = batch_reference(inc)
        assert inc.partition().checksum() == batch.partition.checksum()
        inc_nn = inc.nn_relation()
        for entry in batch.nn_relation:
            ours = inc_nn.get(entry.rid)
            assert ours.neighbor_ids == entry.neighbor_ids, entry.rid
            assert ours.ng == entry.ng, entry.rid

    @settings(max_examples=10, deadline=None)
    @given(ops=interleaved_ops())
    def test_every_step_matches_batch(self, ops):
        params = DEParams.size(3, c=4.0)
        inc = IncrementalDeduplicator(absdiff_distance(), params)
        for op, payload in ops:
            if op == "add":
                inc.add((str(payload),))
            else:
                inc.remove(payload)
            assert (
                inc.partition().checksum()
                == batch_reference(inc).partition.checksum()
            )

    @pytest.mark.parametrize("kernel", ["python", "auto"])
    @settings(max_examples=8, deadline=None)
    @given(ops=interleaved_ops())
    def test_matches_batch_under_both_kernel_backends(self, kernel, ops):
        params = DEParams.size(3, c=4.0)
        inc = IncrementalDeduplicator(EditDistance(), params)
        for op, payload in ops:
            if op == "add":
                inc.add((f"rec {payload}",))
            else:
                inc.remove(payload)
        relation = Relation(name="live", schema=inc.relation.schema)
        from repro.data.schema import Record

        for record in inc.relation:
            relation.add(Record(record.rid, record.fields))
        batch = DuplicateEliminator(
            FrozenDistance(EditDistance()), config=RunConfig(kernel=kernel)
        ).run(relation, params)
        assert inc.partition().checksum() == batch.partition.checksum()


class TestMinHashCandidateCounts:
    """Under MinHash candidates every row runs over LSH candidates only.
    Candidacy is symmetric (a shared band), so a removed record's row
    reaches every record that counted it: after each insert or removal,
    every NG equals a recount over that record's current candidates."""

    @pytest.mark.parametrize(
        "params", [DEParams.size(3, c=4.0), DEParams.combined(3, 0.4, c=4.0)]
    )
    def test_ng_equals_a_recount_over_the_candidates(self, params):
        from repro.data.loaders import load_dataset
        from repro.index.postings import PersistentMinHashPostings
        from repro.storage.engine import Engine

        relation = load_dataset(
            "org", n_entities=30, duplicate_fraction=0.5, seed=3
        ).relation
        postings = PersistentMinHashPostings(Engine())
        inc = IncrementalDeduplicator(
            EditDistance(), params, schema=relation.schema, candidates=postings
        )
        inner = inc.distance.inner
        removed = 0
        for step, record in enumerate(relation):
            inc.add(record.fields)
            if step % 3 == 2:
                live = inc.relation.ids()
                inc.remove(live[(7 * step) % len(live)])
                removed += 1
            maintained = inc.nn_relation()
            for query in inc.relation:
                row = [
                    inner.distance(*sorted((query, other), key=lambda r: r.rid))
                    for other in map(inc.relation.get, postings.candidates(query))
                ]
                nn = min(row, default=float("inf"))
                radius = inc.params.p * nn if nn > 0.0 else math.nextafter(0.0, 1.0)
                expected = 1 + sum(d < radius for d in row)
                assert maintained.get(query.rid).ng == expected, (step, query.rid)
        assert removed >= 10
