"""Tests for the runtime invariant-verification subsystem.

The core design is mutation-style: run the pipeline on a real dataset,
corrupt the known-good :class:`DEResult` in one targeted way, and
assert the corruption is flagged by exactly the check built to catch
it (with unrelated checks staying green).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.formulation import DEParams
from repro.core.neighborhood import NNRelation
from repro.core.pipeline import DuplicateEliminator
from repro.core.result import Partition
from repro.data.embedded import table1_relation
from repro.distances.base import CachedDistance
from repro.distances.edit import EditDistance
from repro.eval.pr_curve import QualitySweeper
from repro.verify import (
    CHECKS,
    VerificationError,
    check_cross_path,
    run_paths,
    summarize,
    verify_paths,
    verify_result,
)

PARAMS = DEParams.size(5, c=4.0)


@pytest.fixture(scope="module")
def good(restaurants_dataset):
    """A known-good run (with CSPairs kept) and its inputs."""
    distance = CachedDistance(EditDistance())
    solver = DuplicateEliminator(distance, keep_cs_pairs=True)
    result = solver.run(restaurants_dataset.relation, PARAMS)
    assert result.partition.non_trivial_groups(), "fixture needs duplicates"
    return result, restaurants_dataset.relation, distance


def mutate_nn(result, rid, **changes):
    """A copy of ``result`` with one NN entry's fields replaced."""
    entries = {entry.rid: entry for entry in result.nn_relation}
    entries[rid] = replace(entries[rid], **changes)
    return replace(result, nn_relation=NNRelation(entries), verification=None)


class TestKnownGoodResult:
    def test_every_check_passes(self, good):
        result, relation, distance = good
        report = verify_result(result, relation, distance)
        assert report.ok
        assert [check.name for check in report.checks] == list(CHECKS)
        assert not any(check.skipped for check in report.checks)

    def test_missing_distance_skips_distance_checks(self, good):
        result, relation, _ = good
        report = verify_result(result, relation, None)
        assert report.ok
        for name in ("compact-set", "maximality", "nn-parity"):
            assert report.get(name).skipped

    def test_unknown_check_name_rejected(self, good):
        result, relation, distance = good
        with pytest.raises(ValueError, match="unknown checks"):
            verify_result(result, relation, distance, checks=("partition", "nope"))

    def test_summarize_is_json_shaped(self, good):
        result, relation, distance = good
        digest = summarize(verify_result(result, relation, distance))
        assert digest["ok"] is True
        assert digest["failed"] == []
        assert digest["n_checks"] == len(CHECKS)


class TestMutations:
    def test_member_swapped_across_groups_fails_compact_set(self, good):
        result, relation, distance = good
        groups = [list(group) for group in result.partition.groups]
        src = next(i for i, g in enumerate(groups) if len(g) >= 2)
        dst = next(i for i, g in enumerate(groups) if i != src and len(g) == 1)
        groups[dst].append(groups[src].pop())
        mutated = replace(
            result, partition=Partition.from_groups(groups), verification=None
        )
        report = verify_result(mutated, relation, distance)
        assert not report.ok
        assert "compact-set" in report.failed_names()
        assert report.get("partition").passed  # still a valid partition

    def test_inflated_ng_fails_sn_bound(self, good):
        result, relation, distance = good
        rid = result.partition.non_trivial_groups()[0][0]
        mutated = mutate_nn(result, rid, ng=100)
        report = verify_result(mutated, relation, distance)
        assert "sn-bound" in report.failed_names()
        violation = report.get("sn-bound").violations[0]
        assert rid in violation.subject
        assert report.get("partition").passed

    def test_corrupted_cspair_flag_caught_only_by_cspairs(self, good):
        result, relation, distance = good
        pairs = list(result.cs_pairs)
        target = next(i for i, p in enumerate(pairs) if p.flags)
        flags = pairs[target].flags
        pairs[target] = replace(pairs[target], flags=(not flags[0], *flags[1:]))
        mutated = replace(result, cs_pairs=pairs, verification=None)
        report = verify_result(mutated, relation, distance)
        # The reproducible check re-derives reference rows from the NN
        # relation, so the corruption stays confined to the one check.
        assert report.failed_names() == ["cspairs"]

    def test_oversized_group_fails_cut_spec(self, good):
        result, relation, distance = good
        merged, rest = [], []
        for group in result.partition.groups:
            if len(merged) <= PARAMS.cut.k:
                merged.extend(group)
            else:
                rest.append(group)
        assert len(merged) > PARAMS.cut.k
        mutated = replace(
            result,
            partition=Partition.from_groups([merged, *rest]),
            verification=None,
        )
        report = verify_result(mutated, relation, distance)
        assert "cut-spec" in report.failed_names()
        assert f"exceeds the bound K = {PARAMS.cut.k}" in (
            report.get("cut-spec").violations[0].message
        )

    def test_dropped_record_fails_partition(self, good):
        result, relation, distance = good
        dropped = next(g[0] for g in result.partition.groups if len(g) == 1)
        groups = [g for g in result.partition.groups if g != (dropped,)]
        mutated = replace(
            result, partition=Partition.from_groups(groups), verification=None
        )
        report = verify_result(mutated, relation, distance)
        assert "partition" in report.failed_names()
        assert (dropped,) in [
            v.subject for v in report.get("partition").violations
        ]

    def test_split_group_fails_only_maximality(self, good):
        result, relation, distance = good
        pair = next(g for g in result.partition.groups if len(g) == 2)
        groups = [g for g in result.partition.groups if g != pair]
        groups += [(pair[0],), (pair[1],)]
        mutated = replace(
            result, partition=Partition.from_groups(groups), verification=None
        )
        # Splitting a valid group breaks nothing *inside* any group, so
        # with reproducibility (a partition-equality check) set aside,
        # maximality is the only detector of the missed merge.
        report = verify_result(
            mutated, relation, distance, expect_reproducible=False
        )
        assert report.failed_names() == ["maximality"]
        assert tuple(sorted(pair)) in [
            v.subject for v in report.get("maximality").violations
        ]

    def test_corrupted_nn_distance_fails_nn_parity(self, good):
        result, relation, distance = good
        entry = next(iter(result.nn_relation))
        neighbors = (
            replace(entry.neighbors[0], distance=entry.neighbors[0].distance + 1.0),
            *entry.neighbors[1:],
        )
        mutated = mutate_nn(result, entry.rid, neighbors=neighbors)
        # sample >= n guarantees the corrupted record is spot-checked.
        report = verify_result(
            mutated, relation, distance, sample=len(relation)
        )
        assert "nn-parity" in report.failed_names()
        assert report.get("partition").passed

    def test_strict_mode_raises_with_report_attached(self, good):
        result, relation, distance = good
        mutated = mutate_nn(result, result.partition.groups[0][0], ng=100)
        with pytest.raises(VerificationError) as excinfo:
            verify_result(mutated, relation, distance, strict=True)
        assert "sn-bound" in excinfo.value.report.failed_names()
        assert "sn-bound" in str(excinfo.value)


class TestPipelineIntegration:
    def test_verify_true_attaches_passing_report(self, good):
        _, relation, distance = good
        solver = DuplicateEliminator(distance, verify=True)
        result = solver.run(relation, PARAMS)
        assert result.verification is not None
        assert result.verification.ok
        assert result.cs_pairs is not None  # verify implies keep_cs_pairs

    def test_invalid_verify_mode_rejected(self, good):
        _, _, distance = good
        with pytest.raises(ValueError, match="verify must be"):
            DuplicateEliminator(distance, verify="loud")

    def test_postprocessed_run_gets_reduced_check_list(self, good):
        _, relation, distance = good
        solver = DuplicateEliminator(distance, minimal=True, verify=True)
        result = solver.run(relation, PARAMS)
        assert result.verification.ok
        names = [check.name for check in result.verification.checks]
        assert names == ["partition", "cut-spec", "nn-parity"]

    def test_sweeper_self_check_accepts_good_runs(self, restaurants_dataset):
        sweeper = QualitySweeper(
            restaurants_dataset, EditDistance(), k_max=6, verify=True
        )
        sweep = sweeper.sweep_de_size([3, 5], c=4.0)
        assert len(sweep.points) == 2


class TestCrossPath:
    def test_verify_paths_all_green_on_table1(self):
        report = verify_paths(
            table1_relation(), EditDistance(), DEParams.size(5, c=4.0)
        )
        assert report.ok
        assert "cross-path" in report
        assert report.get("cross-path").checked == 7

    def test_cross_path_flags_divergent_partition(self):
        relation = table1_relation()
        results = run_paths(relation, EditDistance(), DEParams.size(5, c=4.0))
        name = list(results)[-1]
        results[name] = replace(
            results[name],
            partition=Partition.singletons(relation.ids()),
            verification=None,
        )
        outcome = check_cross_path(results)
        assert not outcome.passed
        assert any(name in v.message for v in outcome.violations)
