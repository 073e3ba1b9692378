"""Tests for the first-class constraint layer.

Covers the typed algebra (kinds, validation, serialization round-trip),
the pair-filter semantics (strict missing-value handling keeps every
mode's output contract identical), block planning, all three constraint
modes across execution paths (in-memory, spill, sharded, incremental),
the pushdown block-parity harness, the claims workload's gold
consistency, and the CLI's exit-2 convention.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.constraints import (
    BlockKey,
    CannotLink,
    ConstraintError,
    PairFilter,
    TimeWindow,
    constraint_from_dict,
    constraint_to_dict,
    constraints_from_dicts,
    constraints_to_dicts,
    parse_day,
    plan_blocks,
    validate_constraints,
)
from repro.core.formulation import DEParams
from repro.core.incremental import IncrementalDeduplicator
from repro.data.loaders import load_dataset, relation_to_csv
from repro.data.schema import Record, Relation
from repro.run.config import ConfigError, RunConfig
from repro.run.context import RunContext
from repro.run.pipeline import StagedPipeline
from repro.run.registry import make_distance
from repro.verify import verify_incremental
from repro.verify.constraints import (
    check_group_constraints,
    verify_constraint_blocks,
)

CLAIMS_CONSTRAINTS = (
    BlockKey("patient_id"),
    BlockKey("provider"),
    TimeWindow("service_date", days=30),
)

CLAIMS_PARAMS = DEParams.combined(5, 0.45, c=4.0)


@pytest.fixture(scope="module")
def claims():
    return load_dataset("claims", n_entities=40, duplicate_fraction=0.4, seed=5)


def run_claims(claims, **config_kwargs):
    config = RunConfig(
        distance="edit",
        index="brute",
        keep_cs_pairs=True,
        constraints=CLAIMS_CONSTRAINTS,
        **config_kwargs,
    )
    context = RunContext.create(config)
    return StagedPipeline(context).run(claims.relation, CLAIMS_PARAMS)


class TestAlgebra:
    def test_kinds_and_hardness(self):
        assert CannotLink("a").kind == "cannot-link"
        assert not CannotLink("a").hard
        assert BlockKey("a").hard
        assert TimeWindow("a").hard
        assert not TimeWindow("a", hard_window=False).hard

    def test_validate_rejects_unknown_field(self):
        with pytest.raises(ConstraintError, match="not in schema"):
            validate_constraints([BlockKey("nope")], ("a", "b"))

    def test_negative_window_rejected(self):
        with pytest.raises(ConstraintError, match="non-negative"):
            TimeWindow("date", days=-1).validate(("date",))

    def test_parse_day(self):
        assert parse_day("2024-01-02") == parse_day("2024-01-01") + 1
        assert parse_day("") is None
        assert parse_day("not a date") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConstraintError, match="unknown constraint kind"):
            constraint_from_dict({"kind": "must-link", "field": "a"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConstraintError):
            constraint_from_dict(
                {"kind": "block-key", "field": "a", "extra": 1}
            )


constraint_strategy = st.one_of(
    st.builds(CannotLink, st.text(min_size=1, max_size=8)),
    st.builds(BlockKey, st.text(min_size=1, max_size=8)),
    st.builds(
        TimeWindow,
        st.text(min_size=1, max_size=8),
        days=st.integers(0, 3650),
        hard_window=st.booleans(),
    ),
)


class TestSerialization:
    @settings(max_examples=50, deadline=None)
    @given(constraint_strategy)
    def test_dict_round_trip(self, constraint):
        assert constraint_from_dict(constraint_to_dict(constraint)) == constraint

    @settings(max_examples=25, deadline=None)
    @given(st.lists(constraint_strategy, max_size=4))
    def test_tuple_round_trip(self, constraints):
        dicts = constraints_to_dicts(constraints)
        assert constraints_from_dicts(dicts) == tuple(constraints)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(constraint_strategy, max_size=3))
    def test_run_config_round_trip(self, constraints):
        config = RunConfig(constraints=tuple(constraints))
        rebuilt = RunConfig(constraints=config.to_dict()["constraints"])
        assert rebuilt.constraints == config.constraints


class TestPairFilter:
    schema = ("name", "tag", "date")

    def pair(self, a_fields, b_fields, constraints):
        fltr = PairFilter(constraints, self.schema)
        return fltr(Record(0, tuple(a_fields)), Record(1, tuple(b_fields)))

    def test_cannot_link_missing_values_allowed(self):
        cons = (CannotLink("tag"),)
        assert self.pair(("x", "", ""), ("y", "b", ""), cons)
        assert self.pair(("x", "a", ""), ("y", "a", ""), cons)
        assert not self.pair(("x", "a", ""), ("y", "b", ""), cons)

    def test_block_key_compares_raw_values(self):
        cons = (BlockKey("tag"),)
        assert self.pair(("x", "a", ""), ("y", "a", ""), cons)
        assert not self.pair(("x", "a", ""), ("y", "", ""), cons)

    def test_time_window_unparseable_violates(self):
        cons = (TimeWindow("date", days=3),)
        assert self.pair(("x", "", "2024-01-01"), ("y", "", "2024-01-04"), cons)
        assert not self.pair(("x", "", "2024-01-01"), ("y", "", "2024-01-05"), cons)
        assert not self.pair(("x", "", "oops"), ("y", "", "2024-01-01"), cons)


class TestPlanBlocks:
    def relation(self, rows):
        return Relation.from_rows("t", ("key", "date"), rows)

    def test_block_key_grouping(self):
        relation = self.relation(
            [["a", ""], ["b", ""], ["a", ""], ["b", ""], ["c", ""]]
        )
        blocks = plan_blocks(relation, (BlockKey("key"),))
        assert blocks == [[0, 2], [1, 3], [4]]

    def test_time_window_gap_refinement(self):
        relation = self.relation(
            [
                ["a", "2024-01-01"],
                ["a", "2024-01-20"],
                ["a", "2024-06-01"],
            ]
        )
        blocks = plan_blocks(
            relation, (BlockKey("key"), TimeWindow("date", days=30))
        )
        assert blocks == [[0, 1], [2]]

    def test_unparseable_dates_become_singletons(self):
        relation = self.relation([["a", "oops"], ["a", "2024-01-01"]])
        blocks = plan_blocks(relation, (TimeWindow("date", days=30),))
        assert sorted(blocks) == [[0], [1]]


class TestModes:
    def test_all_modes_emit_zero_violations(self, claims):
        for mode in ("postprocess", "inline", "pushdown"):
            result = run_claims(claims, constraint_mode=mode)
            check = check_group_constraints(
                result.partition, claims.relation, CLAIMS_CONSTRAINTS
            )
            assert check.passed, f"{mode}: {check.violations}"

    def test_postprocess_paths_agree(self, claims):
        reference = run_claims(claims, constraint_mode="postprocess")
        spill = run_claims(
            claims,
            constraint_mode="postprocess",
            use_engine=True,
            spill=True,
            buffer_pages=8,
        )
        sharded = run_claims(
            claims, constraint_mode="postprocess", shards=2
        )
        assert spill.partition.checksum() == reference.partition.checksum()
        assert sharded.partition.checksum() == reference.partition.checksum()

    def test_pushdown_block_parity(self, claims):
        report = verify_constraint_blocks(
            claims.relation,
            CLAIMS_CONSTRAINTS,
            CLAIMS_PARAMS,
            distance="edit",
            index="brute",
        )
        assert report.ok, report.render()

    def test_pushdown_prunes_evaluations(self, claims):
        reference = run_claims(claims, constraint_mode="postprocess")
        pushdown = run_claims(claims, constraint_mode="pushdown")

        def evals(result):
            phase1 = result.stats.phase1
            return phase1.evaluations + phase1.kernel_evaluations

        assert evals(pushdown) < evals(reference)
        plan = pushdown.stats.constraint_plan
        assert plan["mode"] == "pushdown"
        assert plan["n_blocks"] >= plan["n_multi_blocks"] > 0
        # Each same-block pair is scored exactly once.
        assert evals(pushdown) == plan["n_coresident_pairs"]

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_pushdown_workers_score_each_pair_once(self, claims, pool):
        # Lookup chunks are cut at block edges, so no same-block pair
        # straddles two chunks and is scored by both.
        single = run_claims(claims, constraint_mode="pushdown")
        parallel = run_claims(
            claims, constraint_mode="pushdown", n_workers=2, pool=pool
        )
        phase1 = parallel.stats.phase1
        assert phase1.n_chunks > 1
        assert (
            phase1.evaluations + phase1.kernel_evaluations
            == parallel.stats.constraint_plan["n_coresident_pairs"]
        )
        assert parallel.partition.checksum() == single.partition.checksum()

    def test_pushdown_paths_agree(self, claims):
        reference = run_claims(claims, constraint_mode="pushdown")
        spill = run_claims(
            claims,
            constraint_mode="pushdown",
            use_engine=True,
            spill=True,
            buffer_pages=8,
        )
        threads = run_claims(
            claims, constraint_mode="pushdown", n_workers=2, pool="thread"
        )
        assert spill.partition.checksum() == reference.partition.checksum()
        assert threads.partition.checksum() == reference.partition.checksum()

    def test_pushdown_kernel_and_scalar_agree(self, claims):
        auto = run_claims(claims, constraint_mode="pushdown", kernel="auto")
        scalar = run_claims(claims, constraint_mode="pushdown", kernel="python")
        assert scalar.stats.kernel_backend == "python"
        assert auto.partition.checksum() == scalar.partition.checksum()

    def test_pushdown_runs_one_pipeline(self, claims, monkeypatch):
        from repro.shard.runner import ShardRunner

        config = RunConfig(
            distance="edit",
            use_engine=True,
            constraints=CLAIMS_CONSTRAINTS,
            constraint_mode="pushdown",
        )
        names = [
            stage.name
            for stage in StagedPipeline(RunContext.create(config)).stages()
        ]
        assert names == [
            "constraint", "phase1", "spill", "cspairs", "partition",
            "postprocess",
        ]

        def no_block_pipelines(*args, **kwargs):
            raise AssertionError("pushdown ran the per-block reference")

        monkeypatch.setattr(ShardRunner, "run_blocks", no_block_pipelines)
        result = run_claims(claims, constraint_mode="pushdown")
        assert [t.stage for t in result.stats.timings] == [
            name for name in names if name != "spill"
        ]

    def test_inline_filter_counts_drops(self, claims):
        inline = run_claims(claims, constraint_mode="inline")
        reference = run_claims(claims, constraint_mode="postprocess")
        assert inline.stats.phase2.pairs_filtered > 0
        assert inline.stats.n_cs_pairs < reference.stats.n_cs_pairs
        # Join-time filtering only drops pairs the final split would
        # have cut anyway: the emitted partition is identical.
        assert inline.partition.checksum() == reference.partition.checksum()

    def test_pushdown_rejects_sharding(self):
        with pytest.raises(ConfigError):
            RunConfig(
                constraints=(BlockKey("patient_id"),),
                constraint_mode="pushdown",
                shards=2,
            )

    def test_final_split_catches_transitive_violations(self):
        # b sits between a and c; a-b and b-c are allowed but a-c is
        # forbidden, so transitive group extraction would emit {a,b,c}.
        # Every mode must split it, join-time filtering included.
        relation = Relation.from_rows(
            "chain",
            ("name", "tag"),
            [
                ["alpha star", "x"],
                ["alpha stir", ""],
                ["alpha sta", "y"],
                ["omega omega omega", ""],
            ],
        )
        for mode in ("postprocess", "inline"):
            config = RunConfig(
                distance="edit",
                constraints=(CannotLink("tag"),),
                constraint_mode=mode,
            )
            context = RunContext.create(config)
            result = StagedPipeline(context).run(
                relation, DEParams.size(3, c=8.0)
            )
            check = check_group_constraints(
                result.partition, relation, config.constraints
            )
            assert check.passed, f"{mode}: {check.violations}"


class TestIncremental:
    def replay(self, claims, mode):
        dedup = IncrementalDeduplicator(
            make_distance("edit"),
            CLAIMS_PARAMS,
            schema=claims.relation.schema,
            constraints=CLAIMS_CONSTRAINTS,
            constraint_mode=mode,
        )
        for record in claims.relation:
            dedup.add(record.fields)
        return dedup

    @pytest.mark.parametrize("mode", ["postprocess", "pushdown"])
    def test_streamed_partition_is_consistent(self, claims, mode):
        dedup = self.replay(claims, mode)
        check = check_group_constraints(
            dedup.partition(), dedup.relation, CLAIMS_CONSTRAINTS
        )
        assert check.passed, check.violations
        report = verify_incremental(dedup)
        assert report.ok, report.render()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="constraint mode"):
            IncrementalDeduplicator(
                make_distance("edit"),
                CLAIMS_PARAMS,
                schema=("a",),
                constraint_mode="sideways",
            )


class TestClaimsWorkload:
    def test_gold_pairs_satisfy_constraints(self, claims):
        fltr = PairFilter(CLAIMS_CONSTRAINTS, claims.relation.schema)
        for a, b in claims.gold.true_pairs():
            assert fltr(claims.relation.get(a), claims.relation.get(b))

    def test_duplicates_share_keys_and_window(self, claims):
        schema = claims.relation.schema
        pid = schema.index("patient_id")
        prov = schema.index("provider")
        date = schema.index("service_date")
        for a, b in claims.gold.true_pairs():
            fields_a = claims.relation.get(a).fields
            fields_b = claims.relation.get(b).fields
            assert fields_a[pid] == fields_b[pid]
            assert fields_a[prov] == fields_b[prov]
            gap = abs(parse_day(fields_a[date]) - parse_day(fields_b[date]))
            assert gap <= 30


class TestCLI:
    @pytest.fixture
    def claims_csv(self, tmp_path, claims):
        path = tmp_path / "claims.csv"
        relation_to_csv(claims.relation, path)
        return path

    def test_dedup_with_constraints(self, claims_csv):
        out = io.StringIO()
        code = main(
            [
                "dedup", str(claims_csv),
                "--distance", "edit",
                "--block-key", "patient_id",
                "--block-key", "provider",
                "--time-window", "30",
                "--time-field", "service_date",
                "--constraint-mode", "pushdown",
                "--verify",
            ],
            out=out,
        )
        assert code == 0
        assert "constraint-consistency" in out.getvalue()

    def test_unknown_field_exits_2(self, claims_csv, capsys):
        code = main(["dedup", str(claims_csv), "--block-key", "nope"])
        assert code == 2
        assert "not in schema" in capsys.readouterr().err

    def test_time_window_without_field_exits_2(self, claims_csv, capsys):
        code = main(["dedup", str(claims_csv), "--time-window", "30"])
        assert code == 2
        assert "--time-field" in capsys.readouterr().err

    def test_serve_with_constraints(self, claims_csv):
        out = io.StringIO()
        code = main(
            [
                "serve", str(claims_csv),
                "--from-csv",
                "--distance", "edit",
                "--block-key", "patient_id",
                "--block-key", "provider",
                "--constraint-mode", "postprocess",
                "--quiet",
                "--verify",
            ],
            out=out,
        )
        assert code == 0
        assert "constraint-consistency" in out.getvalue()
