"""Tests for RunConfig validation, round-tripping, and CLI mapping."""

import io

import pytest

from repro.cli import build_parser, main
from repro.run.config import ConfigError, RunConfig, VERIFY_MODES
from repro.run.context import RunContext
from repro.run.registry import make_distance, make_index


class TestValidation:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.distance == "fms"
        assert config.index == "brute"
        assert not config.use_engine

    @pytest.mark.parametrize(
        "changes",
        [
            {"order": "zigzag"},
            {"pool": "fibers"},
            {"n_workers": 0},
            {"chunk_size": 0},
            {"buffer_pages": 0},
            {"page_capacity": 0},
            {"verify": "loud"},
            {"spill": True},  # spill without use_engine
            {"shards": 0},
            {"shard_overlap": -0.1},
            {"shard_overlap": 1.01},
            {"shards_in_flight": 0},
            {"shards": 2, "shards_in_flight": 3},  # in-flight > shards
        ],
    )
    def test_invalid_values_rejected(self, changes):
        with pytest.raises(ConfigError):
            RunConfig(**changes)

    def test_shard_fields_accepted(self):
        config = RunConfig(shards=4, shard_overlap=0.5, shards_in_flight=2)
        assert config.shards == 4
        assert config.shard_overlap == 0.5
        assert config.shards_in_flight == 2
        # in-flight == shards is the boundary case and is legal.
        assert RunConfig(shards=3, shards_in_flight=3).shards_in_flight == 3

    # "bktree" names an index that was registered once and then
    # deleted: a saved config naming it fails when it is built.
    @pytest.mark.parametrize(
        "changes", [{"index": "bktree"}, {"index": "nope"}, {"distance": "nada"}]
    )
    def test_unregistered_names_rejected(self, changes):
        with pytest.raises(ConfigError, match="unknown (index|distance)"):
            RunConfig(**changes)

    def test_from_dict_rejects_unregistered_index(self):
        with pytest.raises(ConfigError, match="unknown index 'bktree'"):
            RunConfig.from_dict({"distance": "edit", "index": "bktree"})

    def test_config_error_is_value_error(self):
        with pytest.raises(ValueError):
            RunConfig(verify="loud")

    def test_all_verify_modes_accepted(self):
        for mode in VERIFY_MODES:
            assert RunConfig(verify=mode).verify == mode

    def test_spill_with_engine_accepted(self):
        config = RunConfig(spill=True, use_engine=True)
        assert config.spill

    def test_replace_validates(self):
        base = RunConfig()
        assert base.replace(n_workers=4).n_workers == 4
        with pytest.raises(ConfigError):
            base.replace(spill=True)

    def test_frozen(self):
        with pytest.raises(Exception):
            RunConfig().order = "random"


class TestRoundTrip:
    def test_dict_round_trip(self):
        config = RunConfig(
            distance="edit",
            index="qgram",
            n_workers=3,
            use_engine=True,
            spill=True,
            buffer_pages=16,
            verify="strict",
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown RunConfig keys"):
            RunConfig.from_dict({"distance": "edit", "turbo": True})

    def test_cli_round_trip(self):
        args = build_parser().parse_args(
            [
                "dedup", "in.csv", "--distance", "edit", "--index", "qgram",
                "--workers", "2", "--spill", "--buffer-pages", "32",
                "--verify",
            ]
        )
        config = RunConfig.from_cli_args(args)
        assert config.distance == "edit"
        assert config.index == "qgram"
        assert config.n_workers == 2
        assert config.spill and config.use_engine  # --spill implies engine
        assert config.buffer_pages == 32
        assert config.verify == "report"
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_cli_shard_flags(self):
        args = build_parser().parse_args(
            [
                "dedup", "in.csv", "--shards", "3",
                "--shard-overlap", "0.1", "--shards-in-flight", "2",
            ]
        )
        config = RunConfig.from_cli_args(args)
        assert config.shards == 3
        assert config.shard_overlap == 0.1
        assert config.shards_in_flight == 2
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_engine_flag_alone(self):
        args = build_parser().parse_args(["dedup", "in.csv", "--engine"])
        config = RunConfig.from_cli_args(args)
        assert config.use_engine and not config.spill

    def test_describe_shows_non_defaults(self):
        assert RunConfig().describe() == "RunConfig()"
        assert "spill=True" in RunConfig(spill=True, use_engine=True).describe()


class TestCLIExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dedup", "in.csv", "--engine", "--buffer-pages", "0"],
            ["dedup", "in.csv", "--workers", "0"],
            ["dedup", "in.csv", "--spill", "--page-capacity", "0"],
            ["dedup", "in.csv", "--shards", "0"],
            ["dedup", "in.csv", "--shards", "2", "--shards-in-flight", "4"],
            ["dedup", "in.csv", "--shards", "2", "--shard-overlap", "1.5"],
            ["dedup", "in.csv", "--shards", "2", "--shard-overlap", "-0.5"],
        ],
    )
    def test_invalid_config_exits_2(self, argv):
        # Config validation fires before the input file is read.
        assert main(argv, out=io.StringIO()) == 2


class TestContext:
    def test_create_resolves_registry_names(self):
        context = RunContext.create(RunConfig(distance="edit", index="qgram"))
        assert context.distance.name.startswith("cached(")
        assert context.index is not None
        assert context.engine is None

    def test_engine_sized_from_config(self):
        context = RunContext.create(
            RunConfig(use_engine=True, buffer_pages=7, page_capacity=5)
        )
        assert context.engine is not None
        assert context.engine.buffer.capacity == 7
        assert context.engine.disk.page_capacity == 5

    def test_spill_without_engine_rejected(self):
        config = RunConfig(spill=True, use_engine=True)
        with pytest.raises(ConfigError):
            RunContext(config, make_distance("edit"), make_index("brute"))

    def test_cache_distance_off(self):
        context = RunContext.create(RunConfig(cache_distance=False))
        assert not context.distance.name.startswith("cached(")

    def test_with_config_resizes_engine(self):
        base = RunContext.create(RunConfig(use_engine=True, buffer_pages=8))
        sibling = base.with_config(RunConfig(use_engine=True, buffer_pages=4))
        assert sibling.engine is not base.engine
        assert sibling.engine.buffer.capacity == 4
        same = base.with_config(RunConfig(use_engine=True, buffer_pages=8))
        assert same.engine is base.engine

    def test_stats_registry(self):
        context = RunContext.create(RunConfig())
        assert context.last_stats is None
        first = context.new_stats()
        second = context.new_stats()
        assert context.runs == [first, second]
        assert context.last_stats is second
