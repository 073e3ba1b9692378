"""Tests for the command-line interface."""

import csv
import io

import pytest

from repro.cli import build_parser, main
from repro.data.loaders import load_dataset, relation_to_csv


@pytest.fixture
def org_csv(tmp_path):
    dataset = load_dataset("org", n_entities=25, duplicate_fraction=0.4, seed=3)
    path = tmp_path / "org.csv"
    relation_to_csv(dataset.relation, path)
    return path, dataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dedup_defaults(self):
        args = build_parser().parse_args(["dedup", "file.csv"])
        assert args.distance == "fms"
        assert args.k == 5
        assert args.theta is None

    def test_unknown_distance_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dedup", "f.csv", "--distance", "nope"])

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "media"])


class TestDedup:
    def test_prints_groups(self, org_csv):
        path, _ = org_csv
        out = io.StringIO()
        code = main(["dedup", str(path), "--distance", "edit", "--k", "3"], out=out)
        assert code == 0
        assert "duplicate group(s) found" in out.getvalue()

    def test_stats_flag_reports_phase1_costs(self, org_csv):
        path, _ = org_csv
        out = io.StringIO()
        code = main(
            [
                "dedup", str(path),
                "--distance", "edit",
                "--index", "qgram",
                "--workers", "2",
                "--stats",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "phase 1 [qgram]:" in text
        assert "pairs pruned" in text
        assert "distance evaluations" in text

    def test_stats_sum_the_shard_buffer_pools(self, org_csv):
        # A sharded engine run pages through each shard's private pool;
        # the coordinator's own pool sees no traffic.
        path, _ = org_csv
        out = io.StringIO()
        code = main(
            [
                "dedup", str(path), "--distance", "edit",
                "--shards", "4", "--shards-in-flight", "2",
                "--engine", "--buffer-pages", "8", "--stats",
            ],
            out=out,
        )
        assert code == 0
        line = next(
            line for line in out.getvalue().splitlines()
            if line.startswith("buffer pool:")
        )
        assert line.endswith("summed over 4 shard pools")
        hits, misses = (int(word) for word in line.split()[2:6:3])
        assert hits + misses > 0

    def test_writes_assignment_csv(self, org_csv, tmp_path):
        path, _ = org_csv
        output = tmp_path / "groups.csv"
        out = io.StringIO()
        code = main(
            [
                "dedup",
                str(path),
                "--distance",
                "edit",
                "--output",
                str(output),
            ],
            out=out,
        )
        assert code == 0
        rows = list(csv.reader(output.open()))
        assert rows[0] == ["rid", "group_id"]
        assert len(rows) > 1  # at least one duplicate group

    def test_singletons_flag_includes_everything(self, org_csv, tmp_path):
        path, dataset = org_csv
        output = tmp_path / "groups.csv"
        main(
            [
                "dedup",
                str(path),
                "--distance",
                "edit",
                "--output",
                str(output),
                "--singletons",
            ],
            out=io.StringIO(),
        )
        rows = list(csv.reader(output.open()))[1:]
        assert len(rows) == len(dataset.relation)

    def test_diameter_mode(self, org_csv):
        path, _ = org_csv
        out = io.StringIO()
        code = main(
            ["dedup", str(path), "--distance", "edit", "--theta", "0.2"], out=out
        )
        assert code == 0

    def test_qgram_index(self, org_csv):
        path, _ = org_csv
        out = io.StringIO()
        code = main(
            ["dedup", str(path), "--distance", "edit", "--index", "qgram"], out=out
        )
        assert code == 0


class TestGenerate:
    def test_generates_csv_and_gold(self, tmp_path):
        output = tmp_path / "data.csv"
        gold = tmp_path / "gold.csv"
        out = io.StringIO()
        code = main(
            [
                "generate",
                "birds",
                "--entities",
                "20",
                "--output",
                str(output),
                "--gold",
                str(gold),
            ],
            out=out,
        )
        assert code == 0
        data_rows = list(csv.reader(output.open()))
        gold_rows = list(csv.reader(gold.open()))
        assert data_rows[0] == ["name"]
        assert gold_rows[0] == ["rid", "entity"]
        assert len(data_rows) == len(gold_rows)  # header + n rows each


class TestEstimate:
    def test_reports_threshold(self, org_csv):
        path, _ = org_csv
        out = io.StringIO()
        code = main(
            ["estimate-c", str(path), "--fraction", "0.4", "--distance", "edit"],
            out=out,
        )
        assert code == 0
        assert "suggested SN threshold: c =" in out.getvalue()

    @pytest.mark.parametrize(
        "flag,value", [("--window", "0.7"), ("--window", "-0.1"), ("--spike", "0")]
    )
    def test_invalid_heuristic_parameters_exit_2(self, org_csv, capsys, flag, value):
        path, _ = org_csv
        code = main(
            ["estimate-c", str(path), "--fraction", "0.4", flag, value],
            out=io.StringIO(),
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestInputErrors:
    """A missing, empty or ragged input CSV: one ``error:`` line on
    stderr and exit 2 (exit 1 means a failed ``--verify``)."""

    COMMANDS = {
        "dedup": ["dedup", "{path}", "--distance", "edit"],
        "serve": ["serve", "{path}", "--from-csv", "--distance", "edit", "--quiet"],
        "estimate-c": [
            "estimate-c", "{path}", "--fraction", "0.4", "--distance", "edit",
        ],
        "verify": ["verify", "{path}", "--distance", "edit"],
    }

    @pytest.mark.parametrize(
        "kind,message",
        [
            ("missing", "No such file"),
            ("empty", "is empty"),
            # The second record is the file's third line.
            ("ragged", "line 3 has 1 fields, expected 2"),
        ],
    )
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exit_2_with_one_error_line(
        self, tmp_path, capsys, command, kind, message
    ):
        path = tmp_path / "input.csv"
        if kind == "empty":
            path.write_text("", encoding="utf-8")
        elif kind == "ragged":
            path.write_text("name,city\nacme,paris\nglobex\n", encoding="utf-8")
        argv = [arg.format(path=path) for arg in self.COMMANDS[command]]
        code = main(argv, out=io.StringIO())
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestVerifyCommand:
    def test_embedded_suite_all_green(self):
        out = io.StringIO()
        code = main(["verify"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "all invariants hold" in text
        assert "table1" in text and "integers" in text
        assert "cross-path" in text

    def test_generated_dataset_target(self):
        out = io.StringIO()
        code = main(
            [
                "verify",
                "--dataset", "restaurants",
                "--entities", "25",
                "--distance", "edit",
                "--sample", "4",
            ],
            out=out,
        )
        assert code == 0
        assert "verification of" in out.getvalue()

    def test_csv_target(self, org_csv):
        path, _ = org_csv
        out = io.StringIO()
        code = main(
            ["verify", str(path), "--distance", "edit", "--sample", "4"], out=out
        )
        assert code == 0

    def test_dedup_verify_flag_reports(self, org_csv):
        path, _ = org_csv
        out = io.StringIO()
        code = main(
            ["dedup", str(path), "--distance", "edit", "--verify"], out=out
        )
        assert code == 0
        assert "verification" in out.getvalue()
        assert "OK" in out.getvalue()


class TestMoreIndexes:
    def test_minhash_index_available(self, org_csv):
        path, _ = org_csv
        out = io.StringIO()
        code = main(
            ["dedup", str(path), "--distance", "jaccard", "--index", "minhash"],
            out=out,
        )
        assert code == 0


class TestParallelDedup:
    def test_workers_flag_matches_sequential_output(self, org_csv, tmp_path):
        path, _ = org_csv
        sequential = tmp_path / "seq.csv"
        parallel = tmp_path / "par.csv"
        base = ["dedup", str(path), "--distance", "edit", "--output"]
        assert main(base + [str(sequential)], out=io.StringIO()) == 0
        assert (
            main(
                base + [str(parallel), "--workers", "3"],
                out=io.StringIO(),
            )
            == 0
        )
        assert sequential.read_text() == parallel.read_text()

    def test_workers_flag_defaults(self):
        args = build_parser().parse_args(["dedup", "f.csv"])
        assert args.workers == 1
        assert args.pool == "thread"


class TestBenchPhase1Command:
    def test_writes_json_and_table(self, tmp_path):
        output = tmp_path / "BENCH_phase1.json"
        out = io.StringIO()
        code = main(
            [
                "bench-phase1",
                "--dataset",
                "org",
                "--distance",
                "edit",
                "--sizes",
                "25",
                "--workers",
                "1,2",
                "--output",
                str(output),
            ],
            out=out,
        )
        assert code == 0
        assert output.exists()
        assert "BENCH_phase1" in out.getvalue()
        assert "speedup" in out.getvalue()

    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench-phase1"])
        assert args.sizes == "500,1000,2000"
        assert args.workers == "1,2,4"
        assert args.output == "BENCH_phase1.json"
        assert args.verify is False
        assert args.indexes is None
        assert args.min_recall is None

    def test_index_flag_is_repeatable_and_validated(self):
        args = build_parser().parse_args(
            ["bench-phase1", "--index", "minhash", "--index", "qgram"]
        )
        assert args.indexes == ["minhash", "qgram"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-phase1", "--index", "nope"])

    def test_min_recall_requires_index(self, tmp_path, capsys):
        out = io.StringIO()
        code = main(
            [
                "bench-phase1",
                "--sizes", "20",
                "--workers", "1",
                "--min-recall", "0.9",
                "--output", str(tmp_path / "b.json"),
            ],
            out=out,
        )
        assert code == 2
        assert "--min-recall requires" in capsys.readouterr().err
        assert not (tmp_path / "b.json").exists()

    def test_index_matrix_and_min_recall(self, tmp_path):
        import json

        output = tmp_path / "BENCH_phase1.json"
        out = io.StringIO()
        code = main(
            [
                "bench-phase1",
                "--dataset", "org",
                "--distance", "edit",
                "--sizes", "25",
                "--workers", "1",
                "--index", "qgram",
                "--min-recall", "0.5",
                "--recall-sample", "10",
                "--output", str(output),
            ],
            out=out,
        )
        assert code == 0
        assert "index matrix" in out.getvalue()
        assert "sampled NN recall >= 0.5" in out.getvalue()
        payload = json.loads(output.read_text())
        (matrix,) = payload["results"]["index_matrix"]
        assert [row["index"] for row in matrix["rows"]] == ["brute", "qgram"]
        assert all("skipped" not in row for row in matrix["rows"])

    def test_min_recall_failure_exits_nonzero(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "bench-phase1",
                "--dataset", "org",
                "--distance", "edit",
                "--sizes", "25",
                "--workers", "1",
                "--index", "qgram",
                # An unreachable bar: mean recall can never exceed 1.0.
                "--min-recall", "1.1",
                "--recall-sample", "5",
                "--output", str(tmp_path / "b.json"),
                # A threshold gate is fatal only under --check.
                "--check",
            ],
            out=out,
        )
        assert code == 1
        assert "recall below 1.1" in out.getvalue()

    def test_verify_flag_records_summary(self, tmp_path):
        import json

        output = tmp_path / "BENCH_phase1.json"
        out = io.StringIO()
        code = main(
            [
                "bench-phase1",
                "--dataset", "org",
                "--distance", "edit",
                "--sizes", "25",
                "--workers", "1",
                "--output", str(output),
                "--verify",
            ],
            out=out,
        )
        assert code == 0
        assert "invariant verification: OK" in out.getvalue()
        payload = json.loads(output.read_text())
        verification = payload["results"]["verification"]
        assert verification["ok"] is True
        assert verification["failed"] == []
        gates = {gate["name"]: gate for gate in payload["gates"]}
        assert gates["invariants"]["passed"] is True


class TestServe:
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(
            "# online serving smoke trace\n"
            "add,cascade systems\n"
            "add,cascade sistems\n"
            "\n"
            "add,granite manufacturing\n"
            "remove,1\n"
        )
        return path

    def test_serve_trace_prints_decisions(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["serve", str(self.trace_file(tmp_path)), "--distance", "edit"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "#1 add [0] canonical" in text
        assert "duplicate of [0]" in text
        assert "#4 remove [1]" in text
        assert "served 4 operation(s); 2 live record(s)" in text

    def test_serve_csv_groups_match_batch_dedup(self, org_csv, tmp_path):
        path, _ = org_csv
        serve_groups = tmp_path / "serve_groups.csv"
        dedup_groups = tmp_path / "dedup_groups.csv"
        out = io.StringIO()
        assert (
            main(
                [
                    "serve", str(path), "--from-csv",
                    "--distance", "edit",
                    "--groups", str(serve_groups),
                    "--singletons", "--quiet",
                ],
                out=out,
            )
            == 0
        )
        assert (
            main(
                [
                    "dedup", str(path),
                    "--distance", "edit",
                    "--output", str(dedup_groups),
                    "--singletons",
                ],
                out=io.StringIO(),
            )
            == 0
        )
        assert serve_groups.read_text() == dedup_groups.read_text()

    def test_serve_verify_passes_in_exact_mode(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "serve", str(self.trace_file(tmp_path)),
                "--distance", "edit",
                "--quiet", "--verify",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "incremental-partition-parity" in text
        assert "FAIL" not in text

    def test_serve_verify_with_minhash_is_a_config_error(self, tmp_path):
        code = main(
            [
                "serve", str(self.trace_file(tmp_path)),
                "--distance", "edit",
                "--candidates", "minhash",
                "--verify", "--quiet",
            ],
            out=io.StringIO(),
        )
        assert code == 2

    def test_serve_store_requires_minhash(self, tmp_path):
        code = main(
            [
                "serve", str(self.trace_file(tmp_path)),
                "--distance", "edit",
                "--store", str(tmp_path / "p.json"),
            ],
            out=io.StringIO(),
        )
        assert code == 2

    def test_serve_minhash_store_round_trip(self, tmp_path):
        store = tmp_path / "postings.json"
        args = [
            "serve", str(self.trace_file(tmp_path)),
            "--distance", "edit",
            "--candidates", "minhash",
            "--store", str(store),
            "--quiet", "--stats",
        ]
        cold = io.StringIO()
        assert main(args, out=cold) == 0
        assert store.exists()
        assert "cold" in cold.getvalue()
        warm = io.StringIO()
        assert main(args, out=warm) == 0
        # The replayed trace re-uses every persisted signature; only
        # rid 1 — tombstoned by the trace's remove before the snapshot
        # was written — hashes again.
        assert "restored, 1 hashed this session" in warm.getvalue()

    def test_serve_malformed_trace_is_a_usage_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("upsert,huh\n")
        code = main(
            ["serve", str(path), "--distance", "edit"], out=io.StringIO()
        )
        assert code == 2

    def test_serve_remove_every_synthesizes_removals(self, org_csv):
        path, _ = org_csv
        out = io.StringIO()
        code = main(
            [
                "serve", str(path), "--from-csv",
                "--distance", "edit",
                "--remove-every", "5",
                "--quiet", "--verify",
            ],
            out=out,
        )
        assert code == 0
        assert "FAIL" not in out.getvalue()

    def test_serve_stats_reports_latency_percentiles_and_rows(self, org_csv):
        path, _ = org_csv
        out = io.StringIO()
        code = main(
            [
                "serve", str(path), "--from-csv",
                "--distance", "cosine",
                "--remove-every", "3",
                "--quiet", "--stats",
            ],
            out=out,
        )
        assert code == 0
        lines = out.getvalue().splitlines()
        for name in ("insert", "remove"):
            line = next(
                line for line in lines
                if line.startswith(f"{name} latency p50/p95/p99: ")
            )
            quantiles = line.split(": ")[1].split(" ms")[0].split("/")
            p50, p95, p99 = map(float, quantiles)
            assert 0.0 <= p50 <= p95 <= p99
            assert line.endswith(f"full rows per {name}")
            # An insert reads at least its own row; a removal reads at
            # most its own row plus one per referrer.
            per_op = float(line.split("; ")[1].split()[0])
            assert per_op >= (1.0 if name == "insert" else 0.0)


class TestBenchIncremental:
    def test_small_run_writes_artifact_and_passes_checksums(self, tmp_path):
        import json

        output = tmp_path / "BENCH_incremental.json"
        out = io.StringIO()
        code = main(
            [
                "bench-incremental",
                "--entities", "20",
                "--distance", "edit",
                "--checkpoints", "12,24",
                "--remove-every", "6",
                "--output", str(output),
                "--check",
            ],
            out=out,
        )
        assert code == 0, out.getvalue()
        text = out.getvalue()
        assert "checksums agree" in text
        payload = json.loads(output.read_text())
        assert payload["benchmark"] == "incremental_serving"
        results = payload["results"]
        assert results["n_removes"] > 0
        assert all(
            row["batch_checksums"] == [row["incremental_checksum"]] * 5
            and row["batch_seconds"] == min(row["batch_samples"])
            and row["peak_rss_mb"] > 0
            for row in results["checkpoints"]
        )
