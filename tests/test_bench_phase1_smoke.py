"""Tier-1 smoke test for the Phase-1 scalability benchmark.

The full matrix (n >= 2000, the 2x speedup assertion) lives in
``benchmarks/test_bench_phase1_parallel.py``; this smoke keeps the
harness itself — payload shape, parity checks, JSON artifact, table
rendering — exercised on every test run with a relation small enough
to stay fast.
"""

import json

from repro.eval import bench
from repro.eval.bench_phase1 import (
    SUITE,
    index_matrix_table,
    phase1_table,
    run_index_matrix,
    run_phase1_bench,
)


class TestBenchPhase1Smoke:
    def test_small_matrix_end_to_end(self, tmp_path):
        payload = run_phase1_bench(
            sizes=(30,), workers=(1, 2), dataset="org", distance="edit"
        )

        # One per-query baseline plus one batch run per worker count.
        assert [run["mode"] for run in payload["runs"]] == [
            "per-query",
            "batch",
            "batch",
        ]
        assert all(run["lookups"] == run["n"] for run in payload["runs"])
        assert all(run["throughput"] > 0.0 for run in payload["runs"])

        # All execution modes computed the identical NN relation.
        assert payload["parity"] and all(payload["parity"].values())
        assert len({run["checksum"] for run in payload["runs"]}) == 1

        # The batch path must beat per-query even at toy sizes; assert
        # only a sane lower bound here (the benchmark asserts 2x).
        (speedup,) = payload["speedup_batch_vs_per_query"].values()
        assert speedup > 0.5

        # The symmetry savings are architectural, not timing-dependent:
        # batch evaluates at most ~a quarter of the per-query pairs.
        per_query = payload["runs"][0]["evaluations"]
        batch = payload["runs"][1]["evaluations"]
        assert batch * 3 < per_query

        path = bench.write_artifact(
            bench.artifact(SUITE, {"sizes": [30], "workers": [1, 2]}, payload),
            tmp_path / "BENCH_phase1.json",
        )
        assert json.loads(path.read_text())["benchmark"] == "phase1_parallel"

        table = phase1_table(payload)
        assert "per-query" in table and "batch" in table

        # No matrix requested: the payload records that explicitly.
        assert payload["index_matrix"] is None


class TestIndexMatrixSmoke:
    def test_matrix_rows_and_skips(self):
        matrix = run_index_matrix(
            ["minhash"],
            n_entities=25,
            distance="cosine",
            recall_sample=10,
        )
        rows = {row["index"]: row for row in matrix["rows"]}
        assert set(rows) == {"brute", "minhash"}

        brute = rows["brute"]
        assert brute["recall"]["mean_recall"] == 1.0
        assert brute["evaluations_ratio_vs_brute"] == 1.0
        assert brute["evaluations_pruned"] == 0

        minhash = rows["minhash"]
        assert minhash["candidates_generated"] > 0
        assert 0.0 <= minhash["recall"]["mean_recall"] <= 1.0
        assert minhash["total_evaluations"] == (
            minhash["evaluations"] + minhash["kernel_evaluations"]
        )

        table = index_matrix_table(matrix)
        assert "minhash" in table
