"""Experiment P1 — Phase-1 batch/parallel engine throughput.

Phase 1 dominates DE's running time (paper Figure 9), so this is where
the engineering budget went: the blocked all-pairs batch evaluation in
``BruteForceIndex`` (distance symmetry + fused NG counting + shared
pair cache) and the chunked :class:`repro.parallel.ParallelNNEngine`
executor on top of it.

Two claims are asserted:

- *exactness* — every execution mode (per-query sequential, batch with
  1/2/4 workers) produces a bit-identical NN relation;
- *throughput* — the batch path is at least 2x faster than the
  per-query path once the relation passes ~2000 records (architectural
  floor: it evaluates a quarter of the distance pairs; measured
  speedups run higher).

The rendered table is written to ``results/P1_phase1_parallel.txt``.
The run matrix's artifact goes to the test's temporary directory: this
reduced matrix is not the committed ``BENCH_phase1.json`` at the
repository root, which only the ``bench-phase1`` command listed in
``docs/benchmarks.md`` regenerates.

The batch rows run the vectorized distance
kernels (``run_phase1_bench``'s default ``kernel="auto"``): their
pairs are counted in ``kernel_evaluations`` rather than
``evaluations``, so the evaluation-count assertion below is trivially
satisfied and the recorded speedup jumps by an order of magnitude
(EXPERIMENTS.md, P3).  The per-query baseline always runs the scalar
path.
"""

from repro.eval import bench
from repro.eval.bench_phase1 import SUITE, phase1_table

from conftest import write_report

#: Entity counts; duplicate injection brings actual relation sizes to
#: roughly 1.4x these, so the second point comfortably passes n=2000.
SIZES = (500, 2000)
WORKERS = (1, 2, 4)


def run_matrix():
    return bench.run(
        SUITE,
        {
            "sizes": SIZES,
            "workers": WORKERS,
            "dataset": "org",
            "distance": "cosine",
            "k": 5,
        },
    )


def test_phase1_parallel(benchmark, tmp_path):
    artifact = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    bench.write_artifact(artifact, tmp_path / "BENCH_phase1.json")
    payload = artifact["results"]
    write_report("P1_phase1_parallel", phase1_table(payload))
    assert bench.exit_code(artifact["gates"], check=True) == 0

    # Exactness: all modes agreed on the NN relation at every size.
    assert payload["parity"], "no parity data recorded"
    for n, agreed in payload["parity"].items():
        assert agreed, f"execution modes disagreed at n={n}"

    # The symmetry + fused-NG savings are architectural: the batch path
    # evaluates at most ~a quarter of the per-query distance pairs.
    by_size: dict[int, dict[str, dict]] = {}
    for run in payload["runs"]:
        by_size.setdefault(run["n"], {})[f"{run['mode']}:{run['workers']}"] = run
    for n, runs in by_size.items():
        per_query = runs["per-query:1"]["evaluations"]
        batch = runs["batch:1"]["evaluations"]
        assert batch * 3 < per_query, f"n={n}: {batch} vs {per_query}"

    # Throughput: >= 2x at n >= 2000 (the headline number; smaller
    # sizes amortize the blocked pass less but must still win).
    speedups = {
        int(n): s for n, s in payload["speedup_batch_vs_per_query"].items()
    }
    large = {n: s for n, s in speedups.items() if n >= 2000}
    assert large, f"no measured size reached n=2000: {sorted(speedups)}"
    for n, speedup in large.items():
        assert speedup >= 2.0, f"n={n}: batch speedup {speedup:.2f}x < 2x"
    for n, speedup in speedups.items():
        assert speedup > 1.0, f"n={n}: batch slower than per-query"
