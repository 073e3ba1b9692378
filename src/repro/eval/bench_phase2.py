"""Phase-2 benchmark: the CSPairs self-join per source and the
partitioning scan.

The ``bench-phase2`` suite (``BENCH_phase2.json``) of the harness in
:mod:`repro.eval.bench`.  Phase 1 runs **once** (batched, on the
batch kernel, as ``kernel="auto"`` runs do); its NN relation is then pushed through the production CSPairs
builder of each source — ``memory`` (:func:`~repro.core.cspairs.build_cs_pairs`),
``engine`` (:func:`~repro.core.cspairs.build_cs_pairs_engine` over a
pool that holds the whole join) and ``spill`` (the same plan behind a
small pool, where the ``ORDER BY`` runs as an external merge sort) —
and the streaming partitioning scan is timed over the in-memory rows.
Every repeat is checksummed; the gates are listed in
``docs/benchmarks.md``.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.cspairs import (
    build_cs_pairs,
    build_cs_pairs_engine,
    iter_cs_pairs,
    materialize_nn_reln,
)
from repro.core.formulation import DEParams
from repro.core.nn_phase import Phase1Stats
from repro.core.partitioner import partition_records
from repro.data.loaders import load_dataset
from repro.eval.bench import CHECKSUM, Gate, Suite, cs_pairs_checksum, timed
from repro.eval.bench_phase1 import INDEX_FACTORIES
from repro.eval.report import format_table
from repro.parallel.engine import ParallelNNEngine
from repro.run.registry import DISTANCES
from repro.storage.engine import Engine

__all__ = ["SUITE", "run_phase2_bench", "phase2_table"]


def run_phase2_bench(
    entities: int = 2400,
    dataset: str = "org",
    distance: str = "cosine",
    index: str = "brute",
    k: int = 5,
    duplicate_fraction: float = 0.3,
    seed: int = 0,
    buffer_pages: int = 256,
    page_capacity: int = 64,
    spill_buffer_pages: int = 8,
    repeats: int = 3,
) -> dict:
    """Time each source's CSPairs builder and the partition scan.

    ``entities`` counts entities before duplicate injection (2400 →
    n ≈ 3000 records).  Phase 1 runs once; each source's builder and
    the streaming partition scan are timed ``repeats`` times by the
    harness timer (fresh engine per repeat, setup untimed; the median
    is the headline), and every repeat's output is checksummed.
    """
    params = DEParams.size(k, c=4.0)
    relation = load_dataset(
        dataset,
        n_entities=entities,
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    ).relation

    phase1 = INDEX_FACTORIES[index]()
    phase1.enable_kernel("auto")
    phase1.build(relation, DISTANCES[distance]())
    stats = Phase1Stats()
    nn = ParallelNNEngine(n_workers=1).run(
        relation, phase1, params, order="sequential", stats=stats
    )

    def fresh_engine(pages: int) -> Engine:
        """An engine with ``NN_Reln`` materialized (setup, untimed)."""
        engine = Engine(buffer_pages=pages, page_capacity=page_capacity)
        materialize_nn_reln(engine, nn)
        return engine

    builds, timing = timed(lambda: build_cs_pairs(nn, params), repeats)
    reference = builds[-1]
    runs = [_source_row("memory", timing, len(reference), [
        cs_pairs_checksum(pairs) for pairs in builds
    ])]
    for source, pages in (
        ("engine", buffer_pages), ("spill", spill_buffer_pages)
    ):
        tables, timing = timed(
            lambda engine: build_cs_pairs_engine(engine, params),
            repeats,
            setup=lambda pages=pages: fresh_engine(pages),
        )
        runs.append(_source_row(source, timing, tables[-1].n_rows, [
            cs_pairs_checksum(iter_cs_pairs(table)) for table in tables
        ]))

    # --- the streaming partitioning scan ----------------------------
    ids = list(relation.ids())
    partitions, timing = timed(
        lambda: partition_records(ids, reference, params), repeats
    )
    # The out-of-core consumer (the loop ended on ``spill``): the scan
    # streamed from the spilled table must give the in-memory scan's
    # partition.
    streamed = partition_records(ids, iter_cs_pairs(tables[-1]), params)

    return {
        "n": len(relation),
        "n_cs_pairs": len(reference),
        "phase1_seconds": stats.seconds,
        "runs": runs,
        "partition": {
            **timing,
            "checksums": [partition.checksum() for partition in partitions],
            "streamed_checksum": streamed.checksum(),
        },
    }


def _source_row(
    source: str, timing: Mapping, n_pairs: int, checksums: list[str]
) -> dict:
    seconds = timing["seconds"]
    return {
        "source": source,
        **timing,
        "pairs": n_pairs,
        "throughput": (n_pairs / seconds) if seconds > 0 else 0.0,
        "checksums": checksums,
    }


def _cspairs_failures(results: Mapping) -> list[str]:
    """Every CSPairs checksum disagreement: within a source's repeats,
    then across sources."""
    failures = [
        f"CSPairs checksum mismatch: {run['source']}"
        for run in results["runs"]
        if len(set(run["checksums"])) > 1
    ]
    if len({c for run in results["runs"] for c in run["checksums"]}) > 1:
        failures.append("CSPairs checksum mismatch: cross_source")
    return failures


def _partition_failures(results: Mapping) -> list[str]:
    partition = results["partition"]
    if set(partition["checksums"]) != {partition["streamed_checksum"]}:
        return [
            "partition checksum mismatch: streamed spill table vs. "
            "in-memory rows"
        ]
    return []


def phase2_table(payload: Mapping) -> str:
    """Render an artifact's runs as the repo's standard text table."""
    results = payload["results"]
    table = format_table(
        ("source", "seconds", "pairs", "pairs/s"),
        [
            (
                run["source"],
                f"{run['seconds'] * 1000:.1f}ms",
                run["pairs"],
                f"{run['throughput']:.0f}/s",
            )
            for run in results["runs"]
        ],
    )
    partition = results["partition"]
    return "\n".join(
        [
            f"phase2 join over n={results['n']} "
            f"({results['n_cs_pairs']} CSPairs rows; "
            f"phase 1 once in {results['phase1_seconds']:.1f}s)",
            table,
            f"partition scan: streaming {partition['seconds'] * 1000:.1f}ms",
        ]
    )


SUITE = Suite(
    benchmark="phase2_join",
    run=run_phase2_bench,
    table=phase2_table,
    gates=lambda settings: [
        Gate(
            "cspairs-parity", CHECKSUM, None,
            "every source reproduced one CSPairs relation",
            _cspairs_failures,
        ),
        Gate(
            "partition-parity", CHECKSUM, None,
            "the scan streamed from the spilled table gave the in-memory "
            "partition",
            _partition_failures,
        ),
    ],
)
