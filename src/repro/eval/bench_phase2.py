"""Phase-2 benchmark: the CSPairs self-join per source and the
partitioning scan.

Produces the ``BENCH_phase2.json`` artifact.  Phase 1 runs **once**
(batched) over a generated dataset; its NN relation is then pushed
through the production CSPairs builder of each source:

- ``memory`` — the direct in-memory builder
  (:func:`repro.core.cspairs.build_cs_pairs`);
- ``engine`` — the engine's index nested-loop self-join + ``ORDER BY``
  (:func:`repro.core.cspairs.build_cs_pairs_engine`) over a buffer pool
  that holds the whole join;
- ``spill`` — the same plan behind a small buffer pool, where the
  ``ORDER BY`` runs as an external merge sort.

Every repeat's CSPairs output is checksummed; the payload records
whether each source reproduced itself and whether all sources agreed
(they must).  The streaming partitioning scan is timed over the
in-memory rows and checked against a scan streamed from the spilled
``CSPairs`` table.  See ``docs/performance.md`` ("Phase 2 at scale")
for how to read the output.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.core.cspairs import (
    CSPair,
    build_cs_pairs,
    build_cs_pairs_engine,
    iter_cs_pairs,
    materialize_nn_reln,
)
from repro.core.formulation import DEParams
from repro.core.neighborhood import NNRelation
from repro.core.nn_phase import Phase1Stats
from repro.core.partitioner import partition_records
from repro.core.result import Partition
from repro.data.loaders import load_dataset
from repro.eval.bench_phase1 import BENCH_DISTANCES, INDEX_FACTORIES
from repro.eval.report import format_table
from repro.parallel.engine import ParallelNNEngine
from repro.storage.engine import Engine

__all__ = [
    "cs_pairs_checksum",
    "partition_checksum",
    "run_phase2_bench",
    "check_phase2_payload",
    "phase2_table",
    "write_phase2_json",
]

#: The sources the CSPairs builders are timed over.
SOURCES = ("memory", "engine", "spill")


def cs_pairs_checksum(pairs: Iterable[CSPair]) -> str:
    """A deterministic digest of a CSPairs relation, order included.

    Covers every field of every row, so two joins agree iff they
    produced byte-identical relations in the same ``(id1, id2)`` order.
    """
    digest = hashlib.sha256()
    for pair in pairs:
        digest.update(
            repr(
                (pair.id1, pair.id2, pair.ng1, pair.ng2, tuple(pair.flags))
            ).encode()
        )
    return digest.hexdigest()


def partition_checksum(partition: Partition) -> str:
    """A deterministic digest of a partition's canonical groups."""
    return partition.checksum()


def _phase1_once(
    relation, distance, params: DEParams, index_name: str
) -> tuple[NNRelation, float]:
    """Run batched Phase 1 once; every Phase-2 run reuses its output."""
    index = INDEX_FACTORIES[index_name]()
    index.build(relation, distance)
    stats = Phase1Stats()
    engine = ParallelNNEngine(n_workers=1)
    nn = engine.run(relation, index, params, order="sequential", stats=stats)
    return nn, stats.seconds


def _engine_with_nn(
    nn_relation: NNRelation, buffer_pages: int, page_capacity: int
) -> Engine:
    """A fresh engine with ``NN_Reln`` materialized (setup, untimed)."""
    engine = Engine(buffer_pages=buffer_pages, page_capacity=page_capacity)
    materialize_nn_reln(engine, nn_relation)
    return engine


def _timed(
    repeats: int,
    setup: Callable[[], object] | None,
    timed: Callable[[object], object],
    checksum: Callable[[object], str],
) -> tuple[object, float, set[str]]:
    """Run ``timed`` ``repeats`` times; keep the fastest time.

    ``setup`` builds fresh per-repeat state (e.g. an engine without a
    leftover ``CSPairs`` table) outside the timed region, and every
    repeat's output is checksummed outside it too.  Returns ``(result
    of the last repeat, fastest seconds, checksums seen)``.
    """
    best: float | None = None
    result: object = None
    seen: set[str] = set()
    for _ in range(max(1, repeats)):
        state = setup() if setup is not None else None
        started = time.perf_counter()
        result = timed(state)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
        seen.add(checksum(result))
    return result, best, seen


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
    the streaming partition scan are timed best-of-``repeats`` (fresh
    engine per repeat, setup untimed), so smoke-sized joins are not
    judged on one noisy sample.
    """
    distance_cls = BENCH_DISTANCES[distance]
    params = DEParams.size(k, c=4.0)
    relation = load_dataset(
        dataset,
        n_entities=entities,
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    ).relation
    nn, phase1_seconds = _phase1_once(
        relation, distance_cls(), params, index
    )

    def table_checksum(table) -> str:
        return cs_pairs_checksum(iter_cs_pairs(table))

    pool_pages = {"engine": buffer_pages, "spill": spill_buffer_pages}
    runs: list[tuple[str, float, int]] = []
    checksums: dict[str, set[str]] = {}
    reference, seconds, checksums["memory"] = _timed(
        repeats, None, lambda _state: build_cs_pairs(nn, params),
        cs_pairs_checksum,
    )
    runs.append(("memory", seconds, len(reference)))

    # --- the streaming partitioning scan ----------------------------
    ids = list(relation.ids())
    partition, partition_seconds, partition_checksums = _timed(
        repeats, None,
        lambda _state: partition_records(ids, reference, params),
        partition_checksum,
    )

    for source in ("engine", "spill"):
        table, seconds, checksums[source] = _timed(
            repeats,
            lambda pages=pool_pages[source]: _engine_with_nn(
                nn, pages, page_capacity
            ),
            lambda engine: build_cs_pairs_engine(engine, params),
            table_checksum,
        )
        runs.append((source, seconds, table.n_rows))
        if source == "spill":
            # The out-of-core consumer: the scan streamed from the
            # spilled table must give the in-memory scan's partition.
            streamed = partition_checksum(
                partition_records(ids, iter_cs_pairs(table), params)
            )
    rows = [
        {
            "source": source,
            "seconds": seconds,
            "pairs": n_pairs,
            "throughput": (n_pairs / seconds) if seconds > 0 else 0.0,
            "checksum": sorted(checksums[source])[0],
        }
        for source, seconds, n_pairs in runs
    ]
    parity = {source: len(checksums[source]) == 1 for source in SOURCES}
    parity["cross_source"] = (
        len({checksum for seen in checksums.values() for checksum in seen})
        == 1
    )

    return {
        "benchmark": "phase2_join",
        "dataset": dataset,
        "distance": distance,
        "index": index,
        "k": k,
        "duplicate_fraction": duplicate_fraction,
        "seed": seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "entities": entities,
        "n": len(relation),
        "n_cs_pairs": len(reference),
        "phase1_seconds": phase1_seconds,
        "buffer_pages": buffer_pages,
        "spill_buffer_pages": spill_buffer_pages,
        "page_capacity": page_capacity,
        "repeats": repeats,
        "runs": rows,
        "parity": parity,
        "partition": {
            "seconds": partition_seconds,
            "checksum": partition_checksum(partition),
            "parity": partition_checksums == {streamed},
        },
    }


def check_phase2_payload(payload: Mapping) -> list[str]:
    """The bench gate: every checksum disagreement in a payload.

    A source that did not reproduce itself across repeats, sources
    that disagree, or a partition scan over the spilled table that
    differs from the in-memory one are correctness violations — the
    CLI always fails on them.
    """
    failures = [
        f"CSPairs checksum mismatch: {source}"
        for source, agreed in payload["parity"].items()
        if not agreed
    ]
    if not payload["partition"]["parity"]:
        failures.append(
            "partition checksum mismatch: streamed spill table vs. "
            "in-memory rows"
        )
    return failures


def phase2_table(payload: Mapping) -> str:
    """Render a payload's runs as the repo's standard text table."""
    table = format_table(
        ("source", "seconds", "pairs", "pairs/s"),
        [
            (
                run["source"],
                f"{run['seconds'] * 1000:.1f}ms",
                run["pairs"],
                f"{run['throughput']:.0f}/s",
            )
            for run in payload["runs"]
        ],
    )
    partition = payload["partition"]
    return "\n".join(
        [
            f"phase2 join over n={payload['n']} "
            f"({payload['n_cs_pairs']} CSPairs rows; "
            f"phase 1 once in {payload['phase1_seconds']:.1f}s)",
            table,
            f"partition scan: streaming {partition['seconds'] * 1000:.1f}ms",
        ]
    )


def write_phase2_json(payload: Mapping, path: str | Path) -> Path:
    """Write the payload (stable key order) and return the path."""
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target
