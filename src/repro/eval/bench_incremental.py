"""Online-serving benchmark: per-insert cost vs. from-scratch reruns.

The ``bench-incremental`` suite (``BENCH_incremental.json``) of the
harness in :mod:`repro.eval.bench`.  Records are streamed one by one
through an :class:`~repro.core.incremental.IncrementalDeduplicator`
(optionally interleaving removals of the oldest live record), and the
maintained partition is refreshed after **every** operation — the
serving pattern, where each arrival gets a decision.  At each
checkpoint size a from-scratch batch run over the live relation is
timed and checksummed against the maintained partition, and the
process's peak resident set so far (``ru_maxrss``) is recorded.

One batch rerun costs Θ(n²) distance evaluations while one insert
costs Θ(n), so the per-op / batch-rerun ratio should shrink as n
grows.  The corpus statistics are prepared once on the full dataset and
frozen (:class:`~repro.verify.incremental.FrozenDistance` on both
sides), so both paths score the same distance.  The gates are listed
in ``docs/benchmarks.md``.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from typing import Mapping, Sequence

from repro.core.formulation import DEParams
from repro.core.incremental import IncrementalDeduplicator
from repro.core.pipeline import DuplicateEliminator
from repro.data.loaders import load_dataset
from repro.data.schema import Record, Relation
from repro.eval.bench import CHECKSUM, THRESHOLD, Gate, Suite, int_list, timed
from repro.eval.report import format_table
from repro.run.config import RunConfig
from repro.run.registry import DISTANCES
from repro.verify.incremental import FrozenDistance

__all__ = ["SUITE", "incremental_table", "latency_summary", "run_incremental_bench"]

#: Timed batch reruns per checkpoint; the fastest is the denominator
#: of the per-op/batch ratio (host noise only ever adds time).
BATCH_REPEATS = 5

#: ``ratio-growth`` gate: the per-op/batch ratio may grow at most this
#: much from the first to the last gated checkpoint.
RATIO_GROWTH_TOLERANCE = 1.5

#: Latency percentiles reported per op type at each checkpoint.
PERCENTILES = (50, 95, 99)


def _mean(samples: Sequence[float]) -> float:
    return statistics.fmean(samples) if samples else 0.0


def latency_summary(samples: Sequence[float]) -> dict:
    """Nearest-rank percentiles of one op type's trailing samples: the
    ``ceil(q / 100 * m)``-th smallest of the ``m`` samples."""
    ranked = sorted(samples)
    row: dict = {"samples": len(ranked)}
    for q in PERCENTILES:
        row[f"p{q}_seconds"] = (
            ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)] if ranked else 0.0
        )
    return row


def _batch_rerun(
    dedup: IncrementalDeduplicator, inner, params: DEParams, kernel: str
) -> tuple[dict, list[str]]:
    """Time from-scratch batch runs over the live relation.

    Returns the timing and every run's partition checksum.  The live
    relation and the solver are rebuilt per sample, outside the clock;
    ``seconds`` is the fastest sample.
    """

    def setup() -> tuple[DuplicateEliminator, Relation]:
        relation = Relation(name="live", schema=dedup.relation.schema)
        for record in dedup.relation:
            relation.add(Record(record.rid, record.fields))
        solver = DuplicateEliminator(
            FrozenDistance(inner), config=RunConfig(kernel=kernel)
        )
        return solver, relation

    results, timing = timed(
        lambda state: state[0].run(state[1], params),
        BATCH_REPEATS,
        setup=setup,
    )
    timing["seconds"] = min(timing["samples"])
    return timing, [result.partition.checksum() for result in results]


def run_incremental_bench(
    entities: int = 1600,
    dataset: str = "org",
    distance: str = "cosine",
    k: int = 5,
    c: float = 4.0,
    remove_every: int = 0,
    checkpoints: str | Sequence[int] = (500, 1000, 2000),
    duplicate_fraction: float = 0.3,
    seed: int = 0,
    kernel: str = "auto",
    window: int = 100,
    max_cache_entries: int | None = 200_000,
) -> dict:
    """Stream the dataset through the online layer; return the results.

    ``entities`` counts entities before duplicate injection (1600 →
    n ≈ 2100 records, so the default checkpoints reach the n ≥ 2000
    regime).  ``remove_every`` interleaves a removal of the oldest live
    record after every that-many inserts (0 disables), exercising the
    bounded-recomputation delete path inside the measured stream.  A
    checkpoint fires the first time the live size reaches its value;
    ``checkpoints`` takes a sequence or a comma-separated string.

    Per-op costs are the stream's own clock (``perf_counter`` around
    each mutation + partition refresh): a collection that lands inside
    an op is part of what serving that op cost.  Each checkpoint
    reports the mean and median of the trailing ``window`` ops and,
    per op type, percentiles of that type's trailing ``window`` ops.
    """
    params = DEParams.size(k, c=c)
    relation = load_dataset(
        dataset,
        n_entities=entities,
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    ).relation
    # Corpus statistics are prepared once, up front, and frozen on both
    # the online and the batch side: parity is defined under one
    # distance, and a serving deployment knows its corpus the same way.
    inner = DISTANCES[distance]()
    inner.prepare(relation)
    dedup = IncrementalDeduplicator(
        FrozenDistance(inner),
        params,
        schema=relation.schema,
        max_cache_entries=max_cache_entries,
    )

    pending = sorted(set(int_list(checkpoints)))
    checkpoint_rows: list[dict] = []
    op_seconds: list[float] = []  # serving cost: mutation + partition
    insert_seconds: list[float] = []
    remove_seconds: list[float] = []
    insert_rows: list[int] = []
    remove_rows: list[int] = []
    n_removes = 0
    oldest_live = 0

    def serve_checkpoint() -> None:
        n = len(dedup)
        recent = op_seconds[-window:]
        batch, batch_checksums = _batch_rerun(dedup, inner, params, kernel)
        batch_seconds = batch["seconds"]
        repair = dedup.last_repair
        mean_op = _mean(recent)
        checkpoint_rows.append(
            {
                "n": n,
                "ops": len(op_seconds),
                "mean_op_seconds": mean_op,
                "median_op_seconds": (
                    statistics.median(recent) if recent else 0.0
                ),
                "batch_seconds": batch_seconds,
                "batch_samples": batch["samples"],
                "ratio_op_vs_batch": (
                    mean_op / batch_seconds if batch_seconds > 0 else 0.0
                ),
                "incremental_checksum": dedup.partition().checksum(),
                "batch_checksums": batch_checksums,
                "components": (
                    repair.n_components if repair is not None else 0
                ),
                "components_reused": (
                    repair.components_reused if repair is not None else 0
                ),
                "insert_latency": latency_summary(insert_seconds[-window:]),
                "remove_latency": latency_summary(remove_seconds[-window:]),
                # Full distance rows per op (``OpStats.rows``).
                "rows_per_insert": _mean(insert_rows[-window:]),
                "rows_per_remove": _mean(remove_rows[-window:]),
                # ru_maxrss is in KiB on Linux.
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
            }
        )

    for arrival, record in enumerate(relation, start=1):
        started = time.perf_counter()
        dedup.add(record.fields)
        dedup.partition()
        elapsed = time.perf_counter() - started
        op_seconds.append(elapsed)
        insert_seconds.append(elapsed)
        insert_rows.append(dedup.last_op.rows)
        if remove_every > 0 and arrival % remove_every == 0:
            while oldest_live not in dedup.relation:
                oldest_live += 1
            started = time.perf_counter()
            dedup.remove(oldest_live)
            dedup.partition()
            elapsed = time.perf_counter() - started
            op_seconds.append(elapsed)
            remove_seconds.append(elapsed)
            remove_rows.append(dedup.last_op.rows)
            n_removes += 1
        while pending and len(dedup) >= pending[0]:
            serve_checkpoint()
            pending.pop(0)

    return {
        "n_streamed": len(relation),
        "n_final": len(dedup),
        "n_removes": n_removes,
        "total_insert_seconds": sum(insert_seconds),
        "total_remove_seconds": sum(remove_seconds),
        "mean_insert_seconds": _mean(insert_seconds),
        "mean_remove_seconds": _mean(remove_seconds),
        "checkpoints": checkpoint_rows,
    }


def _parity_failures(results: Mapping) -> list[str]:
    return [
        f"n={row['n']}: maintained partition "
        f"{row['incremental_checksum'][:12]} != batch "
        f"{', '.join(sorted({c[:12] for c in row['batch_checksums']}))}"
        for row in results["checkpoints"]
        if set(row["batch_checksums"]) != {row["incremental_checksum"]}
    ]


def _gates(settings: Mapping) -> list[Gate]:
    """The parity gate at every checkpoint; the sublinearity contract
    at checkpoints with ``n >= min_check_n`` (smaller ones are timing
    noise): per-insert Θ(n) against batch Θ(n²) means the per-op/batch
    ratio should stay small and *shrink* as n grows."""
    min_check_n = settings.get("min_check_n", 1000)
    max_op_ratio = settings.get("max_op_ratio", 0.5)

    def gated(results: Mapping) -> list[Mapping]:
        return [row for row in results["checkpoints"] if row["n"] >= min_check_n]

    def growth_failures(results: Mapping) -> list[str]:
        rows = gated(results)
        if len(rows) < 2 or rows[0]["ratio_op_vs_batch"] <= 0:
            return []
        first, last = rows[0], rows[-1]
        if (
            last["ratio_op_vs_batch"]
            <= first["ratio_op_vs_batch"] * RATIO_GROWTH_TOLERANCE
        ):
            return []
        return [
            f"per-op/batch ratio grew from {first['ratio_op_vs_batch']:.3f} "
            f"(n={first['n']}) to {last['ratio_op_vs_batch']:.3f} "
            f"(n={last['n']}): per-insert cost is not sublinear vs. the "
            f"batch rerun"
        ]

    return [
        Gate(
            "checkpoint-parity", CHECKSUM, None,
            "checksums agree: the maintained partition equals every batch "
            "rerun at every checkpoint",
            _parity_failures,
        ),
        Gate(
            "max-op-ratio", THRESHOLD, max_op_ratio,
            f"the trailing per-op cost stays below {max_op_ratio:g}x one "
            f"batch rerun at n >= {min_check_n}",
            lambda results: [
                f"n={row['n']}: per-op cost {row['mean_op_seconds']:.4f}s is "
                f"{row['ratio_op_vs_batch']:.2f}x one batch rerun "
                f"({row['batch_seconds']:.4f}s), >= {max_op_ratio:g}x"
                for row in gated(results)
                if row["ratio_op_vs_batch"] >= max_op_ratio
            ],
        ),
        Gate(
            "ratio-growth", THRESHOLD, RATIO_GROWTH_TOLERANCE,
            f"the per-op/batch ratio grows at most "
            f"{RATIO_GROWTH_TOLERANCE:g}x across checkpoints at "
            f"n >= {min_check_n}",
            growth_failures,
        ),
    ]


def _latency_cell(latency: Mapping) -> str:
    if not latency["samples"]:
        return "-"
    quantiles = "/".join(
        f"{latency[f'p{q}_seconds'] * 1e3:.1f}" for q in PERCENTILES
    )
    return f"{quantiles}ms ({latency['samples']})"


def incremental_table(payload: Mapping) -> str:
    """Render an artifact as the repo's standard text table."""
    settings, results = payload["settings"], payload["results"]
    rows = [
        (
            row["n"],
            row["ops"],
            f"{row['mean_op_seconds'] * 1e3:.1f}ms",
            f"{row['median_op_seconds'] * 1e3:.1f}ms",
            f"{row['batch_seconds']:.2f}s",
            f"{row['ratio_op_vs_batch']:.4f}",
            (
                "ok"
                if set(row["batch_checksums"]) == {row["incremental_checksum"]}
                else "MISMATCH"
            ),
            f"{row['components_reused']}/{row['components']}",
            _latency_cell(row["insert_latency"]),
            _latency_cell(row["remove_latency"]),
            f"{row['rows_per_insert']:.2f}/{row['rows_per_remove']:.2f}",
            f"{row['peak_rss_mb']:.0f}MB",
        )
        for row in results["checkpoints"]
    ]
    table = format_table(
        (
            "n", "ops", "mean op", "median op", "batch rerun",
            "op/batch", "checksum", "reused",
            "insert p50/p95/p99", "remove p50/p95/p99",
            "rows/insert/remove", "peak RSS",
        ),
        rows,
    )
    head = (
        f"incremental serving over {results['n_streamed']} streamed "
        f"records ({settings['distance']}, k={settings['k']}, "
        f"remove_every={settings['remove_every']}, "
        f"{results['n_removes']} removes): "
        f"mean insert {results['mean_insert_seconds'] * 1e3:.1f}ms"
        + (
            f", mean remove {results['mean_remove_seconds'] * 1e3:.1f}ms"
            if results["n_removes"]
            else ""
        )
    )
    return f"{head}\n{table}"


SUITE = Suite(
    benchmark="incremental_serving",
    run=run_incremental_bench,
    table=incremental_table,
    gates=_gates,
    gate_settings=("min_check_n", "max_op_ratio"),
)
