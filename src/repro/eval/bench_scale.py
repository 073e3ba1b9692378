"""Sharded scale-out benchmark: end-to-end runs at six-figure n.

The ``bench-scale`` suite (``BENCH_scale.json``) of the harness in
:mod:`repro.eval.bench`.  The same DE instance is solved end to end at
every requested shard count — ``1`` is the unsharded reference —
through the staged pipeline, so the numbers include Phase 1, the
CSPairs join, partitioning, and (for sharded runs) the plan/merge
overhead the scale-out layer adds.  A small
:func:`~repro.verify.shard.verify_shard_merge` matrix (all three cuts x
both kernel backends) rides along.  Each shard worker owns a private
buffer pool, so the peak page footprint is ``shards_in_flight x
buffer_pages`` (each run's ``peak_pages_bound``).  The gates are listed
in ``docs/benchmarks.md``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.data.loaders import load_dataset
from repro.eval.bench import (
    CHECKSUM,
    CUTS,
    THRESHOLD,
    Gate,
    Suite,
    cut_params,
    int_list,
    timed,
)
from repro.eval.report import format_table

__all__ = ["SUITE", "run_scale_bench", "scale_table"]


def run_scale_bench(
    entities: int = 2000,
    shards: str | Sequence[int] = (1, 4),
    dataset: str = "org",
    distance: str = "cosine",
    index: str = "minhash",
    cut: str = "combined",
    k: int = 5,
    theta: float = 0.4,
    c: float = 4.0,
    overlap: float = 0.2,
    shards_in_flight: int | None = None,
    pool: str = "thread",
    kernel: str = "auto",
    buffer_pages: int | None = 64,
    page_capacity: int = 64,
    duplicate_fraction: float = 0.3,
    seed: int = 0,
    parity_entities: int = 60,
) -> dict:
    """Run the scale-out matrix and return its results.

    ``entities`` counts entities before duplicate injection; the results
    report the actual relation size ``n``.  ``shards`` takes a sequence
    or a comma-separated string.  ``buffer_pages`` (when not ``None``
    or ``0``) routes every run through the storage engine so the
    bounded-memory claim is exercised, not just asserted: sharded runs
    give each in-flight worker its own ``buffer_pages`` pool.
    ``parity_entities`` sizes the small cross-cut/cross-kernel parity
    matrix that accompanies the headline run.
    """
    # Imported lazily: eval sits above the run layer.
    from repro.run.config import RunConfig
    from repro.run.context import RunContext
    from repro.run.pipeline import StagedPipeline
    from repro.verify.report import summarize
    from repro.verify.shard import verify_shard_merge

    relation = load_dataset(
        dataset,
        n_entities=entities,
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    ).relation
    params = cut_params(cut, k, theta, c)

    base = RunConfig(
        distance=distance,
        index=index,
        kernel=kernel,
        pool=pool,
        use_engine=bool(buffer_pages),
        buffer_pages=buffer_pages or 256,
        page_capacity=page_capacity,
    )

    runs: list[dict] = []
    single_seconds: float | None = None
    for n_shards in int_list(shards):
        in_flight = (
            max(1, min(shards_in_flight, n_shards)) if shards_in_flight else n_shards
        )
        config = base.replace(
            shards=n_shards,
            shard_overlap=overlap,
            shards_in_flight=in_flight if n_shards > 1 else None,
        )
        context = RunContext.create(config)
        (result,), timing = timed(
            lambda: StagedPipeline(context).run(relation, params)
        )
        seconds = timing["seconds"]
        if n_shards == 1:
            single_seconds = seconds
        run = {
            "shards": n_shards,
            "shards_in_flight": in_flight if n_shards > 1 else 1,
            **timing,
            "throughput": len(relation) / seconds if seconds > 0 else None,
            "speedup_vs_single": (
                single_seconds / seconds
                if single_seconds and seconds > 0
                else None
            ),
            "checksum": result.partition.checksum(),
            "n_groups": len(result.partition.non_trivial_groups()),
            "stats": result.stats.to_dict(),
        }
        runs.append(run)

    recalls = [
        run["stats"]["shards"]["plan"]["recall"]
        for run in runs
        if "shards" in run["stats"]
    ]

    small = load_dataset(
        dataset,
        n_entities=parity_entities,
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    ).relation
    parity_report = verify_shard_merge(
        small,
        distance=distance,
        index=index,
        overlap=overlap,
        pool=pool,
        params_by_cut={
            name: cut_params(name, k, theta, c) for name in CUTS
        },
    )

    return {
        "n": len(relation),
        "runs": runs,
        "min_plan_recall": min(recalls) if recalls else None,
        "small_parity": summarize(parity_report),
    }


def _gates(settings: Mapping) -> list[Gate]:
    gates = [
        Gate(
            "partition-parity", CHECKSUM, None,
            "every shard count gave one partition checksum",
            lambda results: (
                [
                    "shard counts disagree on the partition checksum: "
                    + str(sorted({run["checksum"] for run in results["runs"]}))
                ]
                if len({run["checksum"] for run in results["runs"]}) > 1
                else []
            ),
        ),
        Gate(
            "shard-merge-parity", CHECKSUM, None,
            "the small cross-cut/cross-kernel shard-merge matrix passed",
            lambda results: [
                f"small-size shard-merge-parity matrix failed: {name}"
                for name in results["small_parity"]["failed"]
            ],
        ),
    ]
    min_recall = settings.get("min_recall", 0.9)
    gates.append(Gate(
        "min-recall", THRESHOLD, min_recall,
        f"the shard plan kept >= {min_recall:g} of the LSH candidate "
        f"pairs co-resident",
        lambda results: (
            [
                f"shard plan recall {results['min_plan_recall']:.3f} below "
                f"the {min_recall:.3f} floor"
            ]
            if results["min_plan_recall"] is not None
            and results["min_plan_recall"] < min_recall
            else []
        ),
    ))
    min_n = settings.get("min_n")
    if min_n is not None:
        gates.append(Gate(
            "min-n", THRESHOLD, min_n,
            f"the relation holds >= {min_n} records",
            lambda results: (
                [f"relation size n={results['n']} below the {min_n} floor"]
                if results["n"] < min_n
                else []
            ),
        ))
    return gates


def scale_table(payload: Mapping) -> str:
    """Render an artifact's run matrix as the repo's standard text table."""
    settings, results = payload["settings"], payload["results"]
    rows = []
    for run in results["runs"]:
        plan = run["stats"].get("shards", {}).get("plan")
        rows.append(
            (
                run["shards"],
                run["shards_in_flight"],
                f"{run['seconds']:.2f}",
                f"{run['throughput']:.1f}" if run["throughput"] else "-",
                (
                    f"{run['speedup_vs_single']:.2f}"
                    if run.get("speedup_vs_single")
                    else "-"
                ),
                f"{plan['recall']:.3f}" if plan else "-",
                plan.get("peak_pages_bound", "-") if plan else "-",
                run["checksum"][:12],
            )
        )
    title = (
        f"sharded scale-out: {settings['dataset']} n={results['n']} "
        f"{settings['distance']}/{settings['index']} {settings['cut']} cut"
    )
    return format_table(
        ("shards", "in_flight", "seconds", "rec/s", "speedup", "recall",
         "pages_bound", "checksum"),
        rows,
        title=title,
    )


SUITE = Suite(
    benchmark="sharded_scale_out",
    run=run_scale_bench,
    table=scale_table,
    gates=_gates,
    gate_settings=("min_recall", "min_n"),
    workers=lambda results: max(
        (run["shards_in_flight"] for run in results["runs"]), default=1
    ),
)
