"""Sharded scale-out benchmark: end-to-end runs at six-figure n.

Produces the ``BENCH_scale.json`` artifact the performance roadmap
regresses against.  The same DE instance is solved end to end at every
requested shard count — ``1`` is the unsharded reference — through the
staged pipeline, so the numbers include Phase 1, the CSPairs join,
partitioning, and (for sharded runs) the plan/merge overhead the
scale-out layer adds.

Two gates keep the artifact honest:

- **checksum parity** — every shard count must produce the identical
  partition checksum (the :mod:`repro.shard` exactness claim), and a
  small-size :func:`~repro.verify.shard.verify_shard_merge` matrix
  (all three cuts x both kernel backends) must pass;
- **plan recall** — the recorded fraction of LSH candidate pairs kept
  co-resident by the shard plan must clear ``--min-recall`` (the merge
  is exact regardless; recall measures how much Phase-1 *locality* the
  blocking preserved, i.e. whether the plan is doing its job).

Memory is bounded by construction: each shard worker owns a private
buffer pool, so the peak page footprint is ``shards_in_flight x
buffer_pages`` — recorded per run as ``peak_pages_bound``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.formulation import DEParams
from repro.data.loaders import load_dataset
from repro.eval.bench_phase1 import parallelism_advisory, run_build_throughput
from repro.eval.report import format_table

__all__ = [
    "run_scale_bench",
    "check_scale_payload",
    "scale_table",
    "write_scale_json",
]


def _cut_params(cut: str, k: int, theta: float, c: float) -> DEParams:
    """Resolve a cut name to :class:`DEParams` (benchmarked cut)."""
    if cut == "size":
        return DEParams.size(k, c=c)
    if cut == "diameter":
        return DEParams.diameter(theta, c=c)
    if cut == "combined":
        return DEParams.combined(k, theta, c=c)
    raise ValueError(f"unknown cut {cut!r}; expected size/diameter/combined")


def run_scale_bench(
    entities: int = 2000,
    shard_counts: Sequence[int] = (1, 4),
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
    """Run the scale-out matrix and return the JSON payload.

    ``entities`` counts entities before duplicate injection; the payload
    reports the actual relation size ``n``.  ``buffer_pages`` (when not
    ``None``) routes every run through the storage engine so the
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
    params = _cut_params(cut, k, theta, c)

    base = RunConfig(
        distance=distance,
        index=index,
        kernel=kernel,
        pool=pool,
        use_engine=buffer_pages is not None,
        buffer_pages=buffer_pages if buffer_pages is not None else 256,
        page_capacity=page_capacity,
    )

    runs: list[dict] = []
    single_seconds: float | None = None
    for n_shards in shard_counts:
        in_flight = (
            max(1, min(shards_in_flight, n_shards)) if shards_in_flight else n_shards
        )
        config = base.replace(
            shards=n_shards,
            shard_overlap=overlap,
            shards_in_flight=in_flight if n_shards > 1 else None,
        )
        context = RunContext.create(config)
        started = time.perf_counter()
        result = StagedPipeline(context).run(relation, params)
        seconds = time.perf_counter() - started
        if n_shards == 1:
            single_seconds = seconds
        stats = result.stats
        run = {
            "shards": n_shards,
            "shards_in_flight": in_flight if n_shards > 1 else 1,
            "seconds": seconds,
            "throughput": len(relation) / seconds if seconds > 0 else None,
            "stages": [
                {"stage": t.stage, "seconds": t.seconds}
                for t in stats.timings
            ],
            "checksum": result.partition.checksum(),
            "n_cs_pairs": result.stats.n_cs_pairs,
            "n_groups": len(result.partition.non_trivial_groups()),
            "kernel_backend": stats.kernel_backend,
            "phase1": {
                "seconds": stats.phase1.seconds,
                "evaluations": stats.phase1.evaluations,
                "kernel_evaluations": stats.phase1.kernel_evaluations,
                # Kernel-backed runs bypass the pair cache entirely —
                # report null, not a misleading 0.0 (see Phase1Stats).
                "cache_hit_rate": (
                    None
                    if stats.phase1.cache_bypassed
                    else stats.phase1.cache_hit_rate
                ),
                "cache_bypassed": stats.phase1.cache_bypassed,
                "substages": dict(stats.phase1.substage_seconds),
            },
            "speedup_vs_single": (
                single_seconds / seconds
                if single_seconds and seconds > 0
                else None
            ),
            "buffer": (
                {
                    "hits": stats.buffer.hits,
                    "misses": stats.buffer.misses,
                    "evictions": stats.buffer.evictions,
                    "hit_ratio": stats.buffer.hit_ratio,
                }
                if stats.buffer is not None
                else None
            ),
        }
        if n_shards > 1:
            run["plan"] = stats.shard_plan
            run["shard_runs"] = stats.shard_runs
            run["merge"] = stats.shard_merge
        runs.append(run)

    checksums = {run["checksum"] for run in runs}
    recalls = [
        run["plan"]["recall"] for run in runs if run["shards"] > 1 and run["plan"]
    ]

    small = load_dataset(
        dataset,
        n_entities=parity_entities,
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    ).relation
    build_throughput = run_build_throughput(
        dataset=dataset,
        # Bound the isolated build-throughput sample: the scalar signer
        # re-hashes every token occurrence, so at headline sizes the
        # comparison leg alone would dominate the bench's wall time.
        n_entities=min(entities, 20_000),
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    )

    parity_report = verify_shard_merge(
        small,
        distance=distance,
        index=index,
        overlap=overlap,
        pool=pool,
        params_by_cut={
            "size": DEParams.size(k, c=c),
            "diameter": DEParams.diameter(theta, c=c),
            "combined": DEParams.combined(k, theta, c=c),
        },
    )

    return {
        "benchmark": "sharded_scale_out",
        "dataset": dataset,
        "distance": distance,
        "index": index,
        "cut": cut,
        "k": k,
        "theta": theta,
        "c": c,
        "overlap": overlap,
        "pool": pool,
        "kernel": kernel,
        "duplicate_fraction": duplicate_fraction,
        "seed": seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "entities": entities,
        "n": len(relation),
        "buffer_pages": buffer_pages,
        "page_capacity": page_capacity,
        "shard_counts": list(shard_counts),
        "effective_parallelism": parallelism_advisory(
            max(
                run["shards_in_flight"]
                for run in runs
            )
        ),
        "runs": runs,
        "build_throughput": build_throughput,
        "parity": len(checksums) == 1,
        "min_plan_recall": min(recalls) if recalls else None,
        "small_parity": summarize(parity_report),
    }


def check_scale_payload(
    payload: Mapping,
    min_recall: float = 0.9,
    min_n: int | None = None,
    min_speedup: float | None = None,
) -> dict[str, list[str]]:
    """The bench gates: failures in a payload, keyed by severity.

    ``"checksum"`` failures (shard counts disagreeing on the partition,
    the small cross-cut/cross-kernel parity matrix failing, or the
    build-throughput signers disagreeing on signatures) are
    correctness violations — the CLI always fails on them.
    ``"recall"`` failures flag a shard plan whose blocking kept fewer
    than ``min_recall`` of the LSH candidate pairs co-resident.
    ``"scale"`` failures (only checked when ``min_n`` is given) flag a
    headline run smaller than the roadmap's floor.
    ``"speedup"`` failures (only checked when ``min_speedup`` is given)
    flag a signature factory slower than ``min_speedup`` x the scalar
    per-occurrence one in the payload's build-throughput section.
    """
    failures: dict[str, list[str]] = {
        "checksum": [],
        "recall": [],
        "scale": [],
        "speedup": [],
    }
    if not payload.get("parity", False):
        checksums = sorted(
            {run["checksum"] for run in payload.get("runs", ())}
        )
        failures["checksum"].append(
            f"shard counts disagree on the partition checksum: {checksums}"
        )
    small = payload.get("small_parity") or {}
    if not small.get("ok", False):
        failures["checksum"].append(
            f"small-size shard-merge-parity matrix failed: "
            f"{small.get('failed', [])}"
        )
    recall = payload.get("min_plan_recall")
    if recall is not None and recall < min_recall:
        failures["recall"].append(
            f"shard plan recall {recall:.3f} below the {min_recall:.3f} floor"
        )
    if min_n is not None and payload.get("n", 0) < min_n:
        failures["scale"].append(
            f"relation size n={payload.get('n')} below the {min_n} floor"
        )
    build = payload.get("build_throughput") or {}
    if build and not build.get("parity", True):
        failures["checksum"].append(
            "build-throughput signers produced different signature checksums"
        )
    if min_speedup is not None:
        speedup = build.get("speedup_vectorized_vs_scalar")
        if speedup is None:
            failures["speedup"].append(
                "payload records no factory-vs-scalar build speedup "
                "(no build_throughput section)"
            )
        elif speedup < min_speedup:
            failures["speedup"].append(
                f"signature factory speedup {speedup:.2f}x below the "
                f"{min_speedup:.2f}x floor"
            )
    return {key: value for key, value in failures.items() if value}


def scale_table(payload: Mapping) -> str:
    """Render a payload's run matrix as the repo's standard text table."""
    rows = []
    for run in payload["runs"]:
        plan = run.get("plan") or {}
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
        f"sharded scale-out: {payload['dataset']} n={payload['n']} "
        f"{payload['distance']}/{payload['index']} {payload['cut']} cut"
    )
    return format_table(
        (
            "shards",
            "in_flight",
            "seconds",
            "rec/s",
            "speedup",
            "recall",
            "pages_bound",
            "checksum",
        ),
        rows,
        title=title,
    )


def write_scale_json(payload: Mapping, path: str | Path) -> Path:
    """Write the payload (stable key order) and return the path."""
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target
