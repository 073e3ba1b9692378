"""Command-line interface: ``python -m repro <command>``.

Ten subcommands cover the adoption path:

- ``dedup`` — deduplicate a CSV file and print (or write) the groups;
  ``--verify`` self-checks the run against the paper's invariants;
  ``--shards N`` runs the sharded scale-out path (identical output,
  bounded memory; see ``docs/architecture.md`` Layer 5);
- ``serve`` — stream an insert/delete trace (or a CSV) through the
  online incremental deduplicator, emitting a canonical-vs-duplicate
  decision per arrival; ``--verify`` diffs the final maintained state
  against a from-scratch batch run (see ``docs/serving.md``);
- ``generate`` — emit one of the synthetic evaluation datasets (with
  its gold standard) for experimentation;
- ``estimate-c`` — run Phase 1 on a CSV and report the SN threshold
  suggested for an estimated duplicate fraction (paper section 4.4);
- ``verify`` — run the invariant-verification suite: every check of
  ``docs/verification.md`` on every execution path (sequential vs.
  parallel Phase 1 × in-memory vs. engine Phase 2), over the embedded
  datasets, a generated dataset, or a CSV;
- ``bench-phase1`` — run the Phase-1 batch/parallel scalability matrix
  and write ``BENCH_phase1.json`` (see ``docs/performance.md``);
- ``bench-phase2`` — run the Phase-2 benchmark (the CSPairs builder
  per source — in-memory, engine, spill — and the streaming partition
  scan) and write ``BENCH_phase2.json``;
- ``bench-scale`` — run the sharded scale-out benchmark (unsharded
  reference vs. N-shard runs) and write ``BENCH_scale.json``;
- ``bench-incremental`` — stream inserts (and optional removes)
  through the online layer, checking batch parity and per-insert cost
  at checkpoints, and write ``BENCH_incremental.json``;
- ``bench-constraints`` — run every constraint mode on the claims
  workload (postprocess reference vs. join-time filtering vs. full
  pushdown planning) and write ``BENCH_constraints.json``.

The five ``bench-*`` commands run through one harness
(:mod:`repro.eval.bench`): one artifact schema and one exit rule — a
failed checksum gate exits 1, a failed threshold gate exits 1 only
under ``--check``, a configuration error exits 2 (see
``docs/benchmarks.md``).

``dedup`` and ``serve`` share the constraint flags: ``--cannot-link
FIELD`` / ``--block-key FIELD`` (repeatable), ``--time-window DAYS``
with ``--time-field FIELD``, and ``--constraint-mode``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Sequence

from repro.core.formulation import DEParams
from repro.core.pipeline import DuplicateEliminator
from repro.core.threshold import estimate_sn_threshold
from repro.data.loaders import (
    dataset_names,
    load_dataset,
    relation_from_csv,
)
from repro.eval import bench
from repro.run.config import CONSTRAINT_MODES, ConfigError, RunConfig
from repro.run.registry import DISTANCES, INDEXES
from repro.storage.buffer import BufferStats

__all__ = ["main", "build_parser"]


def _add_constraint_flags(parser: argparse.ArgumentParser) -> None:
    """The constraint flags ``dedup`` and ``serve`` share."""
    parser.add_argument(
        "--cannot-link", action="append", metavar="FIELD", default=None,
        help="records whose FIELD values are non-empty and differ must "
             "never share a group (repeatable)",
    )
    parser.add_argument(
        "--block-key", action="append", metavar="FIELD", default=None,
        help="hard blocking key: records may only be grouped when "
             "their FIELD values are identical (repeatable)",
    )
    parser.add_argument(
        "--time-window", type=int, default=None, metavar="DAYS",
        help="records may only be grouped when their --time-field ISO "
             "dates are within DAYS of each other (unparseable dates "
             "never group)",
    )
    parser.add_argument(
        "--time-field", default=None, metavar="FIELD",
        help="the ISO date column --time-window applies to",
    )
    parser.add_argument(
        "--constraint-mode", choices=CONSTRAINT_MODES,
        default="postprocess",
        help="where constraints are discharged: split groups after "
             "partitioning (postprocess, the paper's section 4.5), "
             "filter CSPairs at join time (inline), or restrict Phase 1 "
             "to pairs inside one hard-constraint block (pushdown; every "
             "same-block pair is scored exactly, so --index has no "
             "effect); every mode emits zero constraint-violating groups",
    )


def _bench_parser(
    sub,
    name: str,
    help: str,
    *,
    dataset: str = "org",
    distance: str = "cosine",
    entities: int | None = None,
    index: str | None = None,
    kernel: bool = True,
) -> argparse.ArgumentParser:
    """``bench-<name>`` with the flags every bench suite shares."""
    parser = sub.add_parser(f"bench-{name}", help=help)
    parser.add_argument("--dataset", choices=dataset_names(), default=dataset)
    parser.add_argument(
        "--distance", choices=sorted(DISTANCES), default=distance
    )
    if entities is not None:
        parser.add_argument(
            "--entities", type=int, default=entities,
            help="entity count before duplicate injection",
        )
    if index is not None:
        parser.add_argument(
            "--index", choices=sorted(INDEXES), default=index,
            help="candidate index of the measured Phase-1 runs",
        )
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    if kernel:
        parser.add_argument(
            "--kernel", choices=("auto", "python"), default="auto",
            help="distance backend for the measured runs",
        )
    parser.add_argument(
        "--output", default=f"BENCH_{name}.json",
        help="where to write the JSON artifact",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="also exit 1 on a failed threshold gate (a failed checksum "
             "gate always exits 1)",
    )
    return parser


def _add_pipeline_flags(
    parser: argparse.ArgumentParser, theta: float, parity_entities: int
) -> None:
    """The flags of the suites that run the whole pipeline next to a
    small parity matrix (``bench-scale``, ``bench-constraints``)."""
    parser.add_argument("--cut", choices=bench.CUTS, default="combined")
    parser.add_argument("--theta", type=float, default=theta)
    parser.add_argument("--c", type=float, default=4.0)
    parser.add_argument(
        "--parity-entities", type=int, default=parity_entities,
        help="entity count for the parity matrix riding along",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Robust Identification of Fuzzy Duplicates (ICDE 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dedup = sub.add_parser("dedup", help="deduplicate a CSV file")
    dedup.add_argument("input", help="CSV file (header row expected)")
    dedup.add_argument("--distance", choices=sorted(DISTANCES), default="fms")
    dedup.add_argument("--index", choices=sorted(INDEXES), default="brute")
    dedup.add_argument("--k", type=int, default=5, help="max group size (DE_S)")
    dedup.add_argument(
        "--theta", type=float, default=None,
        help="diameter bound; switches to DE_D(theta)",
    )
    dedup.add_argument("--c", type=float, default=4.0, help="SN threshold")
    dedup.add_argument(
        "--agg", choices=("max", "avg", "max2"), default="max",
        help="SN aggregation function",
    )
    dedup.add_argument(
        "--output", default=None,
        help="write rid,group_id CSV here instead of printing groups",
    )
    dedup.add_argument(
        "--singletons", action="store_true",
        help="include singleton groups in the output",
    )
    dedup.add_argument(
        "--workers", type=int, default=1,
        help="Phase-1 worker count (>1 runs the chunked parallel engine)",
    )
    dedup.add_argument(
        "--pool", choices=("thread", "process"), default="thread",
        help="worker pool kind for --workers > 1",
    )
    dedup.add_argument(
        "--engine", action="store_true",
        help="run Phase 2 through the storage engine (the paper's "
             "SQL-server architecture)",
    )
    dedup.add_argument(
        "--spill", action="store_true",
        help="stream the Phase-1 NN relation into a storage-engine "
             "table instead of holding it in memory (implies --engine); "
             "Phase 2 reads it back through the buffer pool",
    )
    dedup.add_argument(
        "--buffer-pages", type=int, default=RunConfig.buffer_pages,
        help="buffer-pool capacity, in pages, for --engine / --spill",
    )
    dedup.add_argument(
        "--page-capacity", type=int, default=RunConfig.page_capacity,
        help="rows per storage-engine page for --engine / --spill",
    )
    dedup.add_argument(
        "--shards", type=int, default=RunConfig.shards,
        help="split the run into N LSH-blocked shards, solve each "
             "through the full pipeline, and merge exactly (the merged "
             "partition is checksum-identical to --shards 1)",
    )
    dedup.add_argument(
        "--shard-overlap", type=float, default=RunConfig.shard_overlap,
        help="fraction of a shard's capacity replicated onto the next "
             "shard when an LSH block must be split (in [0, 1])",
    )
    dedup.add_argument(
        "--shards-in-flight", type=int, default=None,
        help="max shards solved concurrently (bounds peak memory at "
             "in-flight x --buffer-pages pages; default: all)",
    )
    dedup.add_argument(
        "--kernel", choices=("auto", "python"), default="auto",
        help="Phase-1 distance backend: the distance's vectorized batch "
             "kernel when it has one (auto), or the scalar per-pair "
             "baseline (python); results are bit-identical",
    )
    dedup.add_argument(
        "--verify", action="store_true",
        help="self-check the run against the paper's invariants "
             "(nonzero exit on violation)",
    )
    dedup.add_argument(
        "--stats", action="store_true",
        help="print run telemetry: per-stage wall times, Phase-1 cost "
             "accounting, distance-cache hit rate, and the buffer hit "
             "ratio when the engine is in play",
    )
    _add_constraint_flags(dedup)

    serve = sub.add_parser(
        "serve",
        help="stream insert/delete operations through the online "
             "incremental deduplicator",
    )
    serve.add_argument(
        "input",
        help="trace file with one operation per line "
             "('add,<field1>,...' / 'remove,<rid>'; '-' reads stdin), "
             "or a header CSV of inserts with --from-csv",
    )
    serve.add_argument(
        "--from-csv", action="store_true",
        help="treat the input as a header CSV whose rows are all adds",
    )
    serve.add_argument(
        "--remove-every", type=int, default=0, metavar="N",
        help="synthesize a removal of the oldest live record after "
             "every N adds (0 disables); exercises the delete path",
    )
    serve.add_argument("--distance", choices=sorted(DISTANCES), default="fms")
    serve.add_argument("--k", type=int, default=5, help="max group size (DE_S)")
    serve.add_argument(
        "--theta", type=float, default=None,
        help="diameter bound; switches to DE_D(theta)",
    )
    serve.add_argument("--c", type=float, default=4.0, help="SN threshold")
    serve.add_argument(
        "--agg", choices=("max", "avg", "max2"), default="max",
        help="SN aggregation function",
    )
    serve.add_argument(
        "--candidates", choices=("exact", "minhash"), default="exact",
        help="candidate generation per arrival: exact scan (batch "
             "parity) or the persistent MinHash postings index",
    )
    serve.add_argument(
        "--store", default=None,
        help="postings snapshot path (requires --candidates minhash): "
             "loaded on startup when present (warm restart, no "
             "re-hashing), written back on shutdown",
    )
    serve.add_argument(
        "--refit-every", type=int, default=None, metavar="N",
        help="re-prepare corpus statistics (IDF) on the live relation "
             "every N operations; default freezes them at the first "
             "arrival",
    )
    serve.add_argument(
        "--max-cache-entries", type=int, default=None,
        help="bound the distance pair cache (long-lived sessions; "
             "default unbounded)",
    )
    serve.add_argument(
        "--groups", default=None, metavar="PATH",
        help="write the final rid,group_id CSV here (same format as "
             "'dedup --output')",
    )
    serve.add_argument(
        "--singletons", action="store_true",
        help="include singleton groups in the --groups output",
    )
    serve.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-arrival decision lines",
    )
    serve.add_argument(
        "--verify", action="store_true",
        help="diff the final maintained state (NN lists, CSPairs rows, "
             "partition checksum) against a from-scratch batch run "
             "(nonzero exit on any disagreement)",
    )
    serve.add_argument(
        "--stats", action="store_true",
        help="print serving telemetry: per-op cost, refits, partition "
             "repair reuse, cache and postings counters",
    )
    _add_constraint_flags(serve)

    generate = sub.add_parser("generate", help="emit a synthetic dataset")
    generate.add_argument("dataset", choices=dataset_names())
    generate.add_argument("--entities", type=int, default=200)
    generate.add_argument("--duplicate-fraction", type=float, default=0.3)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True, help="CSV path to write")
    generate.add_argument(
        "--gold", default=None, help="optional path for the rid,entity gold CSV"
    )

    estimate = sub.add_parser(
        "estimate-c", help="suggest an SN threshold from a duplicate-fraction estimate"
    )
    estimate.add_argument("input", help="CSV file (header row expected)")
    estimate.add_argument(
        "--fraction", type=float, required=True,
        help="estimated fraction of duplicated records, in (0, 1)",
    )
    estimate.add_argument("--distance", choices=sorted(DISTANCES), default="fms")
    estimate.add_argument("--k", type=int, default=5)
    estimate.add_argument(
        "--window", type=float, default=0.05,
        help="half-width of the spike search window, in [0, 0.5)",
    )
    estimate.add_argument(
        "--spike", type=float, default=0.1,
        help="probability mass defining a spike; must be positive",
    )

    verify = sub.add_parser(
        "verify",
        help="check DE runs against the paper's invariants on every "
             "execution path",
    )
    verify.add_argument(
        "input", nargs="?", default=None,
        help="CSV file to verify; omit to verify the embedded datasets",
    )
    verify.add_argument(
        "--dataset", choices=("table1", "integers", *dataset_names()),
        default=None,
        help="verify a named embedded or generated dataset instead of a CSV",
    )
    verify.add_argument("--entities", type=int, default=60)
    verify.add_argument("--duplicate-fraction", type=float, default=0.3)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--distance", choices=sorted(DISTANCES), default="edit")
    verify.add_argument("--index", choices=sorted(INDEXES), default="brute")
    verify.add_argument("--k", type=int, default=5, help="max group size (DE_S)")
    verify.add_argument(
        "--theta", type=float, default=None,
        help="diameter bound; switches to DE_D(theta)",
    )
    verify.add_argument("--c", type=float, default=4.0, help="SN threshold")
    verify.add_argument(
        "--agg", choices=("max", "avg", "max2"), default="max",
    )
    verify.add_argument(
        "--sample", type=int, default=8,
        help="records sampled for the brute-force NN spot-check",
    )
    verify.add_argument(
        "--workers", type=int, default=2,
        help="worker count exercised on the parallel paths",
    )
    verify.add_argument("--pool", choices=("thread", "process"), default="thread")

    bench1 = _bench_parser(
        sub, "phase1", "run the Phase-1 batch/parallel scalability benchmark"
    )
    bench1.add_argument(
        "--sizes", default="500,1000,2000",
        help="comma-separated entity counts per run",
    )
    bench1.add_argument(
        "--workers", default="1,2,4",
        help="comma-separated worker counts for the batch runs",
    )
    bench1.add_argument("--pool", choices=("thread", "process"), default="thread")
    bench1.add_argument(
        "--verify", action="store_true",
        help="additionally run the full pipeline under the invariant "
             "verifier (the invariants gate)",
    )
    bench1.add_argument(
        "--index", action="append", dest="indexes",
        choices=sorted(INDEXES),
        help="additionally run the candidate-index comparison matrix "
             "over these indexes (repeatable; brute force is always "
             "included as the exact baseline)",
    )
    bench1.add_argument(
        "--min-recall", type=float, default=None,
        help="min-recall gate: mean sampled NN recall floor for every "
             "matrix index; requires --index",
    )
    bench1.add_argument(
        "--min-speedup", type=float, default=None,
        help="min-speedup gate: floor on the signature factory's "
             "speedup over the scalar per-occurrence signer (build "
             "throughput)",
    )
    bench1.add_argument(
        "--matrix-entities", type=int, default=None,
        help="entity count for the index matrix (default: largest "
             "value of --sizes)",
    )
    bench1.add_argument(
        "--matrix-distance", choices=sorted(DISTANCES), default=None,
        help="distance for the index matrix (default: --distance)",
    )
    bench1.add_argument(
        "--matrix-theta", type=float, default=0.4,
        help="diameter bound for the matrix workload (the combined "
             "cut: k nearest within theta); pass 0 for a pure k-NN "
             "matrix",
    )
    bench1.add_argument(
        "--recall-sample", type=int, default=50,
        help="records sampled for the matrix NN-recall check",
    )

    bench2 = _bench_parser(
        sub, "phase2",
        "run the Phase-2 CSPairs join and partition-scan benchmark",
        entities=2400, index="brute", kernel=False,
    )
    bench2.add_argument(
        "--buffer-pages", type=int, default=256,
        help="buffer-pool pages for the engine source",
    )
    bench2.add_argument(
        "--spill-buffer-pages", type=int, default=8,
        help="buffer-pool pages for the out-of-core spill source",
    )
    bench2.add_argument(
        "--page-capacity", type=int, default=64,
        help="rows per storage-engine page",
    )
    bench2.add_argument(
        "--repeats", type=int, default=3,
        help="timed repeats per configuration; the median counts",
    )

    benchs = _bench_parser(
        sub, "scale", "run the sharded scale-out benchmark",
        entities=2000, index="minhash",
    )
    benchs.add_argument(
        "--shards", default="1,4",
        help="comma-separated shard counts; 1 is the unsharded "
             "reference every other count is checksummed against",
    )
    benchs.add_argument(
        "--shards-in-flight", type=int, default=None,
        help="max shards solved concurrently (default: all)",
    )
    _add_pipeline_flags(benchs, theta=0.4, parity_entities=60)
    benchs.add_argument(
        "--overlap", type=float, default=0.2,
        help="shard-plan overlap fraction (in [0, 1])",
    )
    benchs.add_argument("--pool", choices=("thread", "process"), default="thread")
    benchs.add_argument(
        "--buffer-pages", type=int, default=64,
        help="per-shard buffer-pool pages (0 disables the engine)",
    )
    benchs.add_argument(
        "--page-capacity", type=int, default=64,
        help="rows per storage-engine page",
    )
    benchs.add_argument(
        "--min-recall", type=float, default=0.9,
        help="min-recall gate: floor on the shard plan's recorded LSH "
             "co-residency recall",
    )
    benchs.add_argument(
        "--min-n", type=int, default=None,
        help="min-n gate: floor on the relation size n",
    )

    benchc = _bench_parser(
        sub, "constraints",
        "run the constraint-mode benchmark (pushdown vs postprocess on "
        "the claims workload)",
        dataset="claims", distance="edit", entities=400, index="brute",
        kernel=False,
    )
    _add_pipeline_flags(benchc, theta=0.45, parity_entities=80)
    benchc.add_argument(
        "--window-days", type=int, default=30,
        help="the TimeWindow constraint's width on service_date",
    )
    benchc.add_argument("--duplicate-fraction", type=float, default=0.3)
    benchc.add_argument(
        "--min-ratio", type=float, default=5.0,
        help="min-ratio gate: floor on postprocess/pushdown distance "
             "evaluations (0 disables)",
    )

    benchi = _bench_parser(
        sub, "incremental",
        "run the online insert/delete serving benchmark", entities=1600,
    )
    benchi.add_argument(
        "--remove-every", type=int, default=0, metavar="N",
        help="interleave a removal of the oldest live record after "
             "every N inserts (0 disables)",
    )
    benchi.add_argument(
        "--checkpoints", default="500,1000,2000",
        help="comma-separated live sizes at which to time batch reruns "
             "and compare partition checksums",
    )
    benchi.add_argument("--c", type=float, default=4.0)
    benchi.add_argument(
        "--window", type=int, default=100,
        help="trailing per-op window summarized at each checkpoint",
    )
    benchi.add_argument(
        "--max-cache-entries", type=int, default=200_000,
        help="distance pair-cache bound for the streamed session",
    )
    benchi.add_argument(
        "--min-check-n", type=int, default=1000,
        help="smallest checkpoint the scaling gates apply to (smaller "
             "sizes are timing noise)",
    )
    benchi.add_argument(
        "--max-op-ratio", type=float, default=0.5,
        help="max-op-ratio gate: trailing per-op cost must stay below "
             "this fraction of one batch rerun",
    )

    return parser


def _make_solver(
    distance_name: str,
    index_name: str,
    n_workers: int = 1,
    pool: str = "thread",
    verify: bool | str = False,
) -> DuplicateEliminator:
    distance = DISTANCES[distance_name]()
    index = INDEXES[index_name]()
    return DuplicateEliminator(
        distance, index=index, n_workers=n_workers, pool=pool, verify=verify
    )


def _params_from_args(args: argparse.Namespace) -> DEParams:
    if args.theta is not None:
        return DEParams.diameter(args.theta, agg=args.agg, c=args.c)
    return DEParams.size(args.k, agg=args.agg, c=args.c)


def _read_input(path: str):
    """The relation in CSV file ``path``, or ``None`` once the reason
    it cannot be read (missing, empty, ragged) is on stderr."""
    try:
        return relation_from_csv(path)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _cmd_dedup(args: argparse.Namespace, out) -> int:
    try:
        config = RunConfig.from_cli_args(args)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    relation = _read_input(args.input)
    if relation is None:
        return 2
    if config.constraints:
        from repro.core.constraints import ConstraintError, validate_constraints

        try:
            validate_constraints(config.constraints, relation.schema)
        except ConstraintError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    params = _params_from_args(args)
    solver = DuplicateEliminator(
        DISTANCES[args.distance](),
        index=INDEXES[args.index](),
        config=config,
    )
    result = solver.run(relation, params)

    if args.output:
        with Path(args.output).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("rid", "group_id"))
            for group_id, group in enumerate(result.partition):
                if len(group) == 1 and not args.singletons:
                    continue
                for rid in group:
                    writer.writerow((rid, group_id))
        print(f"wrote group assignments to {args.output}", file=out)
    else:
        groups = result.duplicate_groups
        print(f"{len(groups)} duplicate group(s) found:", file=out)
        for group in groups:
            print(file=out)
            for rid in group:
                print(f"  [{rid}] {relation.get(rid).text()}", file=out)
    if args.stats:
        stats = result.stats.phase1
        print(file=out)
        cache_note = (
            "cache bypassed (kernel)"
            if stats.cache_bypassed
            else f"cache hit rate {stats.cache_hit_rate:.2f}"
        )
        # Pushdown answers through its block index, whatever --index is.
        index = "blocks" if result.stats.constraint_plan else args.index
        print(
            f"phase 1 [{index}]: {stats.lookups} lookups in "
            f"{stats.seconds:.2f}s ({stats.throughput:.0f}/s), "
            f"{stats.evaluations} distance evaluations, "
            f"{stats.kernel_evaluations} kernel evaluations "
            f"[{result.stats.kernel_backend} backend], "
            f"{stats.candidates_generated} candidates verified, "
            f"{stats.evaluations_pruned} pairs pruned "
            f"(prune rate {stats.prune_rate:.2f}, {cache_note})",
            file=out,
        )
        if stats.substage_seconds:
            breakdown = ", ".join(
                f"{name} {seconds:.3f}s"
                for name, seconds in sorted(stats.substage_seconds.items())
            )
            print(f"phase 1 sub-stages: {breakdown}", file=out)
        run_stats = result.stats
        p2 = run_stats.phase2
        if p2.pairs_filtered:
            print(
                f"phase 2 join: {p2.pairs_filtered} mutual pairs dropped "
                f"by the constraint filter",
                file=out,
            )
        if p2.partition_streamed:
            print(
                f"partition: streamed from the CSPairs table, "
                f"peak anchor group {p2.peak_group_rows} rows",
                file=out,
            )
        stages = ", ".join(
            f"{timing.stage} {timing.seconds:.3f}s"
            for timing in run_stats.timings
        )
        print(f"stages: {stages}", file=out)
        print(
            f"distance cache: {run_stats.distance_cache_calls} calls, "
            f"hit rate {run_stats.distance_cache_hit_rate:.2f}",
            file=out,
        )
        # A sharded run's pages go through each shard's private pool.
        pools = [run["buffer"] for run in run_stats.shard_runs if run["buffer"]]
        buffer, pool_note = run_stats.buffer, ""
        if pools:
            buffer = BufferStats(*(
                sum(pool[key] for pool in pools)
                for key in ("hits", "misses", "evictions")
            ))
            pool_note = f", summed over {len(pools)} shard pools"
        if buffer is not None:
            spill_note = " (NN relation spilled)" if run_stats.spilled else ""
            print(
                f"buffer pool: {buffer.hits} hits / {buffer.misses} misses / "
                f"{buffer.evictions} evictions, "
                f"hit ratio {buffer.hit_ratio:.2f}{pool_note}{spill_note}",
                file=out,
            )
    if result.verification is not None:
        print(file=out)
        print(result.verification.render(), file=out)
        if not result.verification.ok:
            return 1
    return 0


def _serve_trace(args: argparse.Namespace) -> tuple[list, tuple[str, ...]]:
    """Resolve the serve subcommand's (trace, schema) pair."""
    from repro.run.serve import parse_trace_line

    if args.from_csv:
        relation = relation_from_csv(args.input)
        base = [("add", record.fields) for record in relation]
        schema = relation.schema
    else:
        if args.input == "-":
            lines = sys.stdin.read().splitlines()
        else:
            lines = Path(args.input).read_text(encoding="utf-8").splitlines()
        base = [
            parsed
            for line in lines
            if (parsed := parse_trace_line(line)) is not None
        ]
        n_fields = next(
            (len(payload) for op, payload in base if op == "add"), 1
        )
        schema = tuple(f"f{i}" for i in range(n_fields))
    if args.remove_every > 0:
        trace: list = []
        live: list[int] = []
        next_rid = 0
        adds = 0
        for op, payload in base:
            trace.append((op, payload))
            if op == "add":
                live.append(next_rid)
                next_rid += 1
                adds += 1
                if adds % args.remove_every == 0 and len(live) > 1:
                    trace.append(("remove", live.pop(0)))
            else:
                live.remove(payload)
        return trace, schema
    return base, schema


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from repro.run.serve import ServeConfig, ServeSession

    try:
        config = ServeConfig.from_cli_args(args)
        trace, schema = _serve_trace(args)
    except (ConfigError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if config.constraints:
        from repro.core.constraints import ConstraintError, validate_constraints

        try:
            validate_constraints(config.constraints, schema)
        except ConstraintError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    session = ServeSession(config, schema=schema)
    for decision in session.replay(trace):
        if not args.quiet:
            print(decision.render(), file=out)

    partition = session.dedup.partition()
    if args.groups:
        with Path(args.groups).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("rid", "group_id"))
            for group_id, group in enumerate(partition):
                if len(group) == 1 and not args.singletons:
                    continue
                for rid in group:
                    writer.writerow((rid, group_id))
        print(f"wrote group assignments to {args.groups}", file=out)
    print(
        f"served {len(trace)} operation(s); {len(session.dedup)} live "
        f"record(s) in {len(partition.non_trivial_groups())} duplicate "
        f"group(s)",
        file=out,
    )
    if args.stats:
        dedup = session.dedup
        repair = dedup.last_repair
        cache = dedup.distance
        print(
            f"distance cache: {cache.calls} calls, "
            f"hit rate {cache.hit_rate:.2f}, {len(cache)} entries, "
            f"{cache.evictions} evictions; refits: {dedup.refits}",
            file=out,
        )
        if repair is not None:
            print(
                f"partition repair: {repair.n_components} components, "
                f"{repair.components_reused} reused / "
                f"{repair.components_repaired} re-extracted "
                f"({repair.n_pairs} CSPairs rows)",
                file=out,
            )
        if session.postings is not None:
            postings = session.postings
            print(
                f"postings: {len(postings)} live signatures "
                f"({'restored' if postings.restored else 'cold'}, "
                f"{postings.signatures_computed} hashed this session, "
                f"{postings.log_rows_appended} log rows appended, "
                f"{postings.tombstones} tombstones)",
                file=out,
            )
    saved = session.save_store()
    if saved is not None:
        print(f"wrote postings snapshot to {saved}", file=out)
    if args.verify:
        report = session.verify(label=args.input)
        print(file=out)
        print(report.render(), file=out)
        if not report.ok:
            return 1
    return 0


def _cmd_generate(args: argparse.Namespace, out) -> int:
    dataset = load_dataset(
        args.dataset,
        n_entities=args.entities,
        duplicate_fraction=args.duplicate_fraction,
        seed=args.seed,
    )
    from repro.data.loaders import relation_to_csv

    relation_to_csv(dataset.relation, args.output)
    print(
        f"wrote {len(dataset.relation)} records "
        f"({len(dataset.gold.true_pairs())} duplicate pairs) to {args.output}",
        file=out,
    )
    if args.gold:
        with Path(args.gold).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("rid", "entity"))
            for rid in sorted(dataset.gold.entity_of):
                writer.writerow((rid, dataset.gold.entity_of[rid]))
        print(f"wrote gold standard to {args.gold}", file=out)
    return 0


def _cmd_estimate(args: argparse.Namespace, out) -> int:
    # Validate the heuristic's parameters before paying for Phase 1;
    # estimate_sn_threshold rejects them with the same messages.
    try:
        estimate_sn_threshold(
            [2], args.fraction, window=args.window, spike=args.spike
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    relation = _read_input(args.input)
    if relation is None:
        return 2
    solver = _make_solver(args.distance, "brute")
    result = solver.run(relation, DEParams.size(args.k, c=4.0))
    estimate = estimate_sn_threshold(
        result.nn_relation.ng_values(),
        args.fraction,
        window=args.window,
        spike=args.spike,
    )
    print(
        f"suggested SN threshold: c = {estimate.c:g} "
        f"(ng anchor {estimate.ng_value}, "
        f"{'spike' if estimate.spike_found else 'fallback'}, "
        f"cumulative {estimate.cumulative:.2f})",
        file=out,
    )
    return 0


def _verify_targets(args: argparse.Namespace) -> list[tuple[str, object, object]]:
    """Resolve the verify subcommand's (label, relation, distance) list;
    empty when the input CSV cannot be read (reported on stderr)."""
    from repro.data.embedded import (
        integer_distance,
        integers_example,
        table1_relation,
    )

    if args.input is not None:
        relation = _read_input(args.input)
        if relation is None:
            return []
        return [(args.input, relation, DISTANCES[args.distance]())]
    if args.dataset == "table1":
        return [("table1", table1_relation(), DISTANCES[args.distance]())]
    if args.dataset == "integers":
        return [("integers", integers_example(), integer_distance())]
    if args.dataset is not None:
        dataset = load_dataset(
            args.dataset,
            n_entities=args.entities,
            duplicate_fraction=args.duplicate_fraction,
            seed=args.seed,
        )
        return [(args.dataset, dataset.relation, DISTANCES[args.distance]())]
    # Default: the embedded paper datasets.
    return [
        ("table1", table1_relation(), DISTANCES[args.distance]()),
        ("integers", integers_example(), integer_distance()),
    ]


def _cmd_verify(args: argparse.Namespace, out) -> int:
    from repro.verify import verify_paths

    params = _params_from_args(args)
    targets = _verify_targets(args)
    if not targets:
        return 2
    all_ok = True
    for label, relation, distance in targets:
        report = verify_paths(
            relation,
            distance,
            params,
            index_factory=INDEXES[args.index],
            n_workers=args.workers,
            pool=args.pool,
            sample=args.sample,
            label=f"{label} under {params.describe()}",
        )
        print(report.render(), file=out)
        print(file=out)
        all_ok = all_ok and report.ok
    print("all invariants hold" if all_ok else "INVARIANT VIOLATIONS FOUND",
          file=out)
    return 0 if all_ok else 1


def _cmd_bench(args: argparse.Namespace, out) -> int:
    """Every ``bench-*`` command: run its suite, write the artifact, gate."""
    suite = bench.suite(args.command.removeprefix("bench-"))
    settings = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "output", "check")
    }
    try:
        payload = bench.run(suite, settings)
    except (ConfigError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return bench.publish(suite, payload, args.output, args.check, out)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "dedup":
        return _cmd_dedup(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "generate":
        return _cmd_generate(args, out)
    if args.command == "estimate-c":
        return _cmd_estimate(args, out)
    if args.command == "verify":
        return _cmd_verify(args, out)
    if args.command.startswith("bench-"):
        return _cmd_bench(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")
