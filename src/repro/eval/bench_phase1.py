"""Phase-1 scalability benchmark: throughput vs. workers vs. size.

Produces the ``BENCH_phase1.json`` artifact the performance roadmap
regresses against.  Three execution modes of the same NN-list
computation are timed on brute-force indexes over a generated dataset:

- ``per-query`` — the sequential baseline: one full relation scan per
  k-NN lookup and another per NG range count;
- ``batch`` with 1 worker — :meth:`BruteForceIndex.phase1_batch
  <repro.index.bruteforce.BruteForceIndex.phase1_batch>`: dense kernel
  rows read off by the shared Phase-1 read-off (``--kernel auto``), or
  the scalar batch scope that evaluates each unordered pair once and
  serves the NG counts from the pair cache (``--kernel python``);
- ``batch`` with N workers — the chunked
  :class:`~repro.parallel.engine.ParallelNNEngine` executor.

Every run's NN relation is checksummed; the payload records whether all
modes agreed (they must — the parallel path is defined to be
result-identical).  See ``docs/performance.md`` for how to read the
output.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.core.formulation import DEParams
from repro.core.neighborhood import NNRelation
from repro.core.nn_phase import Phase1Stats, prepare_nn_lists
from repro.data.loaders import load_dataset
from repro.distances.base import CachedDistance, DistanceFunction
from repro.distances.cosine import CosineDistance
from repro.distances.edit import EditDistance
from repro.distances.fms import FuzzyMatchDistance
from repro.distances.jaccard import TokenJaccardDistance
from repro.eval.report import format_table
from repro.index.base import NNIndex
from repro.index.bktree import BKTreeIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.inverted import QgramInvertedIndex
from repro.index.minhash import MinHashIndex
from repro.parallel.engine import ParallelNNEngine

__all__ = [
    "BENCH_DISTANCES",
    "INDEX_FACTORIES",
    "nn_checksum",
    "parallelism_advisory",
    "run_build_throughput",
    "run_phase1_bench",
    "run_index_matrix",
    "phase1_table",
    "build_throughput_table",
    "index_matrix_table",
    "write_phase1_json",
]

BENCH_DISTANCES: dict[str, type[DistanceFunction]] = {
    "cosine": CosineDistance,
    "edit": EditDistance,
    "fms": FuzzyMatchDistance,
    "jaccard": TokenJaccardDistance,
}

#: Candidate-generation strategies the index matrix compares.  Brute
#: force is the exact baseline every approximate row is scored against.
#: The q-gram index runs with its scalability knobs engaged (stop-grams
#: and a range-query budget) — without them the NG range queries verify
#: nearly every gram-sharing pair and the index degenerates to
#: quadratic on text with common grams; see docs/performance.md.
INDEX_FACTORIES: dict[str, Callable[[], NNIndex]] = {
    "brute": BruteForceIndex,
    "bktree": BKTreeIndex,
    "qgram": lambda: QgramInvertedIndex(max_df=64, within_budget=128),
    "minhash": MinHashIndex,
}


def parallelism_advisory(workers: Sequence[int] | int) -> dict:
    """Honest parallelism metadata for a benchmark payload.

    Worker counts above ``os.cpu_count()`` cannot speed anything up —
    they only add scheduling overhead — yet a payload that records
    ``workers: [1, 2, 4]`` on a 1-core box silently reads as a failed
    scaling experiment.  This stamps every payload with the
    *effective* parallelism (``min(max(workers), cpu_count)``) and a
    human-readable warning when the requested fan-out exceeds the
    machine, so speedup columns can be read honestly.
    """
    requested = max(workers) if not isinstance(workers, int) else workers
    cpu_count = os.cpu_count() or 1
    effective = min(requested, cpu_count)
    warning = None
    if cpu_count < requested:
        warning = (
            f"requested {requested} workers on a {cpu_count}-core machine; "
            f"speedups beyond {cpu_count}x reflect overlap of waiting, not "
            f"parallel compute"
        )
    return {
        "cpu_count": cpu_count,
        "requested_workers": requested,
        "effective_parallelism": effective,
        "warning": warning,
    }


def nn_checksum(nn_relation: NNRelation) -> str:
    """A deterministic digest of an NN relation (lists, distances, NG)."""
    digest = hashlib.sha256()
    for entry in nn_relation:
        digest.update(repr((entry.rid, entry.ng)).encode())
        for neighbor in entry.neighbors:
            digest.update(repr((neighbor.rid, neighbor.distance)).encode())
    return digest.hexdigest()


def run_build_throughput(
    dataset: str = "org",
    n_entities: int = 2000,
    n_hashes: int = 64,
    n_bands: int = 16,
    duplicate_fraction: float = 0.3,
    seed: int = 0,
) -> dict:
    """Time MinHash signing + banding: scalar reference vs the factory.

    The index-build half of the Phase-1 cost model, isolated, across
    two signers of the same relation:

    - ``scalar`` — the reference path: ``minhash_signature`` per record
      (hashes every token *occurrence* per salt) plus the per-record
      ``band_keys`` bucketing loop;
    - ``factory`` — one :class:`~repro.distances.corpus.Corpus` of the
      relation (``tokenize``) signed by the vocabulary-hashed
      :class:`~repro.index.signatures.SignatureFactory` (hash each
      *distinct* token once per salt, ``sign``) and bucketed by
      :func:`~repro.index.signatures.group_band_buckets` (``bucket``).

    The payload records per-signer wall time, records/sec, the
    tokenize/sign/bucket split, the vocabulary compression ratio
    (occurrences / distinct tokens — the quantity vocabulary hashing
    exploits, and the reason the factory wins), a signature checksum,
    ``parity`` (checksums byte-identical across both signers) and
    ``speedup_vectorized_vs_scalar`` (factory vs scalar — what
    ``bench-scale --min-speedup`` gates).
    """
    from repro.distances.corpus import Corpus
    from repro.distances.tokens import tokenize
    from repro.index.minhash import band_keys, minhash_signature
    from repro.index.signatures import SignatureFactory, group_band_buckets

    relation = load_dataset(
        dataset,
        n_entities=n_entities,
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    ).relation
    rids = relation.ids()

    def checksum_of(signature_items) -> str:
        digest = hashlib.sha256()
        for rid, signature in signature_items:
            digest.update(repr((rid, signature)).encode())
        return digest.hexdigest()

    def row(signer, tokenize_seconds, sign_seconds, bucket_seconds, n_buckets, checksum):
        seconds = tokenize_seconds + sign_seconds + bucket_seconds
        return {
            "signer": signer,
            "seconds": seconds,
            "records_per_second": len(rids) / seconds if seconds > 0 else None,
            "tokenize_seconds": tokenize_seconds,
            "sign_seconds": sign_seconds,
            "bucket_seconds": bucket_seconds,
            "n_buckets": n_buckets,
            "signature_checksum": checksum,
        }

    # Scalar reference: per-occurrence hashing, per-record bucketing.
    started = time.perf_counter()
    element_sets = {rid: set(tokenize(relation.get(rid).text())) for rid in rids}
    tokenize_seconds = time.perf_counter() - started
    started = time.perf_counter()
    scalar_signatures = [
        (rid, minhash_signature(element_sets[rid], n_hashes)) for rid in rids
    ]
    sign_seconds = time.perf_counter() - started
    started = time.perf_counter()
    scalar_buckets: dict = {}
    for rid, signature in scalar_signatures:
        for band, key in band_keys(signature, n_bands):
            scalar_buckets.setdefault((band, key), []).append(rid)
    scalar = row(
        "scalar", tokenize_seconds, sign_seconds,
        time.perf_counter() - started, len(scalar_buckets),
        checksum_of(scalar_signatures),
    )

    started = time.perf_counter()
    corpus = Corpus(relation)
    tokenize_seconds = time.perf_counter() - started
    signed = SignatureFactory(n_hashes).sign(corpus, rids)
    grouping = group_band_buckets(signed, n_bands)
    # Untimed: with numpy the tuples are read off the signature matrix
    # here, for the checksum only.
    factory = row(
        "factory", tokenize_seconds, signed.timings["sign"], grouping.seconds,
        grouping.n_buckets, checksum_of(zip(signed.rids, signed.tuples)),
    )
    occurrences = sum(len(tokens) for tokens in corpus.token_lists)
    return {
        "dataset": dataset,
        "n": len(relation),
        "n_entities": n_entities,
        "n_hashes": n_hashes,
        "n_bands": n_bands,
        "token_occurrences": occurrences,
        "distinct_tokens": len(corpus.vocab),
        "vocab_compression": (
            occurrences / len(corpus.vocab) if corpus.vocab else None
        ),
        "rows": [scalar, factory],
        "speedup_vectorized_vs_scalar": (
            scalar["seconds"] / factory["seconds"]
            if factory["seconds"] > 0
            else None
        ),
        "parity": scalar["signature_checksum"] == factory["signature_checksum"],
    }


def _run_mode(
    relation,
    distance_cls: type[DistanceFunction],
    params: DEParams,
    mode: str,
    n_workers: int,
    pool: str,
    kernel: str = "python",
) -> dict:
    """Time one Phase-1 execution mode on a fresh index and distance."""
    index = BruteForceIndex()
    index.enable_kernel(kernel)
    index.build(relation, distance_cls())
    stats = Phase1Stats()
    if mode == "per-query":
        nn = prepare_nn_lists(relation, index, params, order="sequential", stats=stats)
    else:
        engine = ParallelNNEngine(n_workers=n_workers, pool=pool)
        nn = engine.run(relation, index, params, order="sequential", stats=stats)
    return {
        "n": len(relation),
        "mode": mode,
        "workers": n_workers,
        "seconds": stats.seconds,
        "lookups": stats.lookups,
        "throughput": stats.throughput,
        "evaluations": stats.evaluations,
        "kernel_evaluations": stats.kernel_evaluations,
        "backend": index.kernel_backend,
        # Kernel-backed runs route every pair around the pair cache, so
        # 0.0 would be misleading: null + the explicit flag instead.
        "cache_hit_rate": (
            None if stats.cache_bypassed else stats.cache_hit_rate
        ),
        "cache_bypassed": stats.cache_bypassed,
        "substages": dict(stats.substage_seconds),
        "n_chunks": stats.n_chunks,
        "checksum": nn_checksum(nn),
    }


def run_index_matrix(
    indexes: Sequence[str],
    dataset: str = "org",
    distance: str = "cosine",
    n_entities: int = 2000,
    k: int = 5,
    theta: float | None = 0.4,
    n_workers: int = 1,
    pool: str = "thread",
    duplicate_fraction: float = 0.3,
    seed: int = 0,
    recall_sample: int = 50,
    kernel: str = "python",
) -> dict:
    """Compare candidate-generation indexes on one Phase-1 instance.

    Runs the batched Phase 1 once per requested index (brute force is
    always included as the exact baseline) and reports, per row: cost
    (distance evaluations during queries and during index construction),
    pruning effectiveness (candidates surfaced vs. pairs never
    examined), throughput, and sampled NN recall against brute force
    (:func:`repro.verify.parity.sampled_nn_recall`).

    The default workload is the paper's combined cut — the ``k``
    nearest neighbors within ``theta`` — which is the regime candidate
    generation exists for: neighbors beyond θ are never needed, so an
    index that skips far pairs loses nothing.  Pass ``theta=None`` for
    a pure k-NN matrix; expect approximate indexes to trade much more
    recall there, because every query must then return ``k`` rows even
    when nothing similar exists (see docs/performance.md, "When brute
    force wins").

    An index incompatible with the distance (e.g. the BK-tree without
    edit distance) produces a ``skipped`` row instead of failing the
    whole matrix, so one matrix can sweep every index per distance.
    """
    # Imported lazily: repro.verify sits above the eval layer.
    from repro.verify.parity import sampled_nn_recall

    distance_cls = BENCH_DISTANCES[distance]
    if theta is not None:
        params = DEParams.combined(k, theta, c=4.0)
    else:
        params = DEParams.size(k, c=4.0)
    relation = load_dataset(
        dataset,
        n_entities=n_entities,
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    ).relation
    names = ["brute"] + [name for name in indexes if name != "brute"]
    # One memoized distance serves every row's recall check: the sample
    # is fixed, so the brute-force reference pairs are computed once.
    recall_distance = CachedDistance(distance_cls())

    rows: list[dict] = []
    brute_total: int | None = None
    for name in names:
        try:
            index = INDEX_FACTORIES[name]()
            index.enable_kernel(kernel)
            index.build(relation, distance_cls())
        except (TypeError, ValueError) as exc:
            rows.append({"index": name, "skipped": str(exc)})
            continue
        stats = Phase1Stats()
        engine = ParallelNNEngine(n_workers=n_workers, pool=pool)
        nn = engine.run(relation, index, params, order="sequential", stats=stats)
        # Kernel-evaluated pairs are distance work all the same: keep
        # the vs-brute ratio meaningful under every backend.
        total = (
            stats.evaluations + stats.kernel_evaluations
            + index.build_evaluations
        )
        if name == "brute":
            brute_total = total
        row = {
            "index": name,
            "index_name": index.name,
            "seconds": stats.seconds,
            "lookups": stats.lookups,
            "throughput": stats.throughput,
            "evaluations": stats.evaluations,
            "kernel_evaluations": stats.kernel_evaluations,
            "backend": index.kernel_backend,
            "build_evaluations": index.build_evaluations,
            "total_evaluations": total,
            "candidates_generated": stats.candidates_generated,
            "evaluations_pruned": stats.evaluations_pruned,
            "prune_rate": stats.prune_rate,
            "cache_hit_rate": (
                None if stats.cache_bypassed else stats.cache_hit_rate
            ),
            "cache_bypassed": stats.cache_bypassed,
            "substages": dict(stats.substage_seconds),
            "evaluations_ratio_vs_brute": (
                brute_total / total if brute_total and total else None
            ),
            "recall": sampled_nn_recall(
                relation,
                recall_distance,
                nn,
                params,
                sample=recall_sample,
                seed=seed,
            ),
            "checksum": nn_checksum(nn),
        }
        rows.append(row)
    return {
        "dataset": dataset,
        "distance": distance,
        "n": len(relation),
        "n_entities": n_entities,
        "k": k,
        "theta": theta,
        "workers": n_workers,
        "pool": pool,
        "duplicate_fraction": duplicate_fraction,
        "seed": seed,
        "recall_sample": recall_sample,
        "kernel": kernel,
        "effective_parallelism": parallelism_advisory(n_workers),
        "rows": rows,
    }


def run_phase1_bench(
    sizes: Sequence[int] = (500, 1000, 2000),
    workers: Sequence[int] = (1, 2, 4),
    dataset: str = "org",
    distance: str = "cosine",
    k: int = 5,
    pool: str = "thread",
    duplicate_fraction: float = 0.3,
    seed: int = 0,
    kernel: str = "auto",
    verify: bool = False,
    indexes: Sequence[str] | None = None,
    matrix_distance: str | None = None,
    matrix_entities: int | None = None,
    matrix_theta: float | None = 0.4,
    recall_sample: int = 50,
) -> dict:
    """Run the Phase-1 scalability matrix and return the JSON payload.

    ``sizes`` counts entities before duplicate injection; each row
    reports the actual relation size ``n``.  For every size the
    per-query baseline runs once and the batch path runs once per
    worker count.  ``kernel`` selects the distance backend for the
    batch runs (and the index matrix); the per-query baseline always
    runs the scalar python path, so the recorded speedups measure the
    full blocked + vectorized pipeline against the honest sequential
    baseline.  Checksums still must agree across all modes.

    With ``verify=True`` the smallest size additionally runs the full
    DE pipeline under the invariant verifier (``repro.verify``) and
    the payload records the per-check summary under ``"verification"``
    — a bench artifact produced from an invariant-breaking build is
    flagged rather than silently published.

    With ``indexes`` given (names from :data:`INDEX_FACTORIES`), the
    payload additionally carries ``"index_matrix"``: a list of
    :func:`run_index_matrix` results — by default one matrix at the
    largest size, overridable via ``matrix_distance`` /
    ``matrix_entities``.
    """
    distance_cls = BENCH_DISTANCES[distance]
    params = DEParams.size(k, c=4.0)
    runs: list[dict] = []
    speedups: dict[str, float] = {}
    parity: dict[str, bool] = {}

    for size in sizes:
        relation = load_dataset(
            dataset,
            n_entities=size,
            duplicate_fraction=duplicate_fraction,
            seed=seed,
        ).relation
        baseline = _run_mode(
            relation, distance_cls, params, "per-query", 1, pool,
            kernel="python",
        )
        runs.append(baseline)
        checksums = {baseline["checksum"]}
        batch_one = None
        for n_workers in workers:
            row = _run_mode(
                relation, distance_cls, params, "batch", n_workers, pool,
                kernel=kernel,
            )
            runs.append(row)
            checksums.add(row["checksum"])
            if n_workers == 1:
                batch_one = row
        n_key = str(len(relation))
        parity[n_key] = len(checksums) == 1
        if batch_one is not None and baseline["throughput"] > 0.0:
            speedups[n_key] = batch_one["throughput"] / baseline["throughput"]

    verification = None
    if verify:
        verification = _self_check(
            dataset, distance_cls, params,
            n_entities=min(sizes),
            duplicate_fraction=duplicate_fraction,
            seed=seed,
        )

    build_throughput = run_build_throughput(
        dataset=dataset,
        n_entities=max(sizes),
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    )

    index_matrix = None
    if indexes:
        index_matrix = [
            run_index_matrix(
                indexes,
                dataset=dataset,
                distance=matrix_distance or distance,
                n_entities=matrix_entities or max(sizes),
                k=k,
                theta=matrix_theta,
                pool=pool,
                duplicate_fraction=duplicate_fraction,
                seed=seed,
                recall_sample=recall_sample,
                kernel=kernel,
            )
        ]

    return {
        "benchmark": "phase1_parallel",
        "dataset": dataset,
        "distance": distance,
        "k": k,
        "pool": pool,
        "kernel": kernel,
        "duplicate_fraction": duplicate_fraction,
        "seed": seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "sizes": list(sizes),
        "workers": list(workers),
        "effective_parallelism": parallelism_advisory(workers),
        "runs": runs,
        "speedup_batch_vs_per_query": speedups,
        "parity": parity,
        "build_throughput": build_throughput,
        "verification": verification,
        "index_matrix": index_matrix,
    }


def _self_check(
    dataset: str,
    distance_cls: type[DistanceFunction],
    params: DEParams,
    n_entities: int,
    duplicate_fraction: float,
    seed: int,
) -> dict:
    """Run the full pipeline under the verifier; return its summary.

    The check runs through the storage engine so the payload also
    captures the engine telemetry — notably the buffer hit ratio (the
    paper's Figure 8 quantity) — alongside the invariant summary.
    """
    # Imported lazily: the verifier sits above the pipeline layer.
    from repro.core.pipeline import DuplicateEliminator
    from repro.run.config import RunConfig
    from repro.verify.report import summarize

    relation = load_dataset(
        dataset,
        n_entities=n_entities,
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    ).relation
    config = RunConfig(verify="report", use_engine=True)
    solver = DuplicateEliminator(distance_cls(), config=config)
    result = solver.run(relation, params)
    summary = summarize(result.verification)
    summary["stats"] = result.stats.to_dict()
    return summary


def phase1_table(payload: Mapping) -> str:
    """Render a payload's run matrix as the repo's standard text table."""
    rows = [
        (
            run["n"],
            run["mode"],
            run.get("backend", "python"),
            run["workers"],
            f"{run['seconds']:.2f}s",
            f"{run['throughput']:.0f}/s",
            run["evaluations"],
            run.get("kernel_evaluations", 0),
            (
                "-(kernel)"
                if run.get("cache_hit_rate") is None
                else f"{run['cache_hit_rate']:.2f}"
            ),
        )
        for run in payload["runs"]
    ]
    table = format_table(
        ("n", "mode", "backend", "workers", "seconds", "throughput",
         "evaluations", "kernel_evals", "hit_rate"),
        rows,
        title="BENCH_phase1: Phase-1 lookup throughput by mode and worker count",
    )
    speedups = ", ".join(
        f"n={n}: {s:.2f}x"
        for n, s in sorted(payload["speedup_batch_vs_per_query"].items(), key=lambda kv: int(kv[0]))
    )
    return f"{table}\n\nbatch (1 worker) vs per-query speedup: {speedups}"


def build_throughput_table(build: Mapping) -> str:
    """Render a :func:`run_build_throughput` section as a text table."""
    rows = [
        (
            row["signer"],
            f"{row['seconds']:.3f}s",
            (
                f"{row['records_per_second']:.0f}/s"
                if row["records_per_second"]
                else "-"
            ),
            f"{row['tokenize_seconds']:.3f}s",
            f"{row['sign_seconds']:.3f}s",
            f"{row['bucket_seconds']:.3f}s",
            row["n_buckets"],
            row["signature_checksum"][:12],
        )
        for row in build["rows"]
    ]
    title = (
        f"index build throughput: n={build['n']} "
        f"h={build['n_hashes']} bands={build['n_bands']} "
        f"vocab {build['distinct_tokens']}/{build['token_occurrences']} "
        f"({build['vocab_compression']:.1f}x compression)"
        if build.get("vocab_compression")
        else f"index build throughput: n={build['n']}"
    )
    table = format_table(
        ("signer", "seconds", "rec/s", "tokenize", "sign", "bucket",
         "buckets", "checksum"),
        rows,
        title=title,
    )
    speedup = build.get("speedup_vectorized_vs_scalar")
    footer = (
        f"factory vs scalar signer speedup: {speedup:.2f}x"
        if speedup
        else "no factory-vs-scalar speedup recorded"
    )
    parity = "identical" if build.get("parity") else "MISMATCH"
    return f"{table}\n\n{footer}; signatures across signers: {parity}"


def index_matrix_table(matrix: Mapping) -> str:
    """Render one :func:`run_index_matrix` result as a text table."""
    rows = []
    for row in matrix["rows"]:
        if "skipped" in row:
            rows.append((row["index"], "skipped: " + row["skipped"],
                         "", "", "", "", ""))
            continue
        ratio = row["evaluations_ratio_vs_brute"]
        rows.append(
            (
                row["index"],
                row["total_evaluations"],
                f"{ratio:.1f}x" if ratio else "-",
                f"{row['prune_rate']:.2f}",
                f"{row['recall']['mean_recall']:.3f}",
                f"{row['throughput']:.0f}/s",
                f"{row['seconds']:.2f}s",
            )
        )
    theta = matrix.get("theta")
    cut = f"k={matrix['k']}" + (f" within theta={theta:g}" if theta else "")
    title = (
        f"BENCH_phase1 index matrix: {matrix['distance']} distance, "
        f"n={matrix['n']}, {cut}"
    )
    return format_table(
        ("index", "evaluations", "vs_brute", "prune_rate", "recall",
         "throughput", "seconds"),
        rows,
        title=title,
    )


def write_phase1_json(payload: Mapping, path: str | Path) -> Path:
    """Write the payload to ``path`` (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
