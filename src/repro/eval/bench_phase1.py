"""Phase-1 scalability benchmark: throughput vs. workers vs. size.

The ``bench-phase1`` suite (``BENCH_phase1.json``) of the harness in
:mod:`repro.eval.bench`.  Three execution modes of the same NN-list
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

The results also carry the isolated index-build throughput, an optional
candidate-index matrix and an optional invariant-verifier summary.  The
gates are listed in ``docs/benchmarks.md``; ``docs/performance.md``
explains how to read the numbers.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Mapping, Sequence

from repro.core.formulation import DEParams
from repro.core.nn_phase import Phase1Stats, prepare_nn_lists
from repro.data.loaders import load_dataset
from repro.distances.base import CachedDistance, DistanceFunction
from repro.eval.bench import (
    CHECKSUM,
    THRESHOLD,
    Gate,
    Suite,
    int_list,
    nn_checksum,
    timed,
)
from repro.eval.report import format_table
from repro.index.base import NNIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.inverted import QgramInvertedIndex
from repro.index.minhash import MinHashIndex
from repro.parallel.engine import ParallelNNEngine
from repro.run.config import ConfigError
from repro.run.registry import DISTANCES

__all__ = [
    "INDEX_FACTORIES",
    "SUITE",
    "run_build_throughput",
    "run_phase1_bench",
    "run_index_matrix",
    "phase1_table",
    "build_throughput_table",
    "index_matrix_table",
]

#: Candidate-generation strategies the index matrix compares.  Brute
#: force is the exact baseline every approximate row is scored against.
#: The q-gram index runs with its scalability knobs engaged (stop-grams
#: and a range-query budget) — without them the NG range queries verify
#: nearly every gram-sharing pair and the index degenerates to
#: quadratic on text with common grams; see docs/performance.md.
INDEX_FACTORIES: dict[str, Callable[[], NNIndex]] = {
    "brute": BruteForceIndex,
    "qgram": lambda: QgramInvertedIndex(max_df=64, within_budget=128),
    "minhash": MinHashIndex,
}


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

    The results record per-signer wall time, records/sec, the
    tokenize/sign/bucket split, the vocabulary compression ratio
    (occurrences / distinct tokens — the quantity vocabulary hashing
    exploits, and the reason the factory wins), a signature checksum,
    ``parity`` (checksums byte-identical across both signers; the
    ``signature-parity`` gate) and ``speedup_vectorized_vs_scalar``
    (factory vs scalar; the ``min-speedup`` gate).
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

    def bucket(signatures) -> dict:
        buckets: dict = {}
        for rid, signature in signatures:
            for band, key in band_keys(signature, n_bands):
                buckets.setdefault((band, key), []).append(rid)
        return buckets

    # Scalar reference: per-occurrence hashing, per-record bucketing.
    (element_sets,), tokenizing = timed(
        lambda: {rid: set(tokenize(relation.get(rid).text())) for rid in rids}
    )
    (scalar_signatures,), signing = timed(
        lambda: [
            (rid, minhash_signature(element_sets[rid], n_hashes))
            for rid in rids
        ]
    )
    (scalar_buckets,), bucketing = timed(lambda: bucket(scalar_signatures))
    scalar = row(
        "scalar", tokenizing["seconds"], signing["seconds"],
        bucketing["seconds"], len(scalar_buckets),
        checksum_of(scalar_signatures),
    )

    (corpus,), tokenizing = timed(lambda: Corpus(relation))
    tokenize_seconds = tokenizing["seconds"]
    signed = SignatureFactory(n_hashes).sign(corpus, rids)
    grouping = group_band_buckets(signed, n_bands)
    # Untimed: the tuples are read off the signature matrix here, for
    # the checksum only.
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
    relation, distance_cls: type[DistanceFunction], params: DEParams,
    mode: str, n_workers: int, pool: str, kernel: str,
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
        **_cost_row(stats, index, nn),
        "n_chunks": stats.n_chunks,
    }


def _cost_row(stats: Phase1Stats, index: NNIndex, nn) -> dict:
    """The Phase-1 cost fields every run and matrix row records."""
    return {
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
    (distance evaluations), pruning effectiveness (candidates surfaced
    vs. pairs never examined), throughput, and sampled NN recall
    against brute force
    (:func:`repro.verify.parity.sampled_nn_recall`).

    The default workload is the paper's combined cut — the ``k``
    nearest neighbors within ``theta`` — which is the regime candidate
    generation exists for: neighbors beyond θ are never needed, so an
    index that skips far pairs loses nothing.  Pass ``theta=None`` for
    a pure k-NN matrix; expect approximate indexes to trade much more
    recall there, because every query must then return ``k`` rows even
    when nothing similar exists (see docs/performance.md, "When brute
    force wins").
    """
    # Imported lazily: repro.verify sits above the eval layer.
    from repro.verify.parity import sampled_nn_recall

    distance_cls = DISTANCES[distance]
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
        index = INDEX_FACTORIES[name]()
        index.enable_kernel(kernel)
        index.build(relation, distance_cls())
        stats = Phase1Stats()
        engine = ParallelNNEngine(n_workers=n_workers, pool=pool)
        nn = engine.run(relation, index, params, order="sequential", stats=stats)
        # Kernel-evaluated pairs are distance work all the same: keep
        # the vs-brute ratio meaningful under every backend.
        total = stats.evaluations + stats.kernel_evaluations
        if name == "brute":
            brute_total = total
        rows.append({
            "index": name,
            "index_name": index.name,
            **_cost_row(stats, index, nn),
            "total_evaluations": total,
            "candidates_generated": stats.candidates_generated,
            "evaluations_pruned": stats.evaluations_pruned,
            "prune_rate": stats.prune_rate,
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
        })
    return {
        "distance": distance,
        "n": len(relation),
        "n_entities": n_entities,
        "k": k,
        "theta": theta,
        "workers": n_workers,
        "recall_sample": recall_sample,
        "rows": rows,
    }


def _parity(runs: Sequence[Mapping]) -> dict[str, bool]:
    """Per relation size: did every execution mode give one checksum?"""
    checksums: dict[str, set[str]] = {}
    for run in runs:
        checksums.setdefault(str(run["n"]), set()).add(run["checksum"])
    return {n: len(seen) == 1 for n, seen in checksums.items()}


def run_phase1_bench(
    sizes: str | Sequence[int] = (500, 1000, 2000),
    workers: str | Sequence[int] = (1, 2, 4),
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
    """Run the Phase-1 scalability matrix and return its results.

    ``sizes`` and ``workers`` take a sequence or a comma-separated
    string (the CLI flags' form).  ``sizes`` counts entities before
    duplicate injection; each row
    reports the actual relation size ``n``.  For every size the
    per-query baseline runs once and the batch path runs once per
    worker count.  ``kernel`` selects the distance backend for the
    batch runs (and the index matrix); the per-query baseline always
    runs the scalar python path, so the recorded speedups measure the
    full blocked + vectorized pipeline against the honest sequential
    baseline.  Checksums still must agree across all modes.

    With ``verify=True`` the smallest size additionally runs the full
    DE pipeline under the invariant verifier (``repro.verify``) and
    the results record the per-check summary under ``"verification"``
    (the ``invariants`` gate).

    With ``indexes`` given (names from :data:`INDEX_FACTORIES`), the
    results additionally carry ``"index_matrix"``: a list of
    :func:`run_index_matrix` results — by default one matrix at the
    largest size, overridable via ``matrix_distance`` /
    ``matrix_entities``; ``matrix_theta`` ``0`` or ``None`` runs a
    pure k-NN matrix.
    """
    sizes, workers = int_list(sizes), int_list(workers)
    distance_cls = DISTANCES[distance]
    params = DEParams.size(k, c=4.0)
    runs: list[dict] = []
    speedups: dict[str, float] = {}

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
        batch_one = None
        for n_workers in workers:
            row = _run_mode(
                relation, distance_cls, params, "batch", n_workers, pool,
                kernel=kernel,
            )
            runs.append(row)
            if n_workers == 1:
                batch_one = row
        n_key = str(len(relation))
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
                theta=matrix_theta or None,
                pool=pool,
                duplicate_fraction=duplicate_fraction,
                seed=seed,
                recall_sample=recall_sample,
                kernel=kernel,
            )
        ]

    return {
        "runs": runs,
        "speedup_batch_vs_per_query": speedups,
        "parity": _parity(runs),
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

    The check runs through the storage engine so the results also
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


def phase1_table(results: Mapping) -> str:
    """Render the run matrix as the repo's standard text table."""
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
        for run in results["runs"]
    ]
    table = format_table(
        ("n", "mode", "backend", "workers", "seconds", "throughput",
         "evaluations", "kernel_evals", "hit_rate"),
        rows,
        title="BENCH_phase1: Phase-1 lookup throughput by mode and worker count",
    )
    speedups = ", ".join(
        f"n={n}: {s:.2f}x"
        for n, s in sorted(results["speedup_batch_vs_per_query"].items(), key=lambda kv: int(kv[0]))
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


def _render(payload: Mapping) -> str:
    """The whole artifact: run matrix, build throughput, index matrices
    and the verifier summary."""
    results = payload["results"]
    parts = [
        phase1_table(results),
        build_throughput_table(results["build_throughput"]),
    ]
    parts.extend(
        index_matrix_table(matrix) for matrix in results["index_matrix"] or ()
    )
    verification = results["verification"]
    if verification is not None:
        lines = [
            "invariant verification: "
            + ("OK" if verification["ok"] else "FAILED")
        ]
        buffer = (verification.get("stats") or {}).get("buffer")
        if buffer is not None:
            lines.append(
                f"engine buffer hit ratio: {buffer['hit_ratio']:.2f} "
                f"({buffer['hits']} hits / {buffer['misses']} misses)"
            )
        parts.append("\n".join(lines))
    return "\n\n".join(parts)


def _gates(settings: Mapping) -> list[Gate]:
    gates = [
        Gate(
            "nn-parity", CHECKSUM, None,
            "every execution mode computed one NN relation at every size",
            lambda results: [
                f"execution modes disagreed on the NN relation at n={n}"
                for n, agreed in _parity(results["runs"]).items()
                if not agreed
            ],
        ),
        Gate(
            "signature-parity", CHECKSUM, None,
            "the factory signer reproduced the scalar signatures",
            lambda results: (
                ["signers disagreed on MinHash signatures"]
                if len({
                    row["signature_checksum"]
                    for row in results["build_throughput"]["rows"]
                }) > 1
                else []
            ),
        ),
    ]
    if settings.get("verify"):
        gates.append(Gate(
            "invariants", CHECKSUM, None,
            "the full pipeline passed every invariant check",
            lambda results: [
                f"invariant violations in {name}"
                for name in results["verification"]["failed"]
            ],
        ))
    min_recall = settings.get("min_recall")
    if min_recall is not None:
        if not settings.get("indexes"):
            raise ConfigError("--min-recall requires at least one --index")
        gates.append(Gate(
            "min-recall", THRESHOLD, min_recall,
            f"sampled NN recall >= {min_recall:g} for every matrix index",
            lambda results: [
                f"sampled NN recall below {min_recall:g} for {row['index']} "
                f"({row['recall']['mean_recall']:.3f})"
                for matrix in results["index_matrix"] or ()
                for row in matrix["rows"]
                if row["recall"]["mean_recall"] < min_recall
            ],
        ))
    min_speedup = settings.get("min_speedup")
    if min_speedup is not None:
        gates.append(Gate(
            "min-speedup", THRESHOLD, min_speedup,
            f"the signature factory is >= {min_speedup:g}x the scalar "
            f"signer",
            lambda results: _speedup_failures(results, min_speedup),
        ))
    return gates


def _speedup_failures(results: Mapping, floor: float) -> list[str]:
    speedup = results["build_throughput"]["speedup_vectorized_vs_scalar"]
    if speedup is None:
        return ["no factory-vs-scalar build speedup recorded"]
    if speedup < floor:
        return [f"signature factory speedup {speedup:.2f}x below the "
                f"{floor:.2f}x floor"]
    return []


SUITE = Suite(
    benchmark="phase1_parallel",
    run=run_phase1_bench,
    table=_render,
    gates=_gates,
    gate_settings=("min_recall", "min_speedup"),
    workers=lambda results: max(
        (run["workers"] for run in results["runs"]), default=1
    ),
)
