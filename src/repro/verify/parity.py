"""Cross-path parity: every execution path must agree exactly.

The repository has several ways to run the same DE instance — the
legacy :class:`~repro.core.pipeline.DuplicateEliminator` facade,
sequential vs. parallel Phase 1 (``n_workers``) crossed with in-memory
vs. storage-engine Phase 2, the out-of-core spill path that streams
``NN_Reln`` through the buffer pool, and the vectorized-kernel vs.
scalar Phase-1 distance backends (``kernel``) — all defined to produce
identical output.  Every path is derived from one shared
:class:`~repro.run.config.RunConfig` via ``replace(...)`` variants.
:func:`verify_paths` executes every path, checks the invariants on the
canonical (sequential, in-memory) result, and appends a ``cross-path``
check asserting that every other path reproduced the same NN relation
and partition.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

from repro.core.formulation import DEParams
from repro.core.neighborhood import NNRelation
from repro.core.pipeline import DEResult, DuplicateEliminator
from repro.data.schema import Relation
from repro.distances.base import CachedDistance, DistanceFunction
from repro.index.base import NNIndex
from repro.index.bruteforce import BruteForceIndex
from repro.run.config import RunConfig
from repro.run.context import RunContext
from repro.verify.report import CheckResult, VerificationReport, Violation
from repro.verify.verifier import verify_result

__all__ = [
    "EXECUTION_PATHS",
    "nn_signature",
    "run_paths",
    "check_cross_path",
    "verify_paths",
    "sampled_nn_recall",
]

#: The execution paths as ``(name, RunConfig.replace overrides)``.
#: ``None`` marks the legacy facade path, which goes through the
#: ``DuplicateEliminator`` kwargs constructor instead of a config —
#: exercising the kwargs → RunConfig mapping itself.  A truthy
#: ``n_workers`` override is replaced by ``run_paths``'s worker count.
EXECUTION_PATHS: tuple[tuple[str, Mapping | None], ...] = (
    ("facade", None),
    ("seq-mem", {}),
    ("par-mem", {"n_workers": 2}),
    ("seq-eng", {"use_engine": True}),
    ("par-eng", {"n_workers": 2, "use_engine": True}),
    ("spill", {"use_engine": True, "spill": True, "buffer_pages": 8}),
    # Scalar Phase 1: forces the pure-python per-pair distance path
    # while every other path runs under the default ``kernel="auto"``.
    # This asserts the vectorized kernels are bit-identical to the
    # scalar baseline on every verify run.
    ("scalar", {"kernel": "python"}),
)


def nn_signature(nn_relation: NNRelation) -> tuple:
    """A comparable rendering of an NN relation (ids, distances, NGs)."""
    return tuple(
        (entry.rid, entry.neighbor_ids,
         tuple(neighbor.distance for neighbor in entry.neighbors), entry.ng)
        for entry in nn_relation
    )


def run_paths(
    relation: Relation,
    distance: DistanceFunction,
    params: DEParams,
    *,
    index_factory: Callable[[], NNIndex] = BruteForceIndex,
    n_workers: int = 2,
    pool: str = "thread",
    base_config: RunConfig | None = None,
    paths: Sequence[tuple[str, Mapping | None]] = EXECUTION_PATHS,
) -> dict[str, DEResult]:
    """Run the DE instance once per execution path.

    All staged paths derive from one shared base config via
    ``replace(...)``; the facade path re-enters through the historical
    kwargs constructor.  Each path gets a fresh index (and engine,
    where applicable); the distance function is shared through one
    memo cache so repeated paths do not redo distance work.
    """
    if not isinstance(distance, CachedDistance):
        distance = CachedDistance(distance)
    if base_config is None:
        base_config = RunConfig(pool=pool, keep_cs_pairs=True)
    results: dict[str, DEResult] = {}
    for name, overrides in paths:
        if overrides is None:
            solver = DuplicateEliminator(
                distance,
                index=index_factory(),
                pool=pool,
                keep_cs_pairs=True,
            )
            results[name] = solver.run(relation, params)
            continue
        changes = dict(overrides)
        if changes.get("n_workers"):
            changes["n_workers"] = n_workers
        context = RunContext.create(
            base_config.replace(**changes),
            distance=distance,
            index=index_factory(),
        )
        # Imported lazily: keeps verify importable without run.pipeline.
        from repro.run.pipeline import StagedPipeline

        results[name] = StagedPipeline(context).run(relation, params)
    return results


def check_cross_path(results: dict[str, DEResult]) -> CheckResult:
    """All paths produced the same NN relation and the same partition."""
    names = list(results)
    baseline_name = names[0]
    baseline = results[baseline_name]
    baseline_signature = nn_signature(baseline.nn_relation)
    violations: list[Violation] = []
    for name in names[1:]:
        other = results[name]
        if nn_signature(other.nn_relation) != baseline_signature:
            violations.append(
                Violation(
                    "cross-path",
                    (),
                    f"path {name!r} produced a different NN relation than "
                    f"{baseline_name!r}",
                )
            )
        if other.partition != baseline.partition:
            ours = set(baseline.partition.groups)
            theirs = set(other.partition.groups)
            example = sorted(ours ^ theirs)[0]
            violations.append(
                Violation(
                    "cross-path",
                    example,
                    f"path {name!r} partitions differently than "
                    f"{baseline_name!r} (e.g. group {example})",
                )
            )
        if other.stats.n_cs_pairs != baseline.stats.n_cs_pairs:
            violations.append(
                Violation(
                    "cross-path",
                    (),
                    f"path {name!r} built {other.stats.n_cs_pairs} "
                    f"CSPairs rows; {baseline_name!r} built "
                    f"{baseline.stats.n_cs_pairs}",
                )
            )
    return CheckResult.from_violations(
        "cross-path", len(names), violations,
        detail=", ".join(names),
    )


def sampled_nn_recall(
    relation: Relation,
    distance: DistanceFunction,
    nn_relation: NNRelation,
    params: DEParams,
    *,
    sample: int = 50,
    seed: int = 0,
    radius_fn=None,
) -> dict:
    """NN-list recall of a (possibly approximate) run vs. brute force.

    Samples up to ``sample`` records, recomputes their exact NN lists
    with a fresh :class:`BruteForceIndex` under the same cut bounds, and
    scores each stored list as ``|got ∩ want| / |want|`` (1.0 when the
    exact list is empty).  Set intersection rather than positional
    equality keeps ties harmless: an approximate index returning a tied
    neighbor in a different slot still gets full credit.

    Returns a dict with ``n_sampled``, ``mean_recall``, ``min_recall``,
    and ``exact_lists`` (how many sampled lists matched id-for-id).
    """
    ids = [rid for rid in relation.ids() if rid in nn_relation]
    if not ids:
        return {
            "n_sampled": 0,
            "mean_recall": 1.0,
            "min_recall": 1.0,
            "exact_lists": 0,
        }
    size = min(sample, len(ids))
    sampled = sorted(random.Random(seed).sample(ids, size))

    k, theta = params.bounds
    reference = BruteForceIndex()
    reference.build(relation, distance)
    records = [relation.get(rid) for rid in sampled]
    expected = reference.phase1_batch(
        records, k=k, theta=theta, p=params.p, radius_fn=radius_fn
    )

    recalls: list[float] = []
    exact_lists = 0
    for rid, (neighbors, _ng) in zip(sampled, expected):
        want = {neighbor.rid for neighbor in neighbors}
        got = set(nn_relation.get(rid).neighbor_ids)
        if not want:
            recalls.append(1.0)
            exact_lists += int(not got)
            continue
        recalls.append(len(got & want) / len(want))
        exact_lists += int(got == want)
    return {
        "n_sampled": size,
        "mean_recall": sum(recalls) / len(recalls),
        "min_recall": min(recalls),
        "exact_lists": exact_lists,
    }


def verify_paths(
    relation: Relation,
    distance: DistanceFunction,
    params: DEParams,
    *,
    index_factory: Callable[[], NNIndex] = BruteForceIndex,
    n_workers: int = 2,
    pool: str = "thread",
    sample: int = 8,
    seed: int = 0,
    strict: bool = False,
    label: str = "",
) -> VerificationReport:
    """Full self-check: invariants on the canonical path + path parity."""
    if not isinstance(distance, CachedDistance):
        distance = CachedDistance(distance)
    results = run_paths(
        relation,
        distance,
        params,
        index_factory=index_factory,
        n_workers=n_workers,
        pool=pool,
    )
    canonical = results[EXECUTION_PATHS[0][0]]
    report = verify_result(
        canonical,
        relation,
        distance,
        sample=sample,
        seed=seed,
        label=label or params.describe(),
    )
    report = report.merged_with(check_cross_path(results))
    if strict:
        report.raise_for_violations()
    return report
