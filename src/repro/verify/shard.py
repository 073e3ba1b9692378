"""The ``shard-merge-parity`` check: sharded == unsharded, exactly.

The sharded scale-out layer (:mod:`repro.shard`) claims its merged
partition is *checksum-identical* to a single-shard run.  This harness
proves it the way :mod:`repro.verify.parity` proves cross-path parity:
actually run both and compare — across **all three cut specifications**
(size, diameter, combined) and **both kernel backends** (scalar python
and the vectorized kernels), each at several shard counts.

Used standalone by the hypothesis property test
(``tests/test_shard.py``), by ``bench-scale``'s small-size parity gate,
and by the ``scale-smoke`` CI job.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.formulation import DEParams
from repro.data.schema import Relation
from repro.verify.report import CheckResult, VerificationReport, Violation

__all__ = ["cut_params", "verify_shard_merge"]


def cut_params(k: int = 4, theta: float = 0.45, c: float = 4.0) -> dict[str, DEParams]:
    """One :class:`DEParams` per cut specification (the parity matrix)."""
    return {
        "size": DEParams.size(k, c=c),
        "diameter": DEParams.diameter(theta, c=c),
        "combined": DEParams.combined(k, theta, c=c),
    }


def verify_shard_merge(
    relation: Relation,
    *,
    distance: str = "edit",
    index: str = "brute",
    shard_counts: Sequence[int] = (2, 3),
    overlap: float = 0.2,
    shards_in_flight: int | None = None,
    params_by_cut: dict[str, DEParams] | None = None,
    kernels: Sequence[str] = ("python", "auto"),
    pool: str = "thread",
    strict: bool = False,
    label: str = "shard-merge",
) -> VerificationReport:
    """Prove merged sharded partitions equal the unsharded reference.

    For every (cut, kernel backend, shard count) combination, runs the
    unsharded staged pipeline and the sharded one from one shared
    :class:`~repro.run.config.RunConfig` and requires partition
    checksums, CSPairs row counts, and NN relations to agree exactly.
    """
    # Imported lazily: keeps verify importable without run.pipeline.
    from repro.run.config import RunConfig
    from repro.run.context import RunContext
    from repro.run.pipeline import StagedPipeline
    from repro.verify.parity import nn_signature

    params_by_cut = params_by_cut or cut_params()
    checks: list[CheckResult] = []
    for kernel in kernels:
        name = f"shard-merge-parity[{kernel}]"
        violations: list[Violation] = []
        checked = 0
        combos: list[str] = []
        for cut_name, params in params_by_cut.items():
            base = RunConfig(
                distance=distance,
                index=index,
                kernel=kernel,
                pool=pool,
                keep_cs_pairs=True,
            )
            reference_ctx = RunContext.create(base)
            reference = StagedPipeline(reference_ctx).run(relation, params)
            reference_nn = nn_signature(reference.nn_relation)
            backend = reference_ctx.last_stats.kernel_backend
            for n_shards in shard_counts:
                checked += 1
                combos.append(f"{cut_name}/x{n_shards}")
                in_flight = (
                    min(shards_in_flight, n_shards)
                    if shards_in_flight
                    else None
                )
                config = base.replace(
                    shards=n_shards,
                    shard_overlap=overlap,
                    shards_in_flight=in_flight,
                )
                sharded = StagedPipeline(RunContext.create(config)).run(
                    relation, params
                )
                where = f"{cut_name} cut, kernel={backend}, shards={n_shards}"
                if (
                    sharded.partition.checksum()
                    != reference.partition.checksum()
                ):
                    difference = sorted(
                        set(reference.partition.groups)
                        ^ set(sharded.partition.groups)
                    )
                    example = difference[0] if difference else ()
                    violations.append(
                        Violation(
                            "shard-merge-parity",
                            example,
                            f"merged partition differs from the unsharded "
                            f"reference ({where}; e.g. group {example})",
                        )
                    )
                if nn_signature(sharded.nn_relation) != reference_nn:
                    violations.append(
                        Violation(
                            "shard-merge-parity",
                            (),
                            f"merged NN relation differs from the unsharded "
                            f"reference ({where})",
                        )
                    )
                if sharded.stats.n_cs_pairs != reference.stats.n_cs_pairs:
                    violations.append(
                        Violation(
                            "shard-merge-parity",
                            (),
                            f"merged CSPairs count "
                            f"{sharded.stats.n_cs_pairs} != reference "
                            f"{reference.stats.n_cs_pairs} ({where})",
                        )
                    )
        checks.append(
            CheckResult.from_violations(
                name, checked, violations, detail=", ".join(combos)
            )
        )

    report = VerificationReport(checks=tuple(checks), label=label)
    if strict:
        report.raise_for_violations()
    return report
