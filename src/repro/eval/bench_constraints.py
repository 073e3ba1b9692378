"""Constraint-mode benchmark: pushdown vs postprocess on claims.

The ``bench-constraints`` suite (``BENCH_constraints.json``) of the
harness in :mod:`repro.eval.bench`.  One claims workload (see
:class:`~repro.data.generators.ClaimsGenerator`) is solved end to end
once per constraint mode under the same hard constraints — block keys
on ``patient_id`` and ``provider`` plus a ``TimeWindow`` on
``service_date`` — recording per mode the distance evaluations, wall
time, pairwise quality against the gold standard and the
constraint-consistency verdict.  Hard constraints close the blocks, so
pushdown's Phase 1 never compares records no constraint-respecting
answer could group.  A small
:func:`~repro.verify.constraints.verify_constraint_blocks` matrix rides
along.  The gates are listed in ``docs/benchmarks.md``.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.constraints import BlockKey, Constraint, TimeWindow
from repro.data.loaders import load_dataset
from repro.eval.bench import (
    CHECKSUM,
    THRESHOLD,
    Gate,
    Suite,
    cut_params,
    timed,
)
from repro.eval.metrics import pairwise_scores
from repro.eval.report import format_table

__all__ = [
    "SUITE",
    "claims_constraints",
    "run_constraint_bench",
    "constraint_table",
]

#: Modes the benchmark compares, reference first.
_MODES = ("postprocess", "inline", "pushdown")


def claims_constraints(window_days: int = 30) -> tuple[Constraint, ...]:
    """The claims workload's hard constraints.

    A resubmitted claim keeps its patient and provider and lands
    within the adjudication window of the original — exactly what the
    injection profile in :mod:`repro.data.loaders` guarantees, so the
    gold standard never straddles a block boundary.
    """
    return (
        BlockKey("patient_id"),
        BlockKey("provider"),
        TimeWindow("service_date", days=window_days),
    )


def run_constraint_bench(
    entities: int = 400,
    dataset: str = "claims",
    distance: str = "edit",
    index: str = "brute",
    cut: str = "combined",
    k: int = 5,
    theta: float = 0.45,
    c: float = 4.0,
    window_days: int = 30,
    duplicate_fraction: float = 0.3,
    seed: int = 0,
    parity_entities: int = 80,
) -> dict:
    """Run every constraint mode on one workload; return the results.

    ``entities`` counts entities before duplicate injection; the
    results report the actual relation size ``n``.  ``parity_entities``
    sizes the block-parity matrix that accompanies the headline run.
    """
    # Imported lazily: eval sits above the run layer.
    from repro.run.config import RunConfig
    from repro.run.context import RunContext
    from repro.run.pipeline import StagedPipeline
    from repro.verify.constraints import (
        check_group_constraints,
        verify_constraint_blocks,
    )
    from repro.verify.report import summarize

    dirty = load_dataset(
        dataset,
        n_entities=entities,
        duplicate_fraction=duplicate_fraction,
        seed=seed,
    )
    relation, gold = dirty.relation, dirty.gold
    constraints = claims_constraints(window_days)
    params = cut_params(cut, k, theta, c)

    runs: list[dict] = []
    for mode in _MODES:
        config = RunConfig(
            distance=distance,
            index=index,
            keep_cs_pairs=True,
            constraints=constraints,
            constraint_mode=mode,
        )
        context = RunContext.create(config)
        (result,), timing = timed(
            lambda: StagedPipeline(context).run(relation, params)
        )
        phase1 = result.stats.phase1
        consistency = check_group_constraints(
            result.partition, relation, constraints
        )
        score = pairwise_scores(result.partition, gold)
        runs.append({
            "mode": mode,
            **timing,
            "evaluations": phase1.evaluations + phase1.kernel_evaluations,
            "n_groups": len(result.partition.non_trivial_groups()),
            "checksum": result.partition.checksum(),
            "violations": len(consistency.violations),
            "pairs_checked": consistency.checked,
            "precision": score.precision,
            "recall": score.recall,
            "f1": score.f1,
            "stats": result.stats.to_dict(),
        })

    by_mode = {run["mode"]: run for run in runs}
    reference = by_mode["postprocess"]["evaluations"]
    pushdown = by_mode["pushdown"]["evaluations"]
    ratio = reference / pushdown if pushdown else float(reference or 0)

    parity = verify_constraint_blocks(
        load_dataset(
            dataset,
            n_entities=parity_entities,
            duplicate_fraction=duplicate_fraction,
            seed=seed,
        ).relation,
        constraints,
        params,
        distance=distance,
        index=index,
    )

    return {
        "n": len(relation),
        "constraints": [
            {"kind": constraint.kind, "field": constraint.field}
            for constraint in constraints
        ],
        "runs": runs,
        "evaluation_ratio": ratio,
        "block_parity": summarize(parity),
    }


def _gates(settings: Mapping) -> list[Gate]:
    gates = [
        Gate(
            "constraint-violations", CHECKSUM, None,
            "zero constraint violations in every mode",
            lambda results: [
                f"mode {run['mode']!r} emitted {run['violations']} "
                f"constraint-violating pair(s) inside groups"
                for run in results["runs"]
                if run["violations"]
            ],
        ),
        Gate(
            "inline-parity", CHECKSUM, None,
            "inline filtering reproduced the postprocess partition",
            _inline_failures,
        ),
        Gate(
            "block-parity", CHECKSUM, None,
            "every pushdown block reproduced the standalone pipeline",
            lambda results: [
                f"constraint-block-parity matrix failed: {name}"
                for name in results["block_parity"]["failed"]
            ],
        ),
    ]
    min_ratio = settings.get("min_ratio", 5.0)
    if min_ratio:
        gates.append(Gate(
            "min-ratio", THRESHOLD, min_ratio,
            f"pushdown spends <= 1/{min_ratio:g} of postprocess's "
            f"distance evaluations",
            lambda results: (
                [
                    f"pushdown evaluation ratio "
                    f"{results['evaluation_ratio']:.2f}x below the "
                    f"{min_ratio:.2f}x floor"
                ]
                if results["evaluation_ratio"] < min_ratio
                else []
            ),
        ))
    return gates


def _inline_failures(results: Mapping) -> list[str]:
    checksums = {run["mode"]: run["checksum"] for run in results["runs"]}
    if checksums["inline"] != checksums["postprocess"]:
        return [
            f"inline partition {checksums['inline'][:12]} != postprocess "
            f"{checksums['postprocess'][:12]}"
        ]
    return []


def constraint_table(payload: Mapping) -> str:
    """Render an artifact's mode matrix as the repo's standard table."""
    settings, results = payload["settings"], payload["results"]
    rows = []
    for run in results["runs"]:
        stats = run["stats"]
        plan = stats.get("constraints")
        rows.append(
            (
                run["mode"],
                f"{run['seconds']:.2f}",
                run["evaluations"],
                stats["phase2"]["pairs_filtered"],
                stats["n_cs_pairs"],
                run["n_groups"],
                run["violations"],
                f"{run['precision']:.3f}",
                f"{run['recall']:.3f}",
                plan.get("n_multi_blocks", "-") if plan else "-",
            )
        )
    title = (
        f"constraint modes: {settings['dataset']} n={results['n']} "
        f"{settings['distance']}/{settings['index']} {settings['cut']} cut, "
        f"pushdown saves {results['evaluation_ratio']:.1f}x evaluations"
    )
    return format_table(
        ("mode", "seconds", "evals", "filtered", "cs_pairs", "groups",
         "viol", "prec", "recall", "blocks"),
        rows,
        title=title,
    )


SUITE = Suite(
    benchmark="constraint_modes",
    run=run_constraint_bench,
    table=constraint_table,
    gates=_gates,
    gate_settings=("min_ratio",),
)
