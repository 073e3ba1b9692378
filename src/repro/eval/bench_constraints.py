"""Constraint-mode benchmark: pushdown vs postprocess on claims.

Produces the ``BENCH_constraints.json`` artifact the constraint layer
regresses against.  One claims workload (see
:class:`~repro.data.generators.ClaimsGenerator`) is solved end to end
once per constraint mode under the same hard constraints — block keys
on ``patient_id`` and ``provider`` plus a 30-day ``TimeWindow`` on
``service_date`` — and the payload records, per mode, the distance
evaluations spent, the join-time pairs filtered, wall time, pairwise
quality against the gold standard, and the constraint-consistency
verdict on the emitted partition.

Two gates keep the artifact honest:

- **violations** — every mode must emit *zero* groups containing a
  constraint-forbidden pair.  Modes differ in where they discharge the
  constraints, never in what they emit; any violation is a correctness
  bug and always fails the CLI.
- **evaluation ratio** — pushdown must spend at most ``1/min_ratio``
  of postprocess's distance evaluations (default floor 5x).  That is
  the point of planning with the constraints instead of repairing
  after them: hard constraints close the blocks, so Phase 1 never
  compares records no constraint-respecting answer could group.

A small :func:`~repro.verify.constraints.verify_constraint_blocks`
parity matrix rides along, mirroring ``BENCH_scale.json``'s shard
parity check: each pushdown block must reproduce the standalone
pipeline's answer bit for bit.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Mapping

from repro.core.constraints import BlockKey, Constraint, TimeWindow
from repro.core.formulation import DEParams
from repro.data.loaders import load_dataset
from repro.eval.metrics import pairwise_scores
from repro.eval.report import format_table

__all__ = [
    "claims_constraints",
    "run_constraint_bench",
    "check_constraint_payload",
    "constraint_table",
    "write_constraints_json",
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
    """Run every constraint mode on one workload; return the payload.

    ``entities`` counts entities before duplicate injection; the
    payload reports the actual relation size ``n``.  ``parity_entities``
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
    if cut == "size":
        params = DEParams.size(k, c=c)
    elif cut == "diameter":
        params = DEParams.diameter(theta, c=c)
    elif cut == "combined":
        params = DEParams.combined(k, theta, c=c)
    else:
        raise ValueError(
            f"unknown cut {cut!r}; expected size/diameter/combined"
        )

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
        started = time.perf_counter()
        result = StagedPipeline(context).run(relation, params)
        seconds = time.perf_counter() - started
        stats = result.stats
        evaluations = stats.phase1.evaluations + stats.phase1.kernel_evaluations
        consistency = check_group_constraints(
            result.partition, relation, constraints
        )
        score = pairwise_scores(result.partition, gold)
        run = {
            "mode": mode,
            "seconds": seconds,
            "evaluations": evaluations,
            "pairs_filtered": stats.phase2.pairs_filtered,
            "n_cs_pairs": stats.n_cs_pairs,
            "n_groups": len(result.partition.non_trivial_groups()),
            "checksum": result.partition.checksum(),
            "violations": len(consistency.violations),
            "pairs_checked": consistency.checked,
            "precision": score.precision,
            "recall": score.recall,
            "f1": score.f1,
        }
        if mode == "pushdown":
            run["plan"] = stats.constraint_plan
        runs.append(run)

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
        "benchmark": "constraint_modes",
        "dataset": dataset,
        "distance": distance,
        "index": index,
        "cut": cut,
        "k": k,
        "theta": theta,
        "c": c,
        "window_days": window_days,
        "duplicate_fraction": duplicate_fraction,
        "seed": seed,
        "host": platform.node(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "entities": entities,
        "n": len(relation),
        "constraints": [
            {"kind": constraint.kind, "field": constraint.field}
            for constraint in constraints
        ],
        "runs": runs,
        "evaluation_ratio": ratio,
        "total_violations": sum(run["violations"] for run in runs),
        "block_parity": summarize(parity),
    }


def check_constraint_payload(
    payload: Mapping,
    min_ratio: float = 5.0,
) -> dict[str, list[str]]:
    """The bench gates: failures in a payload, keyed by severity.

    ``"violations"`` failures (any mode emitting a group with a
    constraint-forbidden pair, or the block-parity matrix failing) are
    correctness violations — the CLI always fails on them.
    ``"ratio"`` failures flag a pushdown run that did not cut distance
    evaluations by at least ``min_ratio`` against postprocess.
    """
    failures: dict[str, list[str]] = {"violations": [], "ratio": []}
    for run in payload.get("runs", ()):
        if run.get("violations"):
            failures["violations"].append(
                f"mode {run['mode']!r} emitted {run['violations']} "
                f"constraint-violating pair(s) inside groups"
            )
    parity = payload.get("block_parity") or {}
    if not parity.get("ok", False):
        failures["violations"].append(
            f"constraint-block-parity matrix failed: {parity.get('failed', [])}"
        )
    ratio = payload.get("evaluation_ratio")
    if ratio is not None and min_ratio and ratio < min_ratio:
        failures["ratio"].append(
            f"pushdown evaluation ratio {ratio:.2f}x below the "
            f"{min_ratio:.2f}x floor"
        )
    return {key: value for key, value in failures.items() if value}


def constraint_table(payload: Mapping) -> str:
    """Render a payload's mode matrix as the repo's standard table."""
    rows = []
    for run in payload["runs"]:
        plan = run.get("plan") or {}
        rows.append(
            (
                run["mode"],
                f"{run['seconds']:.2f}",
                run["evaluations"],
                run["pairs_filtered"],
                run["n_cs_pairs"],
                run["n_groups"],
                run["violations"],
                f"{run['precision']:.3f}",
                f"{run['recall']:.3f}",
                plan.get("n_multi_blocks", "-") if plan else "-",
            )
        )
    title = (
        f"constraint modes: {payload['dataset']} n={payload['n']} "
        f"{payload['distance']}/{payload['index']} {payload['cut']} cut, "
        f"pushdown saves {payload['evaluation_ratio']:.1f}x evaluations"
    )
    return format_table(
        (
            "mode",
            "seconds",
            "evals",
            "filtered",
            "cs_pairs",
            "groups",
            "viol",
            "prec",
            "recall",
            "blocks",
        ),
        rows,
        title=title,
    )


def write_constraints_json(payload: Mapping, path: str | Path) -> Path:
    """Write the payload (stable key order) and return the path."""
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target
