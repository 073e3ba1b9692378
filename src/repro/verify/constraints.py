"""Constraint-consistency checks for constraint-aware runs.

Two guarantees turn into machine-checkable results here:

- ``constraint-consistency`` — no emitted group contains a pair any
  constraint forbids.  This is the *output* contract shared by every
  constraint mode (postprocess, inline, pushdown) and every execution
  path (in-memory, spill, sharded, incremental): modes differ in where
  they discharge the constraints, never in what they emit.
- ``constraint-block-parity`` — each multi-record pushdown block's
  groups are bit-identical to running the pipeline over that block
  alone.  This is the pushdown *planning* contract: hard constraints
  really do close the blocks, so blocking changes cost, not answers.

Used by :class:`~repro.run.stages.VerifyStage` (the first check rides
along on every ``--verify`` run with constraints), the test suite, and
``bench-constraints``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.constraints import Constraint, PairFilter, plan_blocks
from repro.core.formulation import DEParams
from repro.core.result import Partition
from repro.data.schema import Relation
from repro.verify.report import CheckResult, VerificationReport, Violation

__all__ = ["check_group_constraints", "verify_constraint_blocks"]


def check_group_constraints(
    partition: Partition,
    relation: Relation,
    constraints: Sequence[Constraint],
) -> CheckResult:
    """Every pair inside every emitted group is allowed by every
    constraint.

    Quadratic per group — the same shape as the postprocess split
    itself, so verification never costs more than the work it checks.
    """
    if not constraints:
        return CheckResult.skip("constraint-consistency", "no constraints")
    filters = [
        (constraint, PairFilter((constraint,), relation.schema))
        for constraint in constraints
    ]
    checked = 0
    violations: list[Violation] = []
    for group in partition.non_trivial_groups():
        members = sorted(group)
        for i, a in enumerate(members):
            record_a = relation.get(a)
            for b in members[i + 1 :]:
                checked += 1
                record_b = relation.get(b)
                for constraint, allowed in filters:
                    if not allowed(record_a, record_b):
                        violations.append(
                            Violation(
                                check="constraint-consistency",
                                subject=(a, b),
                                message=(
                                    f"group {tuple(members)} pairs {a} with "
                                    f"{b}, forbidden by {constraint.kind}"
                                    f"({constraint.field})"
                                ),
                            )
                        )
                        break
    return CheckResult.from_violations(
        "constraint-consistency",
        checked=checked,
        violations=violations,
        detail=(
            f"{len(constraints)} constraint(s) over "
            f"{len(partition.non_trivial_groups())} non-trivial group(s)"
        ),
    )


def verify_constraint_blocks(
    relation: Relation,
    constraints: Sequence[Constraint],
    params: DEParams,
    *,
    distance: str = "edit",
    index: str = "brute",
    strict: bool = False,
    label: str = "constraint-blocks",
) -> VerificationReport:
    """Prove pushdown blocking is answer-preserving, block by block.

    Runs the pushdown pipeline once, then re-runs the pipeline over
    each multi-record block's sub-relation alone (inline mode, frozen
    global distance statistics — the exact block-worker configuration)
    and requires the pushdown groups inside that block to match the
    standalone groups exactly.  Also checks the full pushdown output
    against ``constraint-consistency`` and against the postprocess
    reference's zero-violation contract.
    """
    # Imported lazily: keeps verify importable without run.pipeline.
    from repro.distances.base import FrozenDistance
    from repro.run.config import RunConfig
    from repro.run.context import RunContext
    from repro.run.pipeline import StagedPipeline
    from repro.run.registry import make_index

    config = RunConfig(
        distance=distance,
        index=index,
        keep_cs_pairs=True,
        constraints=constraints,
        constraint_mode="pushdown",
    )
    ctx = RunContext.create(config)
    pushdown = StagedPipeline(ctx).run(relation, params)

    blocks = [
        block
        for block in plan_blocks(relation, config.constraints)
        if len(block) >= 2
    ]
    violations: list[Violation] = []
    sizes: list[str] = []
    block_config = config.replace(
        constraint_mode="inline",
        n_workers=1,
        minimal=False,
    )
    for block in blocks:
        sizes.append(str(len(block)))
        members = set(block)
        ours = sorted(
            tuple(sorted(group))
            for group in pushdown.partition.non_trivial_groups()
            if members.issuperset(group)
        )
        block_ctx = RunContext(
            block_config,
            FrozenDistance(ctx.distance),
            make_index(block_config.index),
        )
        standalone = StagedPipeline(block_ctx).run(
            relation.subset(block), params
        )
        theirs = sorted(
            tuple(sorted(group))
            for group in standalone.partition.non_trivial_groups()
        )
        if ours != theirs:
            violations.append(
                Violation(
                    check="constraint-block-parity",
                    subject=tuple(block[:4]),
                    message=(
                        f"block {tuple(block)}: pushdown groups {ours} != "
                        f"standalone groups {theirs}"
                    ),
                )
            )
    parity = CheckResult.from_violations(
        "constraint-block-parity",
        checked=len(blocks),
        violations=violations,
        detail=f"block sizes {', '.join(sizes) or 'none'}",
    )
    consistency = check_group_constraints(
        pushdown.partition, relation, config.constraints
    )
    report = VerificationReport(checks=(parity, consistency), label=label)
    if strict:
        report.raise_for_violations()
    return report
