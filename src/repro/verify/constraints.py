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
  really do close the blocks, so restricting Phase 1 to block mates
  changes cost, not answers.

Used by :class:`~repro.run.stages.VerifyStage` (the first check rides
along on every ``--verify`` run with constraints), the test suite, and
``bench-constraints``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.constraints import Constraint, PairFilter
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

    Runs the pushdown pipeline once, then solves each multi-record
    block's sub-relation alone through the standalone reference
    (:meth:`~repro.shard.runner.ShardRunner.run_blocks`: brute force,
    inline mode, frozen global distance statistics) and requires the
    pushdown groups inside that block to match the standalone groups
    exactly.  Also checks the full pushdown output against
    ``constraint-consistency``.  ``index`` has no effect on either
    side: pushdown scores every same-block pair exactly.
    """
    # Imported lazily: keeps verify importable without run.pipeline.
    from repro.run.config import RunConfig
    from repro.run.context import RunContext
    from repro.run.pipeline import StagedPipeline
    from repro.shard.plan import plan_constraint_blocks
    from repro.shard.runner import ShardRunner

    config = RunConfig(
        distance=distance,
        index=index,
        keep_cs_pairs=True,
        constraints=constraints,
        constraint_mode="pushdown",
    )
    ctx = RunContext.create(config)
    pushdown = StagedPipeline(ctx).run(relation, params)

    plan = plan_constraint_blocks(relation, config.constraints)
    references = ShardRunner(ctx).run_blocks(relation, params, plan)
    violations: list[Violation] = []
    sizes: list[str] = []
    for block, standalone in zip(plan.members, references):
        if len(block) < 2:
            continue
        sizes.append(str(len(block)))
        members = set(block)
        ours = sorted(
            tuple(sorted(group))
            for group in pushdown.partition.non_trivial_groups()
            if members.issuperset(group)
        )
        theirs = sorted(tuple(sorted(group)) for group in standalone)
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
        checked=len(sizes),
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
