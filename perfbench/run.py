"""Run one workload of the repository's benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-cosine --seed 0 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs every
other round of requests under span tracing and prints the per-layer
metrics instead (including ``trace.overhead_s``, traced minus untraced request
time).  Spans are written to ``perfbench/out/``.  A human-readable
report and one ``{"env": ...}`` line come first; the last line of
standard output is the JSON result.  The exit code is 0 only when every
correctness check passed; 2 when the program's sources are missing.

The benchmark imports the program from ``src/`` of the checkout it sits
in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import workloads
from spans import span_table
from workloads import END_TO_END, PER_LAYER, BatchSpec, ServeSpec

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = {
    spec.name: spec
    for spec in (
        BatchSpec(
            name="batch-cosine",
            why=(
                "The headline configuration (org, cosine, MinHash, "
                "combined cut) at a size that repeats; Phase-1 index "
                "and kernels dominate."
            ),
            dataset="org", entities=3000, distance="cosine",
            index="minhash", k=5, theta=0.4,
        ),
        BatchSpec(
            name="sharded-cosine",
            why=(
                "The same relation in 4 shards, 2 in flight, through a "
                "buffer pool smaller than the NN relation: shard "
                "plan/runner/merge and page evictions."
            ),
            dataset="org", entities=3000, distance="cosine",
            index="minhash", k=5, theta=0.4, shards=4,
            shards_in_flight=2, buffer_pages=8,
        ),
        ServeSpec(
            name="serve-exact",
            why=(
                "Online inserts and removals with exact candidates: the "
                "only workload on the incremental layer, the scalar "
                "distance path and Phase-2 repair."
            ),
            # Dense duplicates, and a stream that cycles through
            # barely more records than are live, so the live set
            # holds enough gold pairs for a steady quality figure.
            entities=110, live=200, duplicate_fraction=0.7,
        ),
        BatchSpec(
            name="claims-pushdown",
            why=(
                "Claims with block keys and a time window pushed down: "
                "the only workload on the edit kernel, constraint "
                "block planning and the block runner."
            ),
            # One large relation rather than several small ones: a
            # request's cost is quadratic in its constraint blocks, so
            # it varies with the draw; only many blocks per seed keep
            # that variation small, and repeated requests on the same
            # relation then differ only by the machine.
            dataset="claims", entities=2000, distance="edit",
            index="brute", k=5, theta=0.45, pushdown=True, inputs=1,
        ),
    )
}


def environment(seed: int, n: int) -> dict:
    """Where and on what the result was measured."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None  # the program falls back to its scalar paths
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "seed": seed,
        "n": n,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, pinned: dict | None = None):
    """Run one workload; returns its :class:`workloads.Outcome`."""
    spec = WORKLOADS[name]
    pinned = workloads.PINNED if pinned is None else pinned
    runner = (
        workloads.run_serve
        if isinstance(spec, workloads.ServeSpec)
        else workloads.run_batch
    )
    return runner(spec, seed, seconds, trace, scale, pinned)


def result_line(outcome) -> dict:
    """The final JSON object: every declared metric of this mode."""
    declared = PER_LAYER if outcome.trace else END_TO_END
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
            for name, unit in declared
        },
    }


def main(argv: list[str] | None = None, pinned: dict | None = None,
         scale: float = 1.0) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SOURCE}", file=sys.stderr)
        return 2
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}"
        )

    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale=scale, pinned=pinned,
    )
    env = environment(args.seed, outcome.n)
    line = result_line(outcome)

    print(f"{outcome.workload}  seed={outcome.seed}  n={outcome.n}  "
          f"trace={int(outcome.trace)}  samples={outcome.samples}")
    for name, metric in line["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in sorted(outcome.detail.items()):
        print(f"  detail.{key:29s} {value}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    print(f"  correct={outcome.correct} attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    if outcome.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{outcome.workload}-seed{outcome.seed}.json"
        path.write_text(
            json.dumps({"env": env, "spans": span_table(outcome.spans)})
        )
        print(f"  spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"env": env}))
    print(json.dumps(line))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
