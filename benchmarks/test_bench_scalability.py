"""Experiment F9 — scalability (paper Figure 9).

The paper plots the normalized running times of Phase 1 (NN
computation) and Phase 2 (partitioning) against relation size on
log-log axes; linearity of both curves is the claim, and Phase 1
dominates the total.

We run the Org relation at doubling sizes through the q-gram-indexed
pipeline and assert both properties: per-phase log-log slope bounded
well below quadratic, and Phase 1 >= Phase 2 at every size.
"""

import math
import time

from repro.core.formulation import DEParams
from repro.core.pipeline import DuplicateEliminator
from repro.data.loaders import load_dataset
from repro.distances.edit import EditDistance
from repro.eval.figures import loglog_plot
from repro.eval.report import format_table
from repro.index.inverted import QgramInvertedIndex

from conftest import write_report

SIZES = (400, 800, 1600, 3200)


def run_size(n_entities: int):
    dataset = load_dataset("org", n_entities=n_entities, duplicate_fraction=0.3, seed=0)
    index = QgramInvertedIndex(
        candidate_factor=3,
        min_candidates=12,
        max_df=max(64, len(dataset.relation) // 20),
        within_budget=48,
        exhaustive_fallback=False,
    )
    solver = DuplicateEliminator(EditDistance(), index=index)
    started = time.perf_counter()
    result = solver.run(dataset.relation, DEParams.size(5, c=4.0))
    total = time.perf_counter() - started
    return {
        "n": len(dataset.relation),
        "phase1": result.stats.phase1.seconds,
        # Phase 2 proper: the CSPairs self-join plus group extraction.
        "phase2": (
            result.stats.stage_seconds("cspairs")
            + result.stats.stage_seconds("partition")
        ),
        "total": total,
    }


def run_all():
    return [run_size(n) for n in SIZES]


def slope(points):
    """Least-squares slope of log(time) vs log(n)."""
    xs = [math.log(p[0]) for p in points]
    ys = [math.log(max(p[1], 1e-9)) for p in points]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def test_scalability(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    base1 = results[0]["phase1"]
    base2 = results[0]["phase2"]
    rows = [
        (
            r["n"],
            f"{r['phase1']:.2f}s",
            f"{r['phase2']:.3f}s",
            f"{r['phase1'] / base1:.2f}",
            f"{r['phase2'] / base2:.2f}",
        )
        for r in results
    ]
    write_report(
        "F9_scalability",
        format_table(
            ("n_records", "phase1", "phase2", "phase1 (norm)", "phase2 (norm)"),
            rows,
            title="F9: normalized running time vs relation size",
        )
        + "\n\n"
        + loglog_plot(
            {
                "phase1": [(r["n"], r["phase1"]) for r in results],
                "phase2": [(r["n"], r["phase2"]) for r in results],
            },
            title="F9: log-log running time (linear = straight diagonal)",
        ),
    )

    # Phase 1 dominates at every size (paper: "Phase 1 dominates the
    # overall cost").
    for r in results:
        assert r["phase1"] >= r["phase2"]

    # Log-log linearity: slopes stay well below quadratic scaling.
    slope1 = slope([(r["n"], r["phase1"]) for r in results])
    slope2 = slope([(r["n"], r["phase2"]) for r in results])
    assert slope1 < 1.6, f"phase 1 slope {slope1:.2f}"
    assert slope2 < 1.6, f"phase 2 slope {slope2:.2f}"
