"""Experiment A6 — ablation of the Phase-1 index optimizations.

This reproduction's q-gram index layers three classic optimizations on
top of the paper's filter-verify scheme: the q-gram *count filter*
(reject candidates whose shared-gram count proves the edit distance
exceeds the query bound), the *banded DP* (early-exit Levenshtein),
the *pair cache* (each pair is probed from both endpoints and by the
NG range query), and *stop-gram skipping* (``max_df``).

The bench runs identical Phase-1 workloads with the fast path on/off
and stop-grams on/off, reporting distance evaluations and wall time,
and asserts (i) the optimizations change no NN list (soundness) and
(ii) they reduce evaluations substantially.
"""

import time

from repro.core.formulation import DEParams
from repro.core.nn_phase import prepare_nn_lists
from repro.distances.edit import EditDistance
from repro.eval.report import format_table
from repro.index.inverted import QgramInvertedIndex

from conftest import quality_dataset, write_report

CONFIGS = {
    "baseline (no fast path)": dict(enable_fast_path=False),
    "fast path": dict(enable_fast_path=True),
    "fast path + stop-grams": dict(enable_fast_path=True, max_df=64),
}


def run_config(relation, **kwargs):
    index = QgramInvertedIndex(
        candidate_factor=3, min_candidates=12, within_budget=64, **kwargs
    )
    index.build(relation, EditDistance())
    started = time.perf_counter()
    nn = prepare_nn_lists(relation, index, DEParams.size(5))
    elapsed = time.perf_counter() - started
    return nn, index.totals.evaluations, elapsed


def run_ablation():
    dataset = quality_dataset("org")
    relation = dataset.relation
    results = {}
    for label, kwargs in CONFIGS.items():
        results[label] = run_config(relation, **kwargs)
    return results


def test_optimization_ablation(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    baseline_nn, baseline_evals, baseline_time = results["baseline (no fast path)"]
    rows = []
    for label, (nn, evals, elapsed) in results.items():
        rows.append(
            (
                label,
                evals,
                f"{evals / baseline_evals:.2f}",
                f"{elapsed:.2f}s",
            )
        )
    write_report(
        "A6_optimizations",
        format_table(
            ("configuration", "distance evals", "vs baseline", "phase-1 time"),
            rows,
            title="A6: Phase-1 optimization ablation (org, edit distance)",
        ),
    )

    fast_nn, fast_evals, _ = results["fast path"]
    # Soundness: the fast path changes no NN list and no NG value.
    for entry in baseline_nn:
        other = fast_nn.get(entry.rid)
        assert entry.neighbor_ids == other.neighbor_ids, entry.rid
        assert entry.ng == other.ng, entry.rid
    # Effectiveness: the count filter + banded DP reject most work.
    assert fast_evals <= 0.8 * baseline_evals

    stop_nn, stop_evals, _ = results["fast path + stop-grams"]
    # Stop-grams trade a little exactness for another cut in work; they
    # must still agree on the overwhelming majority of NN lists.
    agree = sum(
        1
        for entry in baseline_nn
        if stop_nn.get(entry.rid).neighbor_ids == entry.neighbor_ids
    )
    assert agree / len(baseline_nn) >= 0.9
    # At this scale stop-grams are roughly eval-neutral (their payoff is
    # the candidate-counting work, which evals don't measure, and it
    # grows with relation size); they must at least not explode.
    assert stop_evals <= 1.15 * fast_evals
