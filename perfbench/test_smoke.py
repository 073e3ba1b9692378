"""Smoke tests of the benchmark itself, every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

TINY = 0.02
WORKLOADS = ("batch-cosine", "sharded-cosine", "serve-exact", "claims-pushdown")


def _main(capsys, workload, trace, pinned=None, seed=0):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        pinned=pinned if pinned is not None else {},
        scale=TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_prints_with_its_unit(capsys, workload, trace):
    from workloads import END_TO_END, PER_LAYER

    code, result, lines = _main(capsys, workload, trace)
    assert code == 0, "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = dict(PER_LAYER if trace else END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if not trace:
        for name in ("records_per_s", "setup_s", "cpu_s", "peak_rss_mb",
                     "ok_frac", "p50_ms"):
            assert result["metrics"][name]["value"] > 0, name
    env = json.loads(lines[-2])["env"]
    assert {"host", "nproc", "python", "numpy", "git_sha", "seed", "n"} <= set(env)


@pytest.mark.parametrize("workload", ["batch-cosine", "claims-pushdown"])
def test_corrupted_reference_checksum_fails_the_run(capsys, workload):
    code, result, lines = _main(capsys, workload, 0)
    assert code == 0
    checksum = next(
        line.split()[-1] for line in lines if line.strip().startswith("detail.checksum")
    )
    spec = run.WORKLOADS[workload]
    key = f"{spec.dataset}-{max(12, round(spec.entities * TINY))}x{spec.inputs}-0"

    code, result, _ = _main(capsys, workload, 0, pinned={key: checksum})
    assert code == 0 and result["correct"] is True

    corrupted = ("0" if checksum[0] != "0" else "1") + checksum[1:]
    code, result, lines = _main(capsys, workload, 0, pinned={key: corrupted})
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert any("pinned" in line for line in lines if "FAILED" in line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest(workload):
    from spans import busy_seconds, nesting_errors, self_seconds

    outcome = run.run_workload(workload, 0, 0, True, scale=TINY, pinned={})
    spans = outcome.spans
    assert spans and outcome.correct
    assert nesting_errors(spans) == []
    for span in spans:
        assert self_seconds(span, spans) >= -1e-9
    if workload == "sharded-cosine":
        # Two shards in flight: worker spans are busy time, parented to
        # the runner span on the main thread and inside its interval.
        runners = [s for s in spans if s["name"] == "shard.run"]
        assert runners and all(busy_seconds(s, spans) > 0 for s in runners)
        assert any(s["concurrent"] for s in spans)


def test_second_seed_passes_every_check(capsys):
    for workload in WORKLOADS:
        code, result, lines = _main(capsys, workload, 0, seed=7)
        assert code == 0 and result["correct"], "\n".join(lines)


def test_exits_nonzero_without_program_sources(tmp_path):
    bench = Path(run.__file__).resolve().parent
    copy = tmp_path / bench.name
    shutil.copytree(bench, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "batch-cosine",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
