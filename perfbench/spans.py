"""In-memory span tracing around calls into the program's layers.

The benchmark measures every layer from the outside: during a traced
request, :func:`instrument` wraps the public entry points of each layer
(pipeline, stages, index build, Phase-1 driver, shard planning, runner
and merge, constraint blocking, the serving session and the incremental
deduplicator) so that each call records a span.  Nothing in the program
changes; the wrappers are removed again when the request ends.

A span holds its name, start, end, parent span, run id and thread.  A
span opened on a worker thread with nothing open on that thread is
parented to the innermost span open on the main thread (the call that
fanned the work out) and marked ``concurrent``: its time is *busy*
time, reported next to the parent's wall time and never subtracted
from it or summed into it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from typing import Iterator

__all__ = [
    "TARGETS",
    "Tracer",
    "busy_seconds",
    "instrument",
    "nesting_errors",
    "self_seconds",
    "span_table",
]

#: Where each layer is entered: (module, attribute path, span name).
#: A module-level function is patched in the module that *calls* it,
#: because callers bind the name at import time.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.run.pipeline", "StagedPipeline.run", "pipeline.run"),
    ("repro.run.pipeline", "StagedPipeline.run_from_nn", "pipeline.run_from_nn"),
    ("repro.run.stages", "Phase1Stage.run", "stage.phase1"),
    ("repro.run.stages", "SpillStage.run", "stage.spill"),
    ("repro.run.stages", "CSPairsStage.run", "stage.cspairs"),
    ("repro.run.stages", "PartitionStage.run", "stage.partition"),
    ("repro.run.stages", "PostprocessStage.run", "stage.postprocess"),
    ("repro.run.stages", "ShardStage.run", "stage.shard"),
    ("repro.run.stages", "MergeStage.run", "stage.merge"),
    ("repro.run.stages", "ConstraintStage.run", "stage.constraint"),
    ("repro.index.base", "NNIndex.build", "index.build"),
    ("repro.distances.kernels.cosine", "CosineKernel.block", "kernels.eval"),
    ("repro.distances.kernels.cosine", "CosineKernel.pairs_array", "kernels.eval"),
    ("repro.distances.kernels.edit", "EditKernel.block", "kernels.eval"),
    ("repro.distances.kernels.edit", "EditKernel.pairs", "kernels.eval"),
    ("repro.run.stages", "prepare_nn_lists", "phase1.nn_lists"),
    ("repro.shard.runner", "prepare_nn_lists", "phase1.nn_lists"),
    ("repro.shard.plan", "plan_shards", "shard.plan"),
    ("repro.shard.runner", "ShardRunner.run", "shard.run"),
    ("repro.shard.merge", "merge_partitions", "shard.merge"),
    ("repro.shard.plan", "plan_constraint_blocks", "constraints.plan"),
    ("repro.shard.runner", "ShardRunner.run_blocks", "constraints.blocks"),
    ("repro.run.serve", "ServeSession.insert", "serve.insert"),
    ("repro.run.serve", "ServeSession.delete", "serve.delete"),
    ("repro.core.incremental", "IncrementalDeduplicator.add", "incremental.add"),
    ("repro.core.incremental", "IncrementalDeduplicator.remove", "incremental.remove"),
    ("repro.core.incremental", "IncrementalDeduplicator.partition", "incremental.partition"),
)


class Tracer:
    """Collects spans in memory; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = ""
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        stack = self._stack()
        thread = threading.get_ident()
        concurrent = False
        if stack:
            parent = stack[-1]
        elif thread != self._main and self._main_stack:
            parent = self._main_stack[-1]
            concurrent = True
        else:
            parent = None
        with self._lock:
            record = {
                "id": len(self.spans),
                "name": name,
                "parent": parent,
                "run": self.run_id,
                "thread": "main" if thread == self._main else f"t{thread}",
                "concurrent": concurrent,
            }
            self.spans.append(record)
        stack.append(record["id"])
        thread_cpu = time.thread_time()
        process_cpu = time.process_time()
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            record["cpu_s"] = time.thread_time() - thread_cpu
            record["process_cpu_s"] = time.process_time() - process_cpu
            stack.pop()

    def run_spans(self, run_id: str) -> list[dict]:
        return [span for span in self.spans if span["run"] == run_id]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


@contextlib.contextmanager
def instrument(tracer: Tracer, targets=TARGETS) -> Iterator[Tracer]:
    """Wrap every target in a span for the duration of the block."""
    restore: list[tuple[object, str, object, bool]] = []
    try:
        for module_name, path, span_name in targets:
            owner, attr = _resolve(module_name, path)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)

            def traced(*args, _fn=original, _name=span_name, **kwargs):
                with tracer.span(_name):
                    return _fn(*args, **kwargs)

            setattr(owner, attr, functools.wraps(original)(traced))
            restore.append((owner, attr, original, own))
        yield tracer
    finally:
        for owner, attr, original, own in reversed(restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def _children(spans: list[dict]) -> dict[int, list[dict]]:
    kids: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            kids.setdefault(span["parent"], []).append(span)
    return kids


def _self(span: dict, kids: list[dict]) -> float:
    covered = [
        (max(child["start"], span["start"]), min(child["end"], span["end"]))
        for child in kids
        if not child["concurrent"]
    ]
    return _duration(span) - _union_seconds(covered)


def self_seconds(span: dict, spans: list[dict]) -> float:
    """Wall time of ``span`` not covered by its same-thread children.

    This is the span's own work plus whatever it called that no span
    attributes: its *unattributed* remainder.  Concurrent children run
    on other threads and are busy time, so they are not subtracted.
    """
    return _self(span, _children(spans).get(span["id"], []))


def busy_seconds(span: dict, spans: list[dict]) -> float:
    """Summed duration of the concurrent children of ``span``."""
    return sum(
        _duration(child)
        for child in _children(spans).get(span["id"], [])
        if child["concurrent"]
    )


def span_table(spans: list[dict]) -> list[dict]:
    """Every span with its wall, self (unattributed) and busy seconds."""
    kids = _children(spans)
    return [
        {
            **span,
            "wall_s": _duration(span),
            "self_s": _self(span, kids.get(span["id"], [])),
            "busy_s": sum(
                _duration(c) for c in kids.get(span["id"], []) if c["concurrent"]
            ),
        }
        for span in spans
    ]


def nesting_errors(spans: list[dict], slack: float = 1e-6) -> list[str]:
    """Violations of the span tree: children outside their parents,
    unknown parents, spans that never closed, negative self time."""
    by_id = {span["id"]: span for span in spans}
    errors = []
    for row in span_table([span for span in spans if "end" in span]):
        parent = row["parent"]
        if parent is not None:
            outer = by_id.get(parent)
            if outer is None:
                errors.append(f"span {row['id']} has unknown parent {parent}")
            elif (
                row["start"] < outer["start"] - slack
                or row["end"] > outer["end"] + slack
            ):
                errors.append(
                    f"span {row['id']} {row['name']} is not inside its "
                    f"parent {outer['id']} {outer['name']}"
                )
        if row["self_s"] < -slack:
            errors.append(f"span {row['id']} {row['name']} has negative self time")
    errors.extend(
        f"span {span['id']} {span['name']} never closed"
        for span in spans
        if "end" not in span
    )
    return errors
