"""The benchmark's workloads: inputs from a seed, timed requests, checks.

Every workload answers *requests* for one ``--seconds`` window, on one
process and one client (closed loop: the next request is sent when the
previous one has returned):

- a batch workload's request is one ``StagedPipeline.run`` over the
  generated relation, index build included (users pay it every run);
- ``serve-exact``'s request is one insert or one removal of the oldest
  live record, each including its decision (the ``partition()``
  refresh), alternating so the live set keeps a constant size.

The program only ever receives the generated relation.  Correctness is
checked after the window, outside every timer; a failed request or a
failed check counts against ``ok_frac`` and fails the run.

With ``trace=True`` every other round of requests (one request per
input) runs under :func:`spans.instrument`; per-layer metrics come from
those requests, and the untraced rounds in between give the tracing
overhead.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from spans import Tracer, busy_seconds, instrument, self_seconds

#: Combined partition checksums (see :func:`combined_checksum`) of the
#: batch workloads at full size and the default seed, keyed by
#: ``dataset-entities x inputs-seed``.  ``batch-cosine`` and
#: ``sharded-cosine`` solve the same relations, so they share one.
PINNED = {
    "org-3000x4-0": "05273019d7f74e62e4065a2c8b3b4889ac8372b30b6f48cdfb14be0b682ebac9",
    "claims-2000x1-0": "c7126bb1bd2ef7ebc84a3d8ab53b8dd7ae7b3beb42f7b03d07f8ddf59b91dc7b",
}

#: End-to-end metrics, printed for every workload with tracing off.
END_TO_END = (
    ("records_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pair_precision", "ratio"),
    ("pair_recall", "ratio"),
    ("ok_frac", "ratio"),
    ("p50_ms", "ms"),
)

_STAGES = (
    "phase1", "spill", "cspairs", "partition",
    "postprocess", "shard", "merge", "constraint",
)

#: Per-layer metrics, printed for every workload by the traced run.  A
#: layer the workload never enters reads 0.
PER_LAYER = (
    *(
        (f"run.stage.{stage}.{kind}", "s")
        for stage in _STAGES
        for kind in ("wall_s", "cpu_s")
    ),
    ("run.wall_s", "s"),
    ("run.unattributed_s", "s"),
    ("index.build_s", "s"),
    ("index.unattributed_s", "s"),
    ("index.tokenize_s", "s"),
    ("index.sign_s", "s"),
    ("index.bucket_s", "s"),
    ("index.candidates_s", "s"),
    ("index.candidates_per_lookup", "count"),
    ("index.evaluations_pruned", "count"),
    ("kernels.verify_s", "s"),
    ("kernels.evaluations", "count"),
    ("kernels.us_per_eval", "us"),
    ("kernels.useful_ratio", "ratio"),
    ("parallel.drive_s", "s"),
    ("parallel.chunks", "count"),
    ("core.phase1.lookups", "count"),
    ("core.cspairs.rows", "count"),
    ("core.partition.groups", "count"),
    ("storage.buffer.hits", "count"),
    ("storage.buffer.misses", "count"),
    ("storage.buffer.evictions", "count"),
    ("storage.buffer.hit_ratio", "ratio"),
    ("shard.plan_s", "s"),
    ("shard.plan_recall", "ratio"),
    ("shard.busy_s", "s"),
    ("shard.straggler_ratio", "ratio"),
    ("shard.work_ratio", "ratio"),
    ("merge.s", "s"),
    ("merge.boundary_components", "count"),
    ("merge.reused_components", "count"),
    ("incremental.add_s", "s"),
    ("incremental.remove_s", "s"),
    ("incremental.partition_s", "s"),
    ("incremental.pinned_pairs_per_op", "count"),
    ("incremental.cache_misses_per_op", "count"),
    ("incremental.rebuilt_per_remove", "count"),
    ("incremental.components_repaired", "count"),
    ("incremental.components_reused", "count"),
    ("serve.insert_p50_ms", "ms"),
    ("serve.insert_p95_ms", "ms"),
    ("serve.remove_p50_ms", "ms"),
    ("serve.remove_p95_ms", "ms"),
    ("constraints.plan_s", "s"),
    ("constraints.n_blocks", "count"),
    ("constraints.largest_block", "count"),
    ("constraints.block_busy_s", "s"),
    ("constraints.block_overhead_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    workload: str
    seed: int
    n: int
    trace: bool
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, passed: bool, message: str) -> None:
        """Count one correctness check; record it when it fails."""
        self.attempted += 1
        if not passed:
            self.fail(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _reset_peak_rss() -> None:
    """Start a new peak-memory interval: on Linux, writing 5 to
    ``clear_refs`` resets the process's VmHWM to its current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then covers the whole process lifetime


def _peak_rss_mb() -> float:
    """Peak resident set since the last reset, in MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(make: Callable[[], object]) -> float:
    """Median seconds of one ``make()`` call over nine measurements.

    A measurement repeats ``make`` for at least 20 ms and divides by the
    count, so a set-up far shorter than the clock's jitter is still
    timed steadily.
    """
    samples = []
    for _ in range(9):
        gc.collect()
        count = 0
        started = time.perf_counter()
        while True:
            make()
            count += 1
            elapsed = time.perf_counter() - started
            if elapsed >= 0.02:
                break
        samples.append(elapsed / count)
    return statistics.median(samples)


def _timed(
    fn: Callable[[], object], collect: bool = True
) -> tuple[object, float, float]:
    """Run ``fn``; return its value, wall seconds and process CPU seconds.

    ``collect`` runs a full garbage collection first, so one request does
    not pay for the garbage of the last; serving ops skip it, because a
    full collection costs more than an op and real sessions never pause
    for one.
    """
    if collect:
        gc.collect()
    wall = time.perf_counter()
    cpu = time.process_time()
    value = fn()
    return value, time.perf_counter() - wall, time.process_time() - cpu


def _report_exception(outcome: Outcome, what: str) -> None:
    traceback.print_exc(file=sys.stderr)
    outcome.fail(f"{what} raised {sys.exc_info()[1]!r}")


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchSpec:
    name: str
    why: str
    dataset: str
    entities: int
    distance: str
    index: str
    k: int
    theta: float
    c: float = 4.0
    shards: int = 1
    shards_in_flight: int | None = None
    buffer_pages: int | None = None
    pushdown: bool = False
    inputs: int = 4

    def constraints(self) -> tuple:
        if not self.pushdown:
            return ()
        from repro.core.constraints import BlockKey, TimeWindow

        return (
            BlockKey("patient_id"),
            BlockKey("provider"),
            TimeWindow("service_date", 30),
        )

    def config(self):
        from repro.run.config import RunConfig

        return RunConfig(
            distance=self.distance,
            index=self.index,
            kernel="auto",
            n_workers=1,
            pool="thread",
            shards=self.shards,
            shards_in_flight=self.shards_in_flight,
            use_engine=self.buffer_pages is not None,
            buffer_pages=self.buffer_pages or 256,
            constraints=self.constraints(),
            constraint_mode="pushdown" if self.pushdown else "postprocess",
        )


def _scaled(entities: int, scale: float) -> int:
    return max(12, round(entities * scale))


def input_seeds(seed: int, count: int) -> list[int]:
    """Generator seeds of the ``count`` inputs one run is given.

    A run with several independently generated inputs averages its
    medians and pooled quality over them instead of hanging on one
    draw; distinct ``seed`` values never share an input.
    """
    return [seed * count + i for i in range(count)]


def combined_checksum(checksums: list[str]) -> str:
    """One checksum over the per-input partition checksums, in order."""
    return hashlib.sha256(",".join(checksums).encode()).hexdigest()


def _pooled_score(scores):
    from repro.eval.metrics import PRScore

    return PRScore(
        true_positives=sum(s.true_positives for s in scores),
        returned=sum(s.returned for s in scores),
        actual=sum(s.actual for s in scores),
    )


def run_batch(
    spec: BatchSpec, seed: int, seconds: float, trace: bool,
    scale: float, pinned: dict[str, str],
) -> Outcome:
    from repro.core.formulation import DEParams
    from repro.data.loaders import load_dataset
    from repro.eval.metrics import pairwise_scores
    from repro.run.context import RunContext
    from repro.run.pipeline import StagedPipeline

    entities = _scaled(spec.entities, scale)
    inputs = [
        load_dataset(
            spec.dataset, n_entities=entities, duplicate_fraction=0.3, seed=s
        )
        for s in input_seeds(seed, spec.inputs)
    ]
    params = DEParams.combined(spec.k, spec.theta, c=spec.c)
    config = spec.config()
    outcome = Outcome(
        spec.name, seed, sum(len(d.relation) for d in inputs), trace
    )

    setup_s = measure_setup(lambda: StagedPipeline(RunContext.create(config)))

    tracer = Tracer()
    walls: list[float] = []
    records = 0
    cpus: list[float] = []
    peaks: list[float] = []
    traced_walls: list[float] = []
    layer_rows: list[dict[str, float]] = []
    layer_inputs: list[int] = []
    checksums: list[list[str]] = [[] for _ in inputs]
    last: list = [None] * len(inputs)
    count = len(inputs)
    deadline = time.perf_counter() + seconds
    index = 0
    # Requests cycle through the inputs; with tracing, whole rounds
    # alternate between untraced and traced so both see every input.
    # Every input is solved at least once per kind, then requests go
    # on until the window closes.
    while index < (2 if trace else 1) * count or time.perf_counter() < deadline:
        which = index % count
        traced = trace and (index // count) % 2 == 1
        relation = inputs[which].relation
        pipeline = StagedPipeline(RunContext.create(config))
        tracer.run_id = f"request-{index}"
        outcome.attempted += 1
        _reset_peak_rss()
        try:
            if traced:
                with instrument(tracer):
                    result, wall, cpu = _timed(lambda: pipeline.run(relation, params))
            else:
                result, wall, cpu = _timed(lambda: pipeline.run(relation, params))
        except Exception:
            _report_exception(outcome, f"request {index}")
            index += 1
            continue
        if traced:
            traced_walls.append(wall)
            layer_rows.append(
                _batch_layers(tracer.run_spans(tracer.run_id), result)
            )
            layer_inputs.append(which)
        else:
            walls.append(wall)
            records += len(relation)
            cpus.append(cpu)
            peaks.append(_peak_rss_mb())
        checksums[which].append(result.partition.checksum())
        last[which] = result
        index += 1
    if peaks:
        outcome.metrics["peak_rss_mb"] = statistics.median(peaks)
    outcome.spans = tracer.spans

    # ---- correctness, outside the timed window -----------------------
    scores = []
    firsts = []
    for which, data in enumerate(inputs):
        if last[which] is None:
            outcome.check(False, f"input {which}: no request completed")
            continue
        first = checksums[which][0]
        firsts.append(first)
        # A request whose partition differs from the input's first one
        # is a wrong answer: count it as a failed request.
        for value in checksums[which][1:]:
            if value != first:
                outcome.fail(f"input {which}: checksums differ between requests")
        result = last[which]
        _batch_checks(
            spec, outcome, data.relation, params, config, result,
            [row for w, row in zip(layer_inputs, layer_rows) if w == which],
        )
        scores.append(pairwise_scores(result.partition, data.gold))
    if len(firsts) == count:
        combined = combined_checksum(firsts)
        outcome.detail["checksum"] = combined
        key = f"{spec.dataset}-{entities}x{count}-{seed}"
        if pinned.get(key):
            outcome.check(
                combined == pinned[key],
                f"checksum {combined} != pinned {pinned[key]} for {key}",
            )
    _finish(outcome, walls, records, cpus, traced_walls, layer_rows, setup_s,
            _pooled_score(scores) if scores else None)
    return outcome


def _batch_checks(spec, outcome, relation, params, config, result, layer_rows):
    """The workload's own correctness gate for one input."""
    from repro.run.context import RunContext
    from repro.run.pipeline import StagedPipeline

    if spec.shards > 1:
        # Sharding must not change the answer: the unsharded run over
        # the same relation is the reference.
        single = config.replace(
            shards=1, shards_in_flight=None, use_engine=False
        )
        reference = StagedPipeline(RunContext.create(single)).run(
            relation, params
        )
        expected = reference.partition.checksum()
        outcome.check(
            result.partition.checksum() == expected,
            f"sharded checksum {result.partition.checksum()} != "
            f"unsharded {expected}",
        )
        base = reference.stats.phase1
        base_evals = base.kernel_evaluations + base.evaluations
        for row in layer_rows:
            row["shard.work_ratio"] = row["kernels.evaluations"] / base_evals
    elif spec.pushdown:
        from repro.verify.constraints import (
            check_group_constraints,
            verify_constraint_blocks,
        )

        constraints = spec.constraints()
        violations = check_group_constraints(
            result.partition, relation, constraints
        )
        outcome.check(
            violations.passed,
            f"{len(violations.violations)} constraint violations",
        )
        blocks = verify_constraint_blocks(
            relation, constraints, params,
            distance=spec.distance, index=spec.index,
        )
        outcome.check(blocks.ok, f"constraint blocks: {blocks.failures()}")
    else:
        from repro.run.registry import make_distance
        from repro.verify.verifier import verify_result

        distance = make_distance(config.distance)
        distance.prepare(relation)
        report = verify_result(
            result, relation, distance, params=params,
            checks=("partition", "cut-spec"),
        )
        outcome.check(report.ok, f"verification: {report.failures()}")


def _stage_spans(spans: list[dict]) -> tuple[dict | None, list[dict]]:
    top = next(
        (s for s in spans if s["name"] == "pipeline.run" and s["parent"] is None),
        None,
    )
    if top is None:
        return None, []
    return top, [s for s in spans if s["parent"] == top["id"]]


def _sum_wall(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _kernel_seconds(spans: list[dict], within: set[int] | None = None) -> float:
    """Time inside distance kernels (outermost kernel spans only),
    optionally restricted to descendants of the spans in ``within``."""
    by_id = {s["id"]: s for s in spans}

    def inside(span) -> bool:
        parent = span["parent"]
        while parent is not None:
            if parent in within:
                return True
            parent = by_id[parent]["parent"]
        return False

    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] == "kernels.eval"
        and (s["parent"] is None or by_id[s["parent"]]["name"] != "kernels.eval")
        and (within is None or inside(s))
    )


def _batch_layers(spans: list[dict], result) -> dict[str, float]:
    """Per-layer metrics of one traced batch request.

    Times come from the spans recorded around each layer's entry
    point; counts come from the counters the program exports
    (``RunStats``, ``Phase1Stats``, buffer and shard telemetry), as do
    the tokenize/candidates/drive sub-stage timers that have no entry
    point of their own.  Spans and timers on worker threads are busy
    time: on sharded runs they sum over threads.
    """
    stats = result.stats
    phase1 = stats.phase1
    sub = phase1.substage_seconds
    row = {name: 0.0 for name, _ in PER_LAYER}
    top, stages = _stage_spans(spans)
    if top is not None:
        row["run.wall_s"] = top["end"] - top["start"]
        row["run.unattributed_s"] = self_seconds(top, spans)
        for span in stages:
            stage = span["name"].split(".", 1)[1]
            row[f"run.stage.{stage}.wall_s"] += span["end"] - span["start"]
            row[f"run.stage.{stage}.cpu_s"] += span["process_cpu_s"]
    # The build's own timers split it into disjoint sub-stages; the
    # span around the build shows what they leave unattributed.
    build = _sum_wall(spans, "index.build")
    row["index.build_s"] = build
    for name in ("tokenize", "sign", "bucket", "candidates"):
        row[f"index.{name}_s"] = sub.get(name, 0.0)
    if build:
        row["index.unattributed_s"] = build - sum(
            sub.get(name, 0.0) for name in ("tokenize", "sign", "bucket")
        )
    lookups = phase1.lookups
    row["index.candidates_per_lookup"] = (
        phase1.candidates_generated / lookups if lookups else 0.0
    )
    row["index.evaluations_pruned"] = phase1.evaluations_pruned
    evaluations = phase1.kernel_evaluations + phase1.evaluations
    verify = _kernel_seconds(spans)
    row["kernels.verify_s"] = verify
    row["kernels.evaluations"] = evaluations
    row["kernels.us_per_eval"] = verify / evaluations * 1e6 if evaluations else 0.0
    kept = sum(len(entry.neighbors) for entry in result.nn_relation)
    row["kernels.useful_ratio"] = kept / evaluations if evaluations else 0.0
    row["parallel.drive_s"] = sub.get("drive", 0.0)
    row["parallel.chunks"] = phase1.n_chunks
    row["core.phase1.lookups"] = lookups
    row["core.cspairs.rows"] = stats.n_cs_pairs
    row["core.partition.groups"] = len(result.partition.non_trivial_groups())

    buffers = [run["buffer"] for run in stats.shard_runs if run.get("buffer")]
    if stats.buffer is not None:
        buffers.append(
            {"hits": stats.buffer.hits, "misses": stats.buffer.misses,
             "evictions": stats.buffer.evictions}
        )
    hits = sum(b["hits"] for b in buffers)
    misses = sum(b["misses"] for b in buffers)
    row["storage.buffer.hits"] = hits
    row["storage.buffer.misses"] = misses
    row["storage.buffer.evictions"] = sum(b["evictions"] for b in buffers)
    row["storage.buffer.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    if stats.shard_plan is not None:
        row["shard.plan_s"] = _sum_wall(spans, "shard.plan")
        row["shard.plan_recall"] = stats.shard_plan.get("recall") or 0.0
        runner = [s for s in spans if s["name"] == "shard.run"]
        row["shard.busy_s"] = sum(busy_seconds(s, spans) for s in runner)
        per_shard = [run["seconds"] for run in stats.shard_runs]
        if per_shard:
            row["shard.straggler_ratio"] = max(per_shard) / statistics.median(per_shard)
        merge = stats.shard_merge or {}
        row["merge.s"] = _sum_wall(spans, "shard.merge")
        row["merge.boundary_components"] = merge.get("n_boundary_components", 0)
        row["merge.reused_components"] = merge.get("n_reused_components", 0)
    if stats.constraint_plan is not None:
        row["constraints.plan_s"] = _sum_wall(spans, "constraints.plan")
        row["constraints.n_blocks"] = stats.constraint_plan["n_blocks"]
        row["constraints.largest_block"] = stats.constraint_plan["largest_block"]
        runners = {s["id"] for s in spans if s["name"] == "constraints.blocks"}
        block_runs = {
            s["id"] for s in spans
            if s["name"] == "pipeline.run" and s["parent"] in runners
        }
        busy = sum(
            s["end"] - s["start"] for s in spans if s["id"] in block_runs
        )
        row["constraints.block_busy_s"] = busy
        row["constraints.block_overhead_s"] = busy - _kernel_seconds(
            spans, within=block_runs
        )
    row["trace.spans"] = len(spans)
    return row


# ----------------------------------------------------------------------
# Online serving
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    name: str
    why: str
    entities: int
    live: int
    duplicate_fraction: float
    inputs: int = 8


class _Stream:
    """One serving session and the record stream it is fed.

    The session is seeded with the first ``live`` generated records.
    Each step inserts the next record and then removes the oldest live
    one, so the live set keeps its size and every op costs the same in
    expectation.  The stream cycles through the generated records; a
    record's previous copy has always been removed before it comes
    round again, so the live set never holds a record twice.
    """

    def __init__(self, data, live: int, config):
        from repro.data.schema import Record, Relation

        self.data = data
        self.records = list(data.relation)
        self.seed_relation = Relation(name="serve-seed", schema=data.relation.schema)
        for record in self.records[:live]:
            self.seed_relation.add(Record(record.rid, record.fields))
        self.config = config
        self.entity_of = {
            r.rid: data.gold.entity_of[r.rid] for r in self.records[:live]
        }
        self.live = deque(record.rid for record in self.records[:live])
        self.cursor = live
        self.session = None

    def open(self) -> None:
        from repro.run.serve import ServeSession

        self.session = ServeSession(
            self.config, seed=self.seed_relation,
            schema=self.data.relation.schema,
        )
        self.session.dedup.partition()

    def insert(self) -> None:
        source = self.records[self.cursor % len(self.records)]
        self.cursor += 1
        decision = self.session.insert(source.fields)
        self.entity_of[decision.rid] = self.data.gold.entity_of[source.rid]
        self.live.append(decision.rid)

    def remove(self) -> None:
        self.session.delete(self.live.popleft())
        self.session.dedup.partition()

    def score(self):
        from repro.data.duplicates import GoldStandard
        from repro.eval.metrics import pairwise_scores

        gold = GoldStandard()
        for rid in self.session.dedup.relation.ids():
            gold.add(rid, self.entity_of[rid])
        return pairwise_scores(self.session.dedup.partition(), gold)


def run_serve(
    spec: ServeSpec, seed: int, seconds: float, trace: bool,
    scale: float, pinned: dict[str, str],
) -> Outcome:
    from repro.data.loaders import load_dataset
    from repro.run.serve import ServeConfig

    config = ServeConfig(distance="cosine", candidates="exact")
    streams = []
    for s in input_seeds(seed, spec.inputs):
        data = load_dataset(
            "org", n_entities=_scaled(spec.entities, scale),
            duplicate_fraction=spec.duplicate_fraction, seed=s,
        )
        live = max(6, min(round(spec.live * scale), len(data.relation) - 2))
        streams.append(_Stream(data, live, config))
    outcome = Outcome(
        spec.name, seed, sum(len(s.records) for s in streams), trace
    )

    # Set-up is opening a session over its seed relation, once per
    # input: the median over the inputs.
    setups = []
    for stream in streams:
        _, wall, _ = _timed(stream.open)
        setups.append(wall)

    tracer = Tracer()
    ops: dict[str, list[float]] = {"insert": [], "remove": []}
    cpus: list[float] = []
    traced_walls: list[float] = []
    layer_rows: list[dict[str, float]] = []
    count = len(streams)
    _reset_peak_rss()
    deadline = time.perf_counter() + seconds
    step = 0
    # Steps cycle through the sessions; with tracing, whole rounds
    # alternate between untraced and traced.
    while step < (2 if trace else 1) * count or time.perf_counter() < deadline:
        stream = streams[step % count]
        traced = trace and (step // count) % 2 == 1
        for kind, op in (("insert", stream.insert), ("remove", stream.remove)):
            tracer.run_id = f"step-{step}-{kind}"
            outcome.attempted += 1
            try:
                if traced:
                    with instrument(tracer):
                        _, wall, cpu = _timed(op, collect=False)
                else:
                    _, wall, cpu = _timed(op, collect=False)
            except Exception:
                _report_exception(outcome, f"{kind} at step {step}")
                continue
            if traced:
                traced_walls.append(wall)
                layer_rows.append(
                    _serve_layers(
                        tracer.run_spans(tracer.run_id), stream.session, kind
                    )
                )
            else:
                ops[kind].append(wall)
                cpus.append(cpu)
        step += 1
    outcome.metrics["peak_rss_mb"] = _peak_rss_mb()
    outcome.spans = tracer.spans

    # ---- correctness, outside the timed window -----------------------
    checksums = []
    for which, stream in enumerate(streams):
        report = stream.session.verify(label=f"serve-exact input {which}")
        outcome.check(
            report.ok, f"input {which}: incremental batch parity: {report.failures()}"
        )
        checksums.append(stream.session.dedup.partition().checksum())
    outcome.detail["checksum"] = combined_checksum(checksums)
    outcome.detail["live"] = sum(len(s.session.dedup) for s in streams)

    walls = ops["insert"] + ops["remove"]
    # One op handles one record.
    _finish(outcome, walls, len(walls), cpus, traced_walls, layer_rows,
            statistics.median(setups),
            _pooled_score([stream.score() for stream in streams]))
    # Latency by op type, from the untraced ops.
    for kind in ("insert", "remove"):
        outcome.samples[kind] = len(ops[kind])
        for q in (50, 95) if ops[kind] else ():
            name = f"{kind}_p{q}_ms"
            outcome.detail[name] = percentile(ops[kind], q) * 1e3
            if trace:
                outcome.metrics[f"serve.{name}"] = outcome.detail[name]
    return outcome


def _serve_layers(spans: list[dict], session, kind: str) -> dict[str, float]:
    """Per-layer metrics of one traced serving op."""
    row: dict[str, float] = {}
    dedup = session.dedup
    op = dedup.last_op
    repair = dedup.last_repair
    if kind == "insert":
        row["incremental.add_s"] = _sum_wall(spans, "incremental.add")
    else:
        row["incremental.remove_s"] = _sum_wall(spans, "incremental.remove")
    row["incremental.partition_s"] = _sum_wall(spans, "incremental.partition")
    if op is not None:
        row["incremental.pinned_pairs_per_op"] = op.pinned_pairs
        row["incremental.cache_misses_per_op"] = op.cache_misses
        if kind == "remove":
            row["incremental.rebuilt_per_remove"] = op.rebuilt
    if repair is not None:
        row["incremental.components_repaired"] = repair.components_repaired
        row["incremental.components_reused"] = repair.components_reused
    row["trace.spans"] = len(spans)
    return row


# ----------------------------------------------------------------------
# Shared result assembly
# ----------------------------------------------------------------------


def _finish(
    outcome: Outcome,
    walls: list[float],
    records: int,
    cpus: list[float],
    traced_walls: list[float],
    layer_rows: list[dict],
    setup_s: float,
    score,
) -> None:
    m = outcome.metrics
    outcome.samples["requests"] = len(walls)
    outcome.samples["traced_requests"] = len(traced_walls)
    m["setup_s"] = setup_s
    m["ok_frac"] = 1.0 - outcome.failed / max(1, outcome.attempted)
    if score is not None:
        m["pair_precision"] = score.precision
        m["pair_recall"] = score.recall
    if walls:
        # Pooled over the requests: inputs are solved round-robin, so
        # every input weighs in by its own cost.
        m["records_per_s"] = records / sum(walls)
        m["cpu_s"] = statistics.median(cpus)
        m["p50_ms"] = percentile(walls, 50) * 1e3
    if outcome.trace:
        m.update(_layer_medians(layer_rows))
        if walls and traced_walls:
            m["trace.overhead_s"] = (
                statistics.median(traced_walls) - statistics.median(walls)
            )


def _layer_medians(rows: list[dict]) -> dict[str, float]:
    """Median of each per-layer metric over the traced requests that
    produced it (``incremental.add_s`` only comes from inserts)."""
    merged = {name: 0.0 for name, _ in PER_LAYER}
    for name in merged:
        values = [row[name] for row in rows if name in row]
        if values:
            merged[name] = statistics.median(values)
    return merged
