"""The one harness behind every ``BENCH_*.json`` artifact.

Five suites share it — ``bench_phase1``, ``bench_phase2``,
``bench_scale``, ``bench_incremental`` and ``bench_constraints`` — and
each keeps only what is its own: the measurement, the table and the
list of gates, bundled as a :class:`Suite`.  This core owns the rest:

- :func:`environment` — the host block every artifact records;
- :func:`timed` — the one timer;
- :func:`nn_checksum` and :func:`cs_pairs_checksum` — the digests the
  suites compare (partitions digest through
  :meth:`~repro.core.result.Partition.checksum`);
- :class:`Gate` — one gate type, of kind ``checksum`` or ``threshold``;
- :func:`artifact` / :func:`write_artifact` — one schema,
  ``{benchmark, environment, settings, results, gates}``;
- :func:`exit_code` — one exit rule: a failed ``checksum`` gate exits 1
  always, a failed ``threshold`` gate exits 1 only under ``--check``.

``docs/benchmarks.md`` ("``BENCH_*.json`` artifacts") lists every
suite's gates and the command that regenerates each artifact.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.core.formulation import DEParams
from repro.distances.kernels.compat import numpy_or_none

if TYPE_CHECKING:
    from repro.core.cspairs import CSPair
    from repro.core.neighborhood import NNRelation

__all__ = [
    "CHECKSUM",
    "CUTS",
    "THRESHOLD",
    "Gate",
    "Suite",
    "artifact",
    "cs_pairs_checksum",
    "cut_params",
    "environment",
    "exit_code",
    "int_list",
    "nn_checksum",
    "publish",
    "run",
    "suite",
    "timed",
    "write_artifact",
]

#: A correctness gate: fatal on failure, with or without ``--check``.
CHECKSUM = "checksum"
#: A performance or quality floor: fatal only under ``--check``.
THRESHOLD = "threshold"


@dataclass(frozen=True)
class Gate:
    """One named pass/fail rule over a suite's results.

    ``claim`` states what passing means (printed on success);
    ``failures`` maps the results to one message per violation, so a
    gate passes iff it returns nothing.
    """

    name: str
    kind: str
    threshold: float | None
    claim: str
    failures: Callable[[Mapping], list[str]]

    def outcome(self, results: Mapping) -> dict:
        failures = self.failures(results)
        return {
            "name": self.name,
            "kind": self.kind,
            "threshold": self.threshold,
            "claim": self.claim,
            "passed": not failures,
            "failures": failures,
        }


@dataclass(frozen=True)
class Suite:
    """What one benchmark suite contributes to the harness.

    ``run`` takes the settings (minus ``gate_settings``) as keywords
    and returns the results; ``gates`` builds the gate list from the
    settings and raises :class:`~repro.run.config.ConfigError` on an
    unusable combination, before anything is measured; ``table``
    renders a whole artifact; ``workers`` reads the requested
    parallelism off the results for the environment block.
    """

    benchmark: str
    run: Callable[..., dict]
    table: Callable[[Mapping], str]
    gates: Callable[[Mapping], list[Gate]]
    gate_settings: tuple[str, ...] = ()
    workers: Callable[[Mapping], int] = lambda results: 1


def suite(name: str) -> Suite:
    """The suite behind ``bench-<name>`` (imported on first use)."""
    return importlib.import_module(f"repro.eval.bench_{name}").SUITE


#: The paper's three cut formulations (section 3), by name.
CUTS = ("size", "diameter", "combined")


def cut_params(cut: str, k: int, theta: float, c: float) -> DEParams:
    """Resolve a cut name to :class:`~repro.core.formulation.DEParams`."""
    if cut == "size":
        return DEParams.size(k, c=c)
    if cut == "diameter":
        return DEParams.diameter(theta, c=c)
    if cut == "combined":
        return DEParams.combined(k, theta, c=c)
    raise ValueError(f"unknown cut {cut!r}; expected one of {CUTS}")


def int_list(value: str | Iterable[int]) -> tuple[int, ...]:
    """``"1,2,4"`` (a comma-separated flag) or a sequence, as ints."""
    if isinstance(value, str):
        return tuple(int(part) for part in value.split(",") if part)
    return tuple(int(part) for part in value)


def _git_sha() -> str | None:
    """``HEAD`` of the checkout this package runs from, if any."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = done.stdout.strip() if done.returncode == 0 else ""
    return sha or None


def environment(requested_workers: int = 1) -> dict:
    """The host block: who measured, on what, with how much parallelism.

    Worker counts above ``cpu_count`` cannot speed anything up, so the
    block also records the effective parallelism
    (``min(requested, cpu_count)``) and a warning when the request
    exceeds the machine.
    """
    cpu_count = os.cpu_count() or 1
    numpy = numpy_or_none()
    warning = None
    if requested_workers > cpu_count:
        warning = (
            f"requested {requested_workers} workers on a {cpu_count}-core "
            f"machine; speedups beyond {cpu_count}x reflect overlap of "
            f"waiting, not parallel compute"
        )
    return {
        "host": platform.node(),
        "cpu_count": cpu_count,
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "git_sha": _git_sha(),
        "requested_workers": requested_workers,
        "effective_parallelism": min(requested_workers, cpu_count),
        "warning": warning,
    }


def timed(
    fn: Callable[..., object],
    repeats: int = 1,
    setup: Callable[[], object] | None = None,
) -> tuple[list, dict]:
    """Time ``fn`` ``repeats`` times; return every result and the timing.

    ``setup`` (when given) builds fresh state per sample outside the
    clock and is passed to ``fn``.  The garbage collector runs before
    each sample, so no sample pays for a collection of garbage an
    earlier step left behind.  The timing records every sample, their
    median (``seconds``) and the sample count.
    """
    results: list = []
    samples: list[float] = []
    for _ in range(max(1, repeats)):
        args = (setup(),) if setup is not None else ()
        gc.collect()
        started = time.perf_counter()
        results.append(fn(*args))
        samples.append(time.perf_counter() - started)
    return results, {
        "seconds": statistics.median(samples),
        "samples": samples,
        "n_samples": len(samples),
    }


def nn_checksum(nn_relation: NNRelation) -> str:
    """A deterministic digest of an NN relation (lists, distances, NG)."""
    digest = hashlib.sha256()
    for entry in nn_relation:
        digest.update(repr((entry.rid, entry.ng)).encode())
        for neighbor in entry.neighbors:
            digest.update(repr((neighbor.rid, neighbor.distance)).encode())
    return digest.hexdigest()


def cs_pairs_checksum(pairs: Iterable[CSPair]) -> str:
    """A deterministic digest of a CSPairs relation, order included.

    Covers every field of every row, so two joins agree iff they
    produced byte-identical relations in the same ``(id1, id2)`` order.
    """
    digest = hashlib.sha256()
    for pair in pairs:
        digest.update(
            repr(
                (pair.id1, pair.id2, pair.ng1, pair.ng2, tuple(pair.flags))
            ).encode()
        )
    return digest.hexdigest()


def artifact(suite: Suite, settings: Mapping, results: Mapping) -> dict:
    """The artifact of one run, its gates evaluated over ``results``."""
    return {
        "benchmark": suite.benchmark,
        "environment": environment(suite.workers(results)),
        "settings": dict(settings),
        "results": results,
        "gates": [gate.outcome(results) for gate in suite.gates(settings)],
    }


def run(suite: Suite, settings: Mapping) -> dict:
    """Measure ``suite`` under ``settings``; return its artifact.

    The gate list is built first, so a bad gate setting fails before
    the measurement starts.
    """
    suite.gates(settings)
    results = suite.run(
        **{
            key: value
            for key, value in settings.items()
            if key not in suite.gate_settings
        }
    )
    return artifact(suite, settings, results)


def exit_code(gates: Sequence[Mapping], check: bool) -> int:
    """1 on a failed checksum gate, or a failed threshold gate under
    ``check``; 0 otherwise."""
    fatal = any(
        not gate["passed"] and (gate["kind"] == CHECKSUM or check)
        for gate in gates
    )
    return 1 if fatal else 0


def write_artifact(payload: Mapping, path: str | Path) -> Path:
    """Write an artifact (stable key order, parents created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def publish(
    suite: Suite, payload: Mapping, output: str | Path, check: bool, out
) -> int:
    """Write the artifact, print its table and gates; return the exit code."""
    path = write_artifact(payload, output)
    warning = payload["environment"]["warning"]
    if warning:
        print(f"WARNING: {warning}", file=out)
    print(suite.table(payload), file=out)
    print(f"\nwrote {path}", file=out)
    for gate in payload["gates"]:
        if gate["passed"]:
            print(f"PASS {gate['name']}: {gate['claim']}", file=out)
            continue
        fatal = gate["kind"] == CHECKSUM or check
        for failure in gate["failures"]:
            if fatal:
                print(f"ERROR: {gate['name']}: {failure}", file=out)
            else:
                print(
                    f"WARNING: {gate['name']}: {failure} "
                    f"(a threshold gate; --check enforces it)",
                    file=out,
                )
    return exit_code(payload["gates"], check)
