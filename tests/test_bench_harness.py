"""The one bench harness: schema, gates and exit rule for every suite.

Each ``bench-*`` command runs once at a tiny size through the CLI; the
artifact it writes must carry the common schema, and its recorded
results must gate the same way under the one exit rule: a tampered
checksum exits 1 with and without ``--check``, a failed threshold gate
exits 1 only under ``--check``.
"""

import copy
import io
import json

import pytest

from repro.cli import main
from repro.eval import bench

FAKE = "0" * 64


def _tamper_phase1(results):
    results["runs"][0]["checksum"] = FAKE


def _tamper_phase2(results):
    results["runs"][1]["checksums"][0] = FAKE


def _tamper_scale(results):
    results["runs"][0]["checksum"] = FAKE


def _tamper_incremental(results):
    results["checkpoints"][0]["incremental_checksum"] = FAKE


def _tamper_constraints(results):
    results["runs"][1]["checksum"] = FAKE


#: suite -> (tiny CLI arguments, checksum tamper, failing threshold
#: settings or ``None`` when the suite gates checksums only).
SUITES = {
    "phase1": (
        ["--distance", "edit", "--sizes", "20", "--workers", "1"],
        _tamper_phase1,
        {"min_speedup": 1e9},
    ),
    "phase2": (
        ["--distance", "edit", "--entities", "12", "--repeats", "2",
         "--buffer-pages", "16", "--page-capacity", "8",
         "--spill-buffer-pages", "2"],
        _tamper_phase2,
        None,
    ),
    "scale": (
        ["--entities", "30", "--shards", "1,2", "--parity-entities", "12"],
        _tamper_scale,
        {"min_n": 10**9},
    ),
    "incremental": (
        ["--distance", "edit", "--entities", "20", "--checkpoints", "12",
         "--remove-every", "6"],
        _tamper_incremental,
        {"min_check_n": 0, "max_op_ratio": 0.0},
    ),
    "constraints": (
        ["--entities", "30", "--parity-entities", "15"],
        _tamper_constraints,
        {"min_ratio": 1e9},
    ),
}

ENVIRONMENT = {
    "host", "cpu_count", "python", "numpy", "git_sha",
    "requested_workers", "effective_parallelism", "warning",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One CLI run per suite, shared by every test in this module."""
    directory = tmp_path_factory.mktemp("bench")
    payloads = {}
    for name, (argv, _, _) in SUITES.items():
        output = directory / f"BENCH_{name}.json"
        out = io.StringIO()
        code = main([f"bench-{name}", *argv, "--output", str(output)], out=out)
        assert code == 0, out.getvalue()
        payloads[name] = json.loads(output.read_text())
    return payloads


def _publish(name, settings, results, check, tmp_path):
    suite = bench.suite(name)
    payload = bench.artifact(suite, settings, results)
    out = io.StringIO()
    code = bench.publish(suite, payload, tmp_path / "a.json", check, out)
    return code, payload, out.getvalue()


@pytest.mark.parametrize("name", sorted(SUITES))
def test_artifact_has_the_common_schema(artifacts, name):
    payload = artifacts[name]
    assert set(payload) == {
        "benchmark", "environment", "settings", "results", "gates",
    }
    assert payload["benchmark"] == bench.suite(name).benchmark
    assert set(payload["environment"]) == ENVIRONMENT
    assert payload["environment"]["cpu_count"] >= 1
    # Settings are the command's flags, minus where and how to report.
    assert "output" not in payload["settings"]
    assert "check" not in payload["settings"]
    assert payload["gates"]
    for gate in payload["gates"]:
        assert gate["kind"] in (bench.CHECKSUM, bench.THRESHOLD)
        assert gate["passed"] is True and gate["failures"] == []
    assert any(gate["kind"] == bench.CHECKSUM for gate in payload["gates"])


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize("check", [False, True])
def test_tampered_checksum_exits_1(artifacts, name, check, tmp_path):
    payload = artifacts[name]
    results = copy.deepcopy(payload["results"])
    SUITES[name][1](results)
    code, regated, text = _publish(
        name, payload["settings"], results, check, tmp_path
    )
    assert code == 1
    failed = [gate for gate in regated["gates"] if not gate["passed"]]
    assert [gate["kind"] for gate in failed] == [bench.CHECKSUM]
    assert "ERROR: " + failed[0]["name"] in text


@pytest.mark.parametrize(
    "name", sorted(name for name in SUITES if SUITES[name][2] is not None)
)
def test_failed_threshold_exits_1_only_under_check(artifacts, name, tmp_path):
    payload = artifacts[name]
    settings = {**payload["settings"], **SUITES[name][2]}
    code, regated, text = _publish(
        name, settings, payload["results"], False, tmp_path
    )
    assert code == 0
    failed = [gate for gate in regated["gates"] if not gate["passed"]]
    assert failed and all(gate["kind"] == bench.THRESHOLD for gate in failed)
    assert "WARNING: " + failed[0]["name"] in text
    code, _, text = _publish(name, settings, payload["results"], True, tmp_path)
    assert code == 1
    assert "ERROR: " + failed[0]["name"] in text


def test_exit_rule():
    def gate(kind, passed):
        return {"kind": kind, "passed": passed}

    assert bench.exit_code([], check=True) == 0
    assert bench.exit_code([gate(bench.CHECKSUM, True)], check=True) == 0
    for check in (False, True):
        assert bench.exit_code([gate(bench.CHECKSUM, False)], check) == 1
    assert bench.exit_code([gate(bench.THRESHOLD, False)], False) == 0
    assert bench.exit_code([gate(bench.THRESHOLD, False)], True) == 1


def test_phase2_gates_report_every_checksum_mismatch():
    results = {
        "runs": [
            {"source": "memory", "checksums": ["a", "a"]},
            {"source": "engine", "checksums": ["a", "b"]},
            {"source": "spill", "checksums": ["a", "a"]},
        ],
        "partition": {"checksums": ["p", "p"], "streamed_checksum": "q"},
    }
    outcomes = {
        gate.name: gate.outcome(results)
        for gate in bench.suite("phase2").gates({})
    }
    assert outcomes["cspairs-parity"]["failures"] == [
        "CSPairs checksum mismatch: engine",
        "CSPairs checksum mismatch: cross_source",
    ]
    assert outcomes["partition-parity"]["failures"] == [
        "partition checksum mismatch: streamed spill table vs. "
        "in-memory rows"
    ]


class TestPhase1BuildGates:
    """The build-throughput gates ``bench-phase1`` owns."""

    RESULTS = {
        "runs": [{"n": 10, "checksum": "abc"}],
        "build_throughput": {
            "rows": [
                {"signature_checksum": "s"}, {"signature_checksum": "s"},
            ],
            "speedup_vectorized_vs_scalar": 3.0,
        },
    }

    def outcomes(self, settings, results=None):
        return {
            gate.name: gate.outcome(results or self.RESULTS)
            for gate in bench.suite("phase1").gates(settings)
        }

    def build(self, **changes):
        return {
            **self.RESULTS,
            "build_throughput": {**self.RESULTS["build_throughput"], **changes},
        }

    def test_speedup_above_floor_passes(self):
        gate = self.outcomes({"min_speedup": 2.0})["min-speedup"]
        assert gate["passed"] and gate["kind"] == bench.THRESHOLD

    def test_speedup_below_floor_fails(self):
        gate = self.outcomes({"min_speedup": 5.0})["min-speedup"]
        assert gate["failures"] == [
            "signature factory speedup 3.00x below the 5.00x floor"
        ]

    def test_missing_speedup_fails_when_gated(self):
        results = self.build(speedup_vectorized_vs_scalar=None)
        gate = self.outcomes({"min_speedup": 1.0}, results)["min-speedup"]
        assert not gate["passed"]

    def test_no_gate_without_min_speedup(self):
        results = self.build(speedup_vectorized_vs_scalar=0.1)
        assert "min-speedup" not in self.outcomes({}, results)

    def test_build_parity_failure_is_checksum_class(self):
        results = self.build(
            rows=[{"signature_checksum": "s"}, {"signature_checksum": "t"}]
        )
        gate = self.outcomes({}, results)["signature-parity"]
        assert gate["kind"] == bench.CHECKSUM and not gate["passed"]
