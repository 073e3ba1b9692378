"""Phase-1 sub-stage attribution and the kernel cache-bypass flag.

The vectorized index build splits Phase 1 into attributed sub-stages
(``tokenize`` / ``sign`` / ``bucket`` on the build side, ``candidates``
/ ``verify`` on the lookup side).  These tests pin the accounting
contract: the timers flow from the index through
:class:`~repro.core.nn_phase.Phase1Stats` into ``RunStats.to_dict``
and the bench payloads, kernel-backed runs report a ``null`` pair-cache
rate plus an explicit ``cache_bypassed`` flag instead of a misleading
``0.0``, and the shard planner reuses (and accounts for) the index's
signature batch.
"""

import pytest

from repro.core.formulation import DEParams
from repro.core.nn_phase import Phase1Stats
from repro.data.loaders import load_dataset
from repro.distances.corpus import Corpus
from repro.eval.bench_phase1 import build_throughput_table, run_build_throughput
from repro.index.signatures import SignatureFactory
from repro.run.config import RunConfig
from repro.run.context import RunContext
from repro.run.pipeline import StagedPipeline
from repro.run.stats import RunStats
from repro.shard.plan import plan_shards

PARAMS = DEParams.combined(3, 0.4, c=4.0)

#: Sub-stages the MinHash index attributes on the build side and the
#: lookup side respectively.
BUILD_SUBSTAGES = {"tokenize", "sign", "bucket"}
LOOKUP_SUBSTAGES = {"candidates"}


@pytest.fixture(scope="module")
def relation():
    return load_dataset("org", n_entities=120, seed=0).relation


def run_staged(relation, **overrides):
    config = RunConfig(
        distance="cosine", index="minhash", **overrides
    )
    context = RunContext.create(config)
    return StagedPipeline(context).run(relation, PARAMS)


class TestSubstageAccounting:
    def test_minhash_run_attributes_substages(self, relation):
        result = run_staged(relation)
        substages = result.stats.phase1.substage_seconds
        assert BUILD_SUBSTAGES <= set(substages)
        assert LOOKUP_SUBSTAGES <= set(substages)
        assert all(seconds > 0.0 for seconds in substages.values())

    def test_kernel_run_attributes_verify(self, relation):
        result = run_staged(relation, kernel="auto")
        substages = result.stats.phase1.substage_seconds
        assert "verify" in substages
        assert BUILD_SUBSTAGES <= set(substages)

    def test_substages_survive_to_dict(self, relation):
        result = run_staged(relation)
        payload = result.stats.to_dict()
        assert payload["phase1"]["substages"] == dict(
            result.stats.phase1.substage_seconds
        )

    def test_sharded_run_aggregates_substages(self, relation):
        result = run_staged(relation, shards=2, shards_in_flight=1)
        substages = result.stats.phase1.substage_seconds
        assert BUILD_SUBSTAGES <= set(substages)

    def test_add_substages_merges(self):
        stats = Phase1Stats()
        stats.add_substages({"sign": 1.0})
        stats.add_substages({"sign": 0.5, "bucket": 0.25})
        stats.add_substages(None)
        stats.add_substages({})
        assert stats.substage_seconds == {"sign": 1.5, "bucket": 0.25}


class TestCacheBypass:
    def test_flag_requires_kernel_and_no_cache_traffic(self):
        stats = Phase1Stats()
        assert not stats.cache_bypassed
        stats.kernel_evaluations = 10
        assert stats.cache_bypassed
        stats.cache_misses = 1
        assert not stats.cache_bypassed

    def test_to_dict_nulls_rate_on_bypass(self):
        run_stats = RunStats()
        run_stats.phase1.kernel_evaluations = 10
        payload = run_stats.to_dict()["phase1"]
        assert payload["cache_hit_rate"] is None
        assert payload["cache_bypassed"] is True

    def test_to_dict_keeps_rate_on_scalar_runs(self):
        run_stats = RunStats()
        run_stats.phase1.cache_hits = 3
        run_stats.phase1.cache_misses = 1
        payload = run_stats.to_dict()["phase1"]
        assert payload["cache_hit_rate"] == 0.75
        assert payload["cache_bypassed"] is False


class TestBuildThroughput:
    def test_payload_and_table(self):
        payload = run_build_throughput(n_entities=60)
        signers = [row["signer"] for row in payload["rows"]]
        assert signers == ["scalar", "factory"]
        assert "speedup_numpy_vs_python" not in payload
        assert "vectorized_backend" not in payload
        assert payload["speedup_vectorized_vs_scalar"] is not None
        assert payload["parity"] is True
        assert payload["vocab_compression"] > 1.0
        table = build_throughput_table(payload)
        assert "scalar" in table and "factory" in table
        assert "identical" in table


class TestPlanSignatureReuse:
    def test_plan_reuses_index_signatures(self, relation):
        signatures = SignatureFactory(64).sign(Corpus(relation))
        fresh = plan_shards(relation, 2)
        reused = plan_shards(relation, 2, signatures=signatures)
        assert reused.members == fresh.members
        assert reused.recall == fresh.recall
        # A fresh plan pays for signing; a reusing plan does not.
        assert fresh.sign_seconds > 0.0
        assert reused.sign_seconds == 0.0
        assert "sign_seconds" in fresh.to_dict()

    def test_mismatched_signatures_are_ignored(self, relation):
        # Wrong n_hashes: the plan signs the corpus it is handed.
        signatures = SignatureFactory(32).sign(Corpus(relation))
        plan = plan_shards(
            relation, 2, signatures=signatures, corpus=Corpus(relation)
        )
        assert plan.sign_seconds > 0.0
        assert plan.members == plan_shards(relation, 2).members
