"""Vectorized-kernel parity: numpy batch kernels vs. the scalar path.

The kernels (``repro.distances.kernels``) are pure accelerations: every
query answered through a kernel must be *bit-identical* — same neighbor
ids, same float distances, same NG counts, same partitions — to the
scalar per-pair baseline.  These tests drive random relations through
both backends via ``phase1_batch`` and the per-query ``knn``/``within``
of the brute-force and MinHash indexes, check the bit-parallel Myers scan against the reference
Levenshtein at any string length, and pin down the accounting split
(``kernel_evaluations`` vs. ``evaluations``) and the fallback of a
distance without a kernel.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.formulation import DEParams
from repro.core.nn_phase import Phase1Stats, prepare_nn_lists
from repro.core.pipeline import DuplicateEliminator
from repro.data.loaders import load_dataset
from repro.data.schema import Relation
from repro.distances.cosine import CosineDistance
from repro.distances.edit import EditDistance, levenshtein
from repro.distances.fms import FuzzyMatchDistance
from repro.distances.jaccard import TokenJaccardDistance
from repro.distances.kernels import edit as edit_kernel
from repro.distances.kernels.edit import EditKernel, myers_levenshtein
from repro.index.bruteforce import BruteForceIndex
from repro.index.minhash import MinHashIndex
from repro.run.config import ConfigError, RunConfig
from repro.verify.parity import nn_signature

DISTANCES = {
    "cosine": CosineDistance,
    "jaccard": TokenJaccardDistance,
    "edit": EditDistance,
}

#: Tokenizable text so cosine/jaccard see multi-token vectors; repeated
#: letters and spaces produce empty-token and identical-record edges.
texts = st.lists(
    st.text(alphabet="abc d", min_size=0, max_size=16),
    min_size=2,
    max_size=12,
    unique=True,
)


def build_pair(words, distance_name, factory=BruteForceIndex):
    """The same index on the kernel and scalar backends."""
    relation = Relation.from_strings("r", words)
    scalar = factory()
    scalar.build(relation, DISTANCES[distance_name]())
    kernel = factory()
    kernel.enable_kernel("auto")
    kernel.build(relation, DISTANCES[distance_name]())
    assert kernel.kernel_backend == "numpy"
    # Route even the shortest candidate list through the kernel.
    kernel._kernel.pairs_min = 1
    return relation, scalar, kernel


def exact(neighbor_lists):
    """Render neighbor lists for bit-exact comparison (no approx)."""
    return [[(n.rid, n.distance) for n in row] for row in neighbor_lists]


class TestBatchParity:
    @pytest.mark.parametrize("distance_name", sorted(DISTANCES))
    @settings(max_examples=25, deadline=None)
    @given(words=texts, k=st.integers(1, 4))
    def test_knn_batch(self, distance_name, words, k):
        """A size-cut batch on the kernel backend lists, for every
        record, exactly the scalar per-record ``knn``."""
        for factory in (BruteForceIndex, MinHashIndex):
            relation, scalar, kernel = build_pair(words, distance_name, factory)
            records = list(relation)
            got = kernel.phase1_batch(records, k=k)
            assert exact([n for n, _ in got]) == exact(
                [scalar.knn(record, k) for record in records]
            )

    @pytest.mark.parametrize("distance_name", sorted(DISTANCES))
    @settings(max_examples=25, deadline=None)
    @given(
        words=texts,
        radius=st.one_of(
            st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)
        ),
    )
    def test_within_batch(self, distance_name, words, radius):
        """A diameter-cut batch on the kernel backend lists, for every
        record, exactly the scalar per-record strict ``within``."""
        for factory in (BruteForceIndex, MinHashIndex):
            relation, scalar, kernel = build_pair(words, distance_name, factory)
            records = list(relation)
            got = kernel.phase1_batch(records, theta=radius)
            assert exact([n for n, _ in got]) == exact(
                [scalar.within(record, radius) for record in records]
            )

    @pytest.mark.parametrize("distance_name", sorted(DISTANCES))
    @pytest.mark.parametrize(
        "shape", [{"k": 3}, {"theta": 0.4}, {"k": 2, "theta": 0.6}]
    )
    @settings(max_examples=20, deadline=None)
    @given(words=texts)
    def test_phase1_batch(self, distance_name, shape, words):
        relation, scalar, kernel = build_pair(words, distance_name)
        records = list(relation)
        got = kernel.phase1_batch(records, p=2.0, **shape)
        want = scalar.phase1_batch(records, p=2.0, **shape)
        assert [(exact([n])[0], ng) for n, ng in got] == [
            (exact([n])[0], ng) for n, ng in want
        ]

    @settings(max_examples=20, deadline=None)
    @given(words=texts)
    def test_phase1_batch_radius_fn(self, words):
        relation, scalar, kernel = build_pair(words, "cosine")
        records = list(relation)
        radius_fn = lambda nn: min(1.0, 3.0 * nn + 0.05)  # noqa: E731
        got = kernel.phase1_batch(records, k=3, radius_fn=radius_fn)
        want = scalar.phase1_batch(records, k=3, radius_fn=radius_fn)
        assert [(exact([n])[0], ng) for n, ng in got] == [
            (exact([n])[0], ng) for n, ng in want
        ]

    @pytest.mark.parametrize("distance_name", sorted(DISTANCES))
    @settings(max_examples=25, deadline=None)
    @given(
        words=texts,
        k=st.integers(1, 4),
        radius=st.one_of(
            st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)
        ),
    )
    # Duplicate texts, k = 0 and a singleton relation, which the
    # strategy never draws.
    @example(words=["same", "same", "other"], k=2, radius=0.0)
    @example(words=["a", "b"], k=0, radius=0.5)
    @example(words=["only"], k=3, radius=1.0)
    def test_per_query_knn_and_within(self, distance_name, words, k, radius):
        """Per-record queries are kernelized on both indexes: strict and
        inclusive radii, bit-identical to the scalar path."""
        for factory in (BruteForceIndex, MinHashIndex):
            relation, scalar, kernel = build_pair(words, distance_name, factory)
            for record in relation:
                assert exact([kernel.knn(record, k)]) == exact(
                    [scalar.knn(record, k)]
                )
                for inclusive in (False, True):
                    assert exact(
                        [kernel.within(record, radius, inclusive)]
                    ) == exact([scalar.within(record, radius, inclusive)])
                assert kernel.neighborhood_growth(
                    record
                ) == scalar.neighborhood_growth(record)


#: Near-miss pairs ("jade palace" / "jade place") and one duplicate text.
EDGE_WORDS = [
    "golden dragon",
    "golden dragon express",
    "jade palace",
    "jade place",
    "little bistro",
    "litle bistro",
    "royal kitchen",
    "royal kitchen",
    "blue table",
    "red table",
]


class TestEditEdgeCases:
    """Exact answers on edge inputs, on both brute-force backends
    (``auto`` is the edit kernel, ``python`` the scalar DP).  k = 0 and
    the singleton relation are examples of the parity test above, whose
    scalar answers ``test_index_bruteforce`` pins."""

    @staticmethod
    def index(words, backend):
        relation, scalar, kernel = build_pair(words, "edit")
        return relation, kernel if backend == "auto" else scalar

    @pytest.mark.parametrize("backend", ["auto", "python"])
    def test_duplicate_texts_come_first_at_zero(self, backend):
        relation, index = self.index(EDGE_WORDS, backend)
        hits = index.knn(relation.get(6), 3)
        assert (hits[0].rid, hits[0].distance) == (7, 0.0)
        assert hits[1].distance > 0.0
        mirror = index.knn(relation.get(7), 1)[0]
        assert (mirror.rid, mirror.distance) == (6, 0.0)

    @pytest.mark.parametrize("backend", ["auto", "python"])
    def test_within_inclusive_at_the_nn_radius(self, backend):
        relation, index = self.index(EDGE_WORDS, backend)
        record = relation.get(2)  # "jade palace"
        nearest = index.knn(record, 1)[0]
        assert nearest.rid == 3 and nearest.distance == 1 / 11
        strict = {n.rid for n in index.within(record, nearest.distance)}
        inclusive = {
            n.rid
            for n in index.within(record, nearest.distance, inclusive=True)
        }
        assert strict == set()
        assert inclusive == {3}


class TestWorkerParity:
    @pytest.mark.parametrize("distance_name", sorted(DISTANCES))
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_nn_relation_identical_across_backends(
        self, distance_name, n_workers
    ):
        relation = load_dataset(
            "org", n_entities=40, duplicate_fraction=0.4, seed=3
        ).relation
        params = DEParams.size(4, c=4.0)
        signatures = []
        for mode in ("python", "auto"):
            index = BruteForceIndex()
            index.enable_kernel(mode)
            index.build(relation, DISTANCES[distance_name]())
            nn = prepare_nn_lists(
                relation, index, params, order="sequential",
                n_workers=n_workers,
            )
            signatures.append(nn_signature(nn))
        assert signatures[0] == signatures[1]

    def test_full_pipeline_partition_identical(self):
        relation = load_dataset(
            "org", n_entities=50, duplicate_fraction=0.4, seed=1
        ).relation
        params = DEParams.size(5, c=4.0)
        results = {}
        for mode in ("python", "auto"):
            solver = DuplicateEliminator(
                CosineDistance(),
                index=BruteForceIndex(),
                config=RunConfig(kernel=mode),
            )
            results[mode] = solver.run(relation, params)
        assert results["python"].partition == results["auto"].partition
        assert nn_signature(results["python"].nn_relation) == nn_signature(
            results["auto"].nn_relation
        )


#: Unicode with astral-plane characters, plus a small alphabet so that
#: long strings still share characters and align non-trivially; the
#: length is drawn first so lengths up to 300 are covered evenly.
edit_text = st.integers(0, 300).flatmap(
    lambda n: st.text(
        alphabet=st.one_of(
            st.sampled_from("abcd \u00e9\U0001f600"), st.characters()
        ),
        min_size=n,
        max_size=n,
    )
)


def long_texts(n, seed=0):
    """Claims-like texts, all longer than one 64-bit machine word."""
    import random

    rng = random.Random(seed)
    base = "p44335 summit medical group 2024 01 22 x ray series 637 50 "
    out = []
    for i in range(n):
        chars = list(base * 2)
        for _ in range(rng.randint(0, 12)):
            chars[rng.randrange(len(chars))] = rng.choice("abcxyz0189 ")
        out.append("".join(chars[: rng.randint(65, 120)]) + str(i))
    return out


class TestEditKernels:
    @settings(max_examples=200, deadline=None)
    @given(
        st.text(alphabet="abcde", min_size=1, max_size=64),
        st.text(alphabet="abcdef", max_size=80),
    )
    def test_myers_matches_reference(self, pattern, text):
        assert myers_levenshtein(pattern, text) == levenshtein(pattern, text)

    @settings(max_examples=40, deadline=None)
    @given(edit_text, edit_text)
    @example("a" * 65, "b")
    @example("ab" * 150, "ba" * 150)
    @example("x" * 64, "x" * 65)
    @example("", "a" * 300)
    @example("a" * 300, "")
    @example("\U0001f600ab", "ab")
    @example("caf\u00e9", "cafe")
    def test_myers_matches_reference_at_any_length(self, pattern, text):
        assert myers_levenshtein(pattern, text) == levenshtein(pattern, text)

    def test_myers_empty_text(self):
        assert myers_levenshtein("abc", "") == 3


class TestEditKernelRows:
    """``EditKernel`` rows: exact at any length, each pair computed once."""

    @staticmethod
    def make(words):
        relation = Relation.from_strings("r", words)
        distance = EditDistance()
        distance.prepare(relation)
        return relation, distance, distance.make_kernel(relation)

    def test_block_and_pairs_match_scalar_beyond_64_chars(self):
        relation, distance, kernel = self.make(long_texts(12) + ["", "a"])
        rids = relation.ids()
        want = [
            [distance.distance(relation.get(q), relation.get(r)) for r in rids]
            for q in rids
        ]
        assert kernel.block(rids).tolist() == want
        for q in rids:
            others = [r for r in rids if r != q]
            assert kernel.pairs(q, others) == [want[q][r] for r in others]

    def test_pair_distances_equal_block_rows_in_both_directions(self):
        import numpy as np

        relation, _, kernel = self.make(long_texts(12, seed=2) + ["", "a"])
        n = len(relation)
        rows = kernel.block(relation.ids()).tolist()
        rows_a, rows_b = np.triu_indices(n, k=1)
        for a, b in ((rows_a, rows_b), (rows_b, rows_a)):
            before = kernel.evaluations
            got = kernel.pair_distances(a, b).tolist()
            assert got == [rows[i][j] for i, j in zip(a.tolist(), b.tolist())]
            assert kernel.evaluations - before == len(got)

    def test_mirrored_entries_equal_fresh_computation(self):
        words = long_texts(10, seed=1)
        _, _, kernel = self.make(words)
        rids = list(range(len(words)))
        mirrored = kernel.block(rids)
        # Each unordered pair was computed once; the rest were copied.
        assert kernel.evaluations == len(rids) * (len(rids) - 1) // 2
        for q in rids:
            _, _, fresh = self.make(words)  # empty memo: every pair computed
            assert fresh.block([q])[0].tolist() == mirrored[q].tolist()
            assert fresh.evaluations == len(rids) - 1

    def test_memo_never_exceeds_its_bound(self):
        words = [f"w{i} {'ab' * (i % 40)}" for i in range(100)]
        _, _, kernel = self.make(words)
        rids = list(range(len(words)))
        for start in range(0, len(rids), 7):
            kernel.block(rids[start : start + 7])
            assert len(kernel._memo) <= kernel.memo_rows
        assert len(kernel._memo) == kernel.memo_rows
        kernel.memo_rows = 3
        kernel.block(rids[:5])
        assert len(kernel._memo) == 3

    @staticmethod
    def lane_texts():
        """Texts of every word-boundary length over more than 256
        distinct characters (astral ones too), so codes take four bytes
        and patterns span one to three 64-bit words."""
        import random

        rng = random.Random(5)
        wide = [chr(c) for c in range(0x100, 0x100 + 300)] + [
            "\U0001f600", "\U0001f601", "\U00010348",
        ]
        out = []
        for length in (0, 1, 63, 64, 65, 127, 128, 129):
            for alphabet in ("ab", "abc d", wide):
                out.append("".join(rng.choice(alphabet) for _ in range(length)))
        return out

    def test_lanes_match_levenshtein_at_word_boundaries(self):
        import numpy as np

        words = self.lane_texts()
        kernel = EditKernel(list(range(len(words))), words)
        assert kernel._codes.itemsize == 4
        rows_a, rows_b = np.triu_indices(len(words), k=1)
        assert len(rows_a) >= edit_kernel.LANE_CROSSOVER
        want = [
            levenshtein(words[a], words[b]) / (max(len(words[a]), len(words[b])) or 1)
            for a, b in zip(rows_a.tolist(), rows_b.tolist())
        ]
        for a, b in ((rows_a, rows_b), (rows_b, rows_a)):
            before = kernel.evaluations
            assert kernel.pair_distances(a, b).tolist() == want
            assert kernel.evaluations - before == len(want)

    def test_lanes_equal_scalar_around_the_crossover(self, monkeypatch):
        import numpy as np

        words = self.lane_texts()
        kernel = EditKernel(list(range(len(words))), words)
        rows_a, rows_b = np.triu_indices(len(words), k=1)
        crossover = edit_kernel.LANE_CROSSOVER
        lane_calls = []
        lanes = kernel._lanes
        monkeypatch.setattr(
            kernel, "_lanes", lambda a, b: lane_calls.append(len(a)) or lanes(a, b)
        )
        for size in (crossover - 1, crossover, crossover + 1):
            a, b = rows_a[-size:], rows_b[-size:]
            want = [
                myers_levenshtein(words[i], words[j])
                / (max(len(words[i]), len(words[j])) or 1)
                for i, j in zip(a.tolist(), b.tolist())
            ]
            before = kernel.evaluations
            assert kernel.pair_distances(a, b).tolist() == want
            assert kernel.pair_distances(b, a).tolist() == want
            assert kernel.evaluations - before == 2 * size
        assert lane_calls == [crossover, crossover, crossover + 1, crossover + 1]

    def test_lanes_across_chunk_boundaries(self, monkeypatch):
        import numpy as np

        words = self.lane_texts()
        kernel = EditKernel(list(range(len(words))), words)
        rows_a, rows_b = np.triu_indices(len(words), k=1)
        whole = kernel.pair_distances(rows_a, rows_b).tolist()
        # A budget of a few lanes splits the call into many chunks,
        # some of them mixing one-word and three-word patterns.
        lanes = edit_kernel.chunk_lanes(3, kernel._alphabet, 129)
        monkeypatch.setattr(
            edit_kernel, "LANE_BUDGET", 7 * edit_kernel.LANE_BUDGET // lanes
        )
        assert 1 < edit_kernel.chunk_lanes(3, kernel._alphabet, 129) < 10
        assert kernel.pair_distances(rows_a, rows_b).tolist() == whole
        assert kernel.pair_distances(rows_b, rows_a).tolist() == whole

    def test_row_uses_lanes_and_mirrors(self):
        words = long_texts(2 * edit_kernel.LANE_CROSSOVER, seed=4)
        _, _, kernel = self.make(words)
        rows = kernel.block([0, 1])
        assert kernel.evaluations == 2 * (len(words) - 1) - 1
        for q in (0, 1):
            _, _, fresh = self.make(words)
            fresh_row = fresh.pair_distances(
                [q] * len(words), list(range(len(words)))
            ).tolist()
            assert rows[q].tolist() == fresh_row

    def test_chunk_lanes_shrink_as_the_alphabet_grows(self):
        budget = edit_kernel.LANE_BUDGET
        for words, length in ((1, 64), (2, 85), (3, 192), (40, 2500)):
            previous = None
            for alphabet in (1, 40, 300, 70_000, 1_114_112):
                lanes = edit_kernel.chunk_lanes(words, alphabet, length)
                # The match-mask table alone, the part an alphabet sizes.
                assert lanes == 1 or lanes * (alphabet + 1) * words * 8 <= budget
                assert previous is None or lanes <= previous
                previous = lanes

    def test_measured_scratch_stays_under_budget(self, monkeypatch):
        import tracemalloc

        import numpy as np

        words = self.lane_texts()
        kernel = EditKernel(list(range(len(words))), words)
        rows_a, rows_b = np.triu_indices(len(words), k=1)
        monkeypatch.setattr(edit_kernel, "LANE_BUDGET", 64 << 10)
        assert edit_kernel.chunk_lanes(3, kernel._alphabet, 129) < len(rows_a) // 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kernel.pair_distances(rows_a, rows_b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # The chunk's scratch plus the call's own per-pair arrays.
        assert peak <= edit_kernel.LANE_BUDGET + 16 * 8 * len(rows_a)

    def test_thread_pool_shared_index_matches_sequential(self):
        import sys

        relation = load_dataset(
            "claims", n_entities=40, duplicate_fraction=0.4, seed=3
        ).relation
        params = DEParams.combined(5, 0.45, c=4.0)
        signatures = []
        switch = sys.getswitchinterval()
        # More workers than cores and frequent thread switches, so the
        # workers interleave inside the shared kernel's rows and memo.
        sys.setswitchinterval(1e-5)
        try:
            for n_workers, chunk_size in ((1, None), (4, 5)):
                index = BruteForceIndex()
                index.enable_kernel("auto")
                index.build(relation, EditDistance())
                kernel = index._kernel
                nn = prepare_nn_lists(
                    relation, index, params, order="sequential",
                    n_workers=n_workers, pool="thread",
                    chunk_size=chunk_size,
                )
                signatures.append(nn_signature(nn))
                # The index credits exactly what the shared kernel
                # computed; a lost update on either counter breaks this.
                assert index.totals.kernel_evaluations == kernel.evaluations
                assert len(kernel._memo) <= kernel.memo_rows
        finally:
            sys.setswitchinterval(switch)
        assert signatures[0] == signatures[1]


class TestAccounting:
    def test_kernel_runs_count_kernel_evaluations_only(self):
        relation = Relation.from_strings(
            "r", [f"record alpha {i} beta {i % 7}" for i in range(40)]
        )
        index = BruteForceIndex()
        index.enable_kernel("auto")
        index.build(relation, CosineDistance())
        stats = Phase1Stats()
        prepare_nn_lists(
            relation, index, DEParams.size(3, c=4.0),
            order="sequential", stats=stats, n_workers=2,
        )
        assert stats.kernel_evaluations > 0
        # Every pair went through the kernel, none through scalar calls.
        assert stats.evaluations == 0
        assert index.totals.kernel_evaluations == stats.kernel_evaluations

    def test_scalar_runs_report_zero_kernel_evaluations(self):
        relation = Relation.from_strings(
            "r", [f"record alpha {i}" for i in range(12)]
        )
        index = BruteForceIndex()
        index.build(relation, CosineDistance())
        stats = Phase1Stats()
        prepare_nn_lists(
            relation, index, DEParams.size(3, c=4.0),
            order="sequential", stats=stats,
        )
        assert stats.kernel_evaluations == 0
        assert stats.evaluations > 0

    def test_distance_reports_kernel_evaluations(self):
        relation = Relation.from_strings(
            "r", [f"token {i} word {i % 3}" for i in range(20)]
        )
        distance = CosineDistance()
        index = BruteForceIndex()
        index.enable_kernel("auto")
        index.build(relation, distance)
        index.phase1_batch(list(relation), k=3)
        assert distance.kernel_evaluations > 0

    def test_run_stats_carry_backend_and_counter(self):
        relation = load_dataset(
            "org", n_entities=30, duplicate_fraction=0.3, seed=0
        ).relation
        solver = DuplicateEliminator(
            CosineDistance(),
            index=BruteForceIndex(),
            config=RunConfig(kernel="auto"),
        )
        result = solver.run(relation, DEParams.size(4, c=4.0))
        payload = result.stats.to_dict()
        assert payload["kernel_backend"] == "numpy"
        assert payload["phase1"]["kernel_evaluations"] > 0


class TestFallbacks:
    def test_unknown_kernel_mode_rejected(self):
        for mode in ("cuda", "numpy"):
            with pytest.raises(ValueError):
                BruteForceIndex().enable_kernel(mode)
            with pytest.raises(ConfigError):
                RunConfig(kernel=mode)

    def test_auto_mode_without_kernel_support_stays_scalar(self):
        """fms has no kernel implementation: auto degrades silently."""
        relation = Relation.from_strings("r", ["alpha beta", "alpha bexa"])
        index = BruteForceIndex()
        index.enable_kernel("auto")
        index.build(relation, FuzzyMatchDistance())
        assert index.kernel_backend == "python"
        assert len(index.knn(relation.get(0), 1)) == 1


class TestSubsetPairsParity:
    """``pairs_array`` (the LSH candidate-verification route) must be
    bit-identical to slicing the full distance row, on both the sparse
    subset-gather path and the dense full-row fallback."""

    @staticmethod
    def make_kernel(relation, distance_name):
        distance = DISTANCES[distance_name]()
        distance.prepare(relation)
        return distance.make_kernel(relation)

    @settings(max_examples=40, deadline=None)
    @given(words=texts, distance_name=st.sampled_from(["cosine", "jaccard"]))
    def test_subset_matches_full_row(self, words, distance_name):
        import numpy as np

        relation = Relation.from_strings("r", words)
        kernel = self.make_kernel(relation, distance_name)
        rids = relation.ids()
        for query in rids:
            others = [rid for rid in rids if rid != query]
            row = kernel._distance_row(kernel._v.row_of[query])
            for subset in (others, others[:1], others[::2]):
                if not subset:
                    continue
                got = kernel.pairs_array(query, subset)
                want = row[[kernel._v.row_of[rid] for rid in subset]]
                np.testing.assert_array_equal(got, want)

    def test_sparse_path_exercised(self):
        """A subset small enough relative to n must take the gather
        path (the ``len(rids) * 4 >= n`` dense switch not taken) and
        still agree bitwise with the dense row."""
        import numpy as np

        words = [f"tok{i} shared common" for i in range(40)]
        relation = Relation.from_strings("r", words)
        for distance_name in ("cosine", "jaccard"):
            kernel = self.make_kernel(relation, distance_name)
            subset = [1, 7, 23]  # 3 * 4 < 40: sparse route
            got = kernel.pairs_array(0, subset)
            row = kernel._distance_row(kernel._v.row_of[0])
            want = row[[kernel._v.row_of[rid] for rid in subset]]
            np.testing.assert_array_equal(got, want)

    def test_pairs_list_matches_array(self):
        relation = Relation.from_strings(
            "r", ["alpha beta", "alpha bexa", "gamma delta", "alpha"]
        )
        kernel = self.make_kernel(relation, "cosine")
        assert kernel.pairs(0, [1, 2, 3]) == kernel.pairs_array(
            0, [1, 2, 3]
        ).tolist()
