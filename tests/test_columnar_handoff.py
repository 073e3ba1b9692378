"""The columnar Phase-1 -> Phase-2 handoff against its scalar references.

Two equivalences, checked on generated inputs:

- ``read_off`` (the head-only columnar read-off every batch index shares)
  against the per-record definition: ``cut_neighbors`` for the cut
  list, the smallest distance for ``nn(v)``, and the
  ``neighborhood_growth`` rule for ``ng(v)``.  Entries arrive shuffled,
  distances sit on a coarse grid (ties, zeros, values equal to θ), and
  a ``counted`` mask hides some entries from the NG count as the
  size-cut fallback's rows are hidden.
- ``build_cs_pairs`` (one array join over the relation's columns)
  against a pair-by-pair reference built from ``prefix_equal_flags``,
  under the size, diameter and combined cuts, with lists shorter than
  K, partners outside the relation, pair filters and empty relations.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cspairs import (
    CSPair,
    build_cs_pairs,
    max_pair_size,
    nn_list_limit,
    prefix_equal_flags,
    scalar_cs_pairs,
)
from repro.core.formulation import DEParams
from repro.core.neighborhood import NNEntry, NNRelation
from repro.core.radius import AffineRadius
from repro.index.base import Neighbor, Phase1Batch, cut_neighbors, read_off


#: Distances on a grid so that ties, zeros and ``d == θ`` all occur.
GRID = [0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0]


# ----------------------------------------------------------------------
# The read-off
# ----------------------------------------------------------------------


@st.composite
def scored_entries(draw):
    """Per-query candidate sets ``{rid: distance}`` plus a counted mask;
    some queries have no candidates at all."""
    n_queries = draw(st.integers(1, 6))
    queries = []
    for _ in range(n_queries):
        rids = draw(st.lists(st.integers(0, 30), unique=True, max_size=10))
        queries.append({
            rid: draw(st.sampled_from(GRID)) for rid in rids
        })
    counted = {
        (slot, rid): draw(st.booleans()) or draw(st.booleans())
        for slot, found in enumerate(queries)
        for rid in found
    }
    return queries, counted


def _growth(distances, counted_distances, p, radius_fn):
    """``neighborhood_growth`` over a query's candidate distances."""
    if not distances:
        return 1
    nn = min(distances)
    if nn == 0.0:
        return 1 + sum(d == 0.0 for d in counted_distances)
    radius = radius_fn(nn) if radius_fn is not None else p * nn
    return 1 + sum(d < radius for d in counted_distances)


def _reference(queries, counted, k, theta, p, radius_fn, use_counted):
    answers = []
    for slot, found in enumerate(queries):
        rids = list(found)
        distances = [found[rid] for rid in rids]
        neighbors = cut_neighbors(distances, rids, k, theta)
        kept = [
            found[rid] for rid in rids
            if not use_counted or counted[(slot, rid)]
        ]
        answers.append(
            (neighbors, _growth(distances, kept, p, radius_fn))
        )
    return answers


CUTS = [(3, None), (None, 0.3), (2, 0.3), (1, 0.25), (10, None)]


@pytest.mark.parametrize("k,theta", CUTS)
@settings(max_examples=60, deadline=None)
@given(
    data=scored_entries(),
    seed=st.integers(0, 2**16),
    p=st.sampled_from([1.5, 2.0, 3.0]),
    affine=st.booleans(),
    use_counted=st.booleans(),
)
def test_read_off_equals_per_record_definition(
    k, theta, data, seed, p, affine, use_counted
):
    import numpy as np

    queries, counted = data
    entries = [
        (slot, rid, d, counted[(slot, rid)])
        for slot, found in enumerate(queries)
        for rid, d in found.items()
    ]
    # Any entry order: the read-off may not rely on grouping by query.
    random.Random(seed).shuffle(entries)
    radius_fn = AffineRadius(p=p, delta=0.05) if affine else None
    got = read_off(
        np.asarray([e[0] for e in entries], dtype=np.int64),
        np.asarray([e[1] for e in entries], dtype=np.int64),
        np.asarray([e[2] for e in entries], dtype=np.float64),
        len(queries),
        k=k,
        theta=theta,
        p=p,
        radius_fn=radius_fn,
        counted=(
            np.asarray([e[3] for e in entries], dtype=bool)
            if use_counted else None
        ),
    )
    assert list(got) == _reference(
        queries, counted, k, theta, p, radius_fn, use_counted
    )


@pytest.mark.parametrize("k,theta", CUTS)
@settings(max_examples=40, deadline=None)
@given(data=scored_entries(), p=st.sampled_from([1.5, 2.0]))
def test_read_off_dense_rows(k, theta, data, p):
    """The brute-force shape: ``nn`` and NG from dense rows, the cut
    from the possible cut entries only."""
    import numpy as np

    queries, _ = data
    width = 31
    dense = np.full((len(queries), width), np.inf)
    for slot, found in enumerate(queries):
        for rid, d in found.items():
            dense[slot, rid] = d
    keep = np.isfinite(dense)
    slot, column = np.nonzero(keep)
    got = read_off(
        slot, column.astype(np.int64), dense[slot, column],
        len(queries), k=k, theta=theta, p=p, rows=dense,
    )
    assert list(got) == _reference(queries, {}, k, theta, p, None, False)


def test_read_off_without_entries():
    import numpy as np

    empty = np.zeros(0, dtype=np.int64)
    got = read_off(empty, empty, np.zeros(0), 3, k=2, theta=0.5)
    assert list(got) == [([], 1)] * 3
    assert got.indptr.tolist() == [0, 0, 0, 0]


def test_batch_object_view_round_trips():
    answers = [
        ([Neighbor(0.0, 4), Neighbor(0.25, 2)], 3),
        ([], 1),
        ([Neighbor(0.5, 9)], 2),
    ]
    batch = Phase1Batch.from_answers(answers)
    assert list(batch) == answers
    assert batch.neighbors(0) == answers[0][0] and batch.neighbors(1) == []
    assert list(batch.rows([7, 8, 9])) == [
        (7, (4, 2), (0.0, 0.25), 3), (8, (), (), 1), (9, (9,), (0.5,), 2),
    ]
    assert list(Phase1Batch.concat([batch, batch])) == answers + answers


def test_concat_of_no_batch_is_empty():
    empty = Phase1Batch.concat([])
    assert len(empty) == 0 and list(empty) == []
    assert empty.indptr.tolist() == [0]
    assert empty.rids.dtype == empty.indptr.dtype == empty.ng.dtype
    assert empty.distances.dtype.kind == "f"


# ----------------------------------------------------------------------
# The columnar NN relation
# ----------------------------------------------------------------------


@st.composite
def nn_entries(draw):
    """NN entries over rids ``0..n-1``: duplicate-free lists without
    self, of any length, that may name rids outside the relation.

    Lists are either random orders, or real nearest-neighbour orders of
    points on a line (tied positions included), where equal prefix sets
    and hence true CS flags are common.
    """
    n = draw(st.integers(0, 12))
    outside = draw(st.lists(st.integers(100, 104), unique=True, max_size=3))
    pool = list(range(n)) + outside
    position = {rid: draw(st.integers(0, 8)) for rid in pool}
    geometric = draw(st.booleans())
    entries = {}
    for rid in range(n):
        others = [other for other in pool if other != rid]
        if geometric:
            others.sort(key=lambda o: (abs(position[o] - position[rid]), o))
        else:
            others = draw(st.permutations(others))
        ids = others[: draw(st.integers(0, len(others)))]
        distances = sorted(draw(st.sampled_from(GRID)) for _ in ids)
        entries[rid] = NNEntry(
            rid=rid,
            neighbors=tuple(map(Neighbor, distances, ids)),
            ng=draw(st.integers(1, 6)),
        )
    return entries


def _columnar(entries):
    rids = list(entries)
    random.Random(len(rids)).shuffle(rids)
    return NNRelation.from_batches([(
        rids,
        Phase1Batch.from_answers(
            (entries[rid].neighbors, entries[rid].ng) for rid in rids
        ),
    )])


@settings(max_examples=60, deadline=None)
@given(entries=nn_entries())
def test_columnar_relation_equals_entry_relation(entries):
    columnar = _columnar(entries)
    scalar = NNRelation(entries)
    assert list(columnar) == list(scalar)
    assert columnar.ids() == scalar.ids()
    assert columnar.ng_values() == scalar.ng_values()
    assert columnar.as_rows() == scalar.as_rows()
    assert columnar.nn_lists() == scalar.nn_lists()
    for rid, entry in entries.items():
        assert rid in columnar and columnar.get(rid) == entry
    assert 999 not in columnar
    assert len(columnar) == len(scalar)


def test_columnar_relation_rejects_a_repeated_rid():
    one = Phase1Batch.from_answers([([], 1)])
    with pytest.raises(ValueError, match="duplicate NN entry for record 5"):
        NNRelation.from_batches([([5], one), ([5], one)])
    batch = Phase1Batch.from_answers([([Neighbor(0.5, 1)], 2), ([], 1)])
    relation = NNRelation.from_batches([([3, 1], batch)])
    assert relation.ids() == [1, 3]
    assert relation.get(3) == NNEntry(3, (Neighbor(0.5, 1),), 2)


def test_union_keeps_the_first_holder():
    first = NNRelation({1: NNEntry(1, (Neighbor(0.5, 2),), 2)})
    second = _columnar({
        1: NNEntry(1, (), 1), 3: NNEntry(3, (Neighbor(0.1, 1),), 4),
    })
    union = NNRelation.union([first, second])
    assert list(union) == [first.get(1), second.get(3)]


def test_union_of_no_relation_is_empty():
    union = NNRelation.union([])
    assert len(union) == 0 and union.ids() == []
    assert NNRelation.union([NNRelation(), union]).ids() == []
    assert build_cs_pairs(union, DEParams.size(3)) == []


# ----------------------------------------------------------------------
# The CSPairs join
# ----------------------------------------------------------------------


def _reference_pairs(entries, params, pair_filter=None):
    """Pair by pair: mutual within the limits, flags from
    ``prefix_equal_flags``."""
    pairs, filtered = [], 0
    for a in sorted(entries):
        ids_a = entries[a].neighbor_ids
        for b in ids_a[: nn_list_limit(params, len(ids_a))]:
            if b <= a or b not in entries:
                continue
            ids_b = entries[b].neighbor_ids
            if a not in ids_b[: nn_list_limit(params, len(ids_b))]:
                continue
            if pair_filter is not None and not pair_filter(a, b):
                filtered += 1
                continue
            max_m = max_pair_size(len(ids_a), len(ids_b), params)
            pairs.append(CSPair(
                a, b, entries[a].ng, entries[b].ng,
                prefix_equal_flags(a, ids_a, b, ids_b, max_m),
            ))
    return sorted(pairs, key=lambda pair: (pair.id1, pair.id2)), filtered


PARAMS = [
    DEParams.size(1),
    DEParams.size(3),
    DEParams.diameter(0.5),
    DEParams.combined(2, 0.5),
    DEParams.combined(4, 0.5),
]


class _Stats:
    pairs_filtered = 0


class _Filter:
    """A pair filter with the scalar and the vectorized form."""

    def __call__(self, a: int, b: int) -> bool:
        return (a * 7 + b) % 3 != 0

    def allowed(self, ids_a, ids_b):
        return (ids_a * 7 + ids_b) % 3 != 0


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.describe())
@settings(max_examples=60, deadline=None)
@given(
    entries=nn_entries(),
    filtered=st.booleans(),
    spread=st.booleans(),
)
def test_array_join_equals_scalar_reference(params, entries, filtered, spread):
    pair_filter = _Filter() if filtered else None
    if spread:
        # Sparse rids far apart, in the same order.
        entries = {
            rid * 10**9: NNEntry(
                rid * 10**9,
                tuple(Neighbor(n.distance, n.rid * 10**9) for n in e.neighbors),
                e.ng,
            )
            for rid, e in entries.items()
        }
    want, want_filtered = _reference_pairs(entries, params, pair_filter)
    if pair_filter is None:
        assert scalar_cs_pairs(NNRelation(entries), params) == want
    for relation in (_columnar(entries), NNRelation(entries)):
        stats = _Stats()
        got = build_cs_pairs(relation, params, pair_filter, stats=stats)
        assert got == want
        assert stats.pairs_filtered == want_filtered


def test_array_join_on_long_diameter_lists():
    """Every record lists every other: scratch grows with Σ max_m."""
    n = 60
    entries = {
        rid: NNEntry(
            rid,
            tuple(
                Neighbor(abs(rid - other) / n, other)
                for other in sorted(
                    (o for o in range(n) if o != rid),
                    key=lambda o: (abs(rid - o), o),
                )
            ),
            2,
        )
        for rid in range(n)
    }
    params = DEParams.diameter(0.99)
    assert build_cs_pairs(_columnar(entries), params) == _reference_pairs(
        entries, params
    )[0]


def test_array_join_irregular_lists_take_the_scalar_flags():
    """Lists that repeat a rid or name their own record still equal
    the pair-by-pair reference."""
    entries = {
        1: NNEntry(1, (Neighbor(0.1, 2), Neighbor(0.2, 2), Neighbor(0.3, 3)), 2),
        2: NNEntry(2, (Neighbor(0.1, 1), Neighbor(0.2, 2), Neighbor(0.3, 3)), 2),
        3: NNEntry(3, (Neighbor(0.1, 1), Neighbor(0.2, 2)), 2),
    }
    for params in (DEParams.size(3), DEParams.diameter(0.5)):
        assert build_cs_pairs(_columnar(entries), params) == _reference_pairs(
            entries, params
        )[0]


def test_array_join_on_an_empty_relation():
    assert build_cs_pairs(NNRelation(), DEParams.size(3)) == []
    empty = NNRelation.from_batches([])
    assert len(empty) == 0
    assert build_cs_pairs(empty, DEParams.combined(2, 0.5)) == []
