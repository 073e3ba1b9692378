"""The compact set (CS) and sparse neighborhood (SN) criteria.

These are *specification-level* definitions, computed directly from the
distance function by examining the whole relation.  The two-phase
algorithm in :mod:`repro.core.partitioner` never calls them (it works
from NN lists); they exist so tests and benchmarks can verify the
algorithm's output against the paper's definitions (section 2):

- **CS criterion** — ``S`` is a compact set iff for every ``v`` in
  ``S``, the distance from ``v`` to any other member of ``S`` is less
  than the distance from ``v`` to any tuple outside ``S``.
- **SN criterion** — ``S`` is an ``SN(AGG, c)`` group iff ``|S| = 1``
  or ``AGG({ng(v) : v in S}) < c``, with ``ng(v)`` the number of tuples
  within a sphere of radius ``p * nn(v)`` around ``v`` (self included;
  ``p = 2`` in the paper).

Ties are broken by record id, consistent with the index layer, so the
criteria remain well defined on real data that violates the paper's
distinct-distances assumption.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Callable, Iterable, Sequence

from repro.data.schema import Relation
from repro.distances.base import DistanceFunction

__all__ = [
    "AGGREGATIONS",
    "aggregate",
    "verdict_class",
    "agg_max",
    "agg_avg",
    "agg_max2",
    "nn_distance_brute",
    "neighborhood_growth_brute",
    "is_compact_set",
    "is_sn_group",
    "group_diameter",
]


def agg_max(values: Sequence[float]) -> float:
    """The ``max`` aggregation (every member must be sparse)."""
    return max(values)


def agg_avg(values: Sequence[float]) -> float:
    """The ``avg`` aggregation (sparse on average)."""
    return sum(values) / len(values)


def agg_max2(values: Sequence[float]) -> float:
    """The second-largest value (tolerates one dense member).

    For a single value, that value itself (the paper evaluates ``max2``
    only on groups of size >= 2, where it is the 2nd maximum).
    """
    if len(values) == 1:
        return values[0]
    return sorted(values, reverse=True)[1]


#: Named aggregation functions evaluated in the paper (Figure 7).
AGGREGATIONS: dict[str, Callable[[Sequence[float]], float]] = {
    "max": agg_max,
    "avg": agg_avg,
    "max2": agg_max2,
}


def aggregate(name: str, values: Sequence[float]) -> float:
    """Apply a named aggregation to a non-empty value sequence."""
    if not values:
        raise ValueError("cannot aggregate an empty sequence")
    try:
        func = AGGREGATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown aggregation {name!r}; expected one of {sorted(AGGREGATIONS)}"
        ) from None
    return func(values)


def verdict_class(name: str, c: float) -> Callable[[float], object]:
    """The map from a growth to its class under ``aggregate(name,
    growths) >= c``: a change within one class flips no SN verdict.
    ``max`` and ``max2`` are order statistics, so only ``growth >= c``
    matters to them; ``avg`` reads the value itself.  Either map
    applies elementwise to a numpy array of growths too."""
    if name in ("max", "max2"):
        return partial(operator.le, c)  # c <= growth
    return operator.pos


def nn_distance_brute(
    relation: Relation, distance: DistanceFunction, rid: int
) -> float:
    """``nn(v)`` by full scan (``inf`` for singleton relations)."""
    record = relation.get(rid)
    best = float("inf")
    for other in relation:
        if other.rid == rid:
            continue
        d = distance.distance(record, other)
        if d < best:
            best = d
    return best


def neighborhood_growth_brute(
    relation: Relation,
    distance: DistanceFunction,
    rid: int,
    p: float = 2.0,
    radius_fn: Callable[[float], float] | None = None,
) -> int:
    """``ng(v)`` by full scan, mirroring the index-layer definition.

    ``radius_fn`` overrides the linear ``p * nn(v)`` neighborhood (the
    non-linear generalization the paper's section 2 permits).
    """
    record = relation.get(rid)
    nn_d = nn_distance_brute(relation, distance, rid)
    if nn_d == float("inf"):
        return 1
    radius = radius_fn(nn_d) if radius_fn is not None else p * nn_d
    count = 1  # self
    for other in relation:
        if other.rid == rid:
            continue
        d = distance.distance(record, other)
        if nn_d == 0.0:
            if d == 0.0:
                count += 1
        elif d < radius:
            count += 1
    return count


def is_compact_set(
    relation: Relation, distance: DistanceFunction, group: Iterable[int]
) -> bool:
    """Check the CS criterion for ``group`` against the whole relation.

    Singletons are trivially compact.  Ties between an inside and an
    outside record at the same distance are resolved by record id (the
    smaller id wins the "closer" comparison), matching the index layer.
    """
    members = sorted(set(group))
    if len(members) <= 1:
        return True
    member_set = set(members)
    for rid in members:
        record = relation.get(rid)
        inside_worst: tuple[float, int] = (-1.0, -1)
        for other_rid in members:
            if other_rid == rid:
                continue
            d = distance.distance(record, relation.get(other_rid))
            inside_worst = max(inside_worst, (d, other_rid))
        for other in relation:
            if other.rid in member_set:
                continue
            d = distance.distance(record, other)
            if (d, other.rid) < inside_worst:
                return False
    return True


def is_sn_group(
    relation: Relation,
    distance: DistanceFunction,
    group: Iterable[int],
    agg: str,
    c: float,
    p: float = 2.0,
) -> bool:
    """Check the SN criterion for ``group``: ``AGG({ng}) < c`` (or |S| = 1)."""
    members = sorted(set(group))
    if len(members) <= 1:
        return True
    growths = [
        float(neighborhood_growth_brute(relation, distance, rid, p=p))
        for rid in members
    ]
    return aggregate(agg, growths) < c


def group_diameter(
    relation: Relation, distance: DistanceFunction, group: Iterable[int]
) -> float:
    """Maximum pairwise distance within ``group`` (0 for singletons)."""
    members = sorted(set(group))
    diameter = 0.0
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            diameter = max(
                diameter, distance.distance(relation.get(a), relation.get(b))
            )
    return diameter
