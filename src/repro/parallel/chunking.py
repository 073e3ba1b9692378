"""Contiguous chunk planning for the parallel Phase-1 engine.

Chunks are contiguous slices of the *lookup order*, not of the record-id
space: consecutive lookups are close in the order (that is what the
breadth-first order buys, per Figure 5), so keeping them on the same
worker preserves buffer locality.  The planner therefore never assumes
``rid == position`` — record ids may be sparse, gapped, or non-zero-based
and are carried through verbatim.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["Chunk", "plan_chunks"]


@dataclass(frozen=True)
class Chunk:
    """One contiguous slice of the lookup order.

    Parameters
    ----------
    index:
        Position of the chunk in the overall order (the deterministic
        merge key).
    rids:
        The record ids to look up, in order.
    """

    index: int
    rids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.rids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.rids)


def plan_chunks(
    rids: Sequence[int],
    n_chunks: int | None = None,
    chunk_size: int | None = None,
    blocks: Sequence[Sequence[int]] | None = None,
) -> list[Chunk]:
    """Split a lookup order into contiguous, balanced chunks.

    Exactly one of ``n_chunks`` / ``chunk_size`` must be given.  With
    ``n_chunks``, sizes differ by at most one (the leading chunks take
    the remainder); with ``chunk_size``, every chunk but the last has
    exactly that size.  Empty chunks are never produced, so the result
    may hold fewer than ``n_chunks`` entries for short orders.

    ``blocks`` (disjoint rid groups, such as constraint blocks, whose
    pairs a chunk scores only when both ends are in it) keeps each
    block inside one chunk whenever the order needs more than one: the
    order is regrouped so every block is contiguous (blocks by first
    appearance, each in lookup order; a rid in no block stands alone),
    and each cut above moves forward to the next block edge.
    """
    if (n_chunks is None) == (chunk_size is None):
        raise ValueError("give exactly one of n_chunks or chunk_size")
    n = len(rids)
    if n == 0:
        return []
    if chunk_size is not None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        bounds = list(range(0, n, chunk_size)) + [n]
    else:
        assert n_chunks is not None
        if n_chunks <= 0:
            raise ValueError("n_chunks must be positive")
        n_chunks = min(n_chunks, n)
        base, extra = divmod(n, n_chunks)
        bounds = [0]
        for i in range(n_chunks):
            bounds.append(bounds[-1] + base + (1 if i < extra else 0))
    if blocks is not None and len(bounds) > 2:
        rids, bounds = _whole_blocks(rids, bounds, blocks)
    return [
        Chunk(index=i, rids=tuple(rids[lo:hi]))
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def _whole_blocks(
    rids: Sequence[int], bounds: list[int], blocks: Sequence[Sequence[int]]
) -> tuple[list[int], list[int]]:
    """The order regrouped block by block, and ``bounds`` moved to the
    next block edge."""
    block_of = {rid: i for i, block in enumerate(blocks) for rid in block}
    grouped: dict[object, list[int]] = {}
    for rid in rids:
        grouped.setdefault(block_of.get(rid, ("alone", rid)), []).append(rid)
    order: list[int] = []
    edges: list[int] = []
    for members in grouped.values():
        order.extend(members)
        edges.append(len(order))
    cuts = sorted({edges[bisect_left(edges, bound)] for bound in bounds[1:]})
    return order, [0, *cuts]
