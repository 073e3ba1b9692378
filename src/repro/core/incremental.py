"""Online duplicate elimination under record inserts *and* deletes.

The paper solves DE as a batch problem; a serving system answers "which
group does this record join?" per arrival.  This module maintains the
full DE state — NN lists, exact nearest neighbors, neighborhood
growths, the CSPairs relation, and memoized per-component group
extractions — under single-record :meth:`IncrementalDeduplicator.add`
and :meth:`IncrementalDeduplicator.remove`, with the invariant
(enforced by property tests and the ``incremental`` verify checks) that
the maintained solution equals a from-scratch batch run at every point.

Cost model (n = current size, K = cut-bounded list length): the state
is O(n·K) — each record's cut list and, in arrays aligned with the row
source's slots, its exact NN, its radius ``p * nn`` (``d == 0`` when
``nn = 0``) and its NG as a count: the SN verdict reads no
neighborhood member.  Each operation costs one
distance row plus work proportional to the records it changes.

- **insert** — one distance row to the existing records.  For IDF
  cosine the row is scatter-added over the live records' token
  postings (:meth:`~repro.distances.base.DistanceFunction.live_rows`),
  bit-identical to the scalar distance and never through
  the pair cache; otherwise it is fetched in one call through the pair
  cache (each unordered pair at most once, pinned in a per-operation
  memo).  One vectorized step over the row adds 1 to the NG of every
  record holding the newcomer inside its radius and finds the records
  whose cut list admits it or whose exact NN it becomes: only those get
  Python work, O(log K) each, and a new exact NN (about one per insert)
  recounts its NG at the smaller radius, from the cut list when the
  list covers that radius, else from its own row;
- **remove** — the removed record's row, read before it is unposted,
  takes 1 from the NG of every record holding it inside its radius in
  one vectorized step; the records whose cut list or exact NN held it
  (O(K) on average, through a reverse reference map) are rebuilt by one
  row each, and only its own cached pairs are dropped;
- **partition** — CSPairs flags are rebuilt only for records whose cut
  list changed; group extraction re-runs only for the components (of
  the rows that support some group size) holding an endpoint of a row
  that was added, dropped or changed, or a record whose NG changed its
  verdict class (crossed ``c`` under ``max``/``max2``; any change under
  ``avg``), found by walking the rows' adjacency (component
  independence is the sharding argument), so a quiet arrival
  re-extracts nothing.

Corpus-dependent distances (IDF-weighted cosine, fms) are prepared
lazily on the first arrival; ``refit_every`` re-prepares them — and
rebuilds all maintained state under the new statistics — every that
many operations, which bounds IDF drift (``refit_every=1`` gives exact
batch parity at every point, at batch cost).  Candidate generation can
be delegated to a persistent MinHash postings index
(:class:`repro.index.postings.PersistentMinHashPostings`) via
``candidates=``; that trades the exactness guarantee for per-insert
cost proportional to the candidate set, exactly like the approximate
batch indexes; NG counts stay exact over the candidates because LSH
candidacy is symmetric.
"""

from __future__ import annotations

import math
import time
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from repro.core.criteria import verdict_class
from repro.core.cspairs import CSPair, max_pair_size, prefix_equal_flags
from repro.core.formulation import DEParams
from repro.core.neighborhood import NNEntry, NNRelation
from repro.core.partitioner import extract_component_groups
from repro.core.result import Partition
from repro.data.schema import Record, Relation
from repro.distances.base import CachedDistance, DistanceFunction
from repro.index.base import Neighbor, by_proximity

__all__ = ["IncrementalDeduplicator", "OpStats", "RepairStats"]

#: The smallest positive float: on distances, ``d < _ABOVE_ZERO`` is
#: ``d == 0``.
_ABOVE_ZERO = math.nextafter(0.0, 1.0)

#: The slot-aligned Phase-1 state: attribute, value of a free slot and
#: numpy dtype.  ``_kth`` is the largest distance a cut list admits:
#: its K-th entry's once it holds K, else the largest float below θ (or
#: infinity); every record nearer than it is in the list.
_STATE = (
    ("_rid_at", -1, "int64"),
    ("_nn", math.inf, "float64"),
    ("_nn_rid", -1, "int64"),
    ("_radius", 0.0, "float64"),
    ("_kth", math.inf, "float64"),
    ("_ng", 0, "int64"),
)


@dataclass(frozen=True)
class OpStats:
    """Telemetry for one ``add`` / ``remove`` operation."""

    op: str
    rid: int
    #: Relation size after the operation.
    n: int
    #: Distance values the operation's rows fetched.  On the cached
    #: row path these are distinct unordered pairs (the per-operation
    #: memo size; no pair is evaluated twice within one operation,
    #: bounded cache or not); on the live-postings path every row entry
    #: counts, so a pair read from both ends counts twice.
    pinned_pairs: int
    #: Distance calls forwarded past the per-operation memo.
    distance_calls: int
    #: Inner (uncached) distance computations during the operation; 0
    #: on the live-postings path, which never reads the pair cache.
    cache_misses: int
    #: Entries rebuilt by a full scan (removals only).
    rebuilt: int
    #: Entries whose maintained Phase-1 state changed.
    dirty: int
    seconds: float


@dataclass(frozen=True)
class RepairStats:
    """Telemetry for one incremental :meth:`partition` repair."""

    n_pairs: int
    n_components: int
    #: Components re-extracted because a CSPairs row of theirs was
    #: added, dropped or changed, or a member's NG changed class.
    components_repaired: int
    #: Components whose cached group extraction was reused verbatim.
    components_reused: int
    seconds: float


class IncrementalDeduplicator:
    """Maintains the DE solution for a live relation.

    Parameters
    ----------
    distance:
        The tuple distance.  Corpus statistics are collected lazily on
        the first arrival (or against ``seed`` when given) and refreshed
        per ``refit_every``.  Wrapped in an unbounded
        :class:`~repro.distances.base.CachedDistance` unless one is
        supplied; a *bounded* cache is detected and warned about — the
        per-operation memo still pins each operation's working set, so
        no pair is evaluated twice within one insert or remove, but
        cross-operation re-probes of evicted pairs recompute.
    params:
        The DE parameters (all three cut specifications supported).
    seed:
        Optional initial relation to load in bulk.
    refit_every:
        Re-prepare the distance on the live relation (and rebuild all
        maintained state) every this many operations; ``None`` (the
        default) freezes the statistics collected at the first arrival.
    candidates:
        Optional persistent candidate index (duck-typed: ``add(record)``
        / ``remove(rid)`` / ``candidates(record) -> list[int]`` /
        ``__contains__`` — rids already present, i.e. warm-restored
        from a postings log, are not re-added).  When
        given, arrivals only evaluate distances to surfaced candidates —
        approximate, like the batch MinHash index; leave ``None`` for
        the exact-parity guarantee.  Candidacy must be symmetric (it is
        for LSH buckets): NG counts rely on it.
    max_cache_entries:
        Bound for the internally created distance cache (``None`` =
        unbounded).  Long-lived sessions on the cached row path should
        bound it: the pair cache otherwise grows O(n²).  A removal drops
        the removed record's cached pairs from either kind of cache.
    constraints, constraint_mode:
        Constraints (:mod:`repro.core.constraints`) the maintained
        solution must respect.  ``"postprocess"`` splits groups at
        :meth:`partition` only — parity with the batch postprocess
        mode.  ``"pushdown"`` (or ``"inline"``: they coincide online,
        where there is no planning phase) additionally filters
        forbidden pairs out of the maintained CSPairs relation as rows
        are patched — parity with the batch inline mode.  The NN scan
        is never pruned: per-arrival Phase 1 stays globally exact, so
        ``incremental-nn-parity`` holds in every mode.
    """

    def __init__(
        self,
        distance: DistanceFunction,
        params: DEParams,
        seed: Relation | None = None,
        schema: tuple[str, ...] = ("value",),
        *,
        refit_every: int | None = None,
        candidates=None,
        max_cache_entries: int | None = None,
        constraints=(),
        constraint_mode: str = "postprocess",
    ):
        if refit_every is not None and refit_every <= 0:
            raise ValueError("refit_every must be positive (or None)")
        if constraint_mode not in ("postprocess", "pushdown", "inline"):
            raise ValueError(
                f"unknown constraint mode {constraint_mode!r}; expected "
                "'postprocess', 'pushdown', or 'inline'"
            )
        self.params = params
        #: The cut's size bound K and diameter bound θ (``None`` when
        #: the specification has none).
        self._k, self._theta = params.bounds
        #: ``_kth`` of a list short of K: ``d < θ`` is ``d <= _open``.
        self._open = (
            math.inf if self._theta is None
            else math.nextafter(self._theta, -math.inf)
        )
        #: An NG's class under the SN verdict (``verdict_class``).
        self._ng_class = verdict_class(params.agg, params.c)
        self.refit_every = refit_every
        self.candidates = candidates
        if isinstance(distance, CachedDistance):
            self.distance = distance
            if distance.max_entries is not None:
                warnings.warn(
                    "IncrementalDeduplicator received a bounded "
                    f"CachedDistance (max_entries={distance.max_entries}); "
                    "each operation's working set is pinned in a "
                    "per-operation memo, but re-probes of evicted pairs "
                    "across operations will recompute distances",
                    stacklevel=2,
                )
        else:
            self.distance = CachedDistance(distance, max_entries=max_cache_entries)
        self.relation = Relation(
            name=(seed.name if seed is not None else "incremental"),
            schema=(seed.schema if seed is not None else tuple(schema)),
        )
        from repro.core.constraints import (
            Constraint,
            PairFilter,
            constraint_from_dict,
        )

        self.constraints = tuple(
            c if isinstance(c, Constraint) else constraint_from_dict(c)
            for c in constraints
        )
        self.constraint_mode = constraint_mode
        #: Compiled conjunction (validates fields against the schema).
        self._pair_filter = (
            PairFilter(self.constraints, self.relation.schema)
            if self.constraints
            else None
        )
        #: rid -> cut-bounded NN list, exactly as Phase 1 would store it.
        self._neighbors: dict[int, list[Neighbor]] = {}
        #: rid -> the records whose cut list holds it or whose exact NN
        #: it is: the entries a removal rebuilds.
        self._refs: dict[int, set[int]] = {}
        #: The distance's live-row index (``DistanceFunction.live_rows``)
        #: while it offers one; ``None`` scores rows through the cache.
        self._live = None
        #: rid -> slot of each live record: the live index's slots, else
        #: slots handed out here (``_free`` first).  Slots index the state
        #: arrays of ``_STATE``.
        self._slot_of: dict[int, int] = {}
        self._free: list[int] = []
        self._reset_state()
        self._next_rid = 0
        # Incrementally maintained Phase-2 state: CSPairs flags by key.
        self._pairs: dict[tuple[int, int], tuple[bool, ...]] = {}
        #: rid -> keys of the CSPairs rows it is an endpoint of: the
        #: adjacency of the mutual-NN graph.
        self._pair_keys: dict[int, set[tuple[int, int]]] = {}
        #: Records whose cut list changed (their rows are rebuilt).
        self._dirty: set[int] = set()
        #: Endpoints of CSPairs rows added, dropped or changed, and
        #: records whose NG changed verdict class, since the last
        #: :meth:`partition`.
        self._touched: set[int] = set()
        #: Each component of the rows that support a group size as ``min
        #: rid -> (members, groups)``, and the component key of each of
        #: their records.
        self._components: dict[int, tuple[tuple[int, ...], tuple]] = {}
        self._component_of: dict[int, int] = {}
        self._partition_cache: Partition | None = None
        # Lazy-prepare / refit bookkeeping (the no-seed construction
        # used to skip prepare() entirely, scoring IDF metrics against
        # an empty corpus).
        self._prepared = False
        self._ops_since_refit = 0
        #: Number of distance re-preparations performed (telemetry).
        self.refits = 0
        #: Telemetry of the latest operation / partition repair.
        self.last_op: OpStats | None = None
        self.last_repair: RepairStats | None = None
        # Per-operation memo: every pair a cached row fetched during the
        # operation, and the number of pairs the operation's rows fetched.
        self._op_memo: dict[tuple[int, int], float] = {}
        self._op_pairs = 0
        self._op_marked: set[int] = set()
        if seed is not None:
            # Collect the statistics under the rids ``add`` assigns, so
            # every corpus row names the record that will carry its rid.
            self._prepare(
                Relation(
                    name=seed.name,
                    schema=seed.schema,
                    records=[
                        Record(rid, record.fields)
                        for rid, record in enumerate(seed, self._next_rid)
                    ],
                )
            )
            for record in seed:
                self.add(record.fields)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def add(self, fields: tuple[str, ...] | list[str]) -> int:
        """Insert a record; returns its assigned id."""
        start = time.perf_counter()
        rid = self._next_rid
        self._next_rid += 1
        record = Record(rid, tuple(fields))
        self.relation.add(record)
        # A rid the candidate index already holds is a warm-restart
        # replay: its persisted signature is reused, not recomputed.
        if self.candidates is not None and rid not in self.candidates:
            self.candidates.add(record)
        self._begin_op()
        if not self._prepared or self._refit_due():
            self._refit()
        else:
            corpus = self.distance.corpus
            if corpus is not None:
                corpus.register(record)
            self._post(record)
            self._apply_insert(record)
        self._ops_since_refit += 1
        self._finish_op("add", rid, start)
        return rid

    def remove(self, rid: int) -> None:
        """Delete a record, with bounded recomputation.

        Its row takes it out of the NG count of every record holding it
        inside its radius.  The records whose cut list or exact nearest
        neighbor (the radius-defining record) it was are rebuilt by a
        scan; no other record's entry is visited.  Raises
        :class:`KeyError` for an unknown id.
        """
        start = time.perf_counter()
        record = self.relation.get(rid)  # KeyError before any state is touched
        self._begin_op()
        refit = self._refit_due()
        rebuilds = [] if refit else sorted(self._refs[rid])
        inside = ()
        if not refit:
            slot_of, radius = self._slot_of, self._radius
            # The rebuilt records recount from their own rows below, and
            # the removed record leaves: neither takes a decrement.
            for orid in rebuilds:
                radius[slot_of[orid]] = 0.0
            slot = slot_of[rid]
            radius[slot] = 0.0
            # Every d(rid, v) >= nn(rid): unless some radius passes it,
            # no record counts the removed one and no row is read.
            if self._nn[slot] < radius.max():
                slots, row = self._row(record)
                inside = slots[row < radius[slots]]
        self._drop_entry_state(rid)
        self.relation.remove(rid)
        if self.candidates is not None:
            self.candidates.remove(rid)
        corpus = self.distance.corpus
        if corpus is not None:
            corpus.remove(rid)
        if self._live is not None:
            self._live.remove(rid)
        else:
            self._free.append(self._slot_of.pop(rid))
        if refit:
            self._refit()
        else:
            self._bump(inside, -1)
            # Rids are never reused, so the removed record's cached
            # pairs can never be probed again; dropping them keeps a
            # long session's cache to live pairs (rows from the live
            # index never enter it).
            self.distance.invalidate_rid(rid, self._neighbors)
            for orid in rebuilds:
                self._scan(self.relation.get(orid))
        self._ops_since_refit += 1
        self._finish_op("remove", rid, start, rebuilt=len(rebuilds))

    def refit(self) -> None:
        """Re-prepare the distance on the live relation and rebuild.

        The explicit IDF-drift valve: corpus statistics frozen at the
        first arrival eventually misweight tokens as the relation
        evolves.  Also runs automatically per ``refit_every``.
        """
        start = time.perf_counter()
        self._begin_op()
        self._refit()
        self._finish_op("refit", -1, start)

    # ------------------------------------------------------------------
    # Insert and remove paths
    # ------------------------------------------------------------------

    def _apply_insert(self, record: Record) -> None:
        rid = record.rid
        self._refs[rid] = set()
        slots, row = self._scan(record)
        # Records whose cut list admits the newcomer (ties with a full
        # size-cut list's last entry are admitted and then cut again:
        # the newcomer's id is the largest, so it sorts last), records
        # it is nearer to than their exact NN (their NG is recounted at
        # the smaller radius), and the others holding it inside their
        # radius (their NG gains one).
        nearer = row < self._nn[slots]
        admitted = row <= self._kth[slots]
        self._bump(slots[(row < self._radius[slots]) & ~nearer], 1)
        at = np.flatnonzero(admitted | nearer)
        hits = zip(
            slots[at].tolist(), row[at].tolist(),
            admitted[at].tolist(), nearer[at].tolist(),
        )
        for slot, d, admitted, nearer in hits:
            self._enter(slot, rid, d, admitted, nearer)

    def _enter(
        self, slot: int, rid: int, d: float, admitted: bool, nearer: bool
    ) -> None:
        """Enter arrival ``rid`` at distance ``d`` into the entry at
        ``slot``: into its cut list when admitted, as its exact NN (a
        smaller radius, so a recounted NG) when nearer."""
        orid = int(self._rid_at[slot])
        lst = self._neighbors[orid]
        k = self._k
        held = nearer
        # Entries that may have left this record's entry.
        left: list[tuple[float, int]] = []
        if admitted:
            at = bisect_right(lst, (d, rid), key=by_proximity)
            lst.insert(at, Neighbor(d, rid))
            if k is not None and len(lst) > k:
                left.append(by_proximity(lst.pop()))
            if at < len(lst):
                held = True
                self._mark_dirty(orid)
            if k is not None and len(lst) == k:
                self._kth[slot] = lst[-1].distance
        if nearer:
            if self._nn_rid[slot] >= 0:
                left.append((float(self._nn[slot]), int(self._nn_rid[slot])))
            self._nn[slot], self._nn_rid[slot] = d, rid
            radius = self.params.p * d if d > 0.0 else _ABOVE_ZERO
            self._radius[slot] = radius
            old, new = self._ng[slot], self._recount(orid, slot, radius)
            if new != old:
                self._ng[slot] = new
                self._mark_ng(orid, old, new)
        refs = self._refs
        if held:
            refs[rid].add(orid)
        if left:
            # Still held when still the exact NN or still in the cut
            # list (a prefix of the record's ranking); an entry can
            # leave both.
            tail = by_proximity(lst[-1]) if lst else None
            for entry in left:
                if entry[1] != self._nn_rid[slot] and (tail is None or entry > tail):
                    refs[entry[1]].discard(orid)

    def _recount(self, rid: int, slot: int, radius: float) -> int:
        """``rid``'s NG at a shrunken ``radius``: from its cut list when
        the list holds every record inside the radius, else from the
        record's own row."""
        if radius <= self._kth[slot]:
            lst = self._neighbors[rid]
            return 1 + bisect_left(lst, (radius,), key=by_proximity)
        _, row = self._row(self.relation.get(rid))
        return 1 + int(np.count_nonzero(row < radius))

    def _bump(self, slots, step: int) -> None:
        """``ng += step`` for the records at ``slots`` (each gained or
        lost one neighborhood member), noting class changes."""
        if not len(slots):
            return
        old = self._ng[slots]
        new = self._ng[slots] = old + step
        rids = self._rid_at[slots]
        self._op_marked.update(rids.tolist())
        flips = self._ng_class(old) != self._ng_class(new)
        if flips.any():
            self._touched.update(rids[flips].tolist())
            self._partition_cache = None

    # ------------------------------------------------------------------
    # Shared state builders
    # ------------------------------------------------------------------

    def _row(self, record: Record):
        """Distances from ``record`` to the records it is compared
        against, as ``(slots, distances)`` arrays: from the live index
        when the distance offers one, else fetched through the pair
        cache in one call."""
        rid = record.rid
        others = None
        if self.candidates is not None:
            others = [
                orid
                for orid in self.candidates.candidates(record)
                if orid != rid and orid in self.relation
            ]
        if self._live is not None:
            slots, row = self._live.row(rid, others)
            self._op_pairs += len(row)
            return slots, row
        if others is None:
            targets = [other for other in self.relation if other.rid != rid]
        else:
            targets = [self.relation.get(orid) for orid in others]
        memo = self._op_memo
        keys = [(rid, o.rid) if rid < o.rid else (o.rid, rid) for o in targets]
        missing = [at for at, key in enumerate(keys) if key not in memo]
        values = self.distance.row(record, [targets[at] for at in missing])
        memo.update(zip([keys[at] for at in missing], values))
        self._op_pairs += len(values)
        slot_of = self._slot_of
        slots = [slot_of[other.rid] for other in targets]
        return (
            np.asarray(slots, dtype=np.int64),
            np.asarray([memo[key] for key in keys]),
        )

    def _scan(self, record: Record):
        """Set one record's entry — cut list, exact NN, radius and NG,
        and the reverse references of the first two — from its full
        distance row, marking what changed; returns the row as
        ``(slots, distances)``."""
        rid = record.rid
        slot = self._slot_of[rid]
        old_list, old_ng = self._neighbors.get(rid), self._ng[slot]
        slots, row = self._row(record)
        self._drop_refs(rid, slot)
        p, k, theta = self.params.p, self._k, self._theta
        nn, nn_rid, head = math.inf, -1, []
        if len(row):
            rids = self._rid_at[slots]
            nn = float(row.min())
            nn_rid = int(rids[row == nn].min())
            # Only the part of the row a cut list can hold is ranked.
            if k is None:
                keep = row < theta
            else:
                kth = min(k, len(row)) - 1
                keep = row <= np.partition(row, kth)[kth]
            at = np.flatnonzero(keep)
            head = sorted(zip(row[at].tolist(), rids[at].tolist()))
        # ``d < radius``; for ``nn = 0`` that is ``d == 0``.
        radius = p * nn if nn > 0.0 else _ABOVE_ZERO
        ng = 1 + int(np.count_nonzero(row < radius))
        end = len(head) if theta is None else bisect_left(head, (theta,))
        hits = head[: end if k is None else min(end, k)]
        self._neighbors[rid] = list(starmap(Neighbor, hits))
        self._nn[slot], self._nn_rid[slot] = nn, nn_rid
        self._radius[slot], self._ng[slot] = radius, ng
        self._kth[slot] = hits[-1][0] if k is not None and len(hits) == k else self._open
        refs = self._refs
        for _, orid in hits:
            refs[orid].add(rid)
        if nn_rid >= 0:
            refs[nn_rid].add(rid)
        if self._neighbors[rid] != old_list:
            self._mark_dirty(rid)
        # Not ``elif``: rows rebuilt with the same flags touch no one.
        if ng != old_ng:
            self._mark_ng(rid, old_ng, ng)
        return slots, row

    def _drop_refs(self, rid: int, slot: int) -> None:
        """Take ``rid`` out of the referrers of every record its cut
        list holds and of its exact NN."""
        held = [nb.rid for nb in self._neighbors.get(rid, ())]
        for orid in (*held, int(self._nn_rid[slot])):
            self._refs.get(orid, set()).discard(rid)

    # ------------------------------------------------------------------
    # Slot-aligned state
    # ------------------------------------------------------------------

    def _reset_state(self) -> None:
        for name, _, dtype in _STATE:
            setattr(self, name, np.empty(0, dtype=dtype))

    def _post(self, record: Record) -> None:
        """Give a new live record a slot (its live-index slot, if any)
        and size the state arrays to it, doubling them when short."""
        if self._live is not None:
            self._live.add(record)
            slot = self._slot_of[record.rid]
        else:
            slot = self._free.pop() if self._free else len(self._slot_of)
            self._slot_of[record.rid] = slot
        size = len(self._ng)
        if slot >= size:
            grow = max(16, size, slot + 1 - size)
            for name, fill, dtype in _STATE:
                setattr(self, name, np.concatenate(
                    [getattr(self, name), np.full(grow, fill, dtype=dtype)]
                ))
        self._rid_at[slot] = record.rid

    def _ng_of(self, rid: int) -> int:
        return int(self._ng[self._slot_of[rid]])

    # ------------------------------------------------------------------
    # Refit / lazy preparation
    # ------------------------------------------------------------------

    def _refit_due(self) -> bool:
        return (
            self.refit_every is not None
            and self._ops_since_refit >= self.refit_every
        )

    def _prepare(self, relation: Relation) -> None:
        """Prepare the distance on ``relation`` and post the live
        records to a fresh row source: a live-row index when the
        distance offers one, else the pair cache."""
        self.distance.prepare(relation)
        self._prepared = True
        self._live = self.distance.live_rows()
        self._slot_of = {} if self._live is None else self._live.slot_of
        self._free = []
        self._reset_state()
        for record in self.relation:
            self._post(record)

    def _refit(self) -> None:
        """Prepare the distance on the live relation, rebuild all state."""
        self._prepare(self.relation)
        self._ops_since_refit = 0
        self.refits += 1
        self._op_memo.clear()  # stale under the new corpus statistics
        self._neighbors.clear()
        self._refs = {rid: set() for rid in self.relation.ids()}
        for record in self.relation:
            self._scan(record)
        # Every pair is potentially stale under the new statistics.
        self._pairs.clear()
        self._pair_keys.clear()
        self._components.clear()
        self._component_of.clear()
        self._touched.clear()

    # ------------------------------------------------------------------
    # Incremental Phase 2
    # ------------------------------------------------------------------

    def _mark_dirty(self, rid: int) -> None:
        self._dirty.add(rid)
        self._op_marked.add(rid)
        self._partition_cache = None

    def _mark_ng(self, rid: int, old: int, new: int) -> None:
        """Note that ``rid``'s NG moved from ``old`` to ``new``; touch it
        (and so re-extract its component) only when its verdict class
        moved."""
        self._op_marked.add(rid)
        if self._ng_class(old) != self._ng_class(new):
            self._touched.add(rid)
            self._partition_cache = None

    def _drop_rows(self, rid: int, dropped: dict | None = None) -> None:
        """Drop every CSPairs row ``rid`` is an endpoint of.

        The dropped rows go into ``dropped`` when given (a refresh that
        may rebuild them); otherwise their endpoints are touched.
        """
        for key in self._pair_keys.pop(rid, ()):
            row = self._pairs.pop(key, None)
            if row is None:
                continue
            other = key[0] if key[1] == rid else key[1]
            keys = self._pair_keys.get(other)
            if keys is not None:
                keys.discard(key)
            if dropped is None:
                self._touched.update(key)
            else:
                dropped[key] = row

    def _drop_entry_state(self, rid: int) -> None:
        """Forget one record's Phase-1 entry, its references and its
        CSPairs rows."""
        slot = self._slot_of[rid]
        self._drop_refs(rid, slot)
        self._refs.pop(rid, None)
        self._neighbors.pop(rid, None)
        for name, fill, _ in _STATE:
            getattr(self, name)[slot] = fill
        self._dirty.discard(rid)
        self._drop_rows(rid)
        self._partition_cache = None

    def _refresh_pairs(self) -> None:
        """Patch the maintained CSPairs flags for all dirty entries.

        A row's mutuality and flags depend only on its two endpoints'
        cut lists, so rows with no dirty endpoint are reused verbatim.
        For a dirty record, every row it anchors or partners is dropped
        and rebuilt from its (new) cut list with the same mutuality /
        flag-prefix logic as the batch builder — bit-identical rows by
        construction.  The endpoints of every row whose flags did not
        come back identical are touched.
        """
        params = self.params
        # The online analogue of the batch inline mode: forbidden pairs
        # never enter the maintained CSPairs relation.  Postprocess mode
        # keeps them (parity with the paper-exact batch reference).
        pair_filter = (
            self._pair_filter
            if self.constraint_mode in ("pushdown", "inline")
            else None
        )
        pairs, pair_keys, touched = self._pairs, self._pair_keys, self._touched
        neighbors = self._neighbors
        dropped: dict[tuple[int, int], tuple[bool, ...]] = {}
        for rid in self._dirty:
            self._drop_rows(rid, dropped)
        # The neighbour-id tuple of each entry read, once per refresh.
        ids: dict[int, tuple[int, ...]] = {}

        def ids_of(rid: int) -> tuple[int, ...]:
            found = ids.get(rid)
            if found is None:
                found = ids[rid] = tuple(nb.rid for nb in neighbors[rid])
            return found

        for rid in self._dirty:
            lst = neighbors.get(rid)
            if lst is None:
                continue
            # Cut lists are already bounded, so Phase 2 reads all of
            # each (``nn_list_limit`` is the list length).
            for nb in lst:
                orid = nb.rid
                if orid not in neighbors or rid not in ids_of(orid):
                    continue  # not mutual
                key = (rid, orid) if rid < orid else (orid, rid)
                if key in pairs:
                    continue  # both endpoints dirty: already rebuilt
                id1, id2 = key
                if pair_filter is not None and not pair_filter(
                    self.relation.get(id1), self.relation.get(id2)
                ):
                    continue
                ids1, ids2 = ids_of(id1), ids_of(id2)
                flags = pairs[key] = prefix_equal_flags(
                    id1, ids1, id2, ids2,
                    max_pair_size(len(ids1), len(ids2), params),
                )
                pair_keys.setdefault(id1, set()).add(key)
                pair_keys.setdefault(id2, set()).add(key)
                if dropped.pop(key, None) != flags:
                    touched.update(key)
        for key in dropped:
            touched.update(key)
        self._dirty.clear()

    def _rows_of(self, keys) -> list[CSPair]:
        """The CSPairs rows under ``keys``: their flags and the live
        NGs."""
        ng = {rid: self._ng_of(rid) for key in keys for rid in key}
        pairs = self._pairs
        return [CSPair(a, b, ng[a], ng[b], pairs[a, b]) for a, b in keys]

    def _repair_components(self) -> int:
        """Re-extract the components that hold a touched record;
        returns how many.

        A component is one of the graph of CSPairs rows that support
        some group size: a row whose flags are all false never joins a
        group, so extraction over each such component equals the scan
        over the whole relation, and the mutual-NN graph splits much
        finer.  Every other component's flags and NG classes are
        unchanged, and extraction is a pure function of them, so its
        groups are reused.  A component all of whose records are
        untouched is also a component of the old graph, so the walks
        from the touched records reach every record of every
        invalidated component.
        """
        touched = self._touched
        components, component_of = self._components, self._component_of
        for rid in touched:
            key = component_of.get(rid)
            if key is not None and key in components:
                for member in components.pop(key)[0]:
                    del component_of[member]
        pairs, pair_keys = self._pairs, self._pair_keys
        repaired = 0
        for rid in touched:
            if rid in component_of:
                continue
            members = {rid}
            keys: set[tuple[int, int]] = set()
            stack = [rid]
            while stack:
                at = stack.pop()
                for key in pair_keys.get(at, ()):
                    if key in keys or not any(pairs[key]):
                        continue
                    keys.add(key)
                    other = key[0] if key[1] == at else key[1]
                    if other not in members:
                        members.add(other)
                        stack.append(other)
            if not keys:
                continue
            rows = self._rows_of(sorted(keys))
            groups = tuple(
                tuple(sorted(group))
                for group in extract_component_groups(rows, self.params)
            )
            root = min(members)
            components[root] = (tuple(members), groups)
            for member in members:
                component_of[member] = root
            repaired += 1
        touched.clear()
        return repaired

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def nn_relation(self) -> NNRelation:
        """Materialize the maintained Phase-1 state as an NN relation."""
        nn = NNRelation()
        for rid in sorted(self._neighbors):
            nn.add(
                NNEntry(
                    rid=rid,
                    neighbors=tuple(self._neighbors[rid]),
                    ng=self._ng_of(rid),
                )
            )
        return nn

    def cs_pairs(self) -> list[CSPair]:
        """The maintained CSPairs relation, sorted by ``(id1, id2)``."""
        self._refresh_pairs()
        return self._rows_of(sorted(self._pairs))

    def partition(self) -> Partition:
        """The DE solution over the live relation.

        Incremental: CSPairs rows are patched for dirty entries only,
        and group extraction re-runs only for the components (of rows
        that support a group size) holding a record whose rows or NG
        class changed; every other
        component reuses its groups (exact — extraction is a pure
        function of a component's flags and NG classes).
        """
        if self._partition_cache is not None:
            return self._partition_cache
        start = time.perf_counter()
        self._refresh_pairs()
        repaired = self._repair_components()
        groups = [
            group for _, extracted in self._components.values()
            for group in extracted
        ]
        assigned = {rid for group in groups for rid in group}
        groups.extend((rid,) for rid in self.relation.ids() if rid not in assigned)
        # Each group is sorted and the groups are disjoint, so sorting
        # the tuples orders them by minimum id: the canonical form.
        partition = Partition(groups=tuple(sorted(groups)))
        if self._pair_filter is not None:
            # The unconditional zero-violation split — identical to the
            # batch postprocess stage, so checksum parity holds.
            from repro.core.predicates import apply_constraining_predicate

            partition = apply_constraining_predicate(
                partition, self.relation, self._pair_filter.forbids
            )
        self.last_repair = RepairStats(
            n_pairs=len(self._pairs),
            n_components=len(self._components),
            components_repaired=repaired,
            components_reused=len(self._components) - repaired,
            seconds=time.perf_counter() - start,
        )
        self._partition_cache = partition
        return partition

    def __len__(self) -> int:
        return len(self.relation)

    # ------------------------------------------------------------------
    # Per-operation bookkeeping
    # ------------------------------------------------------------------

    def _begin_op(self) -> None:
        self._op_memo = {}
        self._op_pairs = 0
        self._op_marked = set()
        self._op_miss_base = self.distance.misses

    def _finish_op(self, op: str, rid: int, start: float, rebuilt: int = 0) -> None:
        self.last_op = OpStats(
            op=op,
            rid=rid,
            n=len(self.relation),
            pinned_pairs=self._op_pairs,
            distance_calls=self._op_pairs,
            cache_misses=self.distance.misses - self._op_miss_base,
            rebuilt=rebuilt,
            dirty=len(self._op_marked),
            seconds=time.perf_counter() - start,
        )
