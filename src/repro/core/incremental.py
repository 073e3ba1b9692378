"""Online duplicate elimination under record inserts *and* deletes.

The paper solves DE as a batch problem; a serving system answers "which
group does this record join?" per arrival.  This module maintains the
full DE state — NN lists, exact nearest neighbors, neighborhood
memberships, the CSPairs relation, and memoized per-component group
extractions — under single-record :meth:`IncrementalDeduplicator.add`
and :meth:`IncrementalDeduplicator.remove`, with the invariant
(enforced by property tests and the ``incremental`` verify checks) that
the maintained solution equals a from-scratch batch run at every point.

Cost model (n = current size, K = cut-bounded list length): each
operation costs one distance row plus work proportional to the records
it changes.

- **insert** — one distance row to the existing records.  For IDF
  cosine with numpy the row is scatter-added over the live records'
  token postings (:meth:`~repro.distances.base.DistanceFunction
  .live_rows`), bit-identical to the scalar distance and never through
  the pair cache; otherwise it is fetched in one call through the pair
  cache (each unordered pair at most once, pinned in a per-operation
  memo).  The row is then reused to update each existing record: two
  comparisons skip a record the newcomer can change nothing of, the
  others get O(log K) list maintenance and a neighborhood insertion by
  bisection.  The exact nearest neighbor is maintained explicitly, so
  a shrinking radius only *truncates* the stored neighborhood — no
  rescans;
- **remove** — visits only the records whose entry holds the removed
  one, through a reverse reference map: those it was a cut-list entry
  or the exact NN of (O(K) records on average) are rebuilt by one row
  each, the others lose it from their neighborhood by bisection, and
  only its own cached pairs are dropped;
- **partition** — CSPairs flags are rebuilt only for records whose cut
  list changed; group extraction re-runs only for the mutual-NN
  components holding an endpoint of a row that was added, dropped or
  changed, or a record whose NG changed its verdict class (crossed
  ``c`` under ``max``/``max2``; any change under ``avg``), found by
  walking the rows' adjacency (component independence is the
  sharding argument), so a quiet arrival re-extracts nothing.

Neighborhoods are sorted ``(distance, rid)`` entries; ``Neighbor``
objects are built only for the cut lists and exact NNs.

Corpus-dependent distances (IDF-weighted cosine, fms) are prepared
lazily on the first arrival; ``refit_every`` re-prepares them — and
rebuilds all maintained state under the new statistics — every that
many operations, which bounds IDF drift (``refit_every=1`` gives exact
batch parity at every point, at batch cost).  Candidate generation can
be delegated to a persistent MinHash postings index
(:class:`repro.index.postings.PersistentMinHashPostings`) via
``candidates=``; that trades the exactness guarantee for per-insert
cost proportional to the candidate set, exactly like the approximate
batch indexes.
"""

from __future__ import annotations

import math
import time
import warnings
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import starmap

from repro.core.criteria import verdict_class
from repro.core.cspairs import CSPair, max_pair_size, prefix_equal_flags
from repro.core.formulation import DEParams
from repro.core.neighborhood import NNEntry, NNRelation
from repro.core.partitioner import extract_component_groups
from repro.core.result import Partition
from repro.data.schema import Record, Relation
from repro.distances.base import CachedDistance, DistanceFunction
from repro.distances.kernels.compat import numpy_or_none
from repro.index.base import Neighbor, by_proximity

__all__ = ["IncrementalDeduplicator", "OpStats", "RepairStats"]

#: The smallest positive float: on distances, ``d < _ABOVE_ZERO`` is
#: ``d == 0``.
_ABOVE_ZERO = math.nextafter(0.0, 1.0)


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
        the exact-parity guarantee.
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
        #: rid -> exact nearest neighbor over *all* other records —
        #: maintained beyond the cut so theta-cut records with an empty
        #: list still know their radius (``None`` = no other records).
        self._true_nn: dict[int, Neighbor | None] = {}
        #: rid -> the ``p * nn`` neighborhood (the records NG counts) as
        #: ascending ``(distance, rid)`` entries; ``ng = len(members) +
        #: 1``.  The exact NN is always a member (``p > 1``).
        self._nbhd: dict[int, list[tuple[float, int]]] = {}
        self._ng: dict[int, int] = {}
        #: rid -> {record whose cut list or neighborhood holds rid: the
        #: distance}: the reverse map a removal visits.
        self._refs: dict[int, dict[int, float]] = {}
        #: The distance's live-row index (``DistanceFunction.live_rows``)
        #: while it offers one; ``None`` scores rows through the cache.
        self._live = None
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
        #: Each mutual-NN component as ``min rid -> (members, groups)``,
        #: and the component key of every record with a CSPairs row.
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
        # Per-operation memo: rid -> {other rid: distance} of every
        # distance row fetched during the operation, and the number of
        # distinct pairs those rows evaluated.
        self._op_rows: dict[int, dict[int, float]] = {}
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
            if self._live is not None:
                self._live.add(record)
            self._apply_insert(record)
        self._ops_since_refit += 1
        self._finish_op("add", rid, start)
        return rid

    def remove(self, rid: int) -> None:
        """Delete a record, with bounded recomputation.

        Only the records whose entry holds the removed one are visited.
        Those it was a cut-list entry or the exact nearest neighbor (the
        radius-defining record) of are rebuilt by a scan; the others
        held it as a neighborhood member only and lose it by bisection,
        with no distance evaluations at all.  Raises :class:`KeyError`
        for an unknown id.
        """
        start = time.perf_counter()
        self.relation.get(rid)  # KeyError before any state is touched
        self._begin_op()
        self.relation.remove(rid)
        if self.candidates is not None:
            self.candidates.remove(rid)
        corpus = self.distance.corpus
        if corpus is not None:
            corpus.remove(rid)
        if self._live is not None:
            self._live.remove(rid)
        rebuilds: list[int] = []
        if self._refit_due():
            self._drop_entry_state(rid)
            self._refit()
        else:
            rebuilds = self._unlink(rid)
            self._drop_entry_state(rid)
            # Rids are never reused, so the removed record's cached
            # pairs can never be probed again; dropping them keeps a
            # long session's cache to live pairs (rows from the live
            # index never enter it).
            self.distance.invalidate_rid(rid, self._neighbors)
            for orid in rebuilds:
                self._rebuild_entry(self.relation.get(orid))
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
        refs = self._refs
        mine = refs[rid] = {}
        rids, row = self._scan(record)
        if self._live is not None:
            rids, row = rids.tolist(), row.tolist()
        self._mark_dirty(rid)

        p = self.params.p
        k, theta = self._k, self._theta
        neighbors, true_nn, nbhd, ngs = (
            self._neighbors, self._true_nn, self._nbhd, self._ng
        )
        for orid, d in zip(rids, row):
            lst = neighbors[orid]
            t_old = true_nn[orid]
            # Cut-bounded NN list: does the newcomer belong in it?  Ties
            # with a full size-cut list's last entry are admitted and
            # then cut again: the newcomer's id is the largest, so it
            # sorts last.
            admitted = (theta is None or d < theta) and (
                k is None or len(lst) < k or d <= lst[-1].distance
            )
            if not admitted and t_old is not None:
                # Neither a nearer exact NN nor a new neighborhood
                # member: nothing of this record changes.
                radius = t_old.distance
                if d >= (p * radius if radius > 0.0 else _ABOVE_ZERO):
                    continue
            held = False
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
            # Exact NN and neighborhood membership.  The radius can only
            # shrink on insert, so the stored members are truncated by
            # bisection — never rescanned.  Zero radius counts exact
            # co-locations (``d < _ABOVE_ZERO``).
            members = nbhd[orid]
            if t_old is None or d < t_old.distance:
                true_nn[orid] = Neighbor(d, rid)
                held = True
                radius = d
                cut = bisect_left(
                    members, (p * d if d > 0.0 else _ABOVE_ZERO,)
                )
                left.extend(members[cut:])
                del members[cut:]
            else:
                radius = t_old.distance
            bound = p * radius if radius > 0.0 else _ABOVE_ZERO
            if d < bound:
                insort(members, (d, rid))
                held = True
            if held:
                mine[orid] = d
            if left:
                # Still held when still a member or still in the cut
                # list (a prefix of the record's ranking); an entry can
                # leave both.
                tail = by_proximity(lst[-1]) if lst else None
                for entry in left:
                    if (
                        entry[1] != rid
                        and entry[0] >= bound
                        and (tail is None or entry > tail)
                    ):
                        refs[entry[1]].pop(orid, None)
            ng = len(members) + 1
            if ng != ngs[orid]:
                old, ngs[orid] = ngs[orid], ng
                self._mark_ng(orid, old)

    def _unlink(self, rid: int) -> list[int]:
        """Take a removed record out of the entries that hold it.

        Visits only its referrers.  Returns those that must be rebuilt
        by a scan (it was in their cut list, a prefix of their ranking,
        or their exact NN); the others lose it from their neighborhood
        by bisection.
        """
        rebuilds: list[int] = []
        neighbors, true_nn, nbhd, ngs = (
            self._neighbors, self._true_nn, self._nbhd, self._ng
        )
        for orid, d in self._refs.pop(rid).items():
            lst = neighbors[orid]
            if true_nn[orid].rid == rid or (
                lst and (d, rid) <= by_proximity(lst[-1])
            ):
                rebuilds.append(orid)
                continue
            members = nbhd[orid]
            del members[bisect_left(members, (d, rid))]
            old, ngs[orid] = ngs[orid], len(members) + 1
            self._mark_ng(orid, old)
        rebuilds.sort()
        return rebuilds

    # ------------------------------------------------------------------
    # Shared state builders
    # ------------------------------------------------------------------

    def _row(self, record: Record):
        """Distances from ``record`` to the records it is compared
        against, as ``(rids, distances)``: arrays from the live index
        when the distance offers one, else lists fetched through the
        pair cache in one call.

        On the cache path, a pair this operation already fetched from
        its other end is read from that row instead, so each unordered
        pair is evaluated at most once per operation even when the
        cache is bounded and has evicted it (the documented free
        re-probe promise); those reused pairs come last.
        """
        rid = record.rid
        others = None
        if self.candidates is not None:
            others = [
                orid
                for orid in self.candidates.candidates(record)
                if orid != rid and orid in self.relation
            ]
        if self._live is not None:
            rids, values = self._live.row(rid, others)
            self._op_pairs += len(values)
            return rids, values
        if others is None:
            targets = [o for o in self.relation if o.rid != rid]
        else:
            targets = [self.relation.get(orid) for orid in others]
        rows = self._op_rows
        reused = []
        if rows:
            for other in [o for o in targets if o.rid in rows]:
                d = rows[other.rid].get(rid)
                if d is not None:
                    reused.append((other.rid, d))
            if reused:
                skip = {orid for orid, _ in reused}
                targets = [o for o in targets if o.rid not in skip]
        values = self.distance.row(record, targets)
        self._op_pairs += len(values)
        rids = [o.rid for o in targets]
        if reused:
            rids += [orid for orid, _ in reused]
            values += [d for _, d in reused]
        rows[rid] = dict(zip(rids, values))
        return rids, values

    def _ranked(self, rids, row) -> list[tuple[float, int]]:
        """The row as ascending ``(distance, rid)`` entries.

        From the live index, only the head a record's entry can hold:
        every entry inside the neighborhood radius and the first K (or,
        without K, every one inside θ) — the same prefix of the full
        ranking.
        """
        if self._live is None:
            return sorted(zip(row, rids))
        if not len(row):
            return []
        np = numpy_or_none()
        nn = row.min()
        keep = row < (self.params.p * nn if nn > 0.0 else _ABOVE_ZERO)
        if self._k is None:
            keep |= row < self._theta
        else:
            kth = min(self._k, len(row)) - 1
            keep |= row <= np.partition(row, kth)[kth]
        at = np.flatnonzero(keep)
        d, r = row[at], rids[at]
        order = np.lexsort((r, d))
        return list(zip(d[order].tolist(), r[order].tolist()))

    def _scan(self, record: Record):
        """Set one record's entry — cut list, exact NN, neighborhood
        members and NG, and their reverse references — from its full
        distance row; returns the row as ``(rids, distances)``."""
        rids, row = self._row(record)
        hits = self._ranked(rids, row)
        end = len(hits) if self._theta is None else bisect_left(hits, (self._theta,))
        if self._k is not None:
            end = min(end, self._k)
        inside = 0
        if hits:
            nn = hits[0][0]
            # ``d < radius``; for ``nn = 0`` that is ``d == 0``.
            radius = self.params.p * nn if nn > 0.0 else _ABOVE_ZERO
            inside = bisect_left(hits, (radius,))
        rid = record.rid
        self._drop_refs(rid)
        self._neighbors[rid] = list(starmap(Neighbor, hits[:end]))
        self._true_nn[rid] = Neighbor(*hits[0]) if hits else None
        self._nbhd[rid] = hits[:inside]
        self._ng[rid] = inside + 1
        refs = self._refs
        for d, orid in hits[: max(end, inside)]:
            refs[orid][rid] = d
        return rids, row

    def _drop_refs(self, rid: int) -> None:
        """Take ``rid`` out of the referrers of every record its entry
        holds (the exact NN is a neighborhood member)."""
        refs = self._refs
        for nb in self._neighbors.get(rid, ()):
            held = refs.get(nb.rid)
            if held is not None:
                held.pop(rid, None)
        for _, orid in self._nbhd.get(rid, ()):
            held = refs.get(orid)
            if held is not None:
                held.pop(rid, None)

    def _rebuild_entry(self, record: Record) -> None:
        """Recompute one record's entry by scan (removal repair path)."""
        rid = record.rid
        old_list, old_ng = self._neighbors[rid], self._ng[rid]
        self._scan(record)
        if self._neighbors[rid] != old_list:
            self._mark_dirty(rid)
        # Not ``elif``: rows rebuilt with the same flags touch no one.
        if self._ng[rid] != old_ng:
            self._mark_ng(rid, old_ng)

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
        records to a fresh live-row index, when the distance offers
        one."""
        self.distance.prepare(relation)
        self._prepared = True
        self._live = self.distance.live_rows()
        if self._live is not None:
            for record in self.relation:
                self._live.add(record)

    def _refit(self) -> None:
        """Prepare the distance on the live relation, rebuild all state."""
        self._prepare(self.relation)
        self._ops_since_refit = 0
        self.refits += 1
        self._op_rows.clear()  # stale under the new corpus statistics
        self._neighbors.clear()
        self._true_nn.clear()
        self._nbhd.clear()
        self._ng.clear()
        self._refs = {rid: {} for rid in self.relation.ids()}
        for record in self.relation:
            self._scan(record)
        # Every pair is potentially stale under the new statistics.
        self._pairs.clear()
        self._pair_keys.clear()
        self._components.clear()
        self._component_of.clear()
        self._touched.clear()
        self._dirty = set(self._neighbors)
        self._op_marked.update(self._neighbors)
        self._partition_cache = None

    # ------------------------------------------------------------------
    # Incremental Phase 2
    # ------------------------------------------------------------------

    def _mark_dirty(self, rid: int) -> None:
        self._dirty.add(rid)
        self._op_marked.add(rid)
        self._partition_cache = None

    def _mark_ng(self, rid: int, old: int) -> None:
        """Note that ``rid``'s NG moved from ``old``; touch it (and so
        re-extract its component) only when its verdict class moved."""
        self._op_marked.add(rid)
        if self._ng_class(old) != self._ng_class(self._ng[rid]):
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
        self._drop_refs(rid)
        self._refs.pop(rid, None)
        self._neighbors.pop(rid, None)
        self._true_nn.pop(rid, None)
        self._nbhd.pop(rid, None)
        self._ng.pop(rid, None)
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

    def _row_of(self, key: tuple[int, int]) -> CSPair:
        """The CSPairs row under ``key``: its flags and the live NGs."""
        return CSPair(*key, self._ng[key[0]], self._ng[key[1]], self._pairs[key])

    def _repair_components(self) -> int:
        """Re-extract the mutual-NN components that hold a touched
        record; returns how many.

        Every other component's flags and NG classes are unchanged, and
        extraction is a pure function of them, so its groups are reused.
        A component all of whose records are untouched is also a
        component of the old graph, so the walks from the touched
        records reach every record of every invalidated component.
        """
        touched = self._touched
        components, component_of = self._components, self._component_of
        for rid in touched:
            key = component_of.get(rid)
            if key is not None and key in components:
                for member in components.pop(key)[0]:
                    del component_of[member]
        pair_keys, row_of = self._pair_keys, self._row_of
        repaired = 0
        for rid in touched:
            if rid in component_of or not pair_keys.get(rid):
                continue
            members = {rid}
            keys: set[tuple[int, int]] = set()
            stack = [rid]
            while stack:
                at = stack.pop()
                for key in pair_keys[at]:
                    if key in keys:
                        continue
                    keys.add(key)
                    other = key[0] if key[1] == at else key[1]
                    if other not in members:
                        members.add(other)
                        stack.append(other)
            rows = [row_of(key) for key in sorted(keys)]
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
                    ng=self._ng[rid],
                )
            )
        return nn

    def cs_pairs(self) -> list[CSPair]:
        """The maintained CSPairs relation, sorted by ``(id1, id2)``."""
        self._refresh_pairs()
        return [self._row_of(key) for key in sorted(self._pairs)]

    def partition(self) -> Partition:
        """The DE solution over the live relation.

        Incremental: CSPairs rows are patched for dirty entries only,
        and group extraction re-runs only for the mutual-NN components
        holding a record whose rows or NG class changed; every other
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
        self._op_rows = {}
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
