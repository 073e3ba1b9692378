"""A miniature relational engine.

The paper performs Phase 2 of duplicate elimination "using standard SQL
queries" against the database server: a *select into* over a self-join
of ``NN_Reln`` builds ``CSPairs``, and a *CS-group query* (``select *
from CSPairs order by ID``) feeds the partitioning step.  This module
provides exactly those operators over heap tables:

- :meth:`Engine.select_into` — filter + project into a new table;
- :meth:`Engine.hash_index` / :meth:`Engine.index_join` — an index
  nested-loop self-join (the CSPairs query only pairs a tuple with the
  members of its own NN-list, so an id hash index is the natural plan);
- :meth:`Engine.order_by` — materializing sort;
- :meth:`Engine.group_iter` — streaming group-by over a sorted table.

Every operator reads and writes rows through the shared buffer pool, so
Phase 2 contributes to buffer statistics like a real database workload.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.pages import DiskManager
from repro.storage.table import HeapTable, Row

__all__ = ["Engine", "HashIndex"]


class HashIndex:
    """An in-memory hash index over one column of a heap table.

    Built by one scan (:meth:`Engine.hash_index`) and probed one key
    at a time (:meth:`probe`, the classic index nested-loop plan).  The
    ``probes`` counter records how many keys were looked up, so join
    plans account their index traffic like a real executor.
    """

    def __init__(self, buckets: dict[Any, list[Row]]):
        self._buckets = buckets
        self.probes = 0

    def get(self, key: Any, default: Sequence[Row] = ()) -> Sequence[Row]:
        """Dict-compatible lookup (uncounted; used by generic joins)."""
        return self._buckets.get(key, default)

    def probe(self, key: Any) -> Sequence[Row]:
        """Look up one key, counting the probe."""
        self.probes += 1
        return self._buckets.get(key, ())

    def __getitem__(self, key: Any) -> list[Row]:
        return self._buckets[key]

    def __contains__(self, key: Any) -> bool:
        return key in self._buckets

    def __len__(self) -> int:
        return len(self._buckets)

    def keys(self):
        return self._buckets.keys()


class Engine:
    """Facade bundling a disk manager, buffer pool, and catalog.

    Parameters
    ----------
    buffer_pages:
        Buffer pool capacity, in pages.
    page_capacity:
        Items per page (see :mod:`repro.storage.pages`).
    """

    def __init__(self, buffer_pages: int = 256, page_capacity: int = 64):
        self.disk = DiskManager(page_capacity=page_capacity)
        self.buffer = BufferPool(self.disk, capacity=buffer_pages)
        self.catalog = Catalog(self.buffer)

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------

    def create_table(
        self, name: str, schema: Sequence[str], replace: bool = False
    ) -> HeapTable:
        return self.catalog.create_table(name, schema, replace=replace)

    def insert_rows(self, name: str, rows: Iterable[Row]) -> int:
        return self.catalog.table(name).insert_many(rows)

    def table(self, name: str) -> HeapTable:
        return self.catalog.table(name)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def select_into(
        self,
        dest: str,
        source: HeapTable,
        schema: Sequence[str] | None = None,
        predicate: Callable[[Row], bool] | None = None,
        project: Callable[[Row], Row] | None = None,
    ) -> HeapTable:
        """``SELECT project(*) INTO dest FROM source WHERE predicate``."""
        out = self.create_table(dest, schema or source.schema, replace=True)
        for row in source.scan():
            if predicate is not None and not predicate(row):
                continue
            out.insert(project(row) if project is not None else row)
        return out

    def hash_index(self, source: HeapTable, column: str) -> HashIndex:
        """Build an in-memory hash index on ``column`` (one scan)."""
        position = source.column_index(column)
        buckets: dict[Any, list[Row]] = {}
        for row in source.scan():
            buckets.setdefault(row[position], []).append(row)
        return HashIndex(buckets)

    def index_join(
        self,
        dest: str,
        schema: Sequence[str],
        outer: HeapTable,
        probe_keys: Callable[[Row], Iterable[Any]],
        index: "HashIndex | dict[Any, list[Row]]",
        on: Callable[[Row, Row], bool],
        project: Callable[[Row, Row], Row],
    ) -> HeapTable:
        """Index nested-loop join.

        For each outer row, ``probe_keys`` yields the join keys to look
        up in ``index`` (for CSPairs these are the ids in the outer
        tuple's NN-list); matching pairs passing ``on`` are projected
        into ``dest``.
        """
        out = self.create_table(dest, schema, replace=True)
        for left in outer.scan():
            for key in probe_keys(left):
                for right in index.get(key, ()):
                    if on(left, right):
                        out.insert(project(left, right))
        return out

    def order_by(
        self,
        dest: str,
        source: HeapTable,
        key: Callable[[Row], Any],
        external_run_rows: int | None = None,
    ) -> HeapTable:
        """Materialize ``source`` sorted by ``key`` into ``dest``.

        Small sources sort in memory (rows still stream in and out
        through the buffer).  With ``external_run_rows`` set — or
        automatically, whenever the source holds more pages than the
        buffer pool — a classic external merge sort runs instead:
        sorted runs of bounded size are spilled to scratch tables and
        k-way merged, the realistic plan for a CSPairs relation that
        outgrows memory.  Both plans are stable, so they produce
        identical output for any run size.
        """
        if external_run_rows is None and source.n_pages > self.buffer.capacity:
            # An in-memory sort of this table would hold more rows than
            # the pool can cache; bound each run to one pool's worth.
            external_run_rows = max(
                1, self.buffer.capacity * self.disk.page_capacity
            )
        if external_run_rows is not None:
            return self._external_sort(dest, source, key, external_run_rows)
        rows = sorted(source.scan(), key=key)
        out = self.create_table(dest, source.schema, replace=True)
        out.insert_many(rows)
        return out

    def _external_sort(
        self,
        dest: str,
        source: HeapTable,
        key: Callable[[Row], Any],
        run_rows: int,
    ) -> HeapTable:
        """External merge sort: bounded-size runs + k-way merge."""
        import heapq

        if run_rows < 1:
            raise ValueError("external_run_rows must be at least 1")

        # Pass 1: spill sorted runs.
        runs: list[HeapTable] = []
        batch: list[Row] = []

        def spill() -> None:
            run = self.create_table(
                f"{dest}__run{len(runs)}", source.schema, replace=True
            )
            run.insert_many(sorted(batch, key=key))
            runs.append(run)
            batch.clear()

        for row in source.scan():
            batch.append(row)
            if len(batch) >= run_rows:
                spill()
        if batch:
            spill()

        out = self.create_table(dest, source.schema, replace=True)

        # Pass 2: k-way merge through the buffer pool.  The heap holds
        # (key, run index, row); run index breaks key ties so rows never
        # compare directly, keeping the sort stable across runs.
        iterators = [run.scan() for run in runs]
        heap: list[tuple[Any, int, Row]] = []
        for index, iterator in enumerate(iterators):
            first = next(iterator, None)
            if first is not None:
                heapq.heappush(heap, (key(first), index, first))
        while heap:
            _, index, row = heapq.heappop(heap)
            out.insert(row)
            following = next(iterators[index], None)
            if following is not None:
                heapq.heappush(heap, (key(following), index, following))

        for run in runs:
            self.catalog.drop_table(run.name)
        return out

    @staticmethod
    def group_iter(
        source: HeapTable, key: Callable[[Row], Any]
    ) -> Iterator[tuple[Any, list[Row]]]:
        """Yield ``(key, rows)`` groups from a table sorted on ``key``."""
        current_key: Any = None
        group: list[Row] = []
        first = True
        for row in source.scan():
            row_key = key(row)
            if first:
                current_key = row_key
                first = False
            if row_key != current_key:
                yield current_key, group
                current_key = row_key
                group = []
            group.append(row)
        if not first:
            yield current_key, group

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def reset_stats(self) -> None:
        self.buffer.reset_stats()
        self.disk.reset_stats()
