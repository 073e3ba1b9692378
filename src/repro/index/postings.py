"""Persistent, incrementally-updatable MinHash/LSH postings.

The batch :class:`~repro.index.minhash.MinHashIndex` signs the whole
relation in ``_build`` — fine for one run, wasteful for an online
session that restarts.  This module keeps the same signature scheme
(:func:`~repro.index.minhash.minhash_signature` is stable across
processes) but makes the postings *live in the storage engine*: every
``add`` / ``remove`` appends rows to two heap-table logs,

- ``<prefix>Signatures(rid, signature, op)``
- ``<prefix>Postings(band, key, rid, op)``

with ``op = +1`` for inserts and ``-1`` tombstones for removals.  A
warm restart replays the logs through the buffer pool and recovers the
exact in-memory buckets **without re-hashing a single token** —
:attr:`signatures_computed` stays 0 and :attr:`restored` reports the
path taken.  :meth:`compact` rewrites both tables net of tombstones;
:meth:`save` / :meth:`load` snapshot the compacted state to JSON so a
session can warm-start across processes (the engine's disk manager is
process-local).

The index is a *candidate generator*: :meth:`candidates` returns the
rids sharing at least one LSH band with the probe.  The incremental
deduplicator accepts it via ``candidates=`` and verifies surfaced
candidates with the true distance — the standard approximate trade
described in ``docs/performance.md``.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

from collections.abc import Sequence

from repro.data.schema import Record
from repro.distances.corpus import Corpus
from repro.distances.tokens import qgrams, tokenize
from repro.index.minhash import band_keys, minhash_signature
from repro.index.signatures import SignatureFactory
from repro.storage.engine import Engine

__all__ = ["PersistentMinHashPostings"]

#: Schema of the signature log table.
SIGNATURES_SCHEMA = ("rid", "signature", "op")
#: Schema of the postings log table.
POSTINGS_SCHEMA = ("band", "key", "rid", "op")


class PersistentMinHashPostings:
    """Engine-backed MinHash postings with tombstoned removals.

    Parameters
    ----------
    engine:
        The storage engine owning the log tables.  If the tables
        already exist in its catalog, the index restores from them
        (warm restart) instead of starting empty.
    n_hashes, n_bands, use_qgrams, q:
        The signature scheme, matching
        :class:`~repro.index.minhash.MinHashIndex`.
    prefix:
        Table-name prefix, so several indexes can share one engine.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        n_hashes: int = 64,
        n_bands: int = 16,
        use_qgrams: bool = False,
        q: int = 3,
        prefix: str = "MinHash",
    ):
        if n_hashes % n_bands != 0:
            raise ValueError("n_hashes must be divisible by n_bands")
        self.engine = engine
        self.n_hashes = n_hashes
        self.n_bands = n_bands
        self.use_qgrams = use_qgrams
        self.q = q
        self.signatures_table = f"{prefix}Signatures"
        self.postings_table = f"{prefix}Postings"
        self._signatures: dict[int, tuple[int, ...]] = {}
        self._buckets: dict[tuple[int, tuple[int, ...]], set[int]] = {}
        #: Signatures hashed from tokens this session (0 after a warm
        #: restart — the whole point of the persistent log).
        self.signatures_computed = 0
        #: Log rows appended this session.
        self.log_rows_appended = 0
        #: Pending ``op = -1`` rows not yet compacted away.
        self.tombstones = 0
        #: Whether this instance recovered its state from existing logs.
        self.restored = False
        if (
            self.signatures_table in engine.catalog
            and self.postings_table in engine.catalog
        ):
            self._restore()
        else:
            engine.create_table(self.signatures_table, SIGNATURES_SCHEMA, replace=True)
            engine.create_table(self.postings_table, POSTINGS_SCHEMA, replace=True)

    # ------------------------------------------------------------------
    # Log replay / maintenance
    # ------------------------------------------------------------------

    def _restore(self) -> None:
        """Recover buckets and signatures by replaying the logs."""
        for rid, signature, op in self.engine.table(self.signatures_table).scan():
            if op > 0:
                self._signatures[rid] = tuple(signature)
            else:
                self._signatures.pop(rid, None)
                self.tombstones += 1
        for band, key, rid, op in self.engine.table(self.postings_table).scan():
            bucket = self._buckets.setdefault((band, tuple(key)), set())
            if op > 0:
                bucket.add(rid)
            else:
                bucket.discard(rid)
        self.restored = True

    def _elements(self, record: Record) -> set[str]:
        text = record.text()
        return set(qgrams(text, q=self.q) if self.use_qgrams else tokenize(text))

    def _keys_of(self, signature: tuple[int, ...]):
        return band_keys(signature, self.n_bands)

    def add(self, record: Record) -> None:
        """Sign ``record``, bucket it, and append to the logs."""
        rid = record.rid
        if rid in self._signatures:
            raise ValueError(f"record {rid} already indexed")
        signature = minhash_signature(self._elements(record), self.n_hashes)
        self.signatures_computed += 1
        self._signatures[rid] = signature
        self.engine.table(self.signatures_table).insert((rid, signature, 1))
        postings = self.engine.table(self.postings_table)
        for band, key in self._keys_of(signature):
            self._buckets.setdefault((band, key), set()).add(rid)
            postings.insert((band, key, rid, 1))
        self.log_rows_appended += 1 + self.n_bands

    def add_many(self, records: "Sequence[Record]") -> None:
        """Sign and index a batch of records via the columnar factory.

        Equivalent to calling :meth:`add` once per record, in order —
        same signatures (the factory is bit-identical to
        :func:`~repro.index.minhash.minhash_signature`), same log rows
        in the same order, same counter movement — but the hashing runs
        vocabulary-deduplicated and vectorized, so bulk loads and cold
        starts pay per *distinct* token, not per occurrence.
        """
        if not records:
            return
        rids = [record.rid for record in records]
        if len(set(rids)) != len(rids):
            raise ValueError("duplicate rids in batch")
        for rid in rids:
            if rid in self._signatures:
                raise ValueError(f"record {rid} already indexed")
        corpus = Corpus(
            records,
            elements=partial(qgrams, q=self.q) if self.use_qgrams else None,
        )
        signed = SignatureFactory(self.n_hashes).sign(corpus)
        self.signatures_computed += len(records)
        signatures = self.engine.table(self.signatures_table)
        postings = self.engine.table(self.postings_table)
        for rid, signature in zip(signed.rids, signed.tuples):
            self._signatures[rid] = signature
            signatures.insert((rid, signature, 1))
            for band, key in self._keys_of(signature):
                self._buckets.setdefault((band, key), set()).add(rid)
                postings.insert((band, key, rid, 1))
            self.log_rows_appended += 1 + self.n_bands

    def remove(self, rid: int) -> None:
        """Tombstone ``rid`` in both logs and drop it from the buckets.

        Raises :class:`KeyError` for an id that is not indexed.
        """
        signature = self._signatures.pop(rid)
        self.engine.table(self.signatures_table).insert((rid, signature, -1))
        postings = self.engine.table(self.postings_table)
        for band, key in self._keys_of(signature):
            bucket = self._buckets.get((band, key))
            if bucket is not None:
                bucket.discard(rid)
            postings.insert((band, key, rid, -1))
        self.log_rows_appended += 1 + self.n_bands
        self.tombstones += 1

    def candidates(self, record: Record) -> list[int]:
        """Rids sharing at least one LSH band with ``record``, sorted.

        An indexed probe reuses its logged signature; an out-of-index
        probe (the arrival being inserted is indexed first by the
        deduplicator, so this is rare) is signed on the fly.
        """
        signature = self._signatures.get(record.rid)
        if signature is None:
            signature = minhash_signature(self._elements(record), self.n_hashes)
            self.signatures_computed += 1
        seen: set[int] = set()
        for band, key in self._keys_of(signature):
            seen.update(self._buckets.get((band, key), ()))
        seen.discard(record.rid)
        return sorted(seen)

    def compact(self) -> int:
        """Rewrite both logs net of tombstones; returns rows dropped.

        Keeps a long-lived session's log scans (and the next restart's
        replay) proportional to the *live* record count instead of the
        full mutation history.
        """
        before = (
            self.engine.table(self.signatures_table).n_rows
            + self.engine.table(self.postings_table).n_rows
        )
        signatures = self.engine.create_table(
            self.signatures_table, SIGNATURES_SCHEMA, replace=True
        )
        postings = self.engine.create_table(
            self.postings_table, POSTINGS_SCHEMA, replace=True
        )
        after = 0
        for rid in sorted(self._signatures):
            signature = self._signatures[rid]
            signatures.insert((rid, signature, 1))
            for band, key in self._keys_of(signature):
                postings.insert((band, key, rid, 1))
            after += 1 + self.n_bands
        self.tombstones = 0
        return before - after

    # ------------------------------------------------------------------
    # Cross-process snapshots
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Snapshot the live (compacted) state to a JSON file."""
        path = Path(path)
        payload = {
            "meta": {
                "n_hashes": self.n_hashes,
                "n_bands": self.n_bands,
                "use_qgrams": self.use_qgrams,
                "q": self.q,
            },
            "signatures": [
                [rid, list(self._signatures[rid])]
                for rid in sorted(self._signatures)
            ],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    @classmethod
    def load(
        cls, path: str | Path, engine: Engine, *, prefix: str = "MinHash"
    ) -> "PersistentMinHashPostings":
        """Warm-start from a :meth:`save` snapshot into ``engine``.

        Recreates both log tables from the snapshot and replays them —
        no token is re-hashed (``signatures_computed == 0``).
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        meta = payload["meta"]
        index = cls(
            engine,
            n_hashes=meta["n_hashes"],
            n_bands=meta["n_bands"],
            use_qgrams=meta["use_qgrams"],
            q=meta["q"],
            prefix=prefix,
        )
        if index._signatures:
            raise ValueError(
                f"engine already holds postings tables with prefix {prefix!r}"
            )
        signatures = engine.table(index.signatures_table)
        postings = engine.table(index.postings_table)
        for rid, signature in payload["signatures"]:
            signature = tuple(signature)
            index._signatures[rid] = signature
            signatures.insert((rid, signature, 1))
            for band, key in index._keys_of(signature):
                index._buckets.setdefault((band, key), set()).add(rid)
                postings.insert((band, key, rid, 1))
        index.restored = True
        return index

    # ------------------------------------------------------------------

    def __contains__(self, rid: int) -> bool:
        return rid in self._signatures

    def __len__(self) -> int:
        return len(self._signatures)
