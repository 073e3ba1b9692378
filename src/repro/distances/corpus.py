"""One corpus per run: each record tokenized, interned and weighed once.

The paper's IDF-weighted distances (cosine, fms) weigh tokens by
inverse document frequency over the relation, so that rare tokens
("microsoft") dominate common fillers ("corporation"), and the Phase-1
MinHash index signs the same token sets.  :class:`Corpus` does that
work once per ``prepare``: it keeps each record's element list (word
tokens by default), a vocabulary sorted by token string (ascending id
is ascending token), a CSR of each row's distinct token ids with their
counts, ``df`` from one count over the CSR, and one IDF weight
``log(1 + N / df)`` per distinct token; an unknown token counts as
``df = 1``.

The scalar distance paths, the columnar kernels
(:class:`~repro.distances.kernels.columnar.ColumnarVectors`) and the
MinHash signer (:class:`~repro.index.signatures.SignatureFactory`) all
read it.  A record outside the corpus is vectorized under the frozen
statistics: once, when the incremental layer registers it on arrival
(:meth:`Corpus.register`; cached until :meth:`Corpus.remove`), or on
the fly, uncached, for an ad-hoc record.  Tf-idf is ``count * idf``
and a norm sums squared weights sequentially in ascending token order
on both the scalar path and the arrays, so the two are bit-identical.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable

import numpy as np

from repro.data.schema import Record
from repro.distances.base import DistanceFunction
from repro.distances.tokens import tokenize

__all__ = ["Corpus", "CorpusDistance"]


def _norm(weights: list[float]) -> float:
    """Euclidean norm accumulated in the canonical (token) order."""
    total = 0.0
    for w in weights:
        total += w * w
    return math.sqrt(total)


class Corpus:
    """Interned token rows and IDF statistics of a set of records.

    ``elements`` maps a record's text to its element list; it defaults
    to :func:`~repro.distances.tokens.tokenize` (a q-gram signer passes
    its q-gram function).
    """

    def __init__(
        self,
        records: Iterable[Record],
        elements: Callable[[str], list[str]] | None = None,
    ) -> None:
        self.elements = elements if elements is not None else tokenize
        self.rids: list[int] = []
        self.token_lists: list[list[str]] = []
        for record in records:
            self.rids.append(record.rid)
            self.token_lists.append(self.elements(record.text()))
        self.row_of = {rid: row for row, rid in enumerate(self.rids)}
        self.vocab = sorted({t for tokens in self.token_lists for t in tokens})
        self.token_id = {t: i for i, t in enumerate(self.vocab)}

        get = self.token_id.__getitem__
        indptr = [0]
        indices: list[int] = []
        counts: list[int] = []
        for tokens in self.token_lists:
            count = Counter(map(get, tokens))
            ids = sorted(count)
            indices.extend(ids)
            counts.extend(map(count.__getitem__, ids))
            indptr.append(len(indices))
        self.indptr, self.indices, self.counts = indptr, indices, counts

        df = [0] * len(self.vocab)
        for i in indices:
            df[i] += 1
        n = max(1, len(self.rids))
        self.df = df
        self.idf = [math.log(1.0 + n / d) for d in df]
        self._unknown_idf = math.log(1.0 + n / 1)
        #: rid -> (tokens ascending, tf-idf weights, norm), filled by
        #: the scalar path on first use of an in-corpus record.
        self._vectors: dict[int, tuple[list[str], list[float], float]] = {}
        #: rid -> (fields, element list, vector) of each registered
        #: record.  The fields are checked on every read, so a record
        #: that merely shares a registered rid is never answered from it.
        self._live: dict[int, tuple[tuple[str, ...], list[str], tuple]] = {}
        self._arrays = None

    def __len__(self) -> int:
        return len(self.rids)

    def covers(self, rids: Iterable[int]) -> bool:
        """Whether every rid of ``rids`` is a corpus row."""
        row_of = self.row_of
        return all(rid in row_of for rid in rids)

    def weight(self, token: str) -> float:
        """The IDF weight of ``token`` (``df = 1`` when unknown)."""
        i = self.token_id.get(token)
        return self._unknown_idf if i is None else self.idf[i]

    def register(self, record: Record) -> None:
        """Tokenize and vectorize a live record once, under the frozen
        statistics, and serve both from a cache until :meth:`remove`.

        The incremental layer registers every record it inserts between
        refits; a refit builds a new corpus and so drops them all.
        """
        tokens = self.elements(record.text())
        self._live[record.rid] = (record.fields, tokens, self._vectorize(tokens))

    def remove(self, rid: int) -> None:
        """Forget the cached element list and vector of ``rid``."""
        self._live.pop(rid, None)
        self._vectors.pop(rid, None)

    def _registered(self, record: Record):
        live = self._live.get(record.rid)
        if live is not None and (
            live[0] is record.fields or live[0] == record.fields
        ):
            return live
        return None

    def _vectorize(self, elements: list[str]):
        count = Counter(elements)
        tokens = sorted(count)
        weights = [count[t] * self.weight(t) for t in tokens]
        return tokens, weights, _norm(weights)

    def tokens(self, record: Record) -> list[str]:
        """The element list of ``record``, in text order."""
        live = self._registered(record)
        if live is not None:
            return live[1]
        row = self.row_of.get(record.rid)
        if row is None:
            return self.elements(record.text())
        return self.token_lists[row]

    def vector(self, record: Record) -> tuple[list[str], list[float], float]:
        """``record``'s distinct tokens (ascending), their tf-idf
        weights and the vector's norm."""
        live = self._registered(record)
        if live is not None:
            return live[2]
        vector = self._vectors.get(record.rid)
        if vector is not None:
            return vector
        row = self.row_of.get(record.rid)
        if row is None:
            return self._vectorize(self.elements(record.text()))
        lo, hi = self.indptr[row], self.indptr[row + 1]
        ids = self.indices[lo:hi]
        idf = self.idf
        weights = [c * idf[i] for i, c in zip(ids, self.counts[lo:hi])]
        vector = ([self.vocab[i] for i in ids], weights, _norm(weights))
        self._vectors[record.rid] = vector
        return vector

    def arrays(self):
        """``(indptr, indices, tfidf, norms)`` as numpy arrays, built once.

        ``tfidf`` aligns with ``indices``; ``norms`` accumulate the
        squared weights with a sequential ``bincount``, in ascending
        token order like :meth:`vector`.
        """
        if self._arrays is None:
            indptr = np.asarray(self.indptr, dtype=np.int64)
            indices = np.asarray(self.indices, dtype=np.int64)
            tfidf = np.asarray(self.counts, dtype=np.float64) * np.asarray(
                self.idf, dtype=np.float64
            )[indices]
            owner = np.repeat(
                np.arange(len(self.rids), dtype=np.int64), np.diff(indptr)
            )
            norms = np.sqrt(
                np.bincount(owner, weights=tfidf * tfidf, minlength=len(self.rids))
            )
            self._arrays = (indptr, indices, tfidf, norms)
        return self._arrays

    def gather(self, rows):
        """The CSR of corpus rows ``rows`` (an int64 array), in that
        order: its ``indptr`` and each entry's position in the
        :meth:`arrays` ``indices`` / ``tfidf``."""
        indptr = self.arrays()[0]
        starts = indptr[rows]
        sizes = indptr[rows + 1] - starts
        bounds = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        flat = np.arange(int(bounds[-1]), dtype=np.int64) + np.repeat(
            starts - bounds[:-1], sizes
        )
        return bounds, flat


class CorpusDistance(DistanceFunction):
    """A distance over records' tokens, read from one :class:`Corpus`.

    ``prepare(relation)`` builds the corpus.  Distances that weigh
    tokens by IDF (``uses_idf``) refuse to run unprepared; the others
    then tokenize every record on the fly.
    """

    uses_idf = True
    corpus: Corpus | None = None

    def prepare(self, relation) -> None:
        self.corpus = Corpus(relation)

    def _corpus(self) -> Corpus:
        corpus = self.corpus
        if corpus is None:
            if self.uses_idf:
                raise RuntimeError(
                    f"{type(self).__name__}.prepare(relation) has not been called"
                )
            return _EMPTY
        return corpus


_EMPTY = Corpus(())
