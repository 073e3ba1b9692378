"""Dataset loading: the registry benchmarks and examples pull from.

:func:`load_dataset` is the one-stop entry: pick one of the paper's six
evaluation domains, a size, and a duplicate fraction, and receive a
deterministic dirty relation with its gold standard.  CSV import/export
is provided for users bringing their own data.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from repro.data.duplicates import DirtyDataset, GoldStandard, inject_duplicates
from repro.data.generators import GENERATORS
from repro.data.schema import Record, Relation

__all__ = [
    "dataset_names",
    "load_dataset",
    "relation_from_csv",
    "relation_to_csv",
]

#: Hard caps where a generator's vocabulary is finite.
_MAX_ENTITIES = {"parks": 280}

#: Dataset-specific injection behavior.  Claims resubmissions keep
#: their blocking keys verbatim and move only forward in time, so the
#: workload's hard constraints (patient/provider block keys, 30-day
#: service window) are consistent with the gold standard.
_INJECTION_PROFILES: dict[str, dict] = {
    "claims": {
        "protected_fields": ("patient_id", "provider"),
        "date_jitter": {"service_date": 30},
    },
}


def dataset_names() -> list[str]:
    """Names of the available synthetic evaluation datasets."""
    return sorted(GENERATORS)


def load_dataset(
    name: str,
    n_entities: int = 300,
    duplicate_fraction: float = 0.3,
    errors_per_copy: int = 2,
    max_copies: int = 3,
    seed: int = 0,
) -> DirtyDataset:
    """Generate one of the six evaluation datasets.

    Parameters mirror :func:`repro.data.duplicates.inject_duplicates`;
    ``n_entities`` counts unique entities before duplicate injection.
    """
    try:
        generator = GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; available: {dataset_names()}"
        ) from None
    cap = _MAX_ENTITIES.get(name)
    if cap is not None and n_entities > cap:
        raise ValueError(
            f"dataset {name!r} supports at most {cap} entities "
            f"(finite vocabulary); requested {n_entities}"
        )
    clean = generator.generate(n_entities, seed=seed)
    return inject_duplicates(
        name=name,
        schema=generator.schema,
        clean_rows=clean,
        duplicate_fraction=duplicate_fraction,
        errors_per_copy=errors_per_copy,
        max_copies=max_copies,
        seed=seed,
        **_INJECTION_PROFILES.get(name, {}),
    )


def relation_from_csv(
    path: str | Path,
    name: str | None = None,
    schema: Sequence[str] | None = None,
) -> Relation:
    """Load a relation from a CSV file.

    With ``schema=None`` the first row is treated as the header.
    Record ids are assigned sequentially.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        # Each row with the file line it ends on.
        rows = [(row, reader.line_num) for row in reader]
    if not rows:
        raise ValueError(f"{path} is empty")
    if schema is None:
        header, rows = rows[0][0], rows[1:]
    else:
        header = list(schema)
    relation = Relation(name=name or path.stem, schema=tuple(header))
    for rid, (row, line) in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: line {line} has {len(row)} fields, "
                f"expected {len(header)}"
            )
        relation.add(Record(rid, tuple(row)))
    return relation


def relation_to_csv(relation: Relation, path: str | Path) -> None:
    """Write a relation to CSV (header row included)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(relation.schema)
        for record in relation:
            writer.writerow(record.fields)


def gold_from_csv(path: str | Path) -> GoldStandard:
    """Load a gold standard from a two-column ``rid,entity`` CSV."""
    path = Path(path)
    gold = GoldStandard()
    with path.open(newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            if not row or row[0] == "rid":
                continue
            gold.add(int(row[0]), int(row[1]))
    return gold
