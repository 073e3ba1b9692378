"""JSON serialization of DE results.

Deduplication runs feed downstream pipelines (merge tooling, manual
review queues); these helpers persist what they need — the partition,
the NN evidence, and the parameters that produced them — as plain JSON.

>>> save_result(result, "run.json")
>>> partition, nn_relation, params = load_result("run.json")
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.formulation import CombinedCut, DEParams, DiameterCut, SizeCut
from repro.core.neighborhood import NNEntry, NNRelation
from repro.core.pipeline import DEResult
from repro.core.result import Partition
from repro.index.base import Neighbor

__all__ = [
    "partition_to_dict",
    "partition_from_dict",
    "params_to_dict",
    "params_from_dict",
    "nn_relation_to_dict",
    "nn_relation_from_dict",
    "save_result",
    "load_result",
]


def partition_to_dict(partition: Partition) -> dict[str, Any]:
    return {"groups": [list(group) for group in partition.groups]}


def partition_from_dict(payload: dict[str, Any]) -> Partition:
    return Partition.from_groups(payload["groups"])


def params_to_dict(params: DEParams) -> dict[str, Any]:
    cut: dict[str, Any]
    if isinstance(params.cut, SizeCut):
        cut = {"type": "size", "k": params.cut.k}
    elif isinstance(params.cut, CombinedCut):
        cut = {"type": "combined", "k": params.cut.k, "theta": params.cut.theta}
    else:
        cut = {"type": "diameter", "theta": params.cut.theta}
    return {"cut": cut, "agg": params.agg, "c": params.c, "p": params.p}


def params_from_dict(payload: dict[str, Any]) -> DEParams:
    cut_payload = payload["cut"]
    if cut_payload["type"] == "size":
        cut: SizeCut | DiameterCut | CombinedCut = SizeCut(cut_payload["k"])
    elif cut_payload["type"] == "diameter":
        cut = DiameterCut(cut_payload["theta"])
    elif cut_payload["type"] == "combined":
        cut = CombinedCut(cut_payload["k"], cut_payload["theta"])
    else:
        raise ValueError(f"unknown cut type {cut_payload['type']!r}")
    return DEParams(
        cut=cut, agg=payload["agg"], c=payload["c"], p=payload["p"]
    )


def nn_relation_to_dict(nn_relation: NNRelation) -> dict[str, Any]:
    return {
        "entries": [
            {
                "rid": entry.rid,
                "ng": entry.ng,
                "neighbors": [[n.rid, n.distance] for n in entry.neighbors],
            }
            for entry in nn_relation
        ]
    }


def nn_relation_from_dict(payload: dict[str, Any]) -> NNRelation:
    nn_relation = NNRelation()
    for entry in payload["entries"]:
        nn_relation.add(
            NNEntry(
                rid=entry["rid"],
                neighbors=tuple(
                    Neighbor(distance, rid) for rid, distance in entry["neighbors"]
                ),
                ng=entry["ng"],
            )
        )
    return nn_relation


def save_result(result: DEResult, path: str | Path) -> None:
    """Write a DE result (partition, NN relation, parameters) as JSON."""
    payload = {
        "format": "repro-de-result",
        "version": 1,
        "params": params_to_dict(result.params),
        "partition": partition_to_dict(result.partition),
        "nn_relation": nn_relation_to_dict(result.nn_relation),
        # The unified telemetry: per-stage wall times, Phase-1 and
        # Phase-2 counters, distance-cache traffic, buffer stats on
        # engine runs.
        "stats": result.stats.to_dict(),
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_result(path: str | Path) -> tuple[Partition, NNRelation, DEParams]:
    """Read back a saved DE result's partition, NN relation, and params."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != "repro-de-result":
        raise ValueError(f"{path} is not a saved DE result")
    return (
        partition_from_dict(payload["partition"]),
        nn_relation_from_dict(payload["nn_relation"]),
        params_from_dict(payload["params"]),
    )
