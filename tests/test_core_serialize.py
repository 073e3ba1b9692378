"""Tests for DE result serialization."""

import json

import pytest

from repro.core.formulation import DEParams
from repro.core.pipeline import DuplicateEliminator
from repro.core.serialize import (
    load_result,
    nn_relation_from_dict,
    nn_relation_to_dict,
    params_from_dict,
    params_to_dict,
    partition_from_dict,
    partition_to_dict,
    save_result,
)
from repro.core.result import Partition

from tests.helpers import absdiff_distance, numbers_relation


@pytest.fixture
def result():
    relation = numbers_relation([0, 1, 100, 101, 500])
    return DuplicateEliminator(absdiff_distance()).run(
        relation, DEParams.size(3, c=4.0)
    )


class TestRoundTrips:
    def test_partition(self):
        partition = Partition.from_groups([[0, 1], [2]])
        assert partition_from_dict(partition_to_dict(partition)) == partition

    def test_params_size(self):
        params = DEParams.size(4, agg="avg", c=6.0, p=2.5)
        assert params_from_dict(params_to_dict(params)) == params

    def test_params_diameter(self):
        params = DEParams.diameter(0.25, agg="max2", c=3.0)
        assert params_from_dict(params_to_dict(params)) == params

    def test_params_unknown_cut_rejected(self):
        with pytest.raises(ValueError, match="unknown cut"):
            params_from_dict(
                {"cut": {"type": "volume"}, "agg": "max", "c": 4.0, "p": 2.0}
            )

    def test_nn_relation(self, result):
        payload = nn_relation_to_dict(result.nn_relation)
        restored = nn_relation_from_dict(payload)
        assert restored.ids() == result.nn_relation.ids()
        for entry in result.nn_relation:
            other = restored.get(entry.rid)
            assert other.neighbors == entry.neighbors
            assert other.ng == entry.ng


class TestFileRoundTrip:
    def test_save_and_load(self, result, tmp_path):
        path = tmp_path / "run.json"
        save_result(result, path)
        partition, nn_relation, params = load_result(path)
        assert partition == result.partition
        assert params == result.params
        assert nn_relation.ng_values() == result.nn_relation.ng_values()

    def test_file_is_valid_json_with_stats(self, result, tmp_path):
        path = tmp_path / "run.json"
        save_result(result, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-de-result"
        assert payload["stats"]["phase1"]["lookups"] == 5

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="not a saved DE result"):
            load_result(path)

    def test_phase2_rerun_from_loaded_nn(self, result, tmp_path):
        """A loaded NN relation supports Phase-2-only re-solving."""
        path = tmp_path / "run.json"
        save_result(result, path)
        _, nn_relation, params = load_result(path)
        relation = numbers_relation([0, 1, 100, 101, 500])
        solver = DuplicateEliminator(absdiff_distance())
        again = solver.run_from_nn(relation, nn_relation, params)
        assert again.partition == result.partition
