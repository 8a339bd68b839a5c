import json
import random

import pytest

from replica_harmony.errors import CapacityExceeded, ConfigError, InvalidAllocation
from replica_harmony.model import (
    AllocationVector,
    CapacityLedger,
    DataItem,
    Gateway,
    LinkMatrix,
    MiniCloud,
    Policy,
    Topology,
    commit_placement,
    dataclass_from_json_text,
    topology_to_json,
)
from replica_harmony.scenario import builtin_scenario, generate_topology

from conftest import committed, make_topology
from reference import validate_topology


def test_link_matrix_coerces_rows_to_tuples():
    links = LinkMatrix(gw_to_cloud=[[1, 2]], cloud_to_cloud=[[0, 3], [3, 0]])
    assert links.gw_to_cloud == ((1.0, 2.0),)
    assert links.cloud_to_cloud[1] == (3.0, 0.0)


def test_allocation_vector_rejects_duplicates_and_empty():
    with pytest.raises(InvalidAllocation):
        AllocationVector((1, 2, 1))
    with pytest.raises(InvalidAllocation):
        AllocationVector(())
    # a negative id names no cloud of any topology
    with pytest.raises(InvalidAllocation, match="cloud id -1 is negative"):
        AllocationVector((0, -1))
    # an id that is not an int is named, never truncated or parsed
    for clouds, bad in (((0, 1.7), "1.7"), (("1", "2"), "'1'"), ((0, True), "True")):
        with pytest.raises(InvalidAllocation, match=f"cloud id {bad} is not an int"):
            AllocationVector(clouds)
    vec = AllocationVector((3, 0, 2))
    assert len(vec) == 3
    assert list(vec) == [3, 0, 2]


def test_policy_validation():
    Policy(1, 1)
    with pytest.raises(ValueError):
        Policy(0, 2)
    with pytest.raises(ValueError):
        Policy(3, 2)


def test_validate_topology_accepts_generated(example_topology):
    assert validate_topology(example_topology) == []
    rng = random.Random(5)
    assert validate_topology(make_topology(rng, 4, 6)) == []


def test_validate_topology_flags_violations():
    gateways = (Gateway(0, -1.0, 0.1),)
    clouds = (
        MiniCloud(0, 1.0, 1.0, 0.1, total_capacity=0.0),
        MiniCloud(2, 1.0, 1.0, 0.1, total_capacity=10.0, used_capacity=20.0),
    )
    links = LinkMatrix(gw_to_cloud=[[1000.0, 0.0]], cloud_to_cloud=[[0.0, 5.0], [5.0, 0.0]])
    problems = validate_topology(Topology(gateways, clouds, links))
    text = "\n".join(problems)
    assert "negative read delay at gateway g0" in text
    assert "non-positive total capacity at cloud c0" in text
    assert "cloud at position 1 has id 2" in text
    assert "used capacity" in text
    assert "non-positive rate at (g0,c1)" in text


def test_validate_topology_flags_shape_mismatch(example_topology):
    bad = example_topology._replace(
        links=LinkMatrix(gw_to_cloud=[[1000.0]], cloud_to_cloud=[[0.0]]),
    )
    problems = validate_topology(bad)
    assert any("gw_to_cloud" in p for p in problems)
    assert any("cloud_to_cloud" in p for p in problems)


def test_commit_placement_is_functional(example_topology):
    datum = DataItem(0, 100.0, 0, 2)
    updated = committed(example_topology, datum, AllocationVector((0, 1)))
    assert updated.clouds[0].used_capacity == 100.0
    assert updated.clouds[1].used_capacity == 100.0
    # the input topology is untouched
    assert example_topology.clouds[0].used_capacity == 0.0


def test_commit_placement_all_or_nothing(example_topology):
    tight = example_topology._replace(
        clouds=(
            example_topology.clouds[0],
            example_topology.clouds[1]._replace(total_capacity=50.0),
        ),
    )
    ledger = CapacityLedger(tight)
    commit_placement(ledger, DataItem(0, 30.0, 0, 2), AllocationVector((0, 1)))
    datum = DataItem(1, 100.0, 0, 2)
    with pytest.raises(CapacityExceeded) as err:
        commit_placement(ledger, datum, AllocationVector((0, 1)))
    assert err.value.cloud_id == 1
    # cloud 0 had room, and the failed commit reserved nothing on it either
    assert ledger.used == [30.0, 30.0]
    assert tight.clouds[0].used_capacity == 0.0


def test_commit_placement_rejects_out_of_range(example_topology):
    with pytest.raises(InvalidAllocation):
        committed(example_topology, DataItem(0, 10.0, 0, 1), AllocationVector((7,)))


@pytest.mark.parametrize("clouds", [(1, 1), ()], ids=["duplicate", "empty"])
def test_commit_placement_validates_unchecked_vectors(example_topology, clouds):
    vector = AllocationVector.unchecked(clouds)
    with pytest.raises(InvalidAllocation):
        committed(example_topology, DataItem(0, 10.0, 0, 2), vector)


def test_topology_json_round_trip_is_lossless():
    rng = random.Random(11)
    topology = make_topology(rng, 3, 5)
    topology = committed(topology, DataItem(0, 77.0, 0, 2), AllocationVector((1, 4)))
    parsed = dataclass_from_json_text(Topology, topology_to_json(topology))
    assert validate_topology(parsed) == []
    assert parsed == topology  # float-exact: dataclass equality compares every field
    assert parsed.clouds[1].used_capacity == 77.0


def test_topology_json_used_capacity_defaults_to_zero(example_topology):
    text = topology_to_json(example_topology)
    stripped = text.replace('"used_capacity_bytes": 0.0,', "")
    parsed = dataclass_from_json_text(Topology, stripped)
    assert validate_topology(parsed) == []
    assert parsed.clouds[0].used_capacity == 0.0


def test_topology_json_bytes_are_stable(example_topology):
    assert topology_to_json(example_topology) == topology_to_json(example_topology)
    assert topology_to_json(example_topology).endswith("\n")


def test_topology_json_rejects_invalid_documents():
    topology = generate_topology(builtin_scenario(1), random.Random(0))
    doc = json.loads(topology_to_json(topology))
    doc["clouds"][0]["total_capacity_bytes"] = -5
    doc["clouds"][1]["id"] = 7
    doc["links"]["gw_to_cloud"][0][2] = 0
    text = "; ".join(validate_topology(dataclass_from_json_text(Topology, json.dumps(doc))))
    assert "non-positive total capacity at cloud c0" in text
    assert "cloud at position 1 has id 7" in text
    assert "non-positive rate at (g0,c2)" in text


def _set(path, value):
    def edit(doc):
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        return doc
    return edit


def _rename_used_capacity(doc):
    cloud = doc["clouds"][0]
    cloud["used_capacity_byte"] = cloud.pop("used_capacity_bytes")
    return doc


def _drop_waiting_time(doc):
    del doc["gateways"][2]["waiting_time_s"]
    return doc


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(["clouds", 1, "id"], 1.7), "clouds[1].id must be an integer"),
        (_set(["gateways", 0, "waiting_time_s"], "0.5"), "gateways[0].waiting_time_s must be a finite number"),
        (_set(["clouds", 0, "total_capacity_bytes"], True), "clouds[0].total_capacity_bytes must be a finite number"),
        (_rename_used_capacity, "unknown key clouds[0].used_capacity_byte;"),
        (_drop_waiting_time, "missing required key gateways[2].waiting_time_s"),
        (_set(["clouds", 3, "waiting_time_s"], float("nan")), "clouds[3].waiting_time_s must be a finite number"),
        (_set(["links", "gw_to_cloud"], 5), "links.gw_to_cloud must be a list"),
        (lambda doc: [doc], "document must be a JSON object"),
    ],
    ids=["fractional-id", "string-number", "bool-capacity", "typo-used-capacity", "no-waiting-time",
         "nan-wait", "scalar-links", "list-document"],
)
def test_malformed_topology_is_a_config_error(edit, message):
    doc = json.loads(topology_to_json(generate_topology(builtin_scenario(1), random.Random(0))))
    with pytest.raises(ConfigError) as err:
        dataclass_from_json_text(Topology, json.dumps(edit(doc)))
    assert message in str(err.value)
