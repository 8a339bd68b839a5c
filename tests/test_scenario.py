import hashlib
import json
import math
import random
import re
from functools import partial

import pytest

from replica_harmony.errors import ConfigError, Infeasible
from replica_harmony.model import (
    Gateway,
    LinkMatrix,
    MiniCloud,
    Policy,
    Topology,
    dataclass_from_json,
    dataclass_from_json_text,
    topology_to_json,
)
from replica_harmony.cost import EnergyParams
from replica_harmony.scenario import (
    BUILTIN_SIZES,
    ScenarioSpec,
    builtin_scenario,
    generate_topology,
    generate_workload,
    scenario_to_json,
)

from reference import validate_topology

read_scenario = partial(dataclass_from_json_text, ScenarioSpec)


def test_builtin_scenario_sizes():
    expected = {1: (22, 8), 2: (25, 10), 3: (32, 15), 4: (40, 25)}
    assert BUILTIN_SIZES == expected
    for k, (gateways, clouds) in expected.items():
        spec = builtin_scenario(k)
        assert spec.name == f"builtin:{k}"
        assert (spec.num_gateways, spec.num_clouds) == (gateways, clouds)
        assert spec.timesteps == 500
        assert spec.policy == Policy(2, 4)


def test_builtin_scenario_rejects_out_of_range():
    for k in (0, 5, -1):
        with pytest.raises(ConfigError, match="unknown builtin scenario"):
            builtin_scenario(k)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", num_gateways=0, num_clouds=1)
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", num_gateways=1, num_clouds=1, data_size_range_bytes=(5, 2))
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", num_gateways=1, num_clouds=1, arrival_probability=1.5)
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", num_gateways=1, num_clouds=1, timesteps=0)


def test_replace_checks_and_normalizes_like_the_constructor():
    # _replace builds through the constructor, as dataclasses.replace went
    # through __init__: a copy is checked, and its ranges are stored as tuples
    spec = builtin_scenario(1)
    with pytest.raises(ConfigError, match="timesteps must be >= 1"):
        spec._replace(timesteps=0)
    with pytest.raises(Infeasible):
        spec._replace(num_clouds=1)
    widened = spec._replace(capacity_range_bytes=[1.0, 2.0])
    assert type(widened.capacity_range_bytes) is tuple and widened.capacity_range_bytes == (1.0, 2.0)
    assert type(widened) is ScenarioSpec and widened._replace(capacity_range_bytes=(1.0, 2.0)) == widened
    assert ScenarioSpec._make(spec) == spec


def test_generate_topology_deterministic_and_valid():
    spec = builtin_scenario(1)
    first = generate_topology(spec, random.Random(42))
    second = generate_topology(spec, random.Random(42))
    assert first == second
    assert validate_topology(first) == []
    assert first.num_gateways == 22
    assert first.num_clouds == 8


def test_generate_topology_range_containment():
    spec = builtin_scenario(2)
    t = generate_topology(spec, random.Random(1))
    for g in t.gateways:
        assert 20 <= g.read_delay_ms <= 70
        assert 0.1 <= g.waiting_time_s <= 1.0
    for c in t.clouds:
        assert 20 <= c.write_delay_ms <= 70
        assert 20 <= c.read_delay_ms <= 70
        assert 50_000 <= c.total_capacity <= 200_000
        assert c.used_capacity == 0.0
    for row in t.links.gw_to_cloud:
        assert all(500 <= rate <= 5000 for rate in row)
    for a, row in enumerate(t.links.cloud_to_cloud):
        for b, rate in enumerate(row):
            if a == b:
                assert rate == 0.0
            else:
                assert 500 <= rate <= 5000


def test_generate_topology_degenerate_ranges():
    spec = ScenarioSpec(
        name="flat",
        num_gateways=2,
        num_clouds=3,
        rw_delay_range_ms_per_byte=(30.0, 30.0),
        waiting_time_range_s=(0.4, 0.4),
        gw_rate_range_bytes_per_s=(1000.0, 1000.0),
        cloud_rate_range_bytes_per_s=(2000.0, 2000.0),
        capacity_range_bytes=(70_000.0, 70_000.0),
    )
    t = generate_topology(spec, random.Random(0))
    assert all(g.read_delay_ms == 30.0 and g.waiting_time_s == 0.4 for g in t.gateways)
    assert all(c.total_capacity == 70_000.0 for c in t.clouds)
    assert all(rate == 1000.0 for row in t.links.gw_to_cloud for rate in row)


def uniform_topology(spec: ScenarioSpec, rng: random.Random) -> Topology:
    """generate_topology as written with rng.uniform for every draw: the
    reference the inlined link-rate draws must reproduce bit for bit."""
    delay, wait = spec.rw_delay_range_ms_per_byte, spec.waiting_time_range_s
    gateways = tuple(
        Gateway(g, rng.uniform(*delay), rng.uniform(*wait)) for g in range(spec.num_gateways)
    )
    clouds = tuple(
        MiniCloud(c, rng.uniform(*delay), rng.uniform(*delay), rng.uniform(*wait),
                  rng.uniform(*spec.capacity_range_bytes))
        for c in range(spec.num_clouds)
    )
    gw_to_cloud = [
        [rng.uniform(*spec.gw_rate_range_bytes_per_s) for _ in range(spec.num_clouds)]
        for _ in range(spec.num_gateways)
    ]
    cloud_to_cloud = [
        [0.0 if a == b else rng.uniform(*spec.cloud_rate_range_bytes_per_s)
         for b in range(spec.num_clouds)]
        for a in range(spec.num_clouds)
    ]
    return Topology(gateways, clouds, LinkMatrix(gw_to_cloud, cloud_to_cloud))


REFERENCE_SPECS = [builtin_scenario(k) for k in (1, 2, 3, 4)] + [
    ScenarioSpec(name="wide", num_gateways=400, num_clouds=120, timesteps=3),
    ScenarioSpec(
        name="degenerate",
        num_gateways=3,
        num_clouds=4,
        gw_rate_range_bytes_per_s=(1000.0, 1000.0),
        cloud_rate_range_bytes_per_s=(2000.0, 2000.0),
        capacity_range_bytes=(70_000.0, 70_000.0),
    ),
]


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda spec: spec.name)
def test_generate_topology_matches_uniform_reference(spec):
    for seed in (0, 1, 2):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        topology = generate_topology(spec, rng)
        reference = uniform_topology(spec, reference_rng)
        assert topology == reference
        assert topology_to_json(topology) == topology_to_json(reference)
        # the same number of draws was taken
        assert rng.random() == reference_rng.random()


@pytest.mark.parametrize("rates", [(500.0, 5000.0), (1000, 1000)], ids=["floats", "int-range"])
def test_generated_link_rows_are_the_float_tuples_a_link_matrix_holds(rates):
    spec = ScenarioSpec(name="rates", num_gateways=3, num_clouds=4,
                        gw_rate_range_bytes_per_s=rates, cloud_rate_range_bytes_per_s=rates)
    links = generate_topology(spec, random.Random(3)).links
    for matrix in (links.gw_to_cloud, links.cloud_to_cloud):
        assert type(matrix) is tuple
        assert all(type(row) is tuple and all(type(rate) is float for rate in row) for row in matrix)
    # what the float() copy would have made of them
    assert LinkMatrix(links.gw_to_cloud, links.cloud_to_cloud) == links


def test_workload_forced_and_empty():
    base = dict(num_gateways=2, num_clouds=4, timesteps=3)
    sure = ScenarioSpec(name="sure", arrival_probability=1.0, **base)
    items = generate_workload(sure, random.Random(1))
    assert len(items) == 6

    never = ScenarioSpec(name="never", arrival_probability=0.0, **base)
    assert generate_workload(never, random.Random(1)) == []


def test_workload_contents_and_order():
    spec = builtin_scenario(1)
    items = generate_workload(spec, random.Random(3))
    assert items
    for i, d in enumerate(items):
        assert d.id == i
        assert 20 <= d.size <= 100
        assert d.size == int(d.size)
        assert 0 <= d.source_gateway < spec.num_gateways
        assert 2 <= d.replica_count <= 4
        assert 1 <= d.arrival_timestep <= 500
    steps = [d.arrival_timestep for d in items]
    assert steps == sorted(steps)


def test_workload_count_matches_expectation():
    spec = builtin_scenario(1)
    items = generate_workload(spec, random.Random(4))
    n = spec.timesteps * spec.num_gateways
    mean = n * spec.arrival_probability
    sigma = math.sqrt(n * spec.arrival_probability * (1 - spec.arrival_probability))
    assert abs(len(items) - mean) <= 3 * sigma


def test_workload_determinism():
    spec = builtin_scenario(3)
    assert generate_workload(spec, random.Random(11)) == generate_workload(spec, random.Random(11))


def test_workload_infeasible_policy():
    # the spec is refused where it is built, before any topology or workload is drawn
    with pytest.raises(Infeasible, match="scenario 'cramped': policy needs 3 replicas but there are only 2 clouds"):
        ScenarioSpec(name="cramped", num_gateways=1, num_clouds=2, policy=Policy(3, 4), timesteps=2)


def test_scenario_json_round_trip():
    for k in (1, 2, 3, 4):
        spec = builtin_scenario(k)
        assert read_scenario(scenario_to_json(spec)) == spec
    custom = ScenarioSpec(
        name="custom",
        num_gateways=3,
        num_clouds=5,
        timesteps=17,
        arrival_probability=0.25,
        policy=Policy(1, 3),
        seed=99,
    )
    assert read_scenario(scenario_to_json(custom)) == custom


def test_scenario_json_defaults_for_missing_keys():
    spec = read_scenario('{"name": "bare", "num_gateways": 2, "num_clouds": 3}')
    assert spec.timesteps == 500
    assert spec.data_size_range_bytes == (20, 100)
    assert spec.policy == Policy(2, 4)


def test_scenario_json_text_is_pinned():
    # the text the hand-written codec wrote before dataclasses.asdict replaced it
    spec = ScenarioSpec(name="c", num_gateways=3, num_clouds=5, timesteps=17,
                        rw_delay_range_ms_per_byte=(30, 30), policy=Policy(1, 3), seed=99)
    assert json.loads(scenario_to_json(spec)) == {
        "name": "c", "num_gateways": 3, "num_clouds": 5, "timesteps": 17,
        "data_size_range_bytes": [20, 100], "rw_delay_range_ms_per_byte": [30, 30],
        "exercises_range": [5, 10], "arrival_probability": 0.1,
        "gw_rate_range_bytes_per_s": [500.0, 5000.0], "cloud_rate_range_bytes_per_s": [500.0, 5000.0],
        "capacity_range_bytes": [50000.0, 200000.0], "waiting_time_range_s": [0.1, 1.0],
        "policy": {"max_replicas": 3, "min_replicas": 1}, "seed": 99,
    }
    assert hashlib.sha256(scenario_to_json(builtin_scenario(1)).encode()).hexdigest() == (
        "23fec239983792a27557d9219e0c2501ca4281ec9e1668455bd09fff3818245a"
    )


def test_reader_converts_numbers_to_the_field_types():
    spec = read_scenario(
        '{"name": "n", "num_gateways": 2.0, "num_clouds": 3, "arrival_probability": 1,'
        ' "capacity_range_bytes": [100, 200], "policy": {"min_replicas": 1, "max_replicas": 2.0}}'
    )
    assert type(spec.num_gateways) is int and spec.num_gateways == 2
    assert type(spec.arrival_probability) is float and spec.arrival_probability == 1.0
    assert spec.capacity_range_bytes == (100.0, 200.0)
    assert all(type(v) is float for v in spec.capacity_range_bytes)
    assert spec.policy == Policy(1, 2) and type(spec.policy.max_replicas) is int
    assert dataclass_from_json(EnergyParams, {"e_write": 0}) == EnergyParams(e_write=0.0)


BARE = {"name": "n", "num_gateways": 2, "num_clouds": 3}


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"name": "n", "num_gateways": 2}, "num_clouds"),
        ({**BARE, "seeds": 1}, "seeds"),
        ({**BARE, "num_clouds": False}, "num_clouds"),
        ({**BARE, "policy": {"min_replicas": "1", "max_replicas": 2}}, "policy.min_replicas"),
        ({**BARE, "waiting_time_range_s": [0.1]}, "waiting_time_range_s"),
    ],
)
def test_reader_rejects_with_the_key_named(doc, key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        read_scenario(json.dumps(doc))


def test_config_error_is_a_value_error():
    # library callers that catch ValueError keep working
    with pytest.raises(ValueError):
        read_scenario("[]")


@pytest.mark.parametrize("reader", [read_scenario, partial(dataclass_from_json_text, Topology)],
                         ids=["scenario_from_json", "topology_from_json"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", "Expecting value"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
        ('{"seed": ' + "1" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ],
    ids=["not-json", "deep", "long-int"],
)
def test_json_text_that_does_not_parse_is_a_config_error(reader, text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        reader(text)
