"""Seeded generators for the benchmark scenarios.

Four built-in scenarios pair gateway/cloud counts of (22,8), (25,10),
(32,15), (40,25) with shared defaults: 500 timesteps, data sizes 20..100
bytes, per-byte read/write delays 20..70 ms, a 0.1 arrival probability per
gateway per timestep, and 5..10 optimizer exercises per datum. Link rates,
capacities, and waiting times have no published ranges; the defaults below
are sized so scenario 1 stresses but rarely exhausts capacity over a full
run. Every field is overridable.

Generation draws in a pinned order (gateways, clouds, then link rows), so
a spec plus a seed reproduces a topology bit-for-bit.
"""

# No `from __future__ import annotations` here: ScenarioSpec's field types
# stay objects, so the JSON reader resolves them without compiling strings.
import dataclasses
import json
import random
import sys
import typing
from dataclasses import dataclass, field

from .errors import ConfigError, Infeasible, UnknownScenario
from .model import DataItem, Gateway, LinkMatrix, MiniCloud, Policy, Topology, json_text

BUILTIN_SIZES = {1: (22, 8), 2: (25, 10), 3: (32, 15), 4: (40, 25)}


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    num_gateways: int
    num_clouds: int
    timesteps: int = 500
    data_size_range_bytes: tuple[int, int] = (20, 100)
    rw_delay_range_ms_per_byte: tuple[float, float] = (20.0, 70.0)
    exercises_range: tuple[int, int] = (5, 10)
    arrival_probability: float = 0.1
    gw_rate_range_bytes_per_s: tuple[float, float] = (500.0, 5000.0)
    cloud_rate_range_bytes_per_s: tuple[float, float] = (500.0, 5000.0)
    capacity_range_bytes: tuple[float, float] = (50_000.0, 200_000.0)
    waiting_time_range_s: tuple[float, float] = (0.1, 1.0)
    policy: Policy = field(default_factory=lambda: Policy(2, 4))
    seed: int = 0

    def __post_init__(self):
        # the name becomes part of output file names and CSV cells
        if not self.name.isprintable():
            raise ConfigError(f"name must be printable, got {self.name!r:.60}")
        # rates are divided by and capacities must hold data, and a datum
        # gets at least one exercise; sizes, delays and waits are amounts
        positive = ("exercises_range", "gw_rate_range_bytes_per_s", "cloud_rate_range_bytes_per_s",
                    "capacity_range_bytes")
        for name in positive + ("data_size_range_bytes", "rw_delay_range_ms_per_byte", "waiting_time_range_s"):
            lo, hi = getattr(self, name)
            object.__setattr__(self, name, (lo, hi))
            if lo > hi:
                raise ConfigError(f"{name} is empty: [{lo}, {hi}]")
            if name in positive and not lo > 0:
                raise ConfigError(f"{name} must be positive, got [{lo}, {hi}]")
            if not lo >= 0:
                raise ConfigError(f"{name} must be non-negative, got [{lo}, {hi}]")
        if self.num_gateways < 1 or self.num_clouds < 1:
            raise ConfigError("scenario needs at least one gateway and one cloud")
        if self.timesteps < 1:
            raise ConfigError("timesteps must be >= 1")
        if not (0.0 <= self.arrival_probability <= 1.0):
            raise ConfigError("arrival probability must be in [0, 1]")


def builtin_scenario(k: int) -> ScenarioSpec:
    if k not in BUILTIN_SIZES:
        raise UnknownScenario(f"unknown builtin scenario {k}; valid: 1..4")
    gateways, clouds = BUILTIN_SIZES[k]
    return ScenarioSpec(
        name=f"builtin:{k}",
        num_gateways=gateways,
        num_clouds=clouds,
        policy=Policy(2, min(4, clouds)),
    )


def generate_topology(spec: ScenarioSpec, rng: random.Random) -> Topology:
    delay = spec.rw_delay_range_ms_per_byte
    wait = spec.waiting_time_range_s
    gateways = tuple(
        Gateway(
            id=g,
            read_delay_ms=rng.uniform(*delay),
            waiting_time_s=rng.uniform(*wait),
        )
        for g in range(spec.num_gateways)
    )
    clouds = tuple(
        MiniCloud(
            id=c,
            write_delay_ms=rng.uniform(*delay),
            read_delay_ms=rng.uniform(*delay),
            waiting_time_s=rng.uniform(*wait),
            total_capacity=rng.uniform(*spec.capacity_range_bytes),
        )
        for c in range(spec.num_clouds)
    )
    gw_to_cloud = [
        [rng.uniform(*spec.gw_rate_range_bytes_per_s) for _ in range(spec.num_clouds)]
        for _ in range(spec.num_gateways)
    ]
    cloud_to_cloud = [
        [
            0.0 if a == b else rng.uniform(*spec.cloud_rate_range_bytes_per_s)
            for b in range(spec.num_clouds)
        ]
        for a in range(spec.num_clouds)
    ]
    return Topology(gateways, clouds, LinkMatrix(gw_to_cloud, cloud_to_cloud))


def generate_workload(spec: ScenarioSpec, topology: Topology, rng: random.Random) -> list[DataItem]:
    """Bernoulli arrivals: each gateway spawns a datum with the spec
    probability at every timestep 1..timesteps, in (timestep, gateway) order."""
    max_replicas = min(spec.policy.max_replicas, topology.num_clouds)
    if spec.policy.min_replicas > max_replicas:
        raise Infeasible(
            f"policy needs {spec.policy.min_replicas} replicas but the topology "
            f"has only {topology.num_clouds} clouds"
        )
    size_lo, size_hi = spec.data_size_range_bytes
    items: list[DataItem] = []
    for timestep in range(1, spec.timesteps + 1):
        for g in range(topology.num_gateways):
            if rng.random() < spec.arrival_probability:
                items.append(
                    DataItem(
                        id=len(items),
                        size=float(rng.randint(size_lo, size_hi)),
                        source_gateway=g,
                        replica_count=rng.randint(spec.policy.min_replicas, max_replicas),
                        arrival_timestep=timestep,
                    )
                )
    return items


# --- JSON (de)serialization ------------------------------------------------

# what each non-dataclass field type accepts, for the error message
_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}
# dataclass -> (field name -> resolved type, required field names), built on first use
_FIELDS: dict[type, tuple[dict, set]] = {}


def dataclass_from_json(cls, doc, prefix: str = ""):
    """An instance of the dataclass cls from a JSON object, checked key by key.

    Unknown keys, missing required keys, and values whose JSON type does
    not fit the field are ConfigErrors naming the key: int fields take
    integral numbers, float fields finite numbers, tuple fields lists of
    that length, dataclass fields nested objects; a bool or a string is
    never a number. Missing optional keys take the field defaults.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix[:-1] or 'document'} must be a JSON object, got {doc!r:.60}")
    if cls not in _FIELDS:
        required = {f.name for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
        _FIELDS[cls] = (typing.get_type_hints(cls), required)
    hints, required = _FIELDS[cls]
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        raise ConfigError(f"unknown key {prefix}{unknown[0]}; valid keys: {', '.join(hints)}")
    missing = sorted(required - set(doc))
    if missing:
        raise ConfigError(f"missing required key {prefix}{missing[0]}")
    return cls(**{name: _field_value(hints[name], value, prefix + name) for name, value in doc.items()})


def _field_value(hint, value, key: str):
    if dataclasses.is_dataclass(hint):
        return dataclass_from_json(hint, value, key + ".")
    if typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)
        if not isinstance(value, list) or len(value) != len(items):
            raise ConfigError(f"{key} must be a list of {len(items)} numbers, got {value!r:.60}")
        return tuple(_field_value(item, v, key) for item, v in zip(items, value))
    if hint is str and isinstance(value, str):
        return value
    if hint is int and (type(value) is int or type(value) is float and value.is_integer()):
        return int(value)
    # the bounds also reject NaN, infinities, and ints too large for a float
    if hint is float and type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{key} must be {_EXPECTED[hint]}, got {value!r:.60}")


scenario_to_dict = dataclasses.asdict


def scenario_from_dict(doc) -> ScenarioSpec:
    return dataclass_from_json(ScenarioSpec, doc)


def scenario_to_json(spec: ScenarioSpec) -> str:
    return json_text(scenario_to_dict(spec))


def scenario_from_json(text: str) -> ScenarioSpec:
    return scenario_from_dict(json.loads(text))
