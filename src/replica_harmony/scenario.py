"""Seeded generators for the benchmark scenarios.

Four built-in scenarios pair gateway/cloud counts of (22,8), (25,10),
(32,15), (40,25) with shared defaults: 500 timesteps, data sizes 20..100
bytes, per-byte read/write delays 20..70 ms, a 0.1 arrival probability per
gateway per timestep, and 5..10 optimizer exercises per datum. Link rates,
capacities, and waiting times have no published ranges; the defaults below
are sized so scenario 1 stresses but rarely exhausts capacity over a full
run. Every field is overridable.

Generation draws in a pinned order (gateways, clouds, then link rows), so
a spec plus a seed reproduces a topology bit-for-bit. The G*C + C*(C-1)
link rates are drawn inline as lo + (hi - lo) * random(), which is the body
of Random.uniform, so each equals the rng.uniform(lo, hi) draw it replaces.
They are drawn into tuples of floats, which LinkMatrix.unchecked keeps
without the float() copy a LinkMatrix built from caller rows makes.
"""

import math
import random
from typing import NamedTuple

from .errors import ConfigError, Infeasible
from .model import DataItem, Gateway, LinkMatrix, MiniCloud, Policy, Topology, checked
from .model import json_doc, json_text

BUILTIN_SIZES = {1: (22, 8), 2: (25, 10), 3: (32, 15), 4: (40, 25)}


@checked
class ScenarioSpec(NamedTuple):
    """A scenario, checked where it is built or read: ConfigError for a bad field, Infeasible for too few clouds."""

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
    policy: Policy = Policy(2, 4)
    seed: int = 0

    def __post_init__(self):
        # the name goes into CSV cells and output file names, which hold at most 255 bytes
        if not self.name.isprintable() or len(self.name.encode()) > 100:
            raise ConfigError(f"name must be printable and at most 100 bytes, got {self.name!r:.60}")
        # rates are divided by and capacities must hold data, and a datum
        # gets at least one exercise; sizes, delays and waits are amounts
        positive = ("exercises_range", "gw_rate_range_bytes_per_s", "cloud_rate_range_bytes_per_s",
                    "capacity_range_bytes")
        ranges = {}
        for name in positive + ("data_size_range_bytes", "rw_delay_range_ms_per_byte", "waiting_time_range_s"):
            lo, hi = getattr(self, name)
            ranges[name] = (lo, hi)
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
        # the costliest datum's cost, once per gateway and timestep, must sum to a float
        per_byte = 1 / self.gw_rate_range_bytes_per_s[0] + 1 / self.cloud_rate_range_bytes_per_s[0]
        per_byte += 4 * self.rw_delay_range_ms_per_byte[1] / 1000
        worst = 2 * self.waiting_time_range_s[1] + per_byte * self.data_size_range_bytes[1]
        if not math.isfinite(worst * self.num_gateways * self.timesteps):
            raise ConfigError("costs overflow a float: lower data_size_range_bytes, delays or waits, "
                              "or raise gw_rate_range_bytes_per_s or cloud_rate_range_bytes_per_s")
        # last, so a spec with another fault gets its ConfigError; compare reads several specs
        if self.policy.min_replicas > self.num_clouds:
            raise Infeasible(f"scenario {self.name!r}: policy needs {self.policy.min_replicas} replicas "
                             f"but there are only {self.num_clouds} clouds")
        return ranges


def builtin_scenario(k: int) -> ScenarioSpec:
    if k not in BUILTIN_SIZES:
        raise ConfigError(f"unknown builtin scenario {k}; valid: 1..4")
    gateways, clouds = BUILTIN_SIZES[k]
    return ScenarioSpec(name=f"builtin:{k}", num_gateways=gateways, num_clouds=clouds)


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
    draw = rng.random  # see the module docstring
    lo, hi = spec.gw_rate_range_bytes_per_s
    gw_to_cloud = tuple([
        tuple([lo + (hi - lo) * draw() for _ in range(spec.num_clouds)]) for _ in range(spec.num_gateways)
    ])
    lo, hi = spec.cloud_rate_range_bytes_per_s
    cloud_to_cloud = tuple([
        tuple([0.0 if a == b else lo + (hi - lo) * draw() for b in range(spec.num_clouds)])
        for a in range(spec.num_clouds)
    ])
    return Topology(gateways, clouds, LinkMatrix.unchecked(gw_to_cloud, cloud_to_cloud))


def generate_workload(spec: ScenarioSpec, rng: random.Random) -> list[DataItem]:
    """Bernoulli arrivals: each of the spec's gateways spawns a datum with the
    spec probability at every timestep 1..timesteps, in (timestep, gateway)
    order. Replica counts are capped at the spec's clouds; ScenarioSpec has
    checked that the policy's minimum fits them."""
    max_replicas = min(spec.policy.max_replicas, spec.num_clouds)
    size_lo, size_hi = spec.data_size_range_bytes
    items: list[DataItem] = []
    for timestep in range(1, spec.timesteps + 1):
        for g in range(spec.num_gateways):
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

def scenario_to_json(spec: ScenarioSpec) -> str:
    return json_text(json_doc(spec))
