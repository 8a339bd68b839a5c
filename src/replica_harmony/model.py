"""Domain types for the mini-cloud replication system.

A topology is a set of gateways (IoT ingress points), a set of mini clouds
(replica storage sites with capacity bookkeeping), and transfer-rate matrices
between them. Per-byte read/write delays are stored in milliseconds per byte,
matching the JSON wire format exactly so that serialization round-trips are
bit-lossless; the cost module converts to seconds where it evaluates delays.
Waiting times are plain seconds, capacities bytes, transfer rates bytes/s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapacityExceeded, ConfigError, InvalidAllocation


@dataclass(frozen=True)
class Gateway:
    """IoT ingress point with a per-byte read delay and a base waiting time."""

    id: int
    read_delay_ms: float  # ms per byte
    waiting_time_s: float


@dataclass(frozen=True)
class MiniCloud:
    """Replica storage site: per-byte write/read delays, waiting time, capacity."""

    id: int
    write_delay_ms: float  # ms per byte
    read_delay_ms: float  # ms per byte
    waiting_time_s: float
    total_capacity: float  # bytes
    used_capacity: float = 0.0  # bytes

    @property
    def free_capacity(self) -> float:
        return self.total_capacity - self.used_capacity


def _freeze_matrix(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(map(float, row)) for row in rows)


@dataclass(frozen=True)
class LinkMatrix:
    """Transfer rates in bytes/second.

    ``gw_to_cloud[g][c]`` is the gateway-to-cloud uplink rate and
    ``cloud_to_cloud[c][c2]`` the inter-cloud rate used when cloud ``c``
    propagates a replica to cloud ``c2``. The diagonal of ``cloud_to_cloud``
    is unused and conventionally stored as 0.
    """

    gw_to_cloud: tuple[tuple[float, ...], ...]
    cloud_to_cloud: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "gw_to_cloud", _freeze_matrix(self.gw_to_cloud))
        object.__setattr__(self, "cloud_to_cloud", _freeze_matrix(self.cloud_to_cloud))


@dataclass(frozen=True)
class DataItem:
    """One IoT datum arriving at a gateway, to be replicated ``replica_count`` times."""

    id: int
    size: float  # bytes
    source_gateway: int
    replica_count: int
    arrival_timestep: int = 0


@dataclass(frozen=True)
class Policy:
    """Replica-count rule: each datum gets a count in [min_replicas, max_replicas]."""

    min_replicas: int
    max_replicas: int

    def __post_init__(self):
        if not (1 <= self.min_replicas <= self.max_replicas):
            raise ConfigError(
                f"invalid policy: need 1 <= min <= max, got "
                f"[{self.min_replicas}, {self.max_replicas}]"
            )


@dataclass(frozen=True, slots=True)
class AllocationVector:
    """Duplicate-free sequence of mini-cloud ids, one entry per replica."""

    clouds: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "clouds", tuple(int(c) for c in self.clouds))
        if len(self.clouds) < 1:
            raise InvalidAllocation("allocation vector must hold at least one cloud id")
        if len(set(self.clouds)) != len(self.clouds):
            raise InvalidAllocation(f"duplicate cloud ids in allocation {self.clouds}")

    def __len__(self) -> int:
        return len(self.clouds)

    def __iter__(self) -> Iterator[int]:
        return iter(self.clouds)


@dataclass(frozen=True)
class Topology:
    """Immutable system state; capacity updates produce a new value."""

    gateways: tuple[Gateway, ...]
    clouds: tuple[MiniCloud, ...]
    links: LinkMatrix

    def __post_init__(self):
        object.__setattr__(self, "gateways", tuple(self.gateways))
        object.__setattr__(self, "clouds", tuple(self.clouds))

    @property
    def num_gateways(self) -> int:
        return len(self.gateways)

    @property
    def num_clouds(self) -> int:
        return len(self.clouds)


def validate_topology(t: Topology) -> list[str]:
    """Check every structural invariant; return a list of violations (empty = ok)."""
    violations: list[str] = []
    if t.num_gateways < 1:
        violations.append("topology has no gateways")
    if t.num_clouds < 1:
        violations.append("topology has no clouds")

    for pos, g in enumerate(t.gateways):
        if g.id != pos:
            violations.append(f"gateway at position {pos} has id {g.id}")
        if g.read_delay_ms < 0:
            violations.append(f"negative read delay at gateway g{g.id}")
        if g.waiting_time_s < 0:
            violations.append(f"negative waiting time at gateway g{g.id}")

    for pos, c in enumerate(t.clouds):
        if c.id != pos:
            violations.append(f"cloud at position {pos} has id {c.id}")
        if c.write_delay_ms < 0 or c.read_delay_ms < 0:
            violations.append(f"negative delay at cloud c{c.id}")
        if c.waiting_time_s < 0:
            violations.append(f"negative waiting time at cloud c{c.id}")
        if c.total_capacity <= 0:
            violations.append(f"non-positive total capacity at cloud c{c.id}")
        if not (0 <= c.used_capacity <= c.total_capacity):
            violations.append(
                f"used capacity {c.used_capacity} outside [0, {c.total_capacity}] "
                f"at cloud c{c.id}"
            )

    gw = t.links.gw_to_cloud
    if len(gw) != t.num_gateways or any(len(row) != t.num_clouds for row in gw):
        violations.append("gw_to_cloud matrix shape does not match topology")
    else:
        for j, row in enumerate(gw):
            for c, rate in enumerate(row):
                if rate <= 0:
                    violations.append(f"non-positive rate at (g{j},c{c})")

    cc = t.links.cloud_to_cloud
    if len(cc) != t.num_clouds or any(len(row) != t.num_clouds for row in cc):
        violations.append("cloud_to_cloud matrix shape does not match topology")
    else:
        for a, row in enumerate(cc):
            for b, rate in enumerate(row):
                if a != b and rate <= 0:
                    violations.append(f"non-positive rate at (c{a},c{b})")

    return violations


def check_allocation(t: Topology, a: AllocationVector) -> None:
    """Raise InvalidAllocation unless every id in ``a`` names a cloud of ``t``."""
    n = len(t.clouds)
    for c in a.clouds:
        if not (0 <= c < n):
            raise InvalidAllocation(f"cloud id {c} out of range [0, {n})")


def commit_placement(t: Topology, d: DataItem, a: AllocationVector) -> Topology:
    """Reserve ``d.size`` bytes on every cloud in ``a``; all-or-nothing.

    Returns the updated topology. Raises CapacityExceeded (naming the first
    offending cloud) without touching any state if one target lacks room.
    """
    check_allocation(t, a)
    clouds = list(t.clouds)
    for c in a.clouds:
        if clouds[c].free_capacity < d.size:
            raise CapacityExceeded(c)
    for c in a.clouds:
        old = clouds[c]
        clouds[c] = MiniCloud(
            old.id,
            old.write_delay_ms,
            old.read_delay_ms,
            old.waiting_time_s,
            old.total_capacity,
            old.used_capacity + d.size,
        )
    return Topology(t.gateways, tuple(clouds), t.links)


# --- JSON (de)serialization ------------------------------------------------
#
# Schema (all keys required unless noted):
#   gateways: [{id, read_delay_ms_per_byte, waiting_time_s}]
#   clouds:   [{id, write_delay_ms_per_byte, read_delay_ms_per_byte,
#               waiting_time_s, total_capacity_bytes,
#               used_capacity_bytes (optional, default 0)}]
#   links:    {gw_to_cloud: [[bytes/s]], cloud_to_cloud: [[bytes/s]]}

def topology_to_dict(t: Topology) -> dict:
    return {
        "gateways": [
            {
                "id": g.id,
                "read_delay_ms_per_byte": g.read_delay_ms,
                "waiting_time_s": g.waiting_time_s,
            }
            for g in t.gateways
        ],
        "clouds": [
            {
                "id": c.id,
                "write_delay_ms_per_byte": c.write_delay_ms,
                "read_delay_ms_per_byte": c.read_delay_ms,
                "waiting_time_s": c.waiting_time_s,
                "total_capacity_bytes": c.total_capacity,
                "used_capacity_bytes": c.used_capacity,
            }
            for c in t.clouds
        ],
        "links": {
            "gw_to_cloud": [list(row) for row in t.links.gw_to_cloud],
            "cloud_to_cloud": [list(row) for row in t.links.cloud_to_cloud],
        },
    }


def topology_from_dict(doc: dict) -> Topology:
    """The topology a document describes; ValueError lists its violations."""
    gateways = tuple(
        Gateway(
            id=int(g["id"]),
            read_delay_ms=float(g["read_delay_ms_per_byte"]),
            waiting_time_s=float(g["waiting_time_s"]),
        )
        for g in doc["gateways"]
    )
    clouds = tuple(
        MiniCloud(
            id=int(c["id"]),
            write_delay_ms=float(c["write_delay_ms_per_byte"]),
            read_delay_ms=float(c["read_delay_ms_per_byte"]),
            waiting_time_s=float(c["waiting_time_s"]),
            total_capacity=float(c["total_capacity_bytes"]),
            used_capacity=float(c.get("used_capacity_bytes", 0.0)),
        )
        for c in doc["clouds"]
    )
    links = LinkMatrix(
        gw_to_cloud=doc["links"]["gw_to_cloud"],
        cloud_to_cloud=doc["links"]["cloud_to_cloud"],
    )
    topology = Topology(gateways=gateways, clouds=clouds, links=links)
    problems = validate_topology(topology)
    if problems:
        raise ValueError("invalid topology: " + "; ".join(problems))
    return topology


def json_text(doc) -> str:
    """Canonical JSON text (stable key order, trailing newline); every output file uses it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def topology_to_json(t: Topology) -> str:
    return json_text(topology_to_dict(t))


def topology_from_json(text: str) -> Topology:
    return topology_from_dict(json.loads(text))
