"""Domain types for the mini-cloud replication system, and the JSON codec.

A topology is a set of gateways (IoT ingress points), a set of mini clouds
(replica storage sites, each with a total and a used capacity), and
transfer-rate matrices between them; a cloud's id is its position. A trial
keeps its capacity state in one CapacityLedger. Per-byte read/write delays
are stored in milliseconds per byte, matching the JSON wire format exactly
so that serialization round-trips are bit-lossless; the cost module
converts to seconds where it evaluates delays. Waiting times are plain
seconds, capacities bytes, transfer rates bytes/s.

Every record but AllocationVector is a NamedTuple. Those whose fields are
checked or normalized are made ``checked``: their constructor, and so ``_make`` and
``_replace``, runs the class's ``__post_init__`` on each new instance.
No module that defines records postpones its annotations: NamedTuple would
compile each field's annotation string as the module is imported.

Every JSON file the package reads or writes goes through one codec:
``dataclass_from_json`` reads a record, checked key by key (every reader
of JSON text goes through ``dataclass_from_json_text``), and ``json_doc``
plus ``json_text`` write one. A field's JSON key is its name unless
``JSON_KEYS`` maps the name to another: the keys of fields whose names
lack their unit, such as the per-byte delays.
"""

import json
import sys
import typing
from typing import Iterator, NamedTuple

from .errors import CapacityExceeded, ConfigError, InvalidAllocation

# field name -> JSON key, for the fields whose names lack their unit
JSON_KEYS = {
    "read_delay_ms": "read_delay_ms_per_byte",  # gateways and clouds share it
    "write_delay_ms": "write_delay_ms_per_byte",
    "total_capacity": "total_capacity_bytes",
    "used_capacity": "used_capacity_bytes",
    "size": "size_bytes",
}


def checked(cls):
    """The NamedTuple cls, its constructor made to run cls.__post_init__ on
    each instance it builds: that raises for a bad field, or returns
    {field: normalized value}. _make, and so _replace, builds through it."""
    build = cls.__new__

    def __new__(klass, *args, **kwargs):
        record = build(klass, *args, **kwargs)
        normalized = record.__post_init__()
        if normalized:
            record = tuple.__new__(klass, [normalized.get(name, v) for name, v in zip(cls._fields, record)])
        return record

    cls.__new__ = __new__
    cls._make = classmethod(lambda klass, values: klass(*values))
    return cls


class Gateway(NamedTuple):
    """IoT ingress point with a per-byte read delay and a base waiting time."""

    id: int
    read_delay_ms: float
    waiting_time_s: float


class MiniCloud(NamedTuple):
    """Replica storage site: per-byte write/read delays, waiting time, capacity."""

    id: int
    write_delay_ms: float
    read_delay_ms: float
    waiting_time_s: float
    total_capacity: float
    used_capacity: float = 0.0


def _freeze_matrix(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(map(float, row)) for row in rows)


@checked
class LinkMatrix(NamedTuple):
    """Transfer rates in bytes/second.

    ``gw_to_cloud[g][c]`` is the gateway-to-cloud uplink rate and
    ``cloud_to_cloud[c][c2]`` the inter-cloud rate used when cloud ``c``
    propagates a replica to cloud ``c2``. The diagonal of ``cloud_to_cloud``
    is unused and conventionally stored as 0.
    """

    gw_to_cloud: tuple[tuple[float, ...], ...]
    cloud_to_cloud: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        return {"gw_to_cloud": _freeze_matrix(self.gw_to_cloud),
                "cloud_to_cloud": _freeze_matrix(self.cloud_to_cloud)}

    @classmethod
    def unchecked(cls, gw_to_cloud, cloud_to_cloud) -> "LinkMatrix":
        """The rows as given, not copied: generate_topology draws them as
        tuples of floats, which __post_init__ would only copy again."""
        return tuple.__new__(cls, (gw_to_cloud, cloud_to_cloud))


class DataItem(NamedTuple):
    """One IoT datum arriving at a gateway, to be replicated ``replica_count`` times."""

    id: int
    size: float
    source_gateway: int
    replica_count: int
    arrival_timestep: int = 0


@checked
class Policy(NamedTuple):
    """Replica-count rule: each datum gets a count in [min_replicas, max_replicas]."""

    min_replicas: int
    max_replicas: int

    def __post_init__(self):
        if not (1 <= self.min_replicas <= self.max_replicas):
            raise ConfigError(
                f"invalid policy: need 1 <= min <= max, got "
                f"[{self.min_replicas}, {self.max_replicas}]"
            )


class AllocationVector:
    """Duplicate-free sequence of mini-cloud ids, one entry per replica,
    equal, hashed and shown by its ids. Not a NamedTuple: its length and
    iteration are those of the ids, which pickle and _asdict would misread."""

    __slots__ = ("clouds",)

    def __init__(self, clouds: tuple[int, ...]):
        object.__setattr__(self, "clouds", clouds)
        self.__post_init__()

    def __post_init__(self):
        clouds = tuple(self.clouds)
        for c in clouds:
            if type(c) is not int:
                raise InvalidAllocation(f"cloud id {c!r} is not an int")
            if c < 0:
                raise InvalidAllocation(f"cloud id {c} is negative")
        object.__setattr__(self, "clouds", clouds)
        check_distinct(clouds)

    @classmethod
    def unchecked(cls, clouds: tuple[int, ...]) -> "AllocationVector":
        """clouds as given, unchecked: the optimizers' and best_allocation's ids are distinct
        in-range ints by construction or check, and commit_placement checks the one placed."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "clouds", clouds)
        return vector

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), (self.clouds,)

    def __eq__(self, other):
        return self.clouds == other.clouds if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.clouds)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(clouds={self.clouds!r})"

    def __len__(self) -> int:
        return len(self.clouds)

    def __iter__(self) -> Iterator[int]:
        return iter(self.clouds)


class Topology(NamedTuple):
    """Immutable system state, built by the generator and by CapacityLedger.topology."""

    gateways: tuple[Gateway, ...]
    clouds: tuple[MiniCloud, ...]
    links: LinkMatrix

    @property
    def num_gateways(self) -> int:
        return len(self.gateways)

    @property
    def num_clouds(self) -> int:
        return len(self.clouds)


def check_distinct(clouds: tuple[int, ...]) -> None:
    """Raise InvalidAllocation unless clouds holds at least one id and no id twice."""
    if not clouds:
        raise InvalidAllocation("allocation vector must hold at least one cloud id")
    if len(set(clouds)) != len(clouds):
        raise InvalidAllocation(f"duplicate cloud ids in allocation {clouds}")


def check_allocation(t: Topology, clouds: tuple[int, ...]) -> None:
    """Raise InvalidAllocation unless every id in clouds names a cloud of ``t``."""
    n = len(t.clouds)
    for c in clouds:
        if not (0 <= c < n):
            raise InvalidAllocation(f"cloud id {c} out of range [0, {n})")


class CapacityLedger:
    """A trial's capacity state: each cloud's total and used bytes, by cloud id. It is
    the one reader of a topology's capacities, and only commit_placement adds to used."""

    def __init__(self, topology: Topology):
        self.start = topology
        self.total = tuple([c.total_capacity for c in topology.clouds])
        self.used = [c.used_capacity for c in topology.clouds]

    def feasible(self, size: float) -> tuple[int, ...]:
        """The ids of the clouds with at least size bytes free, ascending."""
        total, used = self.total, self.used
        return tuple([c for c in range(len(total)) if total[c] - used[c] >= size])

    def topology(self) -> Topology:
        """The start topology with the committed bytes."""
        t = self.start
        return Topology(t.gateways, tuple([MiniCloud(*c[:5], u) for c, u in zip(t.clouds, self.used)]), t.links)


def commit_placement(ledger: CapacityLedger, d: DataItem, a: AllocationVector) -> None:
    """Reserve ``d.size`` bytes on every cloud in ``a``; all-or-nothing.

    Raises InvalidAllocation for an empty, repeated or out-of-range id
    vector, and CapacityExceeded (naming the first offending cloud) without
    touching the ledger if one target lacks room.
    """
    check_distinct(a.clouds)
    check_allocation(ledger.start, a.clouds)
    total, used = ledger.total, ledger.used
    for c in a.clouds:
        if total[c] - used[c] < d.size:
            raise CapacityExceeded(c)
    for c in a.clouds:
        used[c] += d.size


# --- JSON (de)serialization ------------------------------------------------

# what each non-record field type accepts, for the error message
_EXPECTED = {int: "an integer within float range", float: "a finite number", str: "a string"}
# record class -> (JSON key -> (field name, resolved type), required JSON keys), built on first use
_FIELDS: dict[type, tuple[dict, set]] = {}


def dataclass_from_json(cls, doc, prefix: str = ""):
    """An instance of the record (NamedTuple) class cls from a JSON object,
    checked key by key, under the keys json_doc writes.

    Unknown keys, missing required keys, and values whose JSON type does
    not fit the field are ConfigErrors naming the key: int fields take
    integral and float fields any numbers within a float's range, tuple[X, X]
    fields lists of that length, tuple[X, ...] fields lists of any length
    (elements named by index, as in clouds[1].id), record fields nested
    objects; a bool or a string is never a number. Missing optional keys
    take the field defaults.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix[:-1] or 'document'} must be a JSON object, got {doc!r:.60}")
    if cls not in _FIELDS:
        hints = typing.get_type_hints(cls)
        keys = {JSON_KEYS.get(name, name): (name, hints[name]) for name in cls._fields}
        _FIELDS[cls] = (keys, {key for key, (name, _) in keys.items() if name not in cls._field_defaults})
    keys, required = _FIELDS[cls]
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key {prefix}{unknown[0]}; valid keys: {', '.join(keys)}")
    missing = sorted(required - set(doc))
    if missing:
        raise ConfigError(f"missing required key {prefix}{missing[0]}")
    values = {}
    for key, value in doc.items():
        name, hint = keys[key]
        values[name] = _field_value(hint, value, prefix + key)
    return cls(**values)


def _field_value(hint, value, key: str):
    if hasattr(hint, "_fields"):
        return dataclass_from_json(hint, value, key + ".")
    if typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)
        if items[-1] is Ellipsis:
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a list, got {value!r:.60}")
            return tuple(_field_value(items[0], v, f"{key}[{i}]") for i, v in enumerate(value))
        if not isinstance(value, list) or len(value) != len(items):
            raise ConfigError(f"{key} must be a list of {len(items)} numbers, got {value!r:.60}")
        return tuple(_field_value(item, v, key) for item, v in zip(items, value))
    if hint is str and isinstance(value, str):
        return value
    # the bounds reject NaN, infinities, and ints too large for a float
    finite = type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max
    if finite and (hint is float or hint is int and value == int(value)):
        return hint(value)
    raise ConfigError(f"{key} must be {_EXPECTED[hint]}, got {value!r:.60}")


def dataclass_from_json_text(cls, text: str | bytes):
    """dataclass_from_json of a JSON text (bytes in any UTF encoding); text
    that is not JSON is a ConfigError too."""
    # ValueError covers ConfigError, UnicodeDecodeError, JSONDecodeError and an int over 4,300 digits
    try:
        return dataclass_from_json(cls, json.loads(text))
    except (ValueError, RecursionError) as exc:
        raise ConfigError(str(exc)) from None


def json_doc(value):
    """The JSON form of value: a record (a NamedTuple) as an object under
    its fields' JSON keys, a tuple or list as a list, anything else as it is."""
    if hasattr(value, "_fields"):
        return {JSON_KEYS.get(name, name): json_doc(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return [json_doc(v) for v in value]
    return value


def json_text(doc) -> str:
    """Canonical JSON text (stable key order, trailing newline); every output file uses it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def topology_to_json(t: Topology) -> str:
    return json_text(json_doc(t))

