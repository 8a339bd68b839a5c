"""Exception types shared across the package; each exit code of the CLI has one."""


class ReplicaHarmonyError(Exception):
    """Base class for all package-specific errors."""


class InvalidAllocation(ReplicaHarmonyError):
    """Allocation vector has duplicate or out-of-range cloud ids: exit 5."""


class CapacityExceeded(ReplicaHarmonyError):
    """A target cloud lacks free capacity for the datum: exit 5."""

    def __init__(self, cloud_id: int, message: str = ""):
        self.cloud_id = cloud_id
        super().__init__(message or f"cloud {cloud_id} has insufficient free capacity")


class Infeasible(ReplicaHarmonyError):
    """Fewer feasible clouds than required replicas: exit 3."""


class ConfigError(ReplicaHarmonyError, ValueError):
    """Bad outside input (a scenario, option, seed, algorithm or JSON file, no trial file): exit 2."""


class MalformedInput(ReplicaHarmonyError):
    """A trial CSV or JSON summary for report is malformed (a bad header, row
    or cell, a negative or non-finite value, a summary run would not write
    for its CSV): exit 4."""
