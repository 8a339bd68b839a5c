"""Exception types shared across the package."""


class ReplicaHarmonyError(Exception):
    """Base class for all package-specific errors."""


class InvalidAllocation(ReplicaHarmonyError):
    """Allocation vector has duplicate or out-of-range cloud ids."""


class CapacityExceeded(ReplicaHarmonyError):
    """A target cloud lacks free capacity for the datum."""

    def __init__(self, cloud_id: int, message: str = ""):
        self.cloud_id = cloud_id
        super().__init__(message or f"cloud {cloud_id} has insufficient free capacity")


class Infeasible(ReplicaHarmonyError):
    """Fewer feasible clouds than required replicas."""


class SearchSpaceTooLarge(ReplicaHarmonyError):
    """Exhaustive enumeration would exceed the configured subset limit."""


class ConfigError(ReplicaHarmonyError, ValueError):
    """Outside input (a scenario, option, seed or JSON file) is invalid: exit 2."""


class UnknownScenario(ConfigError):
    """Scenario identifier does not name a built-in scenario."""


class UnknownAlgorithm(ConfigError):
    """Algorithm name is not one of the supported optimizers."""


class EmptyInput(ConfigError):
    """An aggregation was asked to summarize nothing."""


class ShapeMismatch(ReplicaHarmonyError):
    """Reports passed to an aggregation disagree in scenario or length."""


class MalformedInput(ReplicaHarmonyError):
    """An input file lacks a required field or holds an unknown one."""
