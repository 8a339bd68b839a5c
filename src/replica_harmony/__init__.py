"""Replica placement over simulated IoT mini clouds.

A deterministic simulator plus optimizers: data items arriving at gateways
are replicated into mini clouds, placements are chosen by harmony search
(or one of the baselines), and trials report replication cost, access
delay, and energy per timestep.
"""

from .cost import CostBreakdown, CostModel, EnergyParams, placement_energy, replication_cost
from .errors import (
    CapacityExceeded,
    ConfigError,
    Infeasible,
    InvalidAllocation,
    MalformedInput,
    ReplicaHarmonyError,
)
from .harness import (
    ALGORITHMS,
    ComparisonTable,
    Experiment,
    RunReport,
    TrialOptions,
    build_experiment,
    compare_algorithms,
    run_trial,
    run_trial_detailed,
)
from .model import (
    AllocationVector,
    CapacityLedger,
    DataItem,
    Gateway,
    LinkMatrix,
    MiniCloud,
    Policy,
    Topology,
    commit_placement,
    topology_to_json,
)
from .optimize import (
    Harmony,
    OptResult,
    PlacementProblem,
    exhaustive_best,
    foa_optimize,
    ga_optimize,
    hs_optimize,
    random_allocation,
    random_search,
)
from .scenario import (
    ScenarioSpec,
    builtin_scenario,
    generate_topology,
    generate_workload,
    scenario_to_json,
)
from .seeding import derive_seed

__version__ = "0.1.0"
