import random

import pytest

from replica_harmony import harness
from replica_harmony.model import CapacityLedger, Gateway, LinkMatrix, MiniCloud, Topology, commit_placement


@pytest.fixture
def trials(monkeypatch):
    """The arguments of every harness.run_trial call, none of which runs a trial."""
    calls = []
    monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
    return calls


def committed(topology: Topology, datum, vector) -> Topology:
    """The topology with datum's bytes on vector's clouds, committed through a fresh ledger."""
    ledger = CapacityLedger(topology)
    commit_placement(ledger, datum, vector)
    return ledger.topology()


def make_topology(rng: random.Random, num_gateways: int, num_clouds: int,
                  capacity=(50_000.0, 200_000.0)) -> Topology:
    """Random topology with the benchmark default ranges."""
    gateways = tuple(
        Gateway(g, rng.uniform(20, 70), rng.uniform(0.1, 1.0)) for g in range(num_gateways)
    )
    clouds = tuple(
        MiniCloud(
            c,
            rng.uniform(20, 70),
            rng.uniform(20, 70),
            rng.uniform(0.1, 1.0),
            rng.uniform(*capacity),
        )
        for c in range(num_clouds)
    )
    gw = [[rng.uniform(500, 5000) for _ in range(num_clouds)] for _ in range(num_gateways)]
    cc = [
        [0.0 if a == b else rng.uniform(500, 5000) for b in range(num_clouds)]
        for a in range(num_clouds)
    ]
    return Topology(gateways, clouds, LinkMatrix(gw, cc))


def tie_heavy_topology(rng: random.Random, num_gateways: int, num_clouds: int) -> Topology:
    """Delays, waits and rates each drawn from two values, so equal costs are common."""
    delays, waits, rates = (20.0, 40.0), (0.25, 0.5), (1000.0, 2000.0)
    gateways = tuple(Gateway(g, rng.choice(delays), rng.choice(waits)) for g in range(num_gateways))
    clouds = tuple(
        MiniCloud(c, rng.choice(delays), rng.choice(delays), rng.choice(waits), rng.choice((50.0, 1e6)))
        for c in range(num_clouds)
    )
    gw = [[rng.choice(rates) for _ in range(num_clouds)] for _ in range(num_gateways)]
    cc = [[0.0 if a == b else rng.choice(rates) for b in range(num_clouds)] for a in range(num_clouds)]
    return Topology(gateways, clouds, LinkMatrix(gw, cc))


@pytest.fixture
def example_topology() -> Topology:
    """The hand-checkable two-cloud instance used in the cost examples.

    Gateway waits 0.1 s and reads 1 ms/B; cloud 0 waits 0.05 s, writes
    2 ms/B, reads 1 ms/B; cloud 1 waits 0.02 s, writes 2 ms/B, reads
    3 ms/B. Uplinks 1000 and 2000 B/s, inter-cloud links 500 B/s.
    """
    gateway = Gateway(0, read_delay_ms=1.0, waiting_time_s=0.1)
    clouds = (
        MiniCloud(0, write_delay_ms=2.0, read_delay_ms=1.0, waiting_time_s=0.05,
                  total_capacity=1e6),
        MiniCloud(1, write_delay_ms=2.0, read_delay_ms=3.0, waiting_time_s=0.02,
                  total_capacity=1e6),
    )
    links = LinkMatrix(gw_to_cloud=[[1000.0, 2000.0]],
                       cloud_to_cloud=[[0.0, 500.0], [500.0, 0.0]])
    return Topology((gateway,), clouds, links)
