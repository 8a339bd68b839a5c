import hashlib

import pytest

from replica_harmony import harness
from replica_harmony.harness import ALGORITHMS, run_grids
from replica_harmony.scenario import ScenarioSpec
from replica_harmony.seeding import derive_seed


def hashlib_seed(*parts: object) -> int:
    """The seed formula on hashlib's SHA-256, the OpenSSL one."""
    return int.from_bytes(hashlib.sha256("\x1f".join(map(str, parts)).encode()).digest()[:8], "big")


ROOT_SEEDS = (0, 1, 7, -1, -(2**63), 2**64 - 1, 2**64, 2**64 + 1, 10**30, -(10**30))
NAMES = ("builtin:1", "tiny", "", "café Ω 網格 🛰", "a\x1fb")
STREAMS = (
    ("topology",), ("workload",), ("exercises", 0), ("requester", 41),
    *(("opt", algo, 3) for algo in ALGORITHMS), ("",), (),
)


@pytest.mark.parametrize("root", ROOT_SEEDS)
def test_derive_seed_is_the_hashlib_digest(root):
    for name in NAMES:
        for stream in STREAMS:
            parts = (root, name, *stream)
            assert derive_seed(*parts) == hashlib_seed(*parts), parts


def test_every_stream_a_grid_derives_is_the_hashlib_digest(monkeypatch):
    # record the labels of every stream a run of all algorithms derives, on a
    # non-ASCII scenario name, and check each seed against hashlib
    calls = []

    def recording(*parts):
        calls.append(parts)
        return derive_seed(*parts)

    monkeypatch.setattr(harness, "derive_seed", recording)
    spec = ScenarioSpec(name="café Ω 網格", num_gateways=3, num_clouds=5, timesteps=12, arrival_probability=0.4)
    run_grids([(spec, [-3, 2**64 + 5])], ALGORITHMS)[0]
    assert {parts[2] for parts in calls} == {"topology", "workload", "exercises", "requester", "opt"}
    assert {parts[3] for parts in calls if parts[2] == "opt"} == set(ALGORITHMS) - {"exhaustive"}
    for parts in calls:
        assert derive_seed(*parts) == hashlib_seed(*parts), parts
