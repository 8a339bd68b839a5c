import itertools
import math
import random

import pytest

from replica_harmony.cost import (
    CostModel,
    EnergyParams,
    placement_energy,
    replication_cost,
)
from replica_harmony.errors import InvalidAllocation
from replica_harmony.model import AllocationVector, DataItem, Gateway, LinkMatrix, MiniCloud, Topology

from conftest import make_topology, tie_heavy_topology


def naive_replication_cost(t: Topology, d: DataItem, a: AllocationVector) -> float:
    """The cost formula's minimum over entry clouds, from its one transcription
    here, unhoisted_candidates; no shared code with CostModel."""
    return min(first + prop for _, first, prop in unhoisted_candidates(t, d, a))


def random_instance(seed: int):
    rng = random.Random(seed)
    n_clouds = rng.randint(2, 8)
    t = make_topology(rng, rng.randint(1, 8), n_clouds)
    r = rng.randint(1, min(4, n_clouds))
    d = DataItem(0, float(rng.randint(20, 100)), rng.randrange(t.num_gateways), r)
    a = AllocationVector(tuple(rng.sample(range(n_clouds), r)))
    return t, d, a


def test_single_replica_worked_example(example_topology):
    breakdown = replication_cost(example_topology, DataItem(0, 100.0, 0, 1), AllocationVector((0,)))
    assert breakdown.total == 0.5
    assert breakdown.propagation_cost == 0.0
    assert breakdown.entry_cloud == 0


def test_two_replica_worked_example(example_topology):
    breakdown = replication_cost(example_topology, DataItem(0, 100.0, 0, 2), AllocationVector((0, 1)))
    assert breakdown.total == 1.05
    assert breakdown.entry_cloud == 0
    assert breakdown.entry_cost == 0.5
    assert breakdown.propagation_cost == pytest.approx(0.55, rel=1e-12)
    per = dict(breakdown.per_candidate)
    assert per[0] == 1.05
    assert per[1] == pytest.approx(1.17, rel=1e-12)


def test_zero_size_and_zero_waits_cost_zero():
    gateway = Gateway(0, 5.0, 0.0)
    clouds = tuple(MiniCloud(c, 5.0, 5.0, 0.0, 1000.0) for c in range(3))
    links = LinkMatrix([[100.0] * 3], [[0.0 if a == b else 100.0 for b in range(3)] for a in range(3)])
    t = Topology((gateway,), clouds, links)
    d = DataItem(0, 0.0, 0, 2)
    for vec in ((0,), (0, 1), (2, 0, 1)):
        assert replication_cost(t, d, AllocationVector(vec)).total == 0.0
    assert CostModel(t).access_delay(d, AllocationVector((0, 1)), 0) == 0.0


def test_breakdown_invariants_hold_on_random_instances():
    for seed in range(200):
        t, d, a = random_instance(seed)
        breakdown = replication_cost(t, d, a)
        assert len(breakdown.per_candidate) == len(a)
        assert breakdown.total == min(total for _, total in breakdown.per_candidate)
        assert breakdown.total == breakdown.entry_cost + breakdown.propagation_cost
        assert breakdown.total >= 0.0


def test_total_equals_breakdown_total_bit_exact():
    for seed in range(1000):
        t, d, a = random_instance(seed)
        model = CostModel(t)
        assert model.breakdown(d, a).total == model.total(d, a)


def zero_wait_topology(rng: random.Random, num_gateways: int, num_clouds: int) -> Topology:
    """tie_heavy_topology with some cloud waits 0: from such an entry cloud a
    zero-size datum propagates at cost 0.0, so candidate totals tie."""
    t = tie_heavy_topology(rng, num_gateways, num_clouds)
    clouds = tuple(
        c._replace(waiting_time_s=rng.choice((0.0, c.waiting_time_s))) for c in t.clouds
    )
    return Topology(t.gateways, clouds, t.links)


@pytest.mark.parametrize("make", [make_topology, tie_heavy_topology, zero_wait_topology])
def test_total_equals_breakdown_on_every_permutation(make):
    zero_size = 0
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        t = make(rng, rng.randint(1, 4), n)
        model = CostModel(t)
        r = rng.randint(1, min(5, n))
        # the smaller the datum, the more the waits decide between candidates
        size = rng.choice((0.0, 1e-3, 1.0, float(rng.randint(20, 100))))
        d = DataItem(0, size, rng.randrange(t.num_gateways), r)
        for perm in itertools.permutations(rng.sample(range(n), r)):
            a = AllocationVector(perm)
            assert model.total(d, a).hex() == model.breakdown(d, a).total.hex(), (seed, perm)
        zero_size += size == 0.0
    assert zero_size > 20, zero_size


def test_matches_naive_oracle():
    for seed in range(300):
        t, d, a = random_instance(seed)
        got = replication_cost(t, d, a).total
        want = naive_replication_cost(t, d, a)
        assert got == pytest.approx(want, rel=1e-12)


def test_permutation_invariance_is_exact():
    import itertools

    for seed in range(100):
        t, d, a = random_instance(seed)
        model = CostModel(t)
        base_cost = model.total(d, a)
        base_delay = model.access_delay(d, a, 0)
        base_energy = placement_energy(d, a)
        for perm in itertools.permutations(a.clouds):
            vec = AllocationVector(perm)
            assert model.total(d, vec) == base_cost
            assert model.access_delay(d, vec, 0) == base_delay
            assert placement_energy(d, vec) == base_energy


def test_scaling_by_powers_of_two_is_exact():
    for seed in range(50):
        rng = random.Random(9_000 + seed)
        t = make_topology(rng, 3, 5)
        # zero the waiting times so every term scales with the size
        t = Topology(
            tuple(Gateway(g.id, g.read_delay_ms, 0.0) for g in t.gateways),
            tuple(
                MiniCloud(c.id, c.write_delay_ms, c.read_delay_ms, 0.0, c.total_capacity)
                for c in t.clouds
            ),
            t.links,
        )
        a = AllocationVector(tuple(rng.sample(range(5), 3)))
        base = CostModel(t).total(DataItem(0, 64.0, 0, 3), a)
        for k in (0.0, 0.5, 2.0, 8.0):
            scaled = CostModel(t).total(DataItem(0, 64.0 * k, 0, 3), a)
            assert scaled == base * k


def test_access_delay_worked_example(example_topology):
    d = DataItem(0, 100.0, 0, 2)
    assert CostModel(example_topology).access_delay(d, AllocationVector((0, 1)), 0) == 0.25


def test_access_delay_monotone_under_added_replica():
    for seed in range(200):
        rng = random.Random(3_000 + seed)
        t = make_topology(rng, 2, 6)
        d = DataItem(0, float(rng.randint(20, 100)), rng.randrange(2), 2)
        model = CostModel(t)
        ids = rng.sample(range(6), 3)
        smaller = AllocationVector(tuple(ids[:2]))
        larger = AllocationVector(tuple(ids))
        requester = rng.randrange(2)
        assert model.access_delay(d, larger, requester) <= model.access_delay(d, smaller, requester)


def test_placement_energy_examples():
    d = DataItem(0, 100.0, 0, 2)
    assert placement_energy(d, AllocationVector((0, 1))) == pytest.approx(190e-6, rel=1e-12)
    assert placement_energy(DataItem(0, 0.0, 0, 2), AllocationVector((0, 1))) == 0.0
    p = EnergyParams()
    single = placement_energy(d, AllocationVector((0,)), p)
    assert single == d.size * p.e_uplink + d.size * p.e_write


def test_placement_energy_strictly_increasing_in_replica_count():
    d = DataItem(0, 50.0, 0, 1)
    previous = -1.0
    for r in range(1, 6):
        energy = placement_energy(d, AllocationVector(tuple(range(r))))
        assert energy > previous
        previous = energy


def test_energy_params_reject_negative():
    with pytest.raises(ValueError):
        EnergyParams(e_uplink=-1.0)


def test_invalid_inputs_raise(example_topology):
    model = CostModel(example_topology)
    with pytest.raises(InvalidAllocation):
        model.total(DataItem(0, 10.0, 0, 1), AllocationVector((5,)))
    with pytest.raises(InvalidAllocation):
        model.total(DataItem(0, 10.0, 3, 1), AllocationVector((0,)))
    with pytest.raises(InvalidAllocation):
        model.access_delay(DataItem(0, 10.0, 0, 1), AllocationVector((0,)), requester=2)


# --- cost rows built on first use ---------------------------------------------
#
# CostModel hoists the R/1000 and W/1000 terms and builds a gateway's rows
# only when a method first needs them. The oracles below write every cell
# out unhoisted, so the lazy tables must match them bit for bit, whatever
# order the gateways are touched in.

def unhoisted_access_delay(t: Topology, d: DataItem, a: AllocationVector, requester: int) -> float:
    return min(
        t.clouds[c].waiting_time_s
        + (1.0 / t.links.gw_to_cloud[requester][c] + t.clouds[c].read_delay_ms / 1000.0) * d.size
        for c in a.clouds
    )


def unhoisted_candidates(t: Topology, d: DataItem, a: AllocationVector) -> list[tuple[int, float, float]]:
    """(entry cloud, entry cost, propagation cost) per candidate, in allocation order."""
    g = t.gateways[d.source_gateway]
    out = []
    for entry in a.clouds:
        c = t.clouds[entry]
        first = g.waiting_time_s + (
            1.0 / t.links.gw_to_cloud[g.id][entry] + g.read_delay_ms / 1000.0 + c.write_delay_ms / 1000.0
        ) * d.size
        prop = 0.0
        for other in a.clouds:
            if other != entry:
                branch = c.waiting_time_s + (
                    1.0 / t.links.cloud_to_cloud[entry][other]
                    + c.read_delay_ms / 1000.0
                    + t.clouds[other].write_delay_ms / 1000.0
                ) * d.size
                if branch > prop:
                    prop = branch
        out.append((entry, first, prop))
    return out


def assert_matches_unhoisted(model: CostModel, t: Topology, d: DataItem, a: AllocationVector, requester: int):
    candidates = unhoisted_candidates(t, d, a)
    want = min(first + prop for _, first, prop in candidates)
    assert model.total(d, a).hex() == want.hex()
    breakdown = model.breakdown(d, a)
    assert [(c, total.hex()) for c, total in breakdown.per_candidate] == [
        (c, (first + prop).hex()) for c, first, prop in candidates
    ]
    entry_cloud, first, prop = next(c for c in candidates if c[1] + c[2] == want)
    assert (breakdown.entry_cloud, breakdown.entry_cost.hex(), breakdown.propagation_cost.hex()) == (
        entry_cloud, first.hex(), prop.hex()
    )
    assert model.access_delay(d, a, requester).hex() == unhoisted_access_delay(t, d, a, requester).hex()

    # the exact solver against an enumeration of the unhoisted totals
    r = len(a)
    feasible = tuple(range(t.num_clouds))
    best = min(
        itertools.combinations(feasible, r),
        key=lambda combo: min(f + p for _, f, p in unhoisted_candidates(t, d, AllocationVector(combo))),
    )
    assert model.best_allocation(d, feasible, r)[0].clouds == best


def test_lazy_rows_match_unhoisted_formulas_on_random_instances():
    for seed in range(300):
        t, d, a = random_instance(seed)
        requester = random.Random(seed).randrange(t.num_gateways)
        assert_matches_unhoisted(CostModel(t), t, d, a, requester)


def test_lazy_rows_match_unhoisted_formulas_in_shuffled_gateway_order():
    rng = random.Random(4_242)
    t = make_topology(rng, 60, 7)
    model = CostModel(t)
    sources = list(range(t.num_gateways))
    requesters = list(range(t.num_gateways))
    rng.shuffle(sources)
    rng.shuffle(requesters)
    for source, requester in zip(sources, requesters):
        r = rng.randint(1, 4)
        d = DataItem(0, float(rng.randint(20, 100)), source, r)
        a = AllocationVector(tuple(rng.sample(range(t.num_clouds), r)))
        assert_matches_unhoisted(model, t, d, a, requester)
    # every row is built by now; a second pass reads the cached rows
    for source in sources[:10]:
        d = DataItem(0, 64.0, source, 3)
        a = AllocationVector((2, 0, 5))
        assert_matches_unhoisted(model, t, d, a, sources[-1])


@pytest.mark.parametrize("gateway", [-1, 60])
def test_out_of_range_gateway_raises_before_any_row_is_built(gateway):
    t = make_topology(random.Random(17), 60, 7)
    model = CostModel(t)
    d = DataItem(0, 50.0, gateway, 2)
    a = AllocationVector((0, 1))
    with pytest.raises(InvalidAllocation):
        model.total(d, a)
    with pytest.raises(InvalidAllocation):
        model.breakdown(d, a)
    with pytest.raises(InvalidAllocation):
        model.best_allocation(d, tuple(range(7)), 2)
    with pytest.raises(InvalidAllocation):
        model.access_delay(DataItem(0, 50.0, 0, 2), a, gateway)
    assert model._entry_rows == [None] * 60


@pytest.mark.parametrize("clouds", [(0, 7), (7, 0), (0, -1), (-1, 0), (2, 0, 99)])
def test_total_rejects_out_of_range_clouds_anywhere_in_the_vector(clouds):
    model = CostModel(make_topology(random.Random(18), 3, 7))
    with pytest.raises(InvalidAllocation, match=f"cloud id {[c for c in clouds if not 0 <= c < 7][0]} "):
        model.total(DataItem(0, 50.0, 1, len(clouds)), AllocationVector(clouds))


@pytest.mark.parametrize("feasible", [(0, 1, 99), (-1, 0, 1), (0, 7)])
def test_best_allocation_rejects_out_of_range_clouds(feasible):
    model = CostModel(make_topology(random.Random(19), 3, 7))
    with pytest.raises(InvalidAllocation):
        model.best_allocation(DataItem(0, 50.0, 1, 2), feasible, 2)


def test_a_model_that_never_solves_builds_no_order_rows():
    model = CostModel(make_topology(random.Random(20), 4, 12))
    d = DataItem(0, 50.0, 1, 3)
    a = AllocationVector((0, 5, 9))
    model.total(d, a)
    model.breakdown(d, a)
    model.access_delay(d, a, 2)
    # one replica needs no branch, so no order either
    model.best_allocation(DataItem(0, 50.0, 1, 1), tuple(range(12)), 1)
    assert model._orders == [None] * 12
    model.best_allocation(d, (0, 5, 9, 11), 3)
    assert [c for c, order in enumerate(model._orders) if order is not None] == [0, 5, 9, 11]
    # each order ranks the other clouds by their propagation cost per byte
    for c in (0, 5, 9, 11):
        assert sorted(model._orders[c]) == [c2 for c2 in range(12) if c2 != c]
        costs = [model._prop_base[c][c2] for c2 in model._orders[c]]
        assert costs == sorted(costs)


@pytest.mark.parametrize(
    "feasible, r, size, gateway, error",
    [
        ((0, 1, 99), 2, 50.0, 1, InvalidAllocation),
        ((-1, 0, 1), 2, 50.0, 1, InvalidAllocation),
        ((0, 1, 2), 2, 50.0, 3, InvalidAllocation),
        ((0, 1, 1), 2, 50.0, 1, InvalidAllocation),
        ((0, 1), 3, 50.0, 1, ValueError),
        ((0, 1, 2), 2, -1.0, 1, ValueError),
        ((0, 1, 2), 2, math.nan, 1, ValueError),
    ],
    ids=["cloud-past-end", "negative-cloud", "gateway", "duplicate", "replicas", "negative-size", "nan-size"],
)
def test_failed_solver_check_builds_no_row(feasible, r, size, gateway, error):
    model = CostModel(make_topology(random.Random(19), 3, 7))
    with pytest.raises(error):
        model.best_allocation(DataItem(0, size, gateway, r), feasible, r)
    assert model._orders == [None] * 7
    assert model._entry_rows == [None] * 3
