"""Replication cost, access delay, and placement energy.

Replication cost for a datum with size L arriving at gateway j under
allocation a:

    total = min over entry candidates c in a of
        [T_j + (1/B_jc + R_j + W_c) * L]
        + max over c2 in a minus {c} of [T_c + (1/B_cc2 + R_c + W_c2) * L]

where T is a waiting time, R a per-byte read delay, W a per-byte write
delay, and B a transfer rate. The max over an empty set is 0 (single
replica). Per-byte delays are stored in ms/byte and divided by 1000 here;
all arithmetic below is in seconds and bytes.

Access delay and energy are simpler artifact-defined models:

    access_delay = min over c in a of [T_c + (1/B_requester,c + R_c) * L]
    energy       = L*e_uplink + (r-1)*L*e_intercloud + r*L*e_write
"""

from functools import partial
from typing import NamedTuple

from .errors import ConfigError, InvalidAllocation
from .model import AllocationVector, DataItem, Topology, check_allocation, check_distinct, checked

MS_PER_S = 1000.0


@checked
class EnergyParams(NamedTuple):
    """Per-byte energy coefficients, joules/byte."""

    e_uplink: float = 1.0e-6
    e_intercloud: float = 0.5e-6
    e_write: float = 0.2e-6

    def __post_init__(self):
        if min(self.e_uplink, self.e_intercloud, self.e_write) < 0:
            raise ConfigError("energy coefficients must be >= 0")


class CostBreakdown(NamedTuple):
    """Replication cost split by the winning entry cloud.

    per_candidate lists (cloud id, candidate total) for every entry
    candidate in allocation order; total == min of those candidates
    == entry_cost + propagation_cost.
    """

    entry_cloud: int
    entry_cost: float
    propagation_cost: float
    total: float
    per_candidate: tuple[tuple[int, float], ...]


class CostModel:
    """Evaluator bound to one topology.

    Per-byte delay tables make per-call work a few multiply-adds. Each cell
    adds the R/1000 and W/1000 terms, computed once, left to right as the
    formula above does, so results are bit-identical to a naive evaluation.
    The cloud-to-cloud table is built up front; a gateway's entry row, and
    a cloud's propagation order for best_allocation, are built on first
    use. Ids are range-checked before any row is built.
    """

    def __init__(self, t: Topology):
        self.topology = t
        self._num_gateways = t.num_gateways
        self._uplink = t.links.gw_to_cloud
        cc = t.links.cloud_to_cloud
        self._gw_wait = tuple([g.waiting_time_s for g in t.gateways])
        self._cloud_wait = tuple([c.waiting_time_s for c in t.clouds])
        self._gw_read = tuple([g.read_delay_ms / MS_PER_S for g in t.gateways])
        self._cloud_read = tuple([c.read_delay_ms / MS_PER_S for c in t.clouds])
        self._cloud_write = tuple([c.write_delay_ms / MS_PER_S for c in t.clouds])
        # prop_base[c][c2] = 1/B_cc2 + R_c + W_c2, seconds per byte; diagonal unused
        self._prop_base = tuple([
            tuple([0.0 if c == c2 else 1.0 / b + r + w
                   for c2, (b, w) in enumerate(zip(cc[c], self._cloud_write))])
            for c, r in enumerate(self._cloud_read)
        ])
        # one slot per gateway, filled by _entry_row
        self._entry_rows: list[tuple[float, ...] | None] = [None] * t.num_gateways
        # one slot per cloud, filled by best_allocation: the other cloud ids
        # by prop_base[c], cheapest first
        self._orders: list[tuple[int, ...] | None] = [None] * t.num_clouds

    def _entry_row(self, g: int) -> tuple[float, ...]:
        """Entry row of gateway g: 1/B_gc + R_g + W_c per cloud c, seconds per byte; g in range."""
        row = self._entry_rows[g]
        if row is None:
            rg = self._gw_read[g]
            row = tuple([1.0 / b + rg + w for b, w in zip(self._uplink[g], self._cloud_write)])
            self._entry_rows[g] = row
        return row

    def _check_gateway(self, g: int, role: str) -> None:
        if not (0 <= g < self._num_gateways):
            raise InvalidAllocation(f"{role} gateway id {g} out of range")

    def total(self, d: DataItem, a: AllocationVector) -> float:
        """Replication cost in seconds; fast path without the breakdown.

        One pass over the entry candidates with the expressions of
        breakdown, keeping the first smallest total as min() does. Cloud
        ids are not range-checked here: AllocationVector rejects negative
        ones, and an id past the end raises IndexError, which falls back to
        check_allocation, so the error names the first bad id.
        """
        g = d.source_gateway
        if not (0 <= g < self._num_gateways):
            raise InvalidAllocation(f"source gateway id {g} out of range")
        entry_row = self._entry_rows[g]
        if entry_row is None:
            entry_row = self._entry_row(g)
        size = d.size
        gw_wait = self._gw_wait[g]
        prop_base = self._prop_base
        cloud_waits = self._cloud_wait
        clouds = a.clouds
        best = None
        try:
            for c in clouds:
                entry = gw_wait + entry_row[c] * size
                prop_row = prop_base[c]
                cloud_wait = cloud_waits[c]
                prop = 0.0
                for c2 in clouds:
                    if c2 == c:
                        continue
                    branch = cloud_wait + prop_row[c2] * size
                    if branch > prop:
                        prop = branch
                cand = entry + prop
                if best is None or cand < best:
                    best = cand
        except IndexError:
            check_allocation(self.topology, clouds)
            raise
        return best

    def breakdown(self, d: DataItem, a: AllocationVector) -> CostBreakdown:
        check_allocation(self.topology, a.clouds)
        self._check_gateway(d.source_gateway, "source")
        size = d.size
        gw_wait = self._gw_wait[d.source_gateway]
        entry_row = self._entry_row(d.source_gateway)
        candidates = []
        for c in a.clouds:
            entry = gw_wait + entry_row[c] * size
            prop_row = self._prop_base[c]
            cloud_wait = self._cloud_wait[c]
            # max keeps the first largest, as a running max from 0.0 does
            prop = max([0.0] + [cloud_wait + prop_row[c2] * size for c2 in a.clouds if c2 != c])
            candidates.append((c, entry, prop, entry + prop))
        # (entry_cloud, entry_cost, propagation_cost, total) of the first cheapest
        best = min(candidates, key=lambda item: item[3])
        return CostBreakdown(*best, tuple((c, t) for c, _, _, t in candidates))

    def best_allocation(
        self, d: DataItem, feasible: tuple[int, ...], r: int
    ) -> tuple[AllocationVector, float]:
        """The exact minimizer of total() over the r-subsets of the distinct
        cloud ids in feasible, and its cost.

        With c as entry cloud, the cheapest subset adds the r-1 clouds of
        smallest branch cost, so the optimum is the minimum over c of
        entry(c) + max(0, the (r-1)-th smallest branch(c, .)). A branch is
        T_c + prop_base[c][c2] * L, and rounded + and * are monotone for
        L >= 0, so every datum ranks c's branches in one order, built on
        first use: a walk to its (r-1)-th feasible cloud gives that branch,
        in O(F * r) for F feasible clouds, plus a step per full cloud passed.
        Ties go to the lexicographically smallest sorted vector, as in an
        enumeration; only entry clouds that reach the optimum are searched
        for them. With total()'s floats, entry + branch <= optimum holds
        exactly up to the (r-1)-th feasible cloud, so the vector's total()
        is the optimum, bit for bit.
        """
        if not (1 <= r <= len(feasible)):
            raise ValueError(f"need 1 <= r <= {len(feasible)} feasible clouds, got r={r}")
        size = d.size
        if not size >= 0:
            raise ValueError(f"datum size must be >= 0, got {size}")
        self._check_gateway(d.source_gateway, "source")
        check_allocation(self.topology, feasible)
        check_distinct(feasible)
        allowed = set(feasible)
        gw_wait = self._gw_wait[d.source_gateway]
        entry_row = self._entry_row(d.source_gateway)
        prop_base = self._prop_base
        cloud_waits = self._cloud_wait
        orders = self._orders
        rows = []
        for c in feasible:
            entry = gw_wait + entry_row[c] * size
            prop = 0.0
            if r > 1:
                order = orders[c]
                if order is None:
                    others = [c2 for c2 in range(len(prop_base)) if c2 != c]
                    order = orders[c] = tuple(sorted(others, key=prop_base[c].__getitem__))
                left = r - 1
                for c2 in order:
                    if c2 in allowed:
                        left -= 1
                        if not left:
                            break
                prop = max(0.0, cloud_waits[c] + prop_base[c][c2] * size)
            rows.append((entry + prop, c, entry))
        optimum = min([row[0] for row in rows])
        best = None
        for cand, c, entry in rows:
            if cand != optimum:
                continue
            # with entry cloud c, any r-1 of these clouds reach the optimum
            ties = []
            if r > 1:
                prop_row = prop_base[c]
                cloud_wait = cloud_waits[c]
                for c2 in orders[c]:
                    if c2 in allowed:
                        if entry + (cloud_wait + prop_row[c2] * size) > optimum:
                            break
                        ties.append(c2)
            ties.sort()
            vector = tuple(sorted((c, *ties[: r - 1])))
            if best is None or vector < best:
                best = vector
        return AllocationVector.unchecked(best), optimum

    def access_delay(self, d: DataItem, a: AllocationVector, requester: int) -> float:
        """Best-replica retrieval time in seconds for the given gateway."""
        check_allocation(self.topology, a.clouds)
        self._check_gateway(requester, "requester")
        size = d.size
        uplink = self._uplink[requester]
        return min(self._cloud_wait[c] + (1.0 / uplink[c] + self._cloud_read[c]) * size for c in a.clouds)

    def objective(self, d: DataItem):
        """Bind a datum; returns the callable optimizers minimize."""
        return partial(self.total, d)


def replication_cost(t: Topology, d: DataItem, a: AllocationVector) -> CostBreakdown:
    return CostModel(t).breakdown(d, a)


def placement_energy(d: DataItem, a: AllocationVector, p: EnergyParams = EnergyParams()) -> float:
    """Joules for one uplink transfer, r-1 propagations, and r writes."""
    r = len(a)
    return d.size * p.e_uplink + (r - 1) * d.size * p.e_intercloud + r * d.size * p.e_write
