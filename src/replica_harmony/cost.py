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

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidAllocation
from .model import AllocationVector, DataItem, Topology, check_allocation

MS_PER_S = 1000.0


@dataclass(frozen=True)
class EnergyParams:
    """Per-byte energy coefficients, joules/byte."""

    e_uplink: float = 1.0e-6
    e_intercloud: float = 0.5e-6
    e_write: float = 0.2e-6

    def __post_init__(self):
        if min(self.e_uplink, self.e_intercloud, self.e_write) < 0:
            raise ValueError("energy coefficients must be >= 0")


@dataclass(frozen=True)
class CostBreakdown:
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

    Precomputes per-byte delay tables once so that per-call work is a few
    multiply-adds; the table entries use the same left-to-right additions
    as the formula above, so results are bit-identical to a naive
    evaluation.
    """

    def __init__(self, t: Topology):
        self.topology = t
        gw = t.links.gw_to_cloud
        cc = t.links.cloud_to_cloud
        self._gw_wait = tuple(g.waiting_time_s for g in t.gateways)
        self._cloud_wait = tuple(c.waiting_time_s for c in t.clouds)
        # entry_base[g][c] = 1/B_gc + R_g + W_c, seconds per byte
        self._entry_base = tuple(
            tuple(
                1.0 / gw[g.id][c.id] + g.read_delay_ms / MS_PER_S + c.write_delay_ms / MS_PER_S
                for c in t.clouds
            )
            for g in t.gateways
        )
        # prop_base[c][c2] = 1/B_cc2 + R_c + W_c2, seconds per byte; diagonal unused
        self._prop_base = tuple(
            tuple(
                0.0
                if c.id == c2.id
                else 1.0 / cc[c.id][c2.id] + c.read_delay_ms / MS_PER_S + c2.write_delay_ms / MS_PER_S
                for c2 in t.clouds
            )
            for c in t.clouds
        )
        # read_base[g][c] = 1/B_gc + R_c, seconds per byte (retrieval path)
        self._read_base = tuple(
            tuple(1.0 / gw[g.id][c.id] + c.read_delay_ms / MS_PER_S for c in t.clouds)
            for g in t.gateways
        )

    def _candidate_totals(self, d: DataItem, a: AllocationVector) -> list[tuple[int, float, float, float]]:
        size = d.size
        gw_wait = self._gw_wait[d.source_gateway]
        entry_row = self._entry_base[d.source_gateway]
        out = []
        for c in a.clouds:
            entry = gw_wait + entry_row[c] * size
            prop_row = self._prop_base[c]
            cloud_wait = self._cloud_wait[c]
            prop = 0.0
            for c2 in a.clouds:
                if c2 == c:
                    continue
                branch = cloud_wait + prop_row[c2] * size
                if branch > prop:
                    prop = branch
            out.append((c, entry, prop, entry + prop))
        return out

    def _check(self, d: DataItem, a: AllocationVector) -> None:
        check_allocation(self.topology, a)
        if not (0 <= d.source_gateway < self.topology.num_gateways):
            raise InvalidAllocation(f"source gateway id {d.source_gateway} out of range")

    def total(self, d: DataItem, a: AllocationVector) -> float:
        """Replication cost in seconds; fast path without the breakdown.

        One pass over the entry candidates with the expressions of
        _candidate_totals, keeping the first smallest total as min() does.
        """
        self._check(d, a)
        size = d.size
        gw_wait = self._gw_wait[d.source_gateway]
        entry_row = self._entry_base[d.source_gateway]
        prop_base = self._prop_base
        cloud_waits = self._cloud_wait
        clouds = a.clouds
        best = None
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
        return best

    def breakdown(self, d: DataItem, a: AllocationVector) -> CostBreakdown:
        self._check(d, a)
        candidates = self._candidate_totals(d, a)
        best = min(candidates, key=lambda item: item[3])
        return CostBreakdown(
            entry_cloud=best[0],
            entry_cost=best[1],
            propagation_cost=best[2],
            total=best[3],
            per_candidate=tuple((c, t) for c, _, _, t in candidates),
        )

    def best_allocation(self, d: DataItem, feasible: tuple[int, ...], r: int) -> AllocationVector:
        """Exact minimizer of total() over the r-subsets of the cloud ids in feasible.

        With c as entry cloud, the cheapest subset adds the r-1 clouds of
        smallest branch cost, so the optimum is the minimum over c of
        entry(c) + the (r-1)-th smallest branch(c, .): O(F^2 log F) for F
        feasible clouds instead of C(F, r) evaluations. Ties go to the
        lexicographically smallest sorted vector, as in an enumeration of
        the subsets in order. The floats use the expressions of
        _candidate_totals, and rounded addition is monotone, so
        entry + max(branches) <= optimum holds exactly when each
        entry + branch does.
        """
        if not (1 <= r <= len(feasible)):
            raise ValueError(f"need 1 <= r <= {len(feasible)} feasible clouds, got r={r}")
        size = d.size
        gw_wait = self._gw_wait[d.source_gateway]
        entry_row = self._entry_base[d.source_gateway]
        rows = []
        for c in feasible:
            entry = gw_wait + entry_row[c] * size
            prop_row = self._prop_base[c]
            cloud_wait = self._cloud_wait[c]
            branches = [(cloud_wait + prop_row[c2] * size, c2) for c2 in feasible if c2 != c]
            prop = 0.0
            if r > 1:
                kth = sorted(branches)[r - 2][0]
                if kth > prop:
                    prop = kth
            rows.append((entry + prop, c, entry, branches))
        optimum = min(row[0] for row in rows)
        best = None
        for cand, c, entry, branches in rows:
            if cand != optimum:
                continue
            # with entry cloud c, any r-1 of these clouds reach the optimum
            ties = sorted(c2 for b, c2 in branches if entry + b <= optimum)
            vector = tuple(sorted((c, *ties[: r - 1])))
            if best is None or vector < best:
                best = vector
        return AllocationVector(best)

    def access_delay(self, d: DataItem, a: AllocationVector, requester: int) -> float:
        """Best-replica retrieval time in seconds for the given gateway."""
        check_allocation(self.topology, a)
        if not (0 <= requester < self.topology.num_gateways):
            raise InvalidAllocation(f"requester gateway id {requester} out of range")
        size = d.size
        read_row = self._read_base[requester]
        return min(self._cloud_wait[c] + read_row[c] * size for c in a.clouds)

    def objective(self, d: DataItem):
        """Bind a datum; returns the callable optimizers minimize."""

        def evaluate(a: AllocationVector) -> float:
            return self.total(d, a)

        return evaluate


def replication_cost(t: Topology, d: DataItem, a: AllocationVector) -> CostBreakdown:
    return CostModel(t).breakdown(d, a)


def placement_energy(d: DataItem, a: AllocationVector, p: EnergyParams = EnergyParams()) -> float:
    """Joules for one uplink transfer, r-1 propagations, and r writes."""
    r = len(a)
    return d.size * p.e_uplink + (r - 1) * d.size * p.e_intercloud + r * d.size * p.e_write
