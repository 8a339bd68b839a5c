"""Test oracles: independent checks of what the package computes.

Nothing here imports replica_harmony, so a check cannot share a bug with
the code it checks. validate_topology reads a topology by its fields'
names only: gateways, clouds, links and the records in them.
"""

from __future__ import annotations


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
