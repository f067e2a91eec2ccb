"""Grid'5000-like cluster presets.

The experimental setup of the paper: up to 25 nodes, 568 cores in total,
1.5 TB of RAM, 1 Gbps Ethernet, at most two service agents per core (hence up
to ~1000 deployable services).  :func:`grid5000_cluster` builds a cluster
with exactly that aggregate core count.
"""

from __future__ import annotations

from .network import NetworkModel
from .node import Cluster, Node

__all__ = [
    "GRID5000_NODES",
    "GRID5000_TOTAL_CORES",
    "grid5000_cluster",
    "grid5000_network",
]

#: Number of nodes used in the paper's experiments.
GRID5000_NODES = 25

#: Total number of cores available in the paper's experiments.
GRID5000_TOTAL_CORES = 568

#: Agents-per-core limit applied in the paper.
GRID5000_AGENTS_PER_CORE = 2


def grid5000_cluster(nodes: int = GRID5000_NODES, agents_per_core: int = GRID5000_AGENTS_PER_CORE) -> Cluster:
    """A cluster preset mirroring the paper's testbed.

    When ``nodes`` equals 25 the aggregate core count is exactly 568 (the
    cores are spread as evenly as integer arithmetic allows); smaller values
    keep the same per-node core counts and simply take the first ``nodes``
    machines, which is how the Fig. 14 experiment varies the node count.
    """
    if nodes < 1 or nodes > GRID5000_NODES:
        raise ValueError(f"the Grid'5000 preset provides between 1 and {GRID5000_NODES} nodes")
    base = GRID5000_TOTAL_CORES // GRID5000_NODES          # 22 cores
    remainder = GRID5000_TOTAL_CORES % GRID5000_NODES      # 18 nodes get one more
    machines = []
    for index in range(GRID5000_NODES):
        cores = base + (1 if index < remainder else 0)
        machines.append(Node(name=f"paranoia-{index + 1}", cores=cores, agents_per_core=agents_per_core))
    return Cluster(machines[:nodes], name=f"grid5000-{nodes}")


def grid5000_network() -> NetworkModel:
    """The 1 Gbps Ethernet network model of the testbed."""
    return NetworkModel(latency=0.0005, bandwidth=125_000_000.0, jitter=0.0002)
