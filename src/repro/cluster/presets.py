"""The uniform cluster preset.

The Grid'5000 preset reproduces the paper's testbed exactly (uneven core
counts, a 25-node ceiling).  The *uniform* preset here removes both
constraints: every node is identical and the node count is unbounded, which
is what scale experiments beyond the paper's setup need.
"""

from __future__ import annotations

from .node import Cluster, Node

__all__ = ["uniform_cluster", "UNIFORM_CORES_PER_NODE"]

#: Core count of every node of the uniform preset.
UNIFORM_CORES_PER_NODE = 8


def uniform_cluster(
    nodes: int,
    cores_per_node: int = UNIFORM_CORES_PER_NODE,
    agents_per_core: int = 2,
    name: str | None = None,
) -> Cluster:
    """A homogeneous cluster of ``nodes`` identical machines."""
    if nodes < 1:
        raise ValueError("a uniform cluster needs at least one node")
    machines = [
        Node(name=f"uniform-{index + 1}", cores=cores_per_node, agents_per_core=agents_per_core)
        for index in range(nodes)
    ]
    return Cluster(machines, name=name or f"uniform-{nodes}")
