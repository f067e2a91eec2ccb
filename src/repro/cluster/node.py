"""The nodes of the simulated infrastructure.

The paper's experiments ran on up to 25 Grid'5000 nodes totalling 568 cores,
with the number of service agents per core limited to two (which is what
allowed up to 1000 deployed services).  :class:`Node` and :class:`Cluster`
model exactly that capacity accounting.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.records import Record

__all__ = ["Node", "Cluster"]


class Node(Record):
    """One compute node.

    Attributes
    ----------
    name:
        Host name (``node-3``).
    cores:
        Number of CPU cores.
    agents_per_core:
        Deployment limit of service agents per core (2 in the paper).
    """

    __slots__ = ("name", "cores", "agents_per_core", "assigned")

    def __init__(self, name: str, cores: int, agents_per_core: int = 2, assigned: list[str] | None = None):
        self.name, self.cores, self.agents_per_core = name, cores, agents_per_core
        self.assigned: list[str] = [] if assigned is None else assigned

    @property
    def capacity(self) -> int:
        """Maximum number of service agents this node may host."""
        return self.cores * self.agents_per_core

    @property
    def free_slots(self) -> int:
        """Remaining agent slots."""
        return self.capacity - len(self.assigned)

    def assign(self, agent_name: str) -> None:
        """Place one agent on the node (raises when the node is full)."""
        if self.free_slots <= 0:
            raise RuntimeError(f"node {self.name!r} is full ({self.capacity} agents)")
        self.assigned.append(agent_name)

    def release(self, agent_name: str) -> None:
        """Remove one agent from the node (no error if absent)."""
        if agent_name in self.assigned:
            self.assigned.remove(agent_name)

    def reset(self) -> None:
        """Clear every assignment."""
        self.assigned.clear()


class Cluster:
    """A named set of nodes with capacity accounting."""

    def __init__(self, nodes: Iterable[Node], name: str = "cluster"):
        self.name = name
        self.nodes: list[Node] = list(nodes)
        if not self.nodes:
            raise ValueError("a cluster needs at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def node(self, name: str) -> Node:
        """The node called ``name``."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"unknown node {name!r}")

    @property
    def total_cores(self) -> int:
        """Total number of cores across the cluster."""
        return sum(node.cores for node in self.nodes)

    @property
    def total_capacity(self) -> int:
        """Total number of agent slots across the cluster."""
        return sum(node.capacity for node in self.nodes)

    def free_capacity(self) -> int:
        """Remaining agent slots across the cluster."""
        return sum(node.free_slots for node in self.nodes)

    def subset(self, count: int) -> "Cluster":
        """A cluster restricted to the first ``count`` nodes (fresh assignments)."""
        if count < 1 or count > len(self.nodes):
            raise ValueError(f"cannot take {count} nodes out of {len(self.nodes)}")
        selected = [Node(name=node.name, cores=node.cores, agents_per_core=node.agents_per_core) for node in self.nodes[:count]]
        return Cluster(selected, name=f"{self.name}[{count}]")

    def reset(self) -> None:
        """Clear every node's assignments."""
        for node in self.nodes:
            node.reset()

    def round_robin_placement(self, agent_names: Iterable[str]) -> dict[str, Node]:
        """Place agents on nodes in round-robin order (the SSH executor's policy)."""
        placement: dict[str, Node] = {}
        nodes = self.nodes
        index = 0
        for agent_name in agent_names:
            placed = False
            for _attempt in range(len(nodes)):
                node = nodes[index % len(nodes)]
                index += 1
                if node.free_slots > 0:
                    node.assign(agent_name)
                    placement[agent_name] = node
                    placed = True
                    break
            if not placed:
                raise RuntimeError(
                    f"cluster {self.name!r} is out of capacity "
                    f"({self.total_capacity} slots) while placing {agent_name!r}"
                )
        return placement

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Cluster({self.name!r}, {len(self.nodes)} nodes, {self.total_cores} cores)"
