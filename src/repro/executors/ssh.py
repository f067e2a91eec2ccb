"""The SSH-based executor.

"The SSH-based executor starts the SAs on a predefined set of machines, to be
specified in the GinFlow configuration file. [...] The SSH-based executor
starts SAs in a round-robin fashion on a preconfigured list of nodes.  As the
SSH connections are parallelized, the deployment time slightly increases with
the number of nodes." (Sections IV-C and V-C)

The model therefore has two components:

* a client-side connection-management cost paid once per node (establishing
  and multiplexing the SSH channels is parallel across nodes, but the client
  still spends a little time per channel) — this is what makes deployment
  time *increase slightly* with the node count;
* a per-agent start cost paid sequentially on each node (agents on different
  nodes start in parallel).
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster import Cluster

from .base import DeploymentPlan, DistributedExecutor

__all__ = ["SSHExecutor"]


class SSHExecutor(DistributedExecutor):
    """Round-robin SSH provisioning of the service agents.

    Attributes
    ----------
    connection_overhead:
        Client-side per-node channel management cost (seconds).
    agent_start_time:
        Time to start one SA process on a node (sequential per node).
    base_overhead:
        Fixed cost (reading the configuration, keys, ...).
    """

    __slots__ = ("connection_overhead", "agent_start_time", "base_overhead")
    name = "ssh"

    def __init__(self, connection_overhead: float = 0.6, agent_start_time: float = 0.35, base_overhead: float = 1.0):
        self.connection_overhead, self.agent_start_time = connection_overhead, agent_start_time
        self.base_overhead = base_overhead

    def plan(self, cluster: Cluster, agent_names: Sequence[str]) -> DeploymentPlan:
        self._check_capacity(cluster, agent_names)
        cluster.reset()
        placement_nodes = cluster.round_robin_placement(agent_names)

        # client-side channel setup: one per *used* node, serial at the client
        used_nodes = []
        for agent in agent_names:
            node = placement_nodes[agent].name
            if node not in used_nodes:
                used_nodes.append(node)
        channel_ready = {
            node: self.base_overhead + (index + 1) * self.connection_overhead
            for index, node in enumerate(used_nodes)
        }

        # per-node sequential agent starts (parallel across nodes)
        per_node_started: dict[str, int] = {}
        ready_times: dict[str, float] = {}
        placement: dict[str, str] = {}
        for agent in agent_names:
            node = placement_nodes[agent].name
            position = per_node_started.get(node, 0)
            per_node_started[node] = position + 1
            ready_times[agent] = channel_ready[node] + (position + 1) * self.agent_start_time
            placement[agent] = node

        deployment_time = max(ready_times.values(), default=self.base_overhead)
        plan = DeploymentPlan(
            placement=placement,
            ready_times=ready_times,
            deployment_time=deployment_time,
            executor=self.name,
        )
        plan.validate()
        return plan
