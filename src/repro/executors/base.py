"""Executor abstractions.

"The role of the executor is to enact the workflow in a specific environment
which can be centralised or distributed.  A distributed executor will (1)
claim resources from an infrastructure and (2) provision the distributed
engine (i.e., the SAs) on them." (Section IV-C)

For the simulated runtime an executor produces a :class:`DeploymentPlan`:
which node hosts which agent and at what virtual time each agent becomes
ready.  The two distributed executors of the paper (SSH and Mesos) are
implemented in :mod:`repro.executors.ssh` and :mod:`repro.executors.mesos`;
the centralised executor (single interpreter, no deployment) lives in
:mod:`repro.executors.centralized`.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster import Cluster
from repro.records import Record

__all__ = ["DeploymentPlan", "DistributedExecutor"]


class DeploymentPlan(Record):
    """Result of planning the provisioning of the service agents.

    Attributes
    ----------
    placement:
        Agent name → node name.
    ready_times:
        Agent name → virtual time (relative to deployment start) at which
        the agent process is up.
    deployment_time:
        Time at which every agent is up (the "deployment" bar of Fig. 14).
    executor:
        Name of the executor that produced the plan.
    """

    __slots__ = ("placement", "ready_times", "deployment_time", "executor")

    def __init__(
        self, placement: dict[str, str] | None = None, ready_times: dict[str, float] | None = None,
        deployment_time: float = 0.0, executor: str = "unknown",
    ):
        self.placement: dict[str, str] = {} if placement is None else placement
        self.ready_times: dict[str, float] = {} if ready_times is None else ready_times
        self.deployment_time, self.executor = deployment_time, executor

    def agents_on(self, node_name: str) -> list[str]:
        """Agents placed on ``node_name``."""
        return [agent for agent, node in self.placement.items() if node == node_name]

    def validate(self) -> None:
        """Internal consistency check (every placed agent has a ready time)."""
        missing = set(self.placement) ^ set(self.ready_times)
        if missing:
            raise ValueError(f"inconsistent deployment plan; missing entries for {sorted(missing)}")
        if self.ready_times:
            latest = max(self.ready_times.values())
            if latest > self.deployment_time + 1e-9:
                raise ValueError("deployment_time is earlier than the last agent's ready time")


class DistributedExecutor(Record):
    """Base class of the distributed executors (SSH, Mesos, EC2, ...): a record
    of the executor's model constants."""

    __slots__ = ()
    name = "distributed"

    def plan(self, cluster: Cluster, agent_names: Sequence[str]) -> DeploymentPlan:
        """Place ``agent_names`` on ``cluster`` and schedule their start times."""
        raise NotImplementedError

    def _check_capacity(self, cluster: Cluster, agent_names: Sequence[str]) -> None:
        if len(agent_names) > cluster.total_capacity:
            raise RuntimeError(
                f"{self.name} executor: {len(agent_names)} agents exceed the cluster "
                f"capacity of {cluster.total_capacity} (2 agents per core, as in the paper)"
            )
