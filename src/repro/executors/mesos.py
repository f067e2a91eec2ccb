"""The Mesos-based executor.

"GinFlow, on top of Mesos, starts one SA per machine for each offer received
from the Mesos scheduler.  Thus, increasing the number of nodes will increase
the number of machines in each offer and consequently the parallelization in
starting the SAs.  This explains the linear decrease of the deployment time
observed for the Mesos-based executor." (Section V-C)

The model follows that description literally: offers arrive periodically
(after a framework-registration delay); each offer contains every node that
still has a free agent slot; the executor accepts one agent per offered node
per round.  Deployment time is therefore ≈ ``ceil(agents / nodes)`` offer
rounds — linearly decreasing in the node count for a fixed agent count.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster import Cluster, MesosMaster

from .base import DeploymentPlan, DistributedExecutor

__all__ = ["MesosExecutor"]


class MesosExecutor(DistributedExecutor):
    """Offer-based provisioning of the service agents.

    Attributes
    ----------
    offer_interval:
        Seconds between two resource-offer rounds.
    registration_delay:
        Framework registration time before the first offer.
    agent_start_time:
        Time for a Mesos slave to launch one SA after accepting the offer.
    """

    __slots__ = ("offer_interval", "registration_delay", "agent_start_time")
    name = "mesos"

    def __init__(self, offer_interval: float = 2.0, registration_delay: float = 1.0, agent_start_time: float = 0.5):
        self.offer_interval, self.registration_delay = offer_interval, registration_delay
        self.agent_start_time = agent_start_time

    def plan(self, cluster: Cluster, agent_names: Sequence[str]) -> DeploymentPlan:
        self._check_capacity(cluster, agent_names)
        cluster.reset()
        master = MesosMaster(
            cluster, offer_interval=self.offer_interval, registration_delay=self.registration_delay
        )
        remaining = list(agent_names)
        placement: dict[str, str] = {}
        ready_times: dict[str, float] = {}
        while remaining:
            offer_time = master.next_offer_time()
            offer = master.make_offer()
            if not offer:
                raise RuntimeError(
                    f"mesos executor: cluster {cluster.name!r} ran out of capacity with "
                    f"{len(remaining)} agents still to place"
                )
            for node in offer:
                if not remaining:
                    break
                agent = remaining.pop(0)
                node.assign(agent)
                placement[agent] = node.name
                ready_times[agent] = offer_time + self.agent_start_time
        deployment_time = max(ready_times.values(), default=self.registration_delay)
        plan = DeploymentPlan(
            placement=placement,
            ready_times=ready_times,
            deployment_time=deployment_time,
            executor=self.name,
        )
        plan.validate()
        return plan
