"""A Mesos-like resource-offer master.

The paper's Mesos executor "starts one SA per machine for each offer received
from the Mesos scheduler", so the relevant behaviour is the *offer cycle*:
periodically, the master offers the currently available machines to the
framework, which accepts slots on them.  More nodes per offer means more
agents started per cycle, which is what produces the linearly decreasing
deployment time of Fig. 14.
"""

from __future__ import annotations

from .node import Cluster, Node

__all__ = ["MesosMaster"]


class MesosMaster:
    """Generates resource offers over a cluster.

    Parameters
    ----------
    cluster:
        The managed cluster.
    offer_interval:
        Virtual seconds between two offer rounds.
    registration_delay:
        Framework registration time before the first offer.
    """

    def __init__(self, cluster: Cluster, offer_interval: float = 2.0, registration_delay: float = 1.0):
        if offer_interval <= 0:
            raise ValueError("offer_interval must be > 0")
        self.cluster = cluster
        self.offer_interval = offer_interval
        self.registration_delay = registration_delay
        self._round = 0

    def next_offer_time(self) -> float:
        """Virtual time (relative to deployment start) of the next offer round."""
        return self.registration_delay + self._round * self.offer_interval

    def make_offer(self) -> list[Node]:
        """Produce the next offer: every node that still has a free slot."""
        self._round += 1
        return [node for node in self.cluster.nodes if node.free_slots > 0]

    def reset(self) -> None:
        """Restart the offer cycle."""
        self._round = 0
