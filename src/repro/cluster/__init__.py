"""Simulated infrastructure: nodes, clusters, network and the Mesos master."""

from .node import Cluster, Node
from .network import NetworkModel
from .mesos_master import MesosMaster
from .grid5000 import (
    GRID5000_NODES,
    GRID5000_TOTAL_CORES,
    grid5000_cluster,
    grid5000_network,
)
from .presets import UNIFORM_CORES_PER_NODE, uniform_cluster

__all__ = [
    "Node",
    "Cluster",
    "NetworkModel",
    "MesosMaster",
    "grid5000_cluster",
    "grid5000_network",
    "GRID5000_NODES",
    "GRID5000_TOTAL_CORES",
    "uniform_cluster",
    "UNIFORM_CORES_PER_NODE",
]
