"""Network model of the simulated testbed.

The Grid'5000 nodes of the paper are connected through 1 Gbps Ethernet.  The
model is deliberately simple — a fixed per-message latency plus a
bandwidth-proportional transfer time — because the experiments exchange small
coordination messages whose cost is dominated by latency and by broker
processing, not by payload size.
"""

from __future__ import annotations

from repro.records import Record

__all__ = ["NetworkModel"]


class NetworkModel(Record):
    """Point-to-point network cost model.

    Attributes
    ----------
    latency:
        One-way latency in seconds (default 0.5 ms, a typical same-switch
        Grid'5000 round trip of ~1 ms).
    bandwidth:
        Link bandwidth in bytes per second (default 1 Gbps).
    jitter:
        Maximum uniform jitter added to each transfer, in seconds.
    """

    __slots__ = ("latency", "bandwidth", "jitter")

    def __init__(self, latency: float = 0.0005, bandwidth: float = 125_000_000.0, jitter: float = 0.0):
        self.latency, self.bandwidth, self.jitter = latency, bandwidth, jitter  # 1 Gbps in bytes/s by default

    def transfer_time(self, size_bytes: float = 1024.0, jitter_draw: float = 0.0) -> float:
        """Time to move ``size_bytes`` from one node to another.

        ``jitter_draw`` must be a uniform draw in ``[0, 1)`` supplied by the
        caller (so that all randomness flows from the run's seeded streams).
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        return self.latency + size_bytes / self.bandwidth + self.jitter * jitter_draw

    def scaled(self, factor: float) -> "NetworkModel":
        """A copy with latency (and jitter) multiplied by ``factor``."""
        return NetworkModel(latency=self.latency * factor, bandwidth=self.bandwidth, jitter=self.jitter * factor)
