"""Seeded randomness helpers.

Every stochastic choice of a simulation run (failure injection, duration
jitter, broker jitter) must flow from one root seed so that a run is exactly
reproducible.  :class:`RandomStreams` derives independent, stable child
generators from a root seed and a string label, so adding a new consumer of
randomness never perturbs the draws of existing ones.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - numpy is imported at the first draw
    import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A family of named, independently-seeded random generators."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, label: str) -> np.random.Generator:
        """The generator associated with ``label`` (created on first use)."""
        if label not in self._streams:
            import numpy as np  # at the first draw: most runs never draw

            derived = zlib.crc32(label.encode("utf-8")) ^ (self.seed * 0x9E3779B1 & 0xFFFFFFFF)
            self._streams[label] = np.random.default_rng(derived)
        return self._streams[label]

    def uniform(self, label: str, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw from the named stream."""
        return float(self.stream(label).uniform(low, high))

    def bernoulli(self, label: str, probability: float) -> bool:
        """One biased coin flip from the named stream."""
        return bool(self.stream(label).random() < probability)

    def exponential(self, label: str, mean: float) -> float:
        """One exponential draw with the given mean."""
        return float(self.stream(label).exponential(mean))

    def spawn(self, label: str) -> "RandomStreams":
        """A child family whose streams are independent of the parent's."""
        derived = zlib.crc32(label.encode("utf-8")) ^ ((self.seed + 1) * 0x85EBCA6B & 0xFFFFFFFF)
        return RandomStreams(derived)
