"""Seeded randomness helpers.

Every stochastic choice of a simulation run (failure injection, duration
jitter, broker jitter) must flow from one root seed so that a run is exactly
reproducible.  :class:`RandomStreams` derives independent, stable child
generators from a root seed and a string label, so adding a new consumer of
randomness never perturbs the draws of existing ones.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - numpy is imported at the first draw
    import numpy as np

__all__ = ["RandomStreams", "UNIFORM_BLOCK"]

#: draws per numpy call of :meth:`RandomStreams.uniforms`
UNIFORM_BLOCK = 512


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

    def uniforms(self, label: str) -> Iterator[float]:
        """The named stream's uniform draws in ``[0, 1)``, one per ``next``.

        Drawn ``UNIFORM_BLOCK`` at a time — ``uniform(size=n)`` yields exactly
        the values of n scalar draws — so a draw costs an iterator step, not
        a numpy call.  Nothing is drawn (and numpy not imported) before the
        first ``next``; the stream must have no other consumer.
        """
        while True:
            yield from self.stream(label).uniform(0.0, 1.0, size=UNIFORM_BLOCK).tolist()

    def bernoulli(self, label: str, probability: float) -> bool:
        """One biased coin flip from the named stream."""
        return bool(self.stream(label).random() < probability)

    def spawn(self, label: str) -> "RandomStreams":
        """A child family whose streams are independent of the parent's."""
        derived = zlib.crc32(label.encode("utf-8")) ^ ((self.seed + 1) * 0x85EBCA6B & 0xFFFFFFFF)
        return RandomStreams(derived)
