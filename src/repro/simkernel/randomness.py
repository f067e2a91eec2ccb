"""Seeded randomness helpers.

Every stochastic choice of a simulation run (failure injection, duration
jitter, broker jitter) must flow from one root seed so that a run is exactly
reproducible.  :class:`RandomStreams` derives independent, stable child
generators from a root seed and a string label, so adding a new consumer of
randomness never perturbs the draws of existing ones.

The generator is :class:`PCG64`: numpy's ``default_rng(seed)`` in plain Python,
bit for bit, so every published makespan stands with no numpy on the run path
(``tests/test_pcg64_oracle.py`` holds it to numpy itself).
"""

from __future__ import annotations

import operator
import zlib
from typing import Callable, Iterable

__all__ = ["PCG64", "RandomStreams"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``: the four 64-bit seed words."""
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    # SeedSequence's hashmix and mix written out: a recovering Montage run seeds a stream per crash draw
    const = 0x43B0D7E5
    pool = []
    for word in (entropy + [0, 0, 0])[:4]:
        word ^= const
        const = const * 0x931E8875 & _MASK32
        word = word * const & _MASK32
        pool.append(word ^ word >> 16)
    pool += entropy[4:]  # what the four pool words did not hold is mixed into all of them
    for source in range(len(pool)):
        for target in range(4):
            if source != target:
                value = pool[source] ^ const
                const = const * 0x931E8875 & _MASK32
                value = value * const & _MASK32
                value = (0xCA01F9DD * pool[target] - 0x4973F715 * (value ^ value >> 16)) & _MASK32
                pool[target] = value ^ value >> 16
    const = 0x8B51F9DD
    words = []
    for word in pool[:4] * 2:
        word ^= const
        const = const * 0x58F38DED & _MASK32
        word = word * const & _MASK32
        words.append(word ^ word >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """``numpy.random.default_rng(seed)``, for the three draws this package makes."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        if not hasattr(seed, "__index__") or (seed := operator.index(seed)) < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        s0, s1, s2, s3 = _seed_words(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self._half: int | None = None  # the unused high half of the last 32-bit draw
        # PCG's seeding — step from state 0 (which leaves the increment), add the seed, step
        self._state = (self._inc + (s0 << 64 | s1)) & _MASK128
        self._next64()

    def _next64(self) -> int:
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        word = state >> 64 ^ state & _MASK64
        rotation = state >> 122
        return (word >> rotation | word << 64 - rotation) & _MASK64

    def _next32(self) -> int:
        half, self._half = self._half, None
        if half is None:
            word = self._next64()
            half, self._half = word & _MASK32, word >> 32
        return half

    def random(self) -> float:
        """One uniform draw in ``[0, 1)``: the top 53 bits of a :meth:`_next64` word,
        written out (the simulated broker draws one per message)."""
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        word = state >> 64 ^ state & _MASK64
        rotation = state >> 122
        return (((word >> rotation | word << 64 - rotation) & _MASK64) >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, count: int) -> list[float]:
        """``count`` uniform draws in ``[low, high)``."""
        return [low + (high - low) * self.random() for _ in range(count)]

    def permutation(self, items: Iterable[float]) -> list[float]:
        """A shuffled copy of ``items`` (Fisher–Yates from the top, masked rejection)."""
        shuffled = list(items)
        for i in range(len(shuffled) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self._next32 if i <= _MASK32 else self._next64
            while (j := draw() & mask) > i:
                pass
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        return shuffled


class RandomStreams:
    """A family of named, independently-seeded random generators."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, PCG64] = {}

    def stream(self, label: str) -> PCG64:
        """The generator associated with ``label`` (created on first use)."""
        if label not in self._streams:
            derived = zlib.crc32(label.encode("utf-8")) ^ (self.seed * 0x9E3779B1 & 0xFFFFFFFF)
            self._streams[label] = PCG64(derived)
        return self._streams[label]

    def uniforms(self, label: str) -> Callable[[], float]:
        """The named stream's uniform draws in ``[0, 1)``, one per call."""
        return self.stream(label).random

    def bernoulli(self, label: str, probability: float) -> bool:
        """One biased coin flip from the named stream."""
        return self.stream(label).random() < probability

    def spawn(self, label: str) -> "RandomStreams":
        """A child family whose streams are independent of the parent's."""
        derived = zlib.crc32(label.encode("utf-8")) ^ ((self.seed + 1) * 0x85EBCA6B & 0xFFFFFFFF)
        return RandomStreams(derived)
