"""A deterministic discrete-event simulation kernel (virtual time).

A time-ordered queue of plain calls: :meth:`Simulator.call_at`,
:meth:`Simulator.call_in` and :meth:`SerialQueue.submit` add an entry,
:meth:`Simulator.run` pops, advances the clock, counts and calls.
"""

from .randomness import RandomStreams
from .sim import SerialQueue, Simulator

__all__ = ["Simulator", "SerialQueue", "RandomStreams"]
