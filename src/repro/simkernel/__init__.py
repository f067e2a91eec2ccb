"""A deterministic discrete-event simulation kernel (virtual time).

A time-ordered queue of plain calls: :meth:`Simulator.call_at` and
:meth:`Simulator.call_in` add an entry (a per-message or per-stimulus hop
pushes its own), :meth:`Simulator.run` pops, advances the clock, counts and
calls.
"""

from .randomness import RandomStreams
from .sim import Simulator

__all__ = ["Simulator", "RandomStreams"]
