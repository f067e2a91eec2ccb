"""The discrete-event simulator: a virtual clock over a time-ordered queue of calls.

All GinFlow experiments run on virtual time: deploying 1000 service agents on
a 25-node cluster, injecting hundreds of failures, or sweeping a 7×7 grid of
diamond sizes completes in seconds of wall-clock time while preserving the
ordering and queueing behaviour that produce the paper's figures.

The kernel is exactly what the simulated runtime needs and nothing else: a
heap of ``(time, ticket, function, arguments)`` entries, filled by
:meth:`Simulator.call_at` / :meth:`Simulator.call_in` — or, by a hop taken
per message or per stimulus, pushed onto :attr:`Simulator.queue` with the
next :attr:`Simulator.ticket` — and :meth:`Simulator.run`, which pops the
earliest entry, advances the clock to it, counts it and calls it.  One
modelled hop is one entry and one call.  A serial server (a broker
dispatcher, an agent handling one stimulus at a time) has no entry of its
own: its finish is Lindley's recursion ``f_k = max(p_k, f_{k-1}) + c_k``,
computed when the job arrives.

The simulator is deterministic: entries scheduled at the same virtual time run
in scheduling order (a monotonically increasing ticket breaks ties), and all
randomness used by higher layers flows from seeded generators
(:mod:`repro.simkernel.randomness`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable

__all__ = ["Simulator"]


class Simulator:
    """Owner of the virtual clock and the queue of pending calls."""

    def __init__(self, start_time: float = 0.0):
        #: current virtual time (seconds); only :meth:`run` moves it
        self.now = float(start_time)
        #: the pending calls, a heap of ``(time, ticket, function, args)``
        self.queue: list[tuple[float, int, Callable[..., Any], tuple[Any, ...]]] = []
        #: the next tie-breaking ticket: scheduling order, with no Python frame per entry
        self.ticket = count(1).__next__
        #: number of queue entries run so far (diagnostics)
        self.processed_events = 0

    def pending(self) -> int:
        """Number of calls waiting in the queue."""
        return len(self.queue)

    # ------------------------------------------------------------ scheduling
    def call_at(self, time: float, function: Callable[..., Any], *args: Any) -> None:
        """Run ``function(*args)`` at absolute virtual time ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        heappush(self.queue, (time, self.ticket(), function, args))

    def call_in(self, delay: float, function: Callable[..., Any], *args: Any) -> None:
        """Run ``function(*args)`` after ``delay`` (>= 0) seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heappush(self.queue, (self.now + delay, self.ticket(), function, args))

    # ------------------------------------------------------------------- run
    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run queued calls in ``(time, scheduling order)`` until none is left
        (or a bound is reached).

        Parameters
        ----------
        until:
            Stop before the first call later than this time (the clock is
            left at ``until``; the call stays queued).
        max_events:
            Safety bound on :attr:`processed_events`.

        Returns
        -------
        float
            The virtual time when the run stopped.  A call that raises leaves
            the clock at its time and every later call queued.
        """
        queue = self.queue
        horizon = float("inf") if until is None else until
        events = self.processed_events
        limit = float("inf") if max_events is None else max_events
        try:
            while queue:
                if queue[0][0] > horizon:
                    break
                if events >= limit:
                    return self.now  # calls are left before the horizon: the clock stays
                self.now, _ticket, function, args = heappop(queue)
                events += 1
                function(*args)
            if until is not None and self.now < until:
                self.now = until
            return self.now
        finally:
            self.processed_events = events
