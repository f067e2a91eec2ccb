"""The discrete-event simulator: a virtual clock over a time-ordered queue of calls.

All GinFlow experiments run on virtual time: deploying 1000 service agents on
a 25-node cluster, injecting hundreds of failures, or sweeping a 7×7 grid of
diamond sizes completes in seconds of wall-clock time while preserving the
ordering and queueing behaviour that produce the paper's figures.

The kernel is exactly what the simulated runtime needs and nothing else: a
heap of ``(time, sequence, function, arguments)`` entries, three ways to add
one (:meth:`Simulator.call_at`, :meth:`Simulator.call_in` and
:meth:`SerialQueue.submit`) and :meth:`Simulator.run`, which pops the earliest
entry, advances the clock to it, counts it and calls it.  One modelled hop is
one entry and one call.

The simulator is deterministic: entries scheduled at the same virtual time run
in scheduling order (a monotonically increasing sequence number breaks ties),
and all randomness used by higher layers flows from seeded generators
(:mod:`repro.simkernel.randomness`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable

__all__ = ["Simulator", "SerialQueue"]


class Simulator:
    """Owner of the virtual clock and the queue of pending calls."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[tuple[float, int, Callable[..., Any], tuple[Any, ...]]] = []
        self._sequence = 0
        self._processed_events = 0
        self._wall_seconds = 0.0

    # ------------------------------------------------------------ properties
    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of queue entries run so far (diagnostics)."""
        return self._processed_events

    @property
    def wall_seconds(self) -> float:
        """Real time spent inside :meth:`run` so far (diagnostics).

        Together with :attr:`processed_events` and the per-phase timings of
        :class:`~repro.hocl.engine.ReductionReport` this localises where the
        real cost of a simulated run lives (kernel loop vs chemistry).
        """
        return self._wall_seconds

    def pending(self) -> int:
        """Number of calls waiting in the queue."""
        return len(self._queue)

    # ------------------------------------------------------------ scheduling
    def call_at(self, time: float, function: Callable[..., Any], *args: Any) -> None:
        """Run ``function(*args)`` at absolute virtual time ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        self._sequence += 1
        heappush(self._queue, (time, self._sequence, function, args))

    def call_in(self, delay: float, function: Callable[..., Any], *args: Any) -> None:
        """Run ``function(*args)`` after ``delay`` (>= 0) seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._sequence += 1
        heappush(self._queue, (self._now + delay, self._sequence, function, args))

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
        queue = self._queue
        started = perf_counter()
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                if max_events is not None and self._processed_events >= max_events:
                    return self._now  # calls are left before the horizon: the clock stays
                self._now, _sequence, function, args = heappop(queue)
                self._processed_events += 1
                function(*args)
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            self._wall_seconds += perf_counter() - started


class SerialQueue:
    """A serially-processed queue: one job at a time, in submission order.

    ``submit(work_time, function, *args)`` schedules ``function(*args)`` for
    when a job of ``work_time`` seconds completes, after every previously
    submitted job; the queue therefore models the head-of-line queueing of a
    single-threaded dispatcher (the behaviour that makes large fully-connected
    workflows pay for every message they emit) and of an agent that handles
    one stimulus at a time.
    """

    def __init__(self, sim: Simulator, name: str = "serial-queue"):
        self.sim = sim
        self.name = name
        self._next_free = 0.0
        self.processed = 0
        self.busy_time = 0.0

    def submit(self, work_time: float, function: Callable[..., Any], *args: Any) -> None:
        """Queue one job of ``work_time`` seconds; ``function(*args)`` runs at its end."""
        if work_time < 0:
            raise ValueError("work_time must be >= 0")
        now = self.sim.now
        finish = max(now, self._next_free) + work_time
        self._next_free = finish
        self.processed += 1
        self.busy_time += work_time
        # `now + (finish - now)`, not `finish`: the two differ in the last bit
        # and every pinned timeline was produced by the former
        self.sim.call_in(finish - now, function, *args)

    @property
    def backlog(self) -> float:
        """Seconds of work already queued ahead of a job submitted now."""
        return max(0.0, self._next_free - self.sim.now)
