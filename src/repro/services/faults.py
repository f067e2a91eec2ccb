"""Failure injection for service agents (Section V-D methodology).

"Each running agent failed with a predefined probability ``p`` after a
certain period of time ``T``.  Note that a restarted agent can fail again.
Thus, in this model we can expect ``p/(1-p) x N_T`` failures where ``N_T`` is
the number of services whose duration is greater than ``T``."

:class:`FailureModel` implements exactly that: every time an agent starts (or
restarts) a service invocation whose duration exceeds ``T``, the agent
crashes at ``T`` seconds into the invocation with probability ``p``.  Crash
detection and the automatic restart take additional, configurable delays.
"""

from __future__ import annotations

from repro.records import Frozen
from repro.simkernel import RandomStreams

__all__ = ["FailureModel", "NO_FAILURES"]


class FailureModel(Frozen):
    """Parameters of the failure-injection model.

    Attributes
    ----------
    probability:
        ``p`` — chance that a given (re)invocation crashes its agent.
    delay:
        ``T`` — time into the invocation at which the crash happens; only
        invocations longer than ``T`` are exposed.
    detection_delay:
        Time for the platform to notice the crash.
    restart_delay:
        Time to start the replacement agent (scheduling + process start).
    """

    __slots__ = ("probability", "delay", "detection_delay", "restart_delay")
    probability: float
    delay: float
    detection_delay: float
    restart_delay: float

    def __init__(
        self, probability: float = 0.0, delay: float = 0.0, detection_delay: float = 0.5, restart_delay: float = 1.5
    ):
        if not 0.0 <= probability < 1.0:
            raise ValueError("failure probability must be in [0, 1)")
        if delay < 0 or detection_delay < 0 or restart_delay < 0:
            raise ValueError("failure-model delays must be >= 0")
        self._init(probability, delay, detection_delay, restart_delay)

    @property
    def enabled(self) -> bool:
        """Whether the model can produce any failure."""
        return self.probability > 0.0

    def crash_time(self, invocation_duration: float, randomness: RandomStreams, label: str) -> float | None:
        """Time (after invocation start) at which the agent crashes, or ``None``.

        Only invocations strictly longer than ``delay`` can be hit, mirroring
        the expected-failures formula of the paper.
        """
        if not self.enabled:
            return None
        if invocation_duration <= self.delay:
            return None
        if randomness.bernoulli(label, self.probability):
            return self.delay
        return None

    def expected_failures(self, exposed_services: int) -> float:
        """The paper's expectation ``p/(1-p) * N_T`` for ``N_T`` exposed services."""
        if not self.enabled:
            return 0.0
        return self.probability / (1.0 - self.probability) * exposed_services

    def recovery_overhead(self) -> float:
        """Fixed (work-independent) cost of one crash: detection + restart."""
        return self.detection_delay + self.restart_delay


#: Convenience instance: failure injection disabled.
NO_FAILURES = FailureModel(probability=0.0, delay=0.0)
