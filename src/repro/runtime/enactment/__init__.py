"""The runtime-agnostic enactment engine.

The paper's central claim is that the *same* decentralised chemistry-driven
protocol enacts workflows regardless of how the service agents are hosted
(Section IV).  This package is that protocol, extracted once and for all:

* :class:`~repro.runtime.enactment.engine.EnactmentEngine` owns the one true
  mapping from :class:`~repro.agents.core.AgentCore` actions
  (``SendResult`` / ``SendAdapt`` / ``StartInvocation`` / ``StatusUpdate``)
  to broker :class:`~repro.messaging.message.Message`\\ s, the invocation
  lifecycle (attempt counting, failure/success stimuli, adaptation
  bookkeeping) and the coordinator wiring;
* :class:`~repro.runtime.enactment.engine.AgentHost` is the
  runtime-agnostic book-keeping record of one hosted agent (runtimes
  subclass it to attach their scheduling state: a virtual-time serial
  queue, a thread and its inbox; the asyncio runtime needs none);
* :class:`~repro.runtime.enactment.clock.Clock` and
  :class:`~repro.runtime.enactment.transport.Transport` are the two seams a
  runtime plugs in — virtual vs monotonic time, simulated vs in-process
  broker;
* :class:`~repro.runtime.enactment.report.ReportAssembler` builds the
  :class:`~repro.runtime.results.RunReport` /
  :class:`~repro.runtime.results.TaskOutcome` rows identically for every
  runtime.

A new runtime (async, process-sharded, remote...) is a thin driver: decide
*when and where* stimuli run, and let the engine decide *what happens*.  See
:mod:`repro.runtime.aio` for a complete example in ~100 lines.
"""

from .clock import Clock, MonotonicClock, VirtualClock
from .engine import AgentHost, EnactmentEngine, PreparedInvocation
from .report import ReportAssembler
from .transport import Transport

__all__ = [
    "AgentHost",
    "Clock",
    "EnactmentEngine",
    "MonotonicClock",
    "PreparedInvocation",
    "ReportAssembler",
    "Transport",
    "VirtualClock",
]
