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
  runtime-agnostic book-keeping record of one hosted agent (the virtual
  clock subclasses it to attach a serial queue; the real clock needs none);
* :class:`~repro.runtime.enactment.engine.Clock` and
  :class:`~repro.runtime.enactment.transport.Transport` are the two seams a
  driver plugs in — its own ``now()``, and a simulated or in-process broker;
* :class:`~repro.runtime.enactment.report.ReportAssembler` builds the
  :class:`~repro.runtime.results.RunReport` /
  :class:`~repro.runtime.results.TaskOutcome` rows identically for every
  runtime.

The one driver of the engine, for both clocks, is
:class:`~repro.runtime.driver.AgentRun`: it decides *when* stimuli run, and
the engine decides *what happens*.
"""

from .engine import AgentHost, Clock, EnactmentEngine, PreparedInvocation
from .report import ReportAssembler
from .transport import Transport

__all__ = [
    "AgentHost",
    "Clock",
    "EnactmentEngine",
    "PreparedInvocation",
    "ReportAssembler",
    "Transport",
]
