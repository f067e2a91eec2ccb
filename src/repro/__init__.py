"""repro — a Python reproduction of GinFlow (IPDPS 2016).

GinFlow is a decentralised adaptive workflow execution manager built on
shared-space (chemical) coordination.  This package re-implements the whole
stack described in the paper:

* :mod:`repro.hocl` — the HOCL multiset-rewriting language and interpreter,
* :mod:`repro.hoclflow` — the workflow-specific extensions (generic
  enactment rules, adaptation rules, DAG → HOCL translation),
* :mod:`repro.workflow` — the user-facing workflow model (tasks, DAGs, JSON
  format, adaptation specifications, workload generators),
* :mod:`repro.services` — service abstraction and failure injection,
* :mod:`repro.simkernel` — a deterministic discrete-event simulation kernel:
  a time-ordered queue of plain calls (``call_at`` / ``call_in`` and ``run``),
  one entry and one call per modelled hop — a message is one, its arrival,
  the broker's serial dispatch being Lindley's recursion computed at publish,
* :mod:`repro.cluster` — the simulated infrastructure (nodes, network,
  Grid'5000-like presets, a Mesos-like resource-offer master),
* :mod:`repro.messaging` — ActiveMQ-like and Kafka-like message brokers,
* :mod:`repro.agents` — service agents, the shared-space coordinator and the
  fault-recovery mechanism,
* :mod:`repro.executors` — centralised, SSH-like and Mesos-like executors,
* :mod:`repro.runtime` — the GinFlow facade and the run configuration, whose
  table of backends names every runtime, executor, broker and cluster preset
  (:data:`repro.runtime.config.BACKENDS`),
* :mod:`repro.scenarios` — a closed catalog of parameterized,
  seed-deterministic scientific-workflow generators (the paper's Montage,
  Epigenomics/CyberShake/Inspiral/SIPHT-like shapes plus synthetic stress
  families), one table (:data:`repro.scenarios.catalog.SCENARIOS`) wired
  into the CLI, the sweeps and the benchmark matrix,
* :mod:`repro.analysis` — a static and dynamic analyzer for HOCL rules,
  workflows, scenarios and run artifacts (``ginflow lint`` / ``ginflow
  audit``): one table of severity-tagged checks
  (:data:`repro.analysis.checks.CHECKS`) that catch enactment-time hangs,
* :mod:`repro.experiments` — the first-class Experiment/Sweep API
  (:class:`ParameterGrid`, :class:`Experiment`, :class:`SweepReport`),
* :mod:`repro.bench` — drivers reproducing every figure of the evaluation,
  each a thin grid declaration over ``GinFlow.sweep``,
* :mod:`repro.cli` — the ``ginflow`` command: one table of subcommands
  (:data:`repro.cli.COMMANDS`) whose handlers (:mod:`repro.commands`) each
  import what they run.

:mod:`repro.obs`, :mod:`repro.hocl` and :mod:`repro.analysis` re-export only
what a run loads anyway; the trace exporter and summariser, the parser and
the analyzer's drivers are imported from their own modules
(``repro.obs.export``, ``repro.hocl.parser``, ``repro.analysis.analyzer``, ...).

Quickstart
----------
>>> from repro import GinFlow, diamond_workflow
>>> ginflow = GinFlow()
>>> report = ginflow.run(diamond_workflow(width=3, depth=2))
>>> report.succeeded
True

Sweeps
------
>>> from repro import GinFlow, ParameterGrid, diamond_workflow
>>> grid = ParameterGrid({"nodes": [5, 10], "broker": ["activemq", "kafka"]})
>>> sweep = GinFlow().sweep(lambda: diamond_workflow(3, 3, duration=0.1), grid)
>>> len(sweep.cells())
4
"""

from __future__ import annotations

__version__ = "1.0.0"

# The names below form the stable public facade, each resolved from its
# defining module on first attribute access so `import repro` stays cheap.
# This and `repro.runtime` are the only modules that resolve names lazily.
_FACADE = {
    "GinFlow": ("repro.runtime.ginflow", "GinFlow"),
    "GinFlowConfig": ("repro.runtime.config", "GinFlowConfig"),
    "CostModel": ("repro.runtime.costs", "CostModel"),
    "RunReport": ("repro.runtime.results", "RunReport"),
    "Experiment": ("repro.experiments", "Experiment"),
    "ParameterGrid": ("repro.experiments", "ParameterGrid"),
    "SweepReport": ("repro.experiments", "SweepReport"),
    "Scenario": ("repro.scenarios", "Scenario"),
    "available_scenarios": ("repro.scenarios", "available_scenarios"),
    "get_scenario": ("repro.scenarios", "get_scenario"),
    "build_scenario": ("repro.scenarios", "build_scenario"),
    "BrokerProfile": ("repro.runtime.costs", "BrokerProfile"),
    "FailureModel": ("repro.services.faults", "FailureModel"),
    "ServiceRegistry": ("repro.services.service", "ServiceRegistry"),
    "Workflow": ("repro.workflow.dag", "Workflow"),
    "Task": ("repro.workflow.dag", "Task"),
    "AdaptationSpec": ("repro.workflow.adaptive", "AdaptationSpec"),
    "diamond_workflow": ("repro.workflow.patterns", "diamond_workflow"),
    "adaptive_diamond_workflow": ("repro.workflow.patterns", "adaptive_diamond_workflow"),
    "sequence_workflow": ("repro.workflow.patterns", "sequence_workflow"),
    "parallel_workflow": ("repro.workflow.patterns", "parallel_workflow"),
    "montage_workflow": ("repro.workflow.montage", "montage_workflow"),
    "workflow_from_json": ("repro.workflow.json_format", "workflow_from_json"),
    "workflow_to_json": ("repro.workflow.json_format", "workflow_to_json"),
    "AnalysisReport": ("repro.analysis.findings", "AnalysisReport"),
    "Finding": ("repro.analysis.findings", "Finding"),
    "Severity": ("repro.analysis.findings", "Severity"),
    "available_checks": ("repro.analysis.checks", "available_checks"),
    "analyze_workflow": ("repro.analysis.analyzer", "analyze_workflow"),
    "analyze_scenario": ("repro.analysis.analyzer", "analyze_scenario"),
    "analyze_all_scenarios": ("repro.analysis.analyzer", "analyze_all_scenarios"),
}

__all__ = ["__version__", *sorted(_FACADE)]


def __getattr__(name: str):
    """Lazily resolve the public facade names listed in ``_FACADE``."""
    try:
        module_name, attribute = _FACADE[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_FACADE))
