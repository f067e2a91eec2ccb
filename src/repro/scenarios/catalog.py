"""The scenario catalog — nine structurally distinct DAG families.

Each generator is a row of :data:`SCENARIOS`, the one closed table
:mod:`repro.scenarios.registry` looks names up in, and produces a
seed-deterministic :class:`~repro.workflow.dag.Workflow` scaling from ~20 to
well beyond 1000 tasks via its ``size`` parameter (the approximate total task
count; the generator rounds to the nearest realisable shape, never below its
structural minimum).

The first four families mirror the coordination structures of well-known
Pegasus scientific workflows (characterised in Juve et al., "Characterizing
and profiling scientific workflows", FGCS 2013):

* ``epigenomics`` — parallel sequencing pipelines joined by one fan-in,
* ``cybershake``  — two-level wide fan-out/fan-in (per-site synthesis),
* ``inspiral``    — chained diamond blocks (LIGO template-bank analysis),
* ``sipht``       — many independent per-group fan-ins merging at the end.

The other four are synthetic stress shapes:

* ``random-layered`` — seeded Erdős-style inter-layer wiring,
* ``mapreduce``      — map / all-to-all shuffle / reduce stages,
* ``forkjoin``       — a chain of fork-join stages,
* ``longchain``      — one maximal-depth sequential chain.

``montage`` wraps the paper's own resilience-experiment workflow
(:func:`repro.workflow.montage.montage_workflow`, Section V-D): ten fixed
pipeline tasks around a wide heterogeneous projection stage, at its default
size the exact 118-task shape of Fig. 15.

Every task carries cost-profile metadata (``scenario``, ``stage``,
``cost_class``, ``level``) and the scenario's failure profile (notably
``idempotent`` so the recovery mechanism may replay it), and every duration
is drawn from the stage's declared ``(low, high)`` range with the scenario
seed — the same spec always generates byte-identical workflows.
"""

from __future__ import annotations

import math
import random
from typing import Any, Mapping

from repro.workflow.dag import Task, Workflow
from repro.workflow.montage import montage_workflow

from .registry import Scenario, ScenarioError

__all__ = [
    "SCENARIOS",
    "epigenomics_workflow",
    "cybershake_workflow",
    "inspiral_workflow",
    "sipht_workflow",
    "random_layered_workflow",
    "mapreduce_workflow",
    "forkjoin_workflow",
    "longchain_workflow",
    "montage_scenario",
]

#: Failure profile shared by the whole catalog: synthetic services are pure,
#: so every task may be replayed by the recovery mechanism.
_IDEMPOTENT = {"idempotent": True}


def _check_size(size: int, minimum: int) -> int:
    if not isinstance(size, int) or isinstance(size, bool):
        raise ScenarioError(f"size must be an integer, got {size!r}")
    if size < minimum:
        raise ScenarioError(f"size must be >= {minimum}, got {size}")
    return size


class _Builder:
    """Tiny helper stamping scenario/cost metadata on every task it adds."""

    def __init__(
        self,
        name: str,
        scenario: str,
        seed: int,
        cost_profile: Mapping[str, tuple[float, float]],
        failure_profile: Mapping[str, Any],
    ) -> None:
        self.workflow = Workflow(name=name)
        self.scenario = scenario
        self.rng = random.Random(seed)
        self.cost_profile = cost_profile
        self.failure_profile = dict(failure_profile)

    def add(self, name: str, stage: str, level: int, inputs: list | None = None, **extra: Any) -> Task:
        low, high = self.cost_profile[stage]
        duration = round(self.rng.uniform(low, high), 3)
        metadata = {
            "scenario": self.scenario,
            "stage": stage,
            "cost_class": stage,
            "level": level,
            **self.failure_profile,
            **extra,
        }
        task = Task(
            name=name,
            service=self.scenario,
            inputs=list(inputs or []),
            duration=duration,
            metadata=metadata,
        )
        return self.workflow.add_task(task)

    def dep(self, source: str, destination: str) -> None:
        self.workflow.add_dependency(source, destination)


# --------------------------------------------------------------------------
# Pegasus-like families
# --------------------------------------------------------------------------

_EPIGENOMICS_COSTS = {
    "split": (2.0, 5.0),
    "filter": (5.0, 15.0),
    "align": (20.0, 60.0),
    "merge": (20.0, 40.0),
    "index": (10.0, 20.0),
    "pileup": (5.0, 15.0),
}


def epigenomics_workflow(size: int = 20, seed: int = 0, stages: int = 5) -> Workflow:
    """Genome-sequencing pipelines: parallel per-lane chains joined by one fan-in."""
    _check_size(size, 10)
    if stages < 1:
        raise ScenarioError(f"stages must be >= 1, got {stages}")
    lanes = max(2, round((size - 4) / stages))
    builder = _Builder(
        f"epigenomics-{lanes}x{stages}-s{seed}", "epigenomics", seed,
        _EPIGENOMICS_COSTS, _IDEMPOTENT,
    )
    builder.add("fastqSplit", "split", 0, inputs=["dna-reads"])
    builder.add("mapMerge", "merge", stages + 1)
    for lane in range(1, lanes + 1):
        previous = "fastqSplit"
        for stage_index in range(1, stages + 1):
            stage = "filter" if stage_index == 1 else "align"
            task = f"lane{lane}_stage{stage_index}"
            builder.add(task, stage, stage_index, lane=lane)
            builder.dep(previous, task)
            previous = task
        builder.dep(previous, "mapMerge")
    builder.add("maqIndex", "index", stages + 2)
    builder.dep("mapMerge", "maqIndex")
    builder.add("pileup", "pileup", stages + 3)
    builder.dep("maqIndex", "pileup")
    return builder.workflow


_CYBERSHAKE_COSTS = {
    "precvm": (30.0, 60.0),
    "extract": (60.0, 120.0),
    "synthesis": (10.0, 40.0),
    "zipsite": (5.0, 15.0),
    "zippsa": (10.0, 30.0),
}


def cybershake_workflow(size: int = 20, seed: int = 0, synthesis_per_site: int = 4) -> Workflow:
    """Seismic-hazard synthesis: two-level wide fan-out/fan-in over sites."""
    _check_size(size, 10)
    if synthesis_per_site < 1:
        raise ScenarioError(f"synthesis_per_site must be >= 1, got {synthesis_per_site}")
    sites = max(2, round((size - 2) / (synthesis_per_site + 2)))
    builder = _Builder(
        f"cybershake-{sites}x{synthesis_per_site}-s{seed}", "cybershake", seed,
        _CYBERSHAKE_COSTS, _IDEMPOTENT,
    )
    builder.add("preCVM", "precvm", 0, inputs=["velocity-model"])
    builder.add("zipPSA", "zippsa", 4)
    for site in range(1, sites + 1):
        extract = f"extractSGT_{site}"
        builder.add(extract, "extract", 1, site=site)
        builder.dep("preCVM", extract)
        zip_site = f"zipSeis_{site}"
        builder.add(zip_site, "zipsite", 3, site=site)
        for column in range(1, synthesis_per_site + 1):
            synthesis = f"seismogram_{site}_{column}"
            builder.add(synthesis, "synthesis", 2, site=site, rupture=column)
            builder.dep(extract, synthesis)
            builder.dep(synthesis, zip_site)
        builder.dep(zip_site, "zipPSA")
    return builder.workflow


_INSPIRAL_COSTS = {
    "datafind": (5.0, 10.0),
    "tmpltbank": (15.0, 30.0),
    "inspiral": (60.0, 180.0),
    "thinca": (5.0, 15.0),
}


def inspiral_workflow(size: int = 20, seed: int = 0, width: int = 4) -> Workflow:
    """Gravitational-wave search: diamond blocks chained through thinca joins."""
    _check_size(size, 10)
    if width < 1:
        raise ScenarioError(f"width must be >= 1, got {width}")
    blocks = max(1, round((size - 1) / (2 * width + 1)))
    builder = _Builder(
        f"inspiral-{blocks}x{width}-s{seed}", "inspiral", seed,
        _INSPIRAL_COSTS, _IDEMPOTENT,
    )
    builder.add("datafind", "datafind", 0, inputs=["gw-frames"])
    previous_join = "datafind"
    for block in range(1, blocks + 1):
        base_level = 1 + (block - 1) * 3
        join = f"thinca_{block}"
        builder.add(join, "thinca", base_level + 2, block=block)
        for column in range(1, width + 1):
            bank = f"tmpltbank_{block}_{column}"
            builder.add(bank, "tmpltbank", base_level, block=block, column=column)
            builder.dep(previous_join, bank)
            matched = f"inspiral_{block}_{column}"
            builder.add(matched, "inspiral", base_level + 1, block=block, column=column)
            builder.dep(bank, matched)
            builder.dep(matched, join)
        previous_join = join
    return builder.workflow


_SIPHT_COSTS = {
    "leaf": (2.0, 30.0),
    "srna": (10.0, 20.0),
    "findsrna": (20.0, 40.0),
    "annotate": (5.0, 10.0),
}

#: Leaf task kinds of one SIPHT prediction group (bioinformatics scanners).
_SIPHT_LEAVES = ("patser", "blast", "rnamotif", "findterm", "transterm", "srna_scan")


def sipht_workflow(size: int = 20, seed: int = 0, leaves_per_group: int = 5) -> Workflow:
    """sRNA annotation: many independent fan-ins merging into one final chain."""
    _check_size(size, 10)
    if leaves_per_group < 1:
        raise ScenarioError(f"leaves_per_group must be >= 1, got {leaves_per_group}")
    groups = max(2, round((size - 2) / (leaves_per_group + 1)))
    builder = _Builder(
        f"sipht-{groups}x{leaves_per_group}-s{seed}", "sipht", seed,
        _SIPHT_COSTS, _IDEMPOTENT,
    )
    builder.add("findsrna", "findsrna", 2)
    builder.add("annotate", "annotate", 3)
    builder.dep("findsrna", "annotate")
    for group in range(1, groups + 1):
        srna = f"srna_{group}"
        builder.add(srna, "srna", 1, group=group)
        builder.dep(srna, "findsrna")
        for leaf_index in range(1, leaves_per_group + 1):
            kind = _SIPHT_LEAVES[(leaf_index - 1) % len(_SIPHT_LEAVES)]
            leaf = f"{kind}_{group}_{leaf_index}"
            builder.add(leaf, "leaf", 0, inputs=[f"genome-{group}-{leaf_index}"], group=group, kind=kind)
            builder.dep(leaf, srna)
    return builder.workflow


# --------------------------------------------------------------------------
# Synthetic stress families
# --------------------------------------------------------------------------

_RANDOM_LAYERED_COSTS = {
    "source": (1.0, 2.0),
    "body": (5.0, 50.0),
    "sink": (1.0, 2.0),
}


def random_layered_workflow(
    size: int = 20, seed: int = 0, edge_probability: float = 0.3, width: int = 0
) -> Workflow:
    """Random layered DAG: every inter-layer edge drawn with a seeded coin."""
    _check_size(size, 10)
    if not 0.0 <= edge_probability <= 1.0:
        raise ScenarioError(f"edge_probability must be in [0, 1], got {edge_probability}")
    body = size - 2
    if width <= 0:
        width = max(2, int(math.sqrt(body)))
    layers = max(2, round(body / width))
    builder = _Builder(
        f"random-layered-{layers}x{width}-p{edge_probability}-s{seed}", "random-layered", seed,
        _RANDOM_LAYERED_COSTS, _IDEMPOTENT,
    )
    builder.add("source", "source", 0, inputs=["input"])
    previous_layer: list[str] = ["source"]
    for layer in range(1, layers + 1):
        current: list[str] = []
        for column in range(1, width + 1):
            task = f"n_{layer}_{column}"
            builder.add(task, "body", layer, row=layer, column=column)
            predecessors = [
                candidate for candidate in previous_layer
                if builder.rng.random() < edge_probability
            ]
            # keep the DAG connected: every task consumes at least one
            # predecessor from the previous layer
            if not predecessors:
                predecessors = [builder.rng.choice(previous_layer)]
            for predecessor in predecessors:
                builder.dep(predecessor, task)
            current.append(task)
        previous_layer = current
    builder.add("sink", "sink", layers + 1)
    for task in previous_layer:
        builder.dep(task, "sink")
    return builder.workflow


_MAPREDUCE_COSTS = {
    "split": (2.0, 5.0),
    "map": (10.0, 60.0),
    "reduce": (20.0, 80.0),
    "collect": (5.0, 10.0),
}


def mapreduce_workflow(size: int = 20, seed: int = 0, reduce_ratio: float = 0.25) -> Workflow:
    """Map/shuffle/reduce: the densest fan-in family (every reduce reads every map)."""
    _check_size(size, 10)
    if not 0.0 < reduce_ratio <= 1.0:
        raise ScenarioError(f"reduce_ratio must be in (0, 1], got {reduce_ratio}")
    body = size - 2
    reducers = max(1, round(body * reduce_ratio / (1.0 + reduce_ratio)))
    maps = max(1, body - reducers)
    builder = _Builder(
        f"mapreduce-{maps}m{reducers}r-s{seed}", "mapreduce", seed,
        _MAPREDUCE_COSTS, _IDEMPOTENT,
    )
    builder.add("split", "split", 0, inputs=["dataset"])
    builder.add("collect", "collect", 3)
    reduce_names = []
    for index in range(1, reducers + 1):
        reduce_task = f"reduce_{index}"
        builder.add(reduce_task, "reduce", 2, partition=index)
        builder.dep(reduce_task, "collect")
        reduce_names.append(reduce_task)
    for index in range(1, maps + 1):
        map_task = f"map_{index}"
        builder.add(map_task, "map", 1, shard=index)
        builder.dep("split", map_task)
        for reduce_task in reduce_names:
            builder.dep(map_task, reduce_task)
    return builder.workflow


_FORKJOIN_COSTS = {
    "fork": (1.0, 3.0),
    "work": (10.0, 40.0),
    "join": (2.0, 5.0),
}


def forkjoin_workflow(size: int = 20, seed: int = 0, width: int = 4) -> Workflow:
    """Fork-join chain: repeated scatter/gather stages in strict sequence."""
    _check_size(size, 10)
    if width < 1:
        raise ScenarioError(f"width must be >= 1, got {width}")
    stages = max(1, round(size / (width + 2)))
    builder = _Builder(
        f"forkjoin-{stages}x{width}-s{seed}", "forkjoin", seed,
        _FORKJOIN_COSTS, _IDEMPOTENT,
    )
    previous: str | None = None
    for stage in range(1, stages + 1):
        base_level = (stage - 1) * 3
        fork = f"fork_{stage}"
        builder.add(fork, "fork", base_level, block=stage,
                    inputs=["input"] if previous is None else None)
        if previous is not None:
            builder.dep(previous, fork)
        join = f"join_{stage}"
        builder.add(join, "join", base_level + 2, block=stage)
        for column in range(1, width + 1):
            worker = f"work_{stage}_{column}"
            builder.add(worker, "work", base_level + 1, block=stage, column=column)
            builder.dep(fork, worker)
            builder.dep(worker, join)
        previous = join
    return builder.workflow


#: Stage duration bounds of the Montage pipeline — the fixed-duration tasks
#: of :mod:`repro.workflow.montage` plus the paper's 60–310 s projection range.
_MONTAGE_COSTS = {
    "prepare": (5.0, 8.0),
    "project": (60.0, 310.0),
    "table": (12.0, 12.0),
    "diff": (25.0, 25.0),
    "background": (20.0, 30.0),
    "merge": (65.0, 65.0),
    "publish": (10.0, 10.0),
}


def montage_scenario(size: int = 118, seed: int = 0) -> Workflow:
    """The paper's Montage mosaic (Section V-D, Fig. 15): ten fixed pipeline
    tasks around a wide heterogeneous projection stage; ``size=118`` is the
    exact published shape."""
    _check_size(size, 10)
    projections = max(2, size - 10)
    workflow = montage_workflow(
        projections=projections, seed=seed, name=f"montage-{projections}-s{seed}"
    )
    # montage_workflow stamps stage/idempotent; the catalog contract also
    # wants scenario/cost_class/level on every task
    levels = {name: level for level, names in enumerate(workflow.levels()) for name in names}
    for task in workflow:
        task.metadata.update(
            {
                "scenario": "montage",
                "cost_class": task.metadata["stage"],
                "level": levels[task.name],
                **_IDEMPOTENT,
            }
        )
    return workflow


_LONGCHAIN_COSTS = {
    "link": (1.0, 10.0),
}


def longchain_workflow(size: int = 20, seed: int = 0) -> Workflow:
    """Long-sequence stress: the deepest possible DAG, one task per level."""
    _check_size(size, 2)
    builder = _Builder(f"longchain-{size}-s{seed}", "longchain", seed,
                       _LONGCHAIN_COSTS, _IDEMPOTENT)
    previous: str | None = None
    for index in range(1, size + 1):
        task = f"link_{index}"
        builder.add(task, "link", index - 1,
                    inputs=["input"] if previous is None else None)
        if previous is not None:
            builder.dep(previous, task)
        previous = task
    return builder.workflow


#: Every scenario by name, in the order ``ginflow scenarios`` lists them.
SCENARIOS: dict[str, Scenario] = {
    "epigenomics": Scenario(
        "epigenomics", epigenomics_workflow,
        "Genome-sequencing pipelines: parallel per-lane chains joined by one fan-in.",
        "split -> N parallel 5-stage pipelines -> merge -> index -> pileup",
        _EPIGENOMICS_COSTS, _IDEMPOTENT, ("pegasus", "pipelines", "fan-in"),
    ),
    "cybershake": Scenario(
        "cybershake", cybershake_workflow,
        "Seismic-hazard synthesis: two-level wide fan-out/fan-in over sites.",
        "preCVM -> per-site extract -> wide synthesis -> per-site zip -> global zip",
        _CYBERSHAKE_COSTS, _IDEMPOTENT, ("pegasus", "fan-out", "fan-in", "two-level"),
    ),
    "inspiral": Scenario(
        "inspiral", inspiral_workflow,
        "Gravitational-wave search: diamond blocks chained through thinca joins.",
        "datafind -> B chained diamond blocks (fan-out -> 2-deep columns -> thinca fan-in)",
        _INSPIRAL_COSTS, _IDEMPOTENT, ("pegasus", "diamond", "chained"),
    ),
    "sipht": Scenario(
        "sipht", sipht_workflow,
        "sRNA annotation: many independent fan-ins merging into one final chain.",
        "G independent groups of leaf scanners -> per-group srna fan-in -> findsrna -> annotate",
        _SIPHT_COSTS, _IDEMPOTENT, ("pegasus", "fan-in", "independent-groups"),
    ),
    "random-layered": Scenario(
        "random-layered", random_layered_workflow,
        "Random layered DAG: every inter-layer edge drawn with a seeded coin.",
        "source -> L layers of W tasks with seeded Erdos-style inter-layer edges -> sink",
        _RANDOM_LAYERED_COSTS, _IDEMPOTENT, ("synthetic", "random", "layered"),
    ),
    "mapreduce": Scenario(
        "mapreduce", mapreduce_workflow,
        "Map/shuffle/reduce: the densest fan-in family (every reduce reads every map).",
        "split -> M maps -> all-to-all shuffle -> R reduces -> collect",
        _MAPREDUCE_COSTS, _IDEMPOTENT, ("synthetic", "shuffle", "fan-in"),
    ),
    "forkjoin": Scenario(
        "forkjoin", forkjoin_workflow,
        "Fork-join chain: repeated scatter/gather stages in strict sequence.",
        "S chained stages of (fork -> W workers -> join)",
        _FORKJOIN_COSTS, _IDEMPOTENT, ("synthetic", "fork-join", "chained"),
    ),
    "montage": Scenario(
        "montage", montage_scenario,
        "The paper's Montage mosaic (Section V-D, Fig. 15): ten fixed pipeline tasks around "
        "a wide heterogeneous projection stage; size=118 is the exact published shape.",
        "prepare pair -> N parallel projections -> image table -> 3 diff-fits "
        "-> background pair -> co-add -> publish",
        _MONTAGE_COSTS, _IDEMPOTENT, ("paper", "astronomy", "fan-out", "fan-in", "heterogeneous"),
    ),
    "longchain": Scenario(
        "longchain", longchain_workflow,
        "Long-sequence stress: the deepest possible DAG, one task per level.",
        "one maximal-depth chain of size tasks",
        _LONGCHAIN_COSTS, _IDEMPOTENT, ("synthetic", "stress", "sequential"),
    ),
}
