"""Property-based tests (hypothesis) on the workflow and agent layers.

Invariants checked:

* every randomly generated layered DAG executes to completion on the
  simulated runtime, and every task ends with a result;
* message delivery order between independent producers never changes the
  parameter list a consumer builds (deterministic ordering by producer name);
* JSON serialisation round-trips arbitrary generated workflows;
* duplicated deliveries (recovery replays) never change an agent's outcome.
"""

from hypothesis import given, settings, strategies as st

from repro.agents import AgentCore, StartInvocation
from repro.hoclflow import encode_workflow
from repro.runtime import GinFlowConfig, run_simulation
from repro.workflow import Task, Workflow, workflow_from_json, workflow_to_json


@st.composite
def layered_workflows(draw):
    """Random layered DAGs: 2-4 layers of 1-4 tasks, edges only forward."""
    layer_sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    workflow = Workflow("generated")
    layers: list[list[str]] = []
    counter = 0
    for size in layer_sizes:
        layer = []
        for _ in range(size):
            name = f"N{counter}"
            counter += 1
            workflow.add_task(Task(name, "synthetic", duration=0.01))
            layer.append(name)
        layers.append(layer)
    # give entry tasks an input
    for name in layers[0]:
        workflow.task(name).inputs.append("seed")
    # connect every task of layer i+1 to at least one task of layer i
    for previous, current in zip(layers, layers[1:]):
        for destination in current:
            count = draw(st.integers(1, len(previous)))
            sources = draw(
                st.lists(st.sampled_from(previous), min_size=count, max_size=count, unique=True)
            )
            for source in sources:
                workflow.add_dependency(source, destination)
    return workflow


@settings(max_examples=15, deadline=None)
@given(layered_workflows())
def test_generated_workflows_complete(workflow):
    workflow.validate()
    report = run_simulation(workflow, GinFlowConfig(nodes=5, collect_timeline=False))
    assert report.succeeded
    for name in workflow.task_names():
        assert report.tasks[name].result is not None


@settings(max_examples=15, deadline=None)
@given(layered_workflows())
def test_json_roundtrip_preserves_structure(workflow):
    clone = workflow_from_json(workflow_to_json(workflow))
    assert set(clone.task_names()) == set(workflow.task_names())
    assert sorted(clone.dependencies()) == sorted(workflow.dependencies())
    clone.validate()


@settings(max_examples=25, deadline=None)
@given(st.permutations(["P1", "P2", "P3"]))
def test_parameter_order_independent_of_arrival_order(arrival_order):
    workflow = Workflow("fanin")
    for name in ("P1", "P2", "P3"):
        workflow.add_task(Task(name, "synthetic", inputs=["x"]))
    workflow.add_task(Task("SINK", "synthetic"))
    for name in ("P1", "P2", "P3"):
        workflow.add_dependency(name, "SINK")
    encoding = encode_workflow(workflow)
    core = AgentCore(encoding.tasks["SINK"])
    core.boot()
    invocation = None
    for source in arrival_order:
        for action in core.receive_result(source, f"{source}-value"):
            if isinstance(action, StartInvocation):
                invocation = action
    assert invocation is not None
    assert list(invocation.parameters) == ["P1-value", "P2-value", "P3-value"]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(["P1", "P2"]), min_size=2, max_size=8),
)
def test_duplicate_deliveries_never_change_outcome(delivery_sequence):
    # ensure both producers appear at least once
    deliveries = list(delivery_sequence) + ["P1", "P2"]
    workflow = Workflow("dup")
    for name in ("P1", "P2"):
        workflow.add_task(Task(name, "synthetic", inputs=["x"]))
    workflow.add_task(Task("SINK", "synthetic"))
    workflow.add_dependency("P1", "SINK")
    workflow.add_dependency("P2", "SINK")
    encoding = encode_workflow(workflow)
    core = AgentCore(encoding.tasks["SINK"])
    core.boot()
    invocations = []
    for source in deliveries:
        for action in core.receive_result(source, f"{source}-value"):
            if isinstance(action, StartInvocation):
                invocations.append(action)
    assert len(invocations) == 1
    assert list(invocations[0].parameters) == ["P1-value", "P2-value"]
