"""Unit tests for the service-agent core, coordinator and recovery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.agents import (
    AgentCore,
    AgentState,
    Coordinator,
    SendAdapt,
    SendResult,
    StartInvocation,
    StatusUpdate,
    rebuild_agent,
    replay_messages,
)
from repro.hocl import Multiset, Symbol
from repro.hoclflow import encode_workflow, keywords as kw
from repro.hoclflow.fields import src_field, tagged_input
from repro.hoclflow.translator import TaskEncoding
from repro.messaging import Message, MessageKind, agent_topic
from repro.workflow import AdaptationSpec, Task, Workflow, diamond_workflow


def encodings_for(workflow):
    return encode_workflow(workflow).tasks


def fig5_workflow():
    workflow = Workflow("fig5")
    workflow.add_task(Task("T1", "s1", inputs=["input"]))
    workflow.add_task(Task("T2", "s2", metadata={"force_error": True}))
    workflow.add_task(Task("T3", "s3"))
    workflow.add_task(Task("T4", "s4"))
    workflow.add_dependency("T1", "T2")
    workflow.add_dependency("T1", "T3")
    workflow.add_dependency("T2", "T4")
    workflow.add_dependency("T3", "T4")
    replacement = Workflow("alt")
    replacement.add_task(Task("T2p", "s2alt"))
    workflow.add_adaptation(
        AdaptationSpec("replace-T2", ["T2"], replacement, entry_sources={"T2p": ["T1"]})
    )
    return workflow


class TestAgentLifecycle:
    def test_entry_task_starts_invocation_at_boot(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        core = AgentCore(encodings["split"])
        actions = core.boot()
        invocations = [a for a in actions if isinstance(a, StartInvocation)]
        assert len(invocations) == 1
        assert invocations[0].parameters == ("input",)
        assert core.invocation_requested

    def test_waiting_task_does_not_invoke_at_boot(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        core = AgentCore(encodings["merge"])
        actions = core.boot()
        assert not any(isinstance(a, StartInvocation) for a in actions)
        assert set(core.pending_sources()) == {"T_1_1", "T_1_2"}

    def test_boot_emits_status(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        core = AgentCore(encodings["split"])
        assert any(isinstance(a, StatusUpdate) for a in core.boot())

    def test_result_propagation_after_invocation(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        core = AgentCore(encodings["split"])
        core.boot()
        actions = core.invocation_succeeded("split-out")
        sends = [a for a in actions if isinstance(a, SendResult)]
        assert {send.destination for send in sends} == {"T_1_1", "T_1_2"}
        assert all(send.value == "split-out" for send in sends)
        assert core.state == AgentState.COMPLETED
        assert core.has_result()
        assert core.result_value() == "split-out"
        assert core.pending_destinations() == []

    def test_receive_result_triggers_invocation_once_all_sources_arrive(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        core = AgentCore(encodings["merge"])
        core.boot()
        first = core.receive_result("T_1_1", "a")
        assert not any(isinstance(a, StartInvocation) for a in first)
        second = core.receive_result("T_1_2", "b")
        invocations = [a for a in second if isinstance(a, StartInvocation)]
        assert len(invocations) == 1
        # parameters ordered by source task name
        assert invocations[0].parameters == ("a", "b")

    def test_duplicate_results_ignored(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        core = AgentCore(encodings["merge"])
        core.boot()
        core.receive_result("T_1_1", "a")
        duplicate = core.receive_result("T_1_1", "a-again")
        assert duplicate == []
        assert core.duplicates_ignored == 1

    def test_unknown_source_ignored(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        core = AgentCore(encodings["merge"])
        core.boot()
        assert core.receive_result("stranger", "x") == []

    def test_invocation_failure_sets_error(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        core = AgentCore(encodings["split"])
        core.boot()
        actions = core.invocation_failed("boom")
        assert core.has_error()
        assert core.state == AgentState.FAILED
        assert not any(isinstance(a, SendResult) for a in actions)

    def test_status_snapshot(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        core = AgentCore(encodings["merge"])
        core.boot()
        status = core.status()
        # the per-stimulus payload: fixed size whatever the fan-in and fan-out
        assert set(status) == {"task", "state", "has_result", "has_error"}
        assert status["task"] == "merge"
        assert status["state"] == AgentState.READY
        assert status["has_result"] is False and status["has_error"] is False
        # who the agent still waits for is read from its solution
        assert set(core.pending_sources()) == {"T_1_1", "T_1_2"}
        core.invocation_failed("boom")
        assert core.status()["has_error"] is True and core.status()["has_result"] is False
        core.solution = encodings["merge"].initial_solution(rules=())
        core.invocation_succeeded("ok")
        assert core.status()["has_result"] is True and core.status()["has_error"] is False

    def test_reduction_counters_increase(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        core = AgentCore(encodings["split"])
        core.boot()
        assert core.reactions > 0
        assert core.match_attempts > 0
        assert core.reduction_units > 0


class TestAgentAdaptation:
    def test_error_on_trigger_task_broadcasts_adapt(self):
        encodings = encodings_for(fig5_workflow())
        core = AgentCore(encodings["T2"])
        core.boot()
        core.receive_result("T1", "r1")
        actions = core.invocation_failed("forced")
        adapt = [a for a in actions if isinstance(a, SendAdapt)]
        assert {a.destination for a in adapt} == {"T1", "T4", "T2p"}
        assert all(a.adaptation == "replace-T2" for a in adapt)

    def test_source_resends_to_replacement_after_adapt(self):
        encodings = encodings_for(fig5_workflow())
        core = AgentCore(encodings["T1"])
        core.boot()
        core.invocation_succeeded("r1")  # sends to T2, T3; DST now empty
        actions = core.receive_adapt(1)
        sends = [a for a in actions if isinstance(a, SendResult)]
        assert [send.destination for send in sends] == ["T2p"]
        assert sends[0].value == "r1"

    def test_destination_swaps_sources_on_adapt(self):
        encodings = encodings_for(fig5_workflow())
        core = AgentCore(encodings["T4"])
        core.boot()
        core.receive_result("T3", "r3")
        core.receive_adapt(1)
        assert set(core.pending_sources()) == {"T2p"}
        # T3's already-received input must be preserved (default mv_src policy)
        core.receive_result("T2p", "r2p")
        assert core.invocation_requested

    def test_replacement_entry_waits_for_trigger(self):
        encodings = encodings_for(fig5_workflow())
        core = AgentCore(encodings["T2p"])
        core.boot()
        # even if T1's result arrives first, TRIGGER keeps it idle
        core.receive_result("T1", "r1")
        assert not core.invocation_requested
        core.receive_adapt(1)
        assert core.invocation_requested

    def test_replacement_entry_trigger_then_result(self):
        encodings = encodings_for(fig5_workflow())
        core = AgentCore(encodings["T2p"])
        core.boot()
        core.receive_adapt(1)
        assert not core.invocation_requested
        core.receive_result("T1", "r1")
        assert core.invocation_requested

    def test_stale_result_from_replaced_task_ignored_after_adapt(self):
        encodings = encodings_for(fig5_workflow())
        core = AgentCore(encodings["T4"])
        core.boot()
        core.receive_adapt(1)
        assert core.receive_result("T2", "late") == []
        assert core.duplicates_ignored == 1


class TestCoordinator:
    def test_requires_exit_tasks(self):
        with pytest.raises(ValueError):
            Coordinator(exit_tasks=[])

    def test_completion_detection(self):
        completions = []
        coordinator = Coordinator(exit_tasks=["merge"], on_complete=completions.append)
        coordinator.record_status("merge", {"state": "completed", "has_result": False}, time=1.0)
        assert not coordinator.completed
        coordinator.record_status("merge", {"state": "completed", "has_result": True}, time=2.0)
        assert coordinator.completed
        assert coordinator.completion_time == 2.0
        assert completions == [2.0]

    def test_completion_requires_all_exits(self):
        coordinator = Coordinator(exit_tasks=["a", "b"])
        coordinator.record_status("a", {"has_result": True}, time=1.0)
        assert not coordinator.completed
        coordinator.record_status("b", {"has_result": True}, time=2.0)
        assert coordinator.completed

    def test_timeline_records_state_changes_only(self):
        coordinator = Coordinator(exit_tasks=["a"])
        coordinator.record_status("a", {"state": "ready"}, time=1.0)
        coordinator.record_status("a", {"state": "ready"}, time=2.0)
        coordinator.record_status("a", {"state": "invoking"}, time=3.0)
        assert [event.event for event in coordinator.timeline] == ["ready", "invoking"]

    def test_progress_and_queries(self):
        coordinator = Coordinator(exit_tasks=["b"])
        coordinator.record_status("a", {"state": "completed", "has_result": True}, time=1.0)
        coordinator.record_status("b", {"state": "failed", "has_error": True}, time=2.0)
        assert coordinator.progress() == 0.5
        assert coordinator.task_state("a") == "completed"
        assert coordinator.task_state("zzz") == "unknown"
        assert coordinator.tasks_in_state("failed") == ["b"]
        assert coordinator.error_tasks() == ["b"]


class TestRecovery:
    def test_replay_reaches_same_state(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        # original agent receives both results
        original = AgentCore(encodings["merge"])
        original.boot()
        original.receive_result("T_1_1", "a")
        original.receive_result("T_1_2", "b")

        messages = [
            Message(topic=agent_topic("merge"), kind=MessageKind.RESULT, sender="T_1_1", recipient="merge", payload="a"),
            Message(topic=agent_topic("merge"), kind=MessageKind.RESULT, sender="T_1_2", recipient="merge", payload="b"),
        ]
        rebuilt, actions = rebuild_agent(encodings["merge"], messages)
        assert rebuilt.pending_sources() == original.pending_sources() == []
        assert rebuilt.current_parameters() == original.current_parameters()
        assert any(isinstance(a, StartInvocation) for a in actions)

    def test_replay_ignores_status_messages(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        core = AgentCore(encodings["merge"])
        core.boot()
        noise = [Message(topic=agent_topic("merge"), kind=MessageKind.STATUS, sender="x", recipient="merge", payload={})]
        assert replay_messages(core, noise) == []

    def test_replay_adapt_messages(self):
        encodings = encodings_for(fig5_workflow())
        messages = [
            Message(topic=agent_topic("T2p"), kind=MessageKind.RESULT, sender="T1", recipient="T2p", payload="r1"),
            Message(topic=agent_topic("T2p"), kind=MessageKind.ADAPT, sender="T2", recipient="T2p", payload=1),
        ]
        rebuilt, actions = rebuild_agent(encodings["T2p"], messages)
        assert rebuilt.invocation_requested
        assert any(isinstance(a, StartInvocation) for a in actions)

    def test_duplicate_sends_after_recovery_are_harmless(self):
        encodings = encodings_for(diamond_workflow(2, 1))
        destination = AgentCore(encodings["merge"])
        destination.boot()
        destination.receive_result("T_1_1", "a")
        destination.receive_result("T_1_2", "b")
        invoked_before = destination.invocation_requested
        # a recovered upstream agent re-sends its result
        assert destination.receive_result("T_1_1", "a") == []
        assert destination.invocation_requested == invoked_before
        assert destination.duplicates_ignored == 1


def fan_in_encoding(listed_sources):
    """A task waiting for ``listed_sources`` (as listed: repeats allowed)."""
    return TaskEncoding(
        name="merge", service="s", inputs=["seed"], duration=0.0, metadata={},
        sources=list(listed_sources), destinations=["sink"],
    )


def receive_result_by_rebuild(core, source, value):
    """``receive_result`` as it was before the in-place edit: the reference.

    Reads every pending source, rebuilds the whole ``SRC`` field without
    ``source`` and swaps it in with ``Multiset.replace_tuple``.
    """
    sources = core.pending_sources()
    if source not in sources:
        core.duplicates_ignored += 1
        return []
    core.solution.replace_tuple(kw.SRC, src_field([name for name in sources if name != source]))
    core.solution.find_tuple(kw.IN).elements[1].solution.add(tagged_input(source, value))
    return core._reduce_and_collect("receive_result")


def observable_state(core):
    """Everything the cost model, the audits and the STATUS payloads read."""
    return {
        "status": core.status(),
        "content_hash": core.solution.content_hash(),
        "parameters": core.current_parameters(),
        "match_attempts": core.match_attempts,
        "reactions": core.reactions,
        "reduction_units": core.reduction_units,
        "rule_fires": dict(core.rule_fires),
        "duplicates_ignored": core.duplicates_ignored,
        "invocation_requested": core.invocation_requested,
        "results_sent": core.results_sent,
    }


@st.composite
def result_scripts(draw):
    """``(sources as listed in SRC, senders of the RESULT messages in arrival order)``.

    Every source reports at least once, in random order; duplicated results
    and results of a task that was never a source are mixed in anywhere, and
    one source may be listed twice in ``SRC``.
    """
    fan_in = draw(st.integers(1, 64))
    sources = [f"S{index}" for index in range(fan_in)]
    listed = list(sources)
    if draw(st.booleans()):
        listed.insert(draw(st.integers(0, fan_in)), draw(st.sampled_from(sources)))
    senders = list(draw(st.permutations(sources)))
    for extra in draw(st.lists(st.sampled_from(sources + ["stale"]), max_size=8)):
        senders.insert(draw(st.integers(0, len(senders))), extra)
    return listed, senders


class TestStimulusPath:
    """``receive_result`` edits ``SRC``/``IN`` in place, at a fan-in-independent cost."""

    @given(result_scripts())
    @settings(max_examples=60, deadline=None)
    def test_in_place_edit_matches_the_rebuild_reference(self, script):
        listed, senders = script
        encoding = fan_in_encoding(listed)
        live = AgentCore(encoding)
        reference = AgentCore(encoding)
        assert live.boot() == reference.boot()
        for number, sender in enumerate(senders):
            value = f"value-{number}"
            assert live.receive_result(sender, value) == receive_result_by_rebuild(reference, sender, value)
            assert observable_state(live) == observable_state(reference)
        assert live.pending_sources() == []
        assert live.invocation_requested
        assert live.duplicates_ignored == len(senders) - len(set(listed))
        assert live.invocation_succeeded("done") == reference.invocation_succeeded("done")
        assert observable_state(live) == observable_state(reference)

    @given(result_scripts())
    @settings(max_examples=40, deadline=None)
    def test_replay_of_the_same_messages_reaches_the_live_state(self, script):
        listed, senders = script
        encoding = fan_in_encoding(listed)
        live = AgentCore(encoding)
        live_actions = list(live.boot())
        messages = []
        for number, sender in enumerate(senders):
            live_actions.extend(live.receive_result(sender, f"value-{number}"))
            messages.append(
                Message(topic=agent_topic("merge"), kind=MessageKind.RESULT, sender=sender,
                        recipient="merge", payload=f"value-{number}")
            )
        rebuilt, replayed_actions = rebuild_agent(encoding, messages)
        assert replayed_actions == live_actions
        assert observable_state(rebuilt) == observable_state(live)

    def test_sources_keep_their_order_and_the_src_tuple_stays_put(self):
        core = AgentCore(fan_in_encoding(["a", "b", "c", "b", "d"]))
        core.boot()
        src_tuple = core.solution.find_tuple(kw.SRC)
        core.receive_result("b", 1)  # both occurrences leave
        assert core.pending_sources() == ["a", "c", "d"]
        core.receive_result("a", 2)
        assert core.pending_sources() == ["c", "d"]
        assert core.solution.find_tuple(kw.SRC) is src_tuple
        assert core.receive_result("b", 3) == [] and core.duplicates_ignored == 1

    def test_cost_per_stimulus_does_not_depend_on_the_fan_in(self, monkeypatch):
        """No clock: count the atoms a stimulus builds, at fan-in 32 and 512.

        Rebuilding ``SRC`` per message re-creates every remaining source —
        about fan-in/2 ``Symbol`` constructions and ``Multiset.add`` calls per
        stimulus; the in-place edit makes a constant handful.
        """
        counts = {"add": 0, "symbol": 0}
        real_add, real_new = Multiset.add, Symbol.__new__

        def counting_add(self, value):
            counts["add"] += 1
            return real_add(self, value)

        def counting_new(cls, name):
            counts["symbol"] += 1
            return real_new(cls, name)

        def per_stimulus(fan_in):
            sources = [f"S{index}" for index in range(fan_in)]
            core = AgentCore(fan_in_encoding(sources))
            core.boot()
            seen = []
            # the last result fires gw_setup/gw_call, which read all of IN once
            for source in sources[:-1]:
                before = dict(counts)
                core.receive_result(source, "value")
                seen.append((counts["add"] - before["add"], counts["symbol"] - before["symbol"]))
            core.receive_result(sources[-1], "value")
            assert core.invocation_requested
            return seen

        monkeypatch.setattr(Multiset, "add", counting_add)
        monkeypatch.setattr(Symbol, "__new__", staticmethod(counting_new))
        narrow, wide = per_stimulus(32), per_stimulus(512)
        assert len(set(narrow)) == 1, "every stimulus of one agent costs the same"
        assert set(wide) == set(narrow), f"fan-in 512 {sorted(set(wide))} vs fan-in 32 {sorted(set(narrow))}"
        adds, symbols = narrow[0]
        assert adds <= 4 and symbols <= 4
