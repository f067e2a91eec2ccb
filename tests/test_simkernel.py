"""Unit and property tests for the discrete-event simulation kernel."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broker_oracle import SerialQueue
from repro.simkernel import RandomStreams, Simulator


class TestSimulatorBasics:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_call_in_advances_clock(self):
        sim = Simulator()
        sim.call_in(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0

    def test_arguments_are_passed_to_the_call(self):
        sim = Simulator()
        seen = []
        sim.call_in(2.0, seen.append, "b")
        sim.call_at(1.0, seen.append, "a")
        sim.run()
        assert seen == ["a", "b"]

    def test_call_in_order(self):
        sim = Simulator()
        seen = []
        sim.call_in(2.0, lambda: seen.append("b"))
        sim.call_in(1.0, lambda: seen.append("a"))
        sim.run()
        assert seen == ["a", "b"]

    def test_same_time_fifo(self):
        sim = Simulator()
        seen = []
        sim.call_in(1.0, lambda: seen.append(1))
        sim.call_in(1.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1, 2]

    def test_call_at_past_rejected(self):
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(0.5, lambda: None)

    def test_run_until_horizon(self):
        sim = Simulator()
        seen = []
        sim.call_in(1.0, lambda: seen.append(1))
        sim.call_in(10.0, lambda: seen.append(2))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0

    def test_max_events_bound(self):
        sim = Simulator()
        for _ in range(10):
            sim.call_in(1.0, lambda: None)
        sim.run(max_events=3)
        assert sim.processed_events == 3

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().call_in(-1.0, lambda: None)

    def test_max_events_leaves_the_clock_at_the_last_call(self):
        # the clock must not jump to the horizon over calls still queued before it
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.call_in(delay, lambda: None)
        assert sim.run(until=10.0, max_events=2) == 2.0
        assert sim.pending() == 1
        assert sim.run(until=10.0) == 10.0

    def test_raising_call_propagates_and_leaves_the_rest_queued(self):
        sim = Simulator()
        seen = []

        def boom():
            raise RuntimeError("boom")

        sim.call_in(1.0, seen.append, "a")
        sim.call_in(2.0, boom)
        sim.call_in(2.0, seen.append, "c")
        sim.call_in(3.0, seen.append, "d")
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert (sim.now, seen, sim.pending(), sim.processed_events) == (2.0, ["a"], 2, 2)
        sim.run()
        assert seen == ["a", "c", "d"]


# a few distinct delays, so that equal times — where only insertion order
# decides — are the common case
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])
#: a call: (delay, the calls it schedules when it runs)
CALLS = st.recursive(
    st.tuples(DELAYS, st.just(())),
    lambda calls: st.tuples(DELAYS, st.lists(calls, max_size=3).map(tuple)),
    max_leaves=12,
)
#: how `run` is bounded before the final unbounded run: (until, further events)
STOPS = st.lists(
    st.tuples(st.one_of(st.none(), st.floats(0.0, 8.0)), st.one_of(st.none(), st.integers(0, 5))), max_size=4
)


def run_on_kernel(program, stops):
    """The (time, label) trace of ``program`` and the state after each bounded run."""
    sim = Simulator()
    trace, states, labels = [], [], itertools.count()

    def schedule(call):
        delay, children = call
        label = next(labels)  # == insertion order
        if label % 2:
            sim.call_at(sim.now + delay, fire, label, children)
        else:
            sim.call_in(delay, fire, label, children)

    def fire(label, children):
        trace.append((sim.now, label))
        for child in children:
            schedule(child)

    for call in program:
        schedule(call)
    for until, events in stops:
        sim.run(until=until, max_events=None if events is None else sim.processed_events + events)
        states.append((sim.now, sim.processed_events, sim.pending()))
    sim.run()
    return trace, states, sim.pending()


def run_on_sorted_list(program, stops):
    """The same, from a list re-sorted by (time, insertion) before every step."""
    now, queue, trace, states, labels = 0.0, [], [], [], itertools.count()

    def step():
        nonlocal now
        queue.sort(key=lambda entry: entry[:2])
        now, label, children = queue.pop(0)
        trace.append((now, label))
        queue.extend((now + delay, next(labels), grandchildren) for delay, grandchildren in children)

    queue.extend((now + delay, next(labels), children) for delay, children in program)
    for until, events in stops:
        budget = float("inf") if events is None else events
        horizon = float("inf") if until is None else until
        while queue and budget > 0 and min(queue, key=lambda entry: entry[:2])[0] <= horizon:
            step()
            budget -= 1
        if until is not None and all(time > until for time, _label, _children in queue):
            now = max(now, until)
        states.append((now, len(trace), len(queue)))
    while queue:
        step()
    return trace, states, 0


class TestRunsInTimeThenInsertionOrder:
    @settings(max_examples=300, deadline=None)
    @given(program=st.lists(CALLS, max_size=6), stops=STOPS)
    def test_random_programs_match_the_sorted_list_oracle(self, program, stops):
        assert run_on_kernel(program, stops) == run_on_sorted_list(program, stops)


class TestSerialQueue:
    """The serial server of the two-hop broker oracle (``tests/broker_oracle.py``)."""

    def test_serial_queue_serialises_work(self):
        sim = Simulator()
        queue = SerialQueue(sim)
        finishes = []
        queue.submit(2.0, lambda: finishes.append(sim.now))
        queue.submit(3.0, lambda: finishes.append(sim.now))
        sim.run()
        assert finishes == [2.0, 5.0]
        assert queue.processed == 2
        assert queue.busy_time == 5.0

    def test_serial_queue_passes_arguments_and_waits_for_an_idle_start(self):
        sim = Simulator()
        queue = SerialQueue(sim)
        seen = []
        sim.call_in(10.0, queue.submit, 1.5, seen.append, "late")
        sim.run()
        assert seen == ["late"] and sim.now == 11.5

    def test_serial_queue_backlog(self):
        sim = Simulator()
        queue = SerialQueue(sim)
        queue.submit(4.0, lambda: None)
        assert queue.backlog == 4.0

    def test_serial_queue_negative_work_rejected(self):
        with pytest.raises(ValueError):
            SerialQueue(Simulator()).submit(-1.0, lambda: None)


class TestRandomStreams:
    def test_streams_reproducible(self):
        a = RandomStreams(42).stream("x").uniform(0.0, 1.0, 5)
        b = RandomStreams(42).stream("x").uniform(0.0, 1.0, 5)
        assert a == b and len(set(a)) == 5

    def test_streams_independent_by_label(self):
        streams = RandomStreams(42)
        assert streams.stream("a").uniform(0.0, 1.0, 3) != streams.stream("b").uniform(0.0, 1.0, 3)

    def test_bernoulli_extremes(self):
        streams = RandomStreams(1)
        assert not streams.bernoulli("x", 0.0)
        assert streams.bernoulli("y", 0.999999)

    def test_uniform_bounds(self):
        draw = RandomStreams(3).uniforms("u")
        assert all(0.0 <= draw() < 1.0 for _ in range(100))

    def test_spawn_changes_draws(self):
        parent = RandomStreams(7)
        child = parent.spawn("child")
        assert parent.stream("x").uniform(0.0, 1.0, 3) != child.stream("x").uniform(0.0, 1.0, 3)
