"""Unit tests for the cluster model, the messaging substrate and the services."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broker_oracle import TwoHopBroker

from repro.cluster import (
    Cluster,
    GRID5000_TOTAL_CORES,
    MesosMaster,
    NetworkModel,
    Node,
    grid5000_cluster,
    grid5000_network,
)
from repro.messaging import (
    InProcessBroker,
    Message,
    MessageLog,
    SimulatedBroker,
    agent_topic,
)
from repro.services import (
    FailureModel,
    InvocationContext,
    NO_FAILURES,
    PythonService,
    ServiceRegistry,
    SyntheticService,
)
from repro.runtime.costs import ACTIVEMQ_PROFILE, KAFKA_PROFILE, CostModel
from repro.simkernel import RandomStreams, Simulator


class TestNodesAndCluster:
    def test_node_capacity(self):
        node = Node("n1", cores=4, agents_per_core=2)
        assert node.capacity == 8
        assert node.free_slots == 8

    def test_assign_and_release(self):
        node = Node("n1", cores=1)
        node.assign("a1")
        assert node.free_slots == 1
        node.release("a1")
        assert node.free_slots == 2

    def test_assign_over_capacity(self):
        node = Node("n1", cores=1, agents_per_core=1)
        node.assign("a1")
        with pytest.raises(RuntimeError):
            node.assign("a2")

    def test_cluster_requires_nodes(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_cluster_unique_names(self):
        with pytest.raises(ValueError):
            Cluster([Node("n", 1), Node("n", 1)])

    def test_round_robin_placement_spreads(self):
        cluster = Cluster([Node("a", 2), Node("b", 2)])
        placement = cluster.round_robin_placement(["x", "y", "z"])
        assert placement["x"].name == "a"
        assert placement["y"].name == "b"
        assert placement["z"].name == "a"

    def test_round_robin_capacity_exceeded(self):
        cluster = Cluster([Node("a", 1, agents_per_core=1)])
        with pytest.raises(RuntimeError):
            cluster.round_robin_placement(["x", "y"])

    def test_subset(self):
        cluster = grid5000_cluster(25)
        sub = cluster.subset(5)
        assert len(sub) == 5

    def test_grid5000_total_cores(self):
        assert grid5000_cluster(25).total_cores == GRID5000_TOTAL_CORES == 568

    def test_grid5000_capacity_allows_1000_services(self):
        assert grid5000_cluster(25).total_capacity >= 1000

    def test_grid5000_bad_node_count(self):
        with pytest.raises(ValueError):
            grid5000_cluster(0)
        with pytest.raises(ValueError):
            grid5000_cluster(26)

    def test_network_transfer_time(self):
        network = NetworkModel(latency=0.001, bandwidth=1000.0, jitter=0.0)
        assert network.transfer_time(500) == pytest.approx(0.001 + 0.5)

    def test_network_negative_size(self):
        with pytest.raises(ValueError):
            NetworkModel().transfer_time(-1)

    def test_grid5000_network_is_fast(self):
        assert grid5000_network().transfer_time(1024) < 0.01

    def test_mesos_master_offers(self):
        cluster = Cluster([Node("a", 1), Node("b", 1)])
        master = MesosMaster(cluster, offer_interval=2.0, registration_delay=1.0)
        assert master.next_offer_time() == 1.0
        offer = master.make_offer()
        assert len(offer) == 2
        assert master.next_offer_time() == 3.0

    def test_mesos_master_skips_full_nodes(self):
        cluster = Cluster([Node("a", 1, agents_per_core=1)])
        cluster.node("a").assign("x")
        master = MesosMaster(cluster)
        assert len(master.make_offer()) == 0


class TestBrokers:
    def test_profiles(self):
        costs = CostModel()
        assert costs.broker_profile("activemq") is ACTIVEMQ_PROFILE
        assert costs.broker_profile("kafka") is KAFKA_PROFILE
        with pytest.raises(ValueError):
            costs.broker_profile("rabbitmq")

    def test_kafka_is_persistent_activemq_is_not(self):
        assert KAFKA_PROFILE.persistent and not ACTIVEMQ_PROFILE.persistent

    def test_kafka_costs_higher(self):
        assert KAFKA_PROFILE.per_message_time > ACTIVEMQ_PROFILE.per_message_time

    def test_message_log_offsets(self):
        log = MessageLog()
        m1 = Message(topic="t", kind="RESULT", sender="a", recipient="b")
        m2 = Message(topic="t", kind="RESULT", sender="a", recipient="b")
        assert log.append(m1) == 0
        assert log.append(m2) == 1
        assert log.replay("t") == [m1, m2]
        assert log.replay("t", 1) == [m2]
        assert log.size("t") == 2

    def test_in_process_broker_delivery(self):
        broker = InProcessBroker(ACTIVEMQ_PROFILE)
        received = []
        broker.subscribe("topic", received.append)
        broker.publish(Message(topic="topic", kind="RESULT", sender="a", recipient="b", payload=1))
        assert len(received) == 1
        assert broker.published_count() == 1

    def test_in_process_broker_unsubscribe(self):
        broker = InProcessBroker(ACTIVEMQ_PROFILE)
        received = []
        broker.subscribe("topic", received.append)
        broker.unsubscribe("topic", received.append)
        broker.publish(Message(topic="topic", kind="RESULT", sender="a", recipient="b"))
        assert received == []

    def test_activemq_replay_not_supported(self):
        with pytest.raises(RuntimeError):
            InProcessBroker(ACTIVEMQ_PROFILE).replay("topic")

    def test_kafka_replay(self):
        broker = InProcessBroker(KAFKA_PROFILE)
        message = Message(topic=agent_topic("T1"), kind="RESULT", sender="a", recipient="T1")
        broker.publish(message)
        assert broker.replay(agent_topic("T1"), 0) == [message]
        assert broker.replay(agent_topic("T1"), 1) == []  # the log holds one message: offset 1 is its end

    def test_message_is_immutable(self):
        message = Message(topic="t", kind="RESULT", sender="x", recipient="y")
        for field in ("topic", "payload", "size_bytes"):
            with pytest.raises(AttributeError):
                setattr(message, field, "other")
        with pytest.raises(AttributeError):
            message.extra = 1

    def test_message_equality_is_field_wise(self):
        a = Message("t", "RESULT", "x", "y", payload=[1, 2], size_bytes=7)
        assert a == Message("t", "RESULT", "x", "y", payload=[1, 2], size_bytes=7)
        assert hash(Message("t", "RESULT", "x", "y", 7)) == hash(Message("t", "RESULT", "x", "y", 7))
        assert a != Message("t", "RESULT", "x", "y", payload=[1, 2], size_bytes=8)
        assert a != Message("t", "RESULT", "x", "other", payload=[1, 2], size_bytes=7)

    def test_message_keyword_and_positional_construction(self):
        by_keyword = Message(
            topic="t", kind="ADAPT", sender="x", recipient="y", payload=3, size_bytes=256
        )
        assert by_keyword == Message("t", "ADAPT", "x", "y", 3, 256)
        defaults = Message("t", "RESULT", "x", "y")
        assert (defaults.payload, defaults.size_bytes) == (None, 512)

    def test_simulated_broker_delivers_with_delay(self):
        sim = Simulator()
        broker = SimulatedBroker(sim, ACTIVEMQ_PROFILE, randomness=RandomStreams(1))
        received = []
        broker.subscribe("t", lambda m: received.append(sim.now))
        broker.publish(Message(topic="t", kind="RESULT", sender="a", recipient="b"))
        sim.run()
        assert len(received) == 1
        assert received[0] > 0.0
        assert broker.delivered_count() == 1

    def test_simulated_broker_serialises_messages(self):
        sim = Simulator()
        broker = SimulatedBroker(sim, KAFKA_PROFILE, randomness=RandomStreams(1))
        times = []
        broker.subscribe("t", lambda m: times.append(sim.now))
        for _ in range(3):
            broker.publish(Message(topic="t", kind="RESULT", sender="a", recipient="b"))
        sim.run()
        assert times == sorted(times)
        assert times[-1] - times[0] >= 2 * KAFKA_PROFILE.per_message_time * 0.99

    @pytest.mark.parametrize("dispatchers", [1, 3])
    def test_delivery_instants_equal_one_scalar_numpy_draw_per_message(self, dispatchers):
        numpy = pytest.importorskip("numpy")

        class NumpyStreams(RandomStreams):
            """The oracle: every jitter value is its own scalar numpy draw from the label's derived seed."""

            def uniforms(self, label):
                derived = zlib.crc32(label.encode("utf-8")) ^ (self.seed * 0x9E3779B1 & 0xFFFFFFFF)
                generator = numpy.random.default_rng(derived)
                return lambda: float(generator.uniform(0.0, 1.0))

        def delivery_instants(randomness):
            sim = Simulator()
            broker = SimulatedBroker(
                sim, ACTIVEMQ_PROFILE, network=grid5000_network(), randomness=randomness, dispatchers=dispatchers
            )
            instants = []
            broker.subscribe("t", lambda message: instants.append((message.payload, sim.now)))
            # bursts that outrun the dispatchers, then gaps that let them drain; the payload names the message
            for number in range(1, 1001):
                burst_start = 0.25 * (number // 40)
                sim.call_at(burst_start, broker.publish, Message("t", "RESULT", "a", "b", number))
            sim.run()
            return instants

        instants = delivery_instants(RandomStreams(5))
        assert len(instants) == 1000
        assert instants == delivery_instants(NumpyStreams(5))
        assert len({instant for _number, instant in instants}) == 1000  # the jitter is really there

    def test_the_dispatcher_follows_the_brokers_own_publishes(self):
        """Two brokers publishing interleaved on one thread: each keeps the timeline it has
        alone.  Picking a dispatcher by the process-wide message id sent every message of
        one broker to the same dispatcher, which then serialised its whole burst."""

        def arrivals(brokers):
            sim, instants = Simulator(), []
            built = [
                SimulatedBroker(sim, KAFKA_PROFILE, randomness=RandomStreams(2), dispatchers=2) for _ in range(brokers)
            ]
            for index, broker in enumerate(built):
                broker.subscribe("t", lambda message, index=index: instants.append((index, sim.now.hex())))
            for _ in range(6):
                for broker in built:
                    broker.publish(Message("t", "RESULT", "a", "b"))
            sim.run()
            return [instant for index, instant in instants if index == 0]

        assert arrivals(2) == arrivals(1)

    def test_simulated_broker_replay_requires_persistence(self):
        sim = Simulator()
        broker = SimulatedBroker(sim, ACTIVEMQ_PROFILE)
        with pytest.raises(RuntimeError):
            broker.replay("t")

    def test_simulated_kafka_broker_logs(self):
        sim = Simulator()
        broker = SimulatedBroker(sim, KAFKA_PROFILE)
        broker.publish(Message(topic="t", kind="RESULT", sender="a", recipient="b"))
        assert len(broker.replay("t")) == 1


#: a publish schedule: bursts of equal-instant publishes, each after a gap that may be 0
#: (equal instants), shorter than, equal to or longer than a dispatcher's service time
_SCHEDULES = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.0005, 0.002, 0.15, 0.4]), st.integers(1, 6), st.integers(0, 2)),
    min_size=1,
    max_size=12,
)


def _arrivals(broker_class, profile, network, dispatchers, schedule):
    """The broker, and ``(number, arrival instant as float.hex)`` of every delivery in
    delivery order.  A message's payload is ``(number, n)``: its number in creation order,
    and ``n``; one with ``n > 0`` is answered on delivery with one carrying ``n - 1``, as an
    agent's result answers the result it receives."""
    sim, arrivals, ids = Simulator(), [], iter(range(1, 10_000))
    broker = broker_class(sim, profile, network, RandomStreams(4), dispatchers)

    def received(message):
        number, echoes = message.payload
        arrivals.append((number, sim.now.hex()))
        if echoes:
            broker.publish(Message("t", "RESULT", "b", "a", (next(ids), echoes - 1)))

    broker.subscribe("t", received)
    at = 0.0
    for gap, burst, echoes in schedule:
        at += gap
        for _ in range(burst):
            sim.call_at(at, broker.publish, Message("t", "RESULT", "a", "b", (next(ids), echoes)))
    sim.run()
    return broker, arrivals


class TestFusedHopAgainstTheTwoHopBroker:
    """The broker queues one entry per message, its arrival, computing the dispatcher's
    finish at publish time; ``tests/broker_oracle.py`` queues two, the dispatcher's end
    (which draws the jitter) and the arrival.  Whenever the oracle's dispatchers finish in
    publish order — always with one dispatcher — every message must arrive at the same
    instant, to the last bit, and in the same order."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        schedule=_SCHEDULES,
        dispatchers=st.sampled_from([1, 2, 3]),
        profile=st.sampled_from([ACTIVEMQ_PROFILE, KAFKA_PROFILE]),
        jitter=st.booleans(),
    )
    def test_same_arrivals_as_the_oracle(self, schedule, dispatchers, profile, jitter):
        network = grid5000_network() if jitter else NetworkModel()  # NetworkModel(): no jitter, real ties
        _, fused = _arrivals(SimulatedBroker, profile, network, dispatchers, schedule)
        oracle, expected = _arrivals(TwoHopBroker, profile, network, dispatchers, schedule)
        assert len(fused) == len(expected) == sum(burst * (1 + echoes) for _gap, burst, echoes in schedule)
        if dispatchers == 1:
            assert oracle.finished == oracle.published
        if oracle.finished == oracle.published:
            assert fused == expected

    def test_a_tie_across_dispatchers_is_drawn_in_publish_order(self):
        """Where the argument stops: message 17 (published at 0) and 18 (published at
        0.23, on the other dispatcher) both leave their dispatchers at the same finish f.
        The two-hop kernel entry is at ``now + (f - now)``, which for 18 rounds one ulp
        below f, so the oracle finished 18 first and gave it the jitter draw the fused
        hop gives 17.  With one dispatcher consecutive finishes lie a service time apart."""
        schedule = [(0.0, 1, 0), (0.0, 4, 1), (0.0, 6, 0), (0.0, 6, 0)]
        network = grid5000_network()
        _, fused = _arrivals(SimulatedBroker, KAFKA_PROFILE, network, 2, schedule)
        oracle, expected = _arrivals(TwoHopBroker, KAFKA_PROFILE, network, 2, schedule)
        published, finished = ([message.payload[0] for message in order] for order in (oracle.published, oracle.finished))
        swapped = finished.index(18) < finished.index(17)
        assert swapped and published.index(17) < published.index(18)
        assert fused != expected
        assert sorted(fused) != sorted(expected) and fused[:16] == expected[:16] and fused[18:] == expected[18:]

    def test_one_kernel_entry_per_message(self):
        sim = Simulator()
        broker = SimulatedBroker(sim, ACTIVEMQ_PROFILE, dispatchers=2)
        for _ in range(5):
            broker.publish(Message("t", "RESULT", "a", "b"))
        assert sim.pending() == 5
        sim.run()
        assert sim.processed_events == 5


class TestServices:
    def test_synthetic_service_output(self):
        service = SyntheticService()
        result = service.invoke([], InvocationContext(task_name="T1", duration=2.0))
        assert result.value == "T1-out"
        assert result.duration == 2.0
        assert not result.failed

    def test_synthetic_service_forced_error(self):
        service = SyntheticService()
        context = InvocationContext(task_name="T1", metadata={"force_error": True})
        assert service.invoke([], context).failed

    def test_synthetic_service_error_only_first_attempts(self):
        service = SyntheticService()
        metadata = {"force_error": True, "force_error_attempts": 1}
        first = service.invoke([], InvocationContext(task_name="T1", metadata=metadata, attempt=1))
        second = service.invoke([], InvocationContext(task_name="T1", metadata=metadata, attempt=2))
        assert first.failed and not second.failed

    def test_python_service(self):
        service = PythonService("add", lambda a, b: a + b)
        result = service.invoke([2, 3], InvocationContext(task_name="T"))
        assert result.value == 5

    def test_python_service_exception_becomes_failure(self):
        service = PythonService("boom", lambda: 1 / 0)
        assert service.invoke([], InvocationContext(task_name="T")).failed

    def test_python_service_requires_callable(self):
        with pytest.raises(TypeError):
            PythonService("x", 42)

    def test_registry_resolution_and_fallback(self):
        registry = ServiceRegistry()
        registry.register_function("add", lambda a, b: a + b)
        assert registry.knows("add")
        assert not registry.knows("unknown")
        fallback = registry.resolve("unknown")
        assert isinstance(fallback, SyntheticService)
        assert registry.resolve("unknown") is fallback

    def test_registry_copy(self):
        registry = ServiceRegistry()
        registry.register_function("a", lambda: 1)
        clone = registry.copy()
        clone.register_function("b", lambda: 2)
        assert not registry.knows("b")


class TestFailureModel:
    def test_disabled_by_default(self):
        assert not NO_FAILURES.enabled
        assert NO_FAILURES.crash_time(100, RandomStreams(1), "x") is None

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            FailureModel(probability=1.0)
        with pytest.raises(ValueError):
            FailureModel(probability=-0.1)

    def test_short_invocations_not_exposed(self):
        model = FailureModel(probability=0.99, delay=50.0)
        assert model.crash_time(10.0, RandomStreams(1), "x") is None

    def test_crash_time_equals_delay(self):
        model = FailureModel(probability=0.999999, delay=5.0)
        assert model.crash_time(100.0, RandomStreams(1), "x") == 5.0

    def test_expected_failures_formula(self):
        model = FailureModel(probability=0.5, delay=0.0)
        assert model.expected_failures(100) == pytest.approx(100.0)
        model = FailureModel(probability=0.8, delay=0.0)
        assert model.expected_failures(118) == pytest.approx(472.0)

    def test_recovery_overhead(self):
        model = FailureModel(probability=0.1, detection_delay=1.0, restart_delay=2.0)
        assert model.recovery_overhead() == 3.0

    def test_crash_draw_reproducible(self):
        model = FailureModel(probability=0.5, delay=0.0)
        draws_a = [model.crash_time(10, RandomStreams(9), f"l{i}") for i in range(20)]
        draws_b = [model.crash_time(10, RandomStreams(9), f"l{i}") for i in range(20)]
        assert draws_a == draws_b
