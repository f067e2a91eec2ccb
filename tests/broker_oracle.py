"""The simulated broker as two kernel entries per message: the oracle of the fused hop.

``TwoHopBroker`` is the simulated broker as it was before it computed each
dispatcher's finish at publish time.  A message occupies one of the
round-robin dispatchers, each a :class:`SerialQueue` whose job ends with a
kernel entry; that entry draws the network jitter (in completion order) and
queues a second one, the arrival.  ``SerialQueue`` is the serial server the
simulated runtime used to hold per dispatcher and per agent.
``tests/test_cluster_messaging_services.py`` holds
``repro.messaging.SimulatedBroker`` to this broker.
"""

from repro.messaging import Message


class SerialQueue:
    """One job at a time, in submission order: ``function(*args)`` runs when its job ends."""

    def __init__(self, sim):
        self.sim = sim
        self._next_free = 0.0
        self.processed = 0
        self.busy_time = 0.0

    def submit(self, work_time, function, *args):
        if work_time < 0:
            raise ValueError("work_time must be >= 0")
        now = self.sim.now
        finish = max(now, self._next_free) + work_time
        self._next_free = finish
        self.processed += 1
        self.busy_time += work_time
        self.sim.call_in(finish - now, function, *args)

    @property
    def backlog(self):
        """Seconds of work already queued ahead of a job submitted now."""
        return max(0.0, self._next_free - self.sim.now)


class TwoHopBroker:
    """Publish: a dispatcher's job.  Its end: the jitter draw and the network hop.  Then delivery."""

    def __init__(self, sim, profile, network, randomness, dispatchers=1):
        self.sim, self.profile, self.network = sim, profile, network
        self._jitter = randomness.uniforms("broker-jitter")
        self._queues = [SerialQueue(sim) for _ in range(dispatchers)]
        self._subscribers = {}
        self._published = 0
        #: the messages in publish order, and in the order their dispatchers finished
        self.published, self.finished = [], []

    def publish(self, message: Message):
        queue = self._queues[self._published % len(self._queues)]
        self._published += 1
        self.published.append(message)
        queue.submit(self.profile.per_message_time, self._dispatched, message)

    def _dispatched(self, message):
        self.finished.append(message)
        transfer = self.network.transfer_time(message.size_bytes, self._jitter())
        self.sim.call_in(self.profile.delivery_overhead + transfer, self._deliver, message)

    def _deliver(self, message):
        for callback in list(self._subscribers.get(message.topic, [])):
            callback(message)

    def subscribe(self, topic, callback):
        self._subscribers.setdefault(topic, []).append(callback)
