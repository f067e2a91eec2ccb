"""A small metrics registry: counters, gauges and histograms.

The registry is a per-run bundle (one instance per
:class:`~repro.obs.Observability`): the runtimes and brokers increment it at
their hot seams and the report assembly snapshots it into
``RunReport.extra["metrics"]``.  Thread-safe (the threaded runtime's
agent threads hit it concurrently) and picklable (process-pool sweeps
ship the whole configuration to workers).
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary of observed values (count/sum/min/max)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
            "mean": (self.total / self.count) if self.count else 0.0,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe snapshot of every instrument, sorted by name."""
        with self._lock:
            return {
                "counters": {name: self._counters[name].value for name in sorted(self._counters)},
                "gauges": {name: self._gauges[name].value for name in sorted(self._gauges)},
                "histograms": {
                    name: self._histograms[name].summary() for name in sorted(self._histograms)
                },
            }

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
