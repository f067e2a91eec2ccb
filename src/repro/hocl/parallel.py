"""Concurrent HOCL reduction: pools of engines with deterministic merges.

The decentralised runtimes shard the workflow multiset by task, so each
agent's local reduction is independent by construction; the centralised
executor holds every task sub-solution in one multiset, where the top-level
sub-solutions are independent between any two global (``gw_pass``) firings.
This module exploits both:

* :class:`ParallelReducer` — a thin executor wrapper the threaded/asyncio
  runtimes use to run per-agent reductions on a bounded pool (``run`` /
  ``run_async``), and the centralised executor uses to reduce many shards
  concurrently (:meth:`ParallelReducer.reduce_shards`);
* :func:`reduce_sharded` — the full centralised algorithm: alternate
  *parallel* reduction of every dirty top-level sub-solution with *one*
  top-level reaction pass (batched), until the whole solution is inert.

Determinism
-----------
Reports are merged in **shard index order**, never completion order, so
``rule_fires``/``timings``/``match_attempts`` accounting is reproducible and
``sum(rule_fires.values()) == reactions`` holds for the merged report (the
invariant ``ginflow audit`` checks).  The *content* of the final solution is
the same as the serial engine's for the confluent programs GinFlow runs; the
order of :attr:`~repro.hocl.engine.ReductionReport.history` may differ
(parallel shards interleave), which is why parity is checked on the final
solution hash and the reaction multiset, not the ordered history.

Process pools
-------------
``ParallelReducer(kind="process")`` opts into a process pool for the shard
phase.  Shards must then survive a pickle round-trip — a rule pickles as its
definition (condition and effect included) and compiles again on load.  The
real workflow rules close over runtime callbacks (``invoke``), which do not
pickle; any shard that fails to pickle is transparently reduced on threads
instead and counted in :attr:`ParallelReducer.process_fallbacks`, so the
opt-in can never corrupt a run — it only helps pure-chemistry workloads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

from .engine import ReductionEngine, ReductionReport
from .multiset import Multiset

if TYPE_CHECKING:  # pragma: no cover - the pools (and multiprocessing) load with the first pool
    from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor

__all__ = ["ReductionPolicy", "ParallelReducer", "reduce_sharded", "resolve_policy"]

T = TypeVar("T")


@dataclass(frozen=True)
class ReductionPolicy:
    """One named reduction strategy (the ``--reduction`` knob, resolved).

    Attributes
    ----------
    name:
        The public name (``"serial"``, ``"batch"``, ``"parallel"``).
    batch:
        Whether engines built under this policy collect whole batches of
        disjoint matches per level pass (:class:`ReductionEngine`'s
        ``batch=True``).
    parallel:
        Whether the runtimes should reduce independent shards (per-agent
        solutions, centralised top-level sub-solutions) concurrently.
    pool_kind:
        Executor family of the shard pool: ``"thread"`` (default) or the
        opt-in ``"process"`` (see the module docstring for its pickling
        contract).
    delta:
        Whether engines built under this policy apply in-place rewrite
        deltas when a rule carries one (:class:`ReductionEngine`'s
        ``delta``, default ``True``).  ``dataclasses.replace(policy,
        delta=False)`` forces the full-rebuild reference path for parity
        runs.
    """

    name: str
    batch: bool = False
    parallel: bool = False
    pool_kind: str = "thread"
    delta: bool = True

    def engine_options(self) -> dict[str, Any]:
        """Keyword arguments this policy adds to a ``ReductionEngine``."""
        return {"batch": self.batch, "delta": self.delta}

    def make_reducer(self, max_workers: int | None = None) -> "ParallelReducer | None":
        """A shard pool under this policy (``None`` when not parallel)."""
        if not self.parallel:
            return None
        return ParallelReducer(max_workers=max_workers, kind=self.pool_kind)


#: The built-in strategies behind the ``--reduction`` knob.  The runtime
#: backend registry (:mod:`repro.runtime.reduction`) re-exports these as
#: ``"reduction"`` backends; this mapping is the chemistry-level source of
#: truth, usable without importing any runtime module.
BUILTIN_POLICIES: dict[str, ReductionPolicy] = {
    "serial": ReductionPolicy("serial"),
    "batch": ReductionPolicy("batch", batch=True),
    "parallel": ReductionPolicy("parallel", batch=True, parallel=True),
}


def resolve_policy(reduction: "ReductionPolicy | str | None") -> ReductionPolicy:
    """Resolve a ``--reduction`` value (name, policy or ``None``) to a policy."""
    if reduction is None:
        return BUILTIN_POLICIES["serial"]
    if isinstance(reduction, ReductionPolicy):
        return reduction
    policy = BUILTIN_POLICIES.get(reduction)
    if policy is None:
        known = tuple(BUILTIN_POLICIES)
        raise ValueError(f"unknown reduction strategy {reduction!r}; expected one of {known}")
    return policy


def _default_workers() -> int:
    return max(2, min(8, os.cpu_count() or 2))


def _reduce_shard_payload(payload: bytes) -> bytes:
    """Process-pool worker: unpickle one shard, reduce it, pickle it back."""
    import pickle

    shard, batch, delta, max_steps = pickle.loads(payload)
    engine = ReductionEngine(max_steps=max_steps, incremental=True, batch=batch, delta=delta)
    report = engine.reduce(shard)
    return pickle.dumps((shard, report))


class ParallelReducer:
    """A bounded executor for independent reductions, merged deterministically.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to a small CPU-derived bound (reduction is
        CPU-heavy, oversubscription only adds scheduling noise).
    kind:
        ``"thread"`` (default) or ``"process"`` (opt-in; shards that cannot
        pickle fall back to the thread path, see the module docstring).
    """

    def __init__(self, max_workers: int | None = None, kind: str = "thread"):
        if kind not in ("thread", "process"):
            raise ValueError(f"unknown pool kind {kind!r}; expected 'thread' or 'process'")
        self.max_workers = max_workers or _default_workers()
        self.kind = kind
        #: number of shards the process path could not pickle and reduced on
        #: threads instead (diagnostic; deterministic for a fixed workload)
        self.process_fallbacks = 0
        self._threads: ThreadPoolExecutor | None = None
        self._processes: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------- lifecycle
    def _thread_pool(self) -> ThreadPoolExecutor:
        from concurrent.futures import ThreadPoolExecutor

        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="hocl-reduce"
            )
        return self._threads

    def _process_pool(self) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor

        if self._processes is None:
            self._processes = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._processes

    def shutdown(self) -> None:
        """Tear the pools down (idempotent)."""
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        if self._processes is not None:
            self._processes.shutdown(wait=True)
            self._processes = None

    def __enter__(self) -> "ParallelReducer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------ primitives
    def submit(self, fn: Callable[..., T], *args: Any) -> "Future[T]":
        """Schedule ``fn(*args)`` on the thread pool."""
        return self._thread_pool().submit(fn, *args)

    def run(self, fn: Callable[..., T], *args: Any) -> T:
        """Run ``fn(*args)`` on the thread pool and wait for its result.

        This is what the threaded runtime wraps around each agent's
        reduction: the calling agent thread blocks (per-agent stimuli stay
        serialized), while the pool bounds how many reductions run at once.
        """
        return self.submit(fn, *args).result()

    async def run_async(self, fn: Callable[..., T], *args: Any) -> T:
        """Awaitable variant of :meth:`run` for the asyncio runtime."""
        import asyncio
        from functools import partial

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._thread_pool(), partial(fn, *args))

    def map(self, thunks: Sequence[Callable[[], T]]) -> list[T]:
        """Run every thunk concurrently; results in submission order."""
        futures = [self.submit(thunk) for thunk in thunks]
        return [future.result() for future in futures]

    # ---------------------------------------------------------------- shards
    def reduce_shards(
        self,
        shards: Sequence[Multiset],
        engine_factory: Callable[[], ReductionEngine],
    ) -> ReductionReport:
        """Reduce every shard to inertness concurrently; one merged report.

        Each shard gets its own engine (from ``engine_factory``) so nothing
        is shared across workers but the shards themselves — which are
        disjoint sub-solutions by contract.  Shard reports merge in shard
        index order regardless of completion order.
        """
        if not shards:
            return ReductionReport()
        if self.kind == "process":
            reports = self._reduce_shards_process(shards, engine_factory)
        else:
            futures = [
                self._thread_pool().submit(lambda s=shard: engine_factory().reduce(s))
                for shard in shards
            ]
            reports = [future.result() for future in futures]
        merged = ReductionReport()
        for report in reports:
            merged.merge(report)
        return merged

    def _reduce_shards_process(
        self,
        shards: Sequence[Multiset],
        engine_factory: Callable[[], ReductionEngine],
    ) -> list[ReductionReport]:
        """Process-pool shard phase with a per-shard thread fallback.

        A reduced shard comes back as a *copy*; its atoms are adopted into
        the original shard object in place (the parent solution references
        that object), then the shard is re-stamped inert.
        """
        import pickle  # here, not at the top: every run imports this module for its policy

        probe = engine_factory()
        futures: list[tuple[int, "Future[bytes] | None"]] = []
        fallback: list[tuple[int, Multiset]] = []
        for index, shard in enumerate(shards):
            try:
                payload = pickle.dumps((shard, probe.batch, probe.delta, probe.max_steps))
            except Exception:  # noqa: BLE001 - any unpicklable rule/atom/external
                self.process_fallbacks += 1
                fallback.append((index, shard))
                futures.append((index, None))
                continue
            futures.append((index, self._process_pool().submit(_reduce_shard_payload, payload)))

        fallback_futures = {
            index: self._thread_pool().submit(lambda s=shard: engine_factory().reduce(s))
            for index, shard in fallback
        }
        reports: list[ReductionReport] = []
        for index, future in futures:
            if future is None:
                reports.append(fallback_futures[index].result())
                continue
            reduced, report = pickle.loads(future.result())
            original = shards[index]
            original.clear()
            original.add_all(reduced.atoms())
            original.note_inert()
            reports.append(report)
        return reports


def reduce_sharded(
    solution: Multiset,
    engine_factory: Callable[[], ReductionEngine],
    reducer: ParallelReducer,
    max_steps: int = 1_000_000,
) -> ReductionReport:
    """Reduce ``solution`` to inertness by alternating two phases.

    1. **Shard phase** — every *dirty* (not known-inert) top-level
       sub-solution is reduced to inertness concurrently on ``reducer``;
    2. **Surface phase** — one top-level reaction pass (a whole batch when
       the engines are batched) moves data between shards (``gw_pass`` et
       al.), dirtying the destination shards for the next round.

    The alternation repeats until a round neither reduces a shard nor fires
    a top-level reaction — which is exactly the serial engine's inertness
    condition, reached through a different (but confluent) reaction order.
    """
    surface_engine = engine_factory()
    report = ReductionReport()
    if solution.known_inert:
        return report
    while True:
        if report.reactions >= max_steps:
            report.inert = False
            return report
        dirty = [
            (atom, shard)
            for atom, shard in solution.nested_solution_items()
            if not shard.known_inert
        ]
        if dirty:
            report.merge(reducer.reduce_shards([shard for _atom, shard in dirty], engine_factory))
            if not report.inert:  # a shard hit its own step limit
                return report
            # the shard phase mutated the solution behind the surface
            # engine's back: mark the owning atoms so its frontier (when
            # batched) stays valid without a full rescan.
            surface_engine.mark_frontier(solution, [atom for atom, _shard in dirty])
        if not surface_engine.reduce_level_once(solution, report):
            if not dirty:
                solution.note_inert()
                return report
