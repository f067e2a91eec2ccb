"""The set-up heap of a run, frozen out of the cyclic collector's reach as it is built."""

from __future__ import annotations

import gc

__all__ = ["FrozenSetUp"]


class FrozenSetUp:
    """``with FrozenSetUp(total) as set_up:`` around a run, ``set_up.built()`` after each
    of the ``total`` agents or task tuples its set-up builds: the collector held off from
    the first to the last and the heap frozen once there, unfrozen however the block is
    left.  A heap somebody else froze, or a collector somebody else disabled, is left as found."""

    #: young collections each freeze wiped off the tally towards a full one, or held off,
    #: across runs: past the caller's own thresholds the next run starts with the full collection due
    wiped = 0

    def __init__(self, total: int) -> None:
        self.total, self.count, self.freezes, self.holds = total, 0, False, False

    def __enter__(self) -> FrozenSetUp:
        self.freezes = gc.get_freeze_count() == 0
        _, per_old, per_full = gc.get_threshold()
        if self.freezes and gc.isenabled() and FrozenSetUp.wiped > per_old * per_full:
            FrozenSetUp.wiped = 0
            gc.collect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._release()
        if self.freezes:
            self.freezes = False
            gc.unfreeze()

    def built(self) -> None:
        self.count += 1
        if not self.freezes:
            return
        if self.count == self.total:
            allocated, young, old = gc.get_count()
            per_young, per_old, _ = gc.get_threshold()
            # what the freeze wipes off the tally, and the young collections the set-up held off
            FrozenSetUp.wiped += allocated // per_young + young + old * per_old
            gc.freeze()
            self._release()
        elif self.count == 1 and gc.isenabled():
            self.holds = True
            gc.disable()

    def _release(self) -> None:
        """Give the collector back, if this set-up held it off."""
        if self.holds:
            self.holds = False
            gc.enable()
