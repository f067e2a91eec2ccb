"""The set-up heap of a run, frozen out of the cyclic collector's reach as it is built."""

from __future__ import annotations

import gc

__all__ = ["FREEZE_STRIDE", "FrozenSetUp"]

#: items built between two freezes: enough allocations for young collections to
#: keep running, few enough that no full one walks much
FREEZE_STRIDE = 128


class FrozenSetUp:
    """``with FrozenSetUp(total) as set_up:`` around a run, ``set_up.built()`` after each
    of the ``total`` agents or task tuples its set-up builds: frozen every :data:`FREEZE_STRIDE`
    and at the last, unfrozen however the block is left; a heap somebody else froze is left alone."""

    #: young collections each freeze wiped off the tally towards a full one, across runs:
    #: past the caller's own thresholds the next run starts with the full collection due
    wiped = 0

    def __init__(self, total: int) -> None:
        self.total, self.count, self.freezes = total, 0, False

    def __enter__(self) -> FrozenSetUp:
        self.freezes = gc.get_freeze_count() == 0
        _, per_old, per_full = gc.get_threshold()
        if self.freezes and gc.isenabled() and FrozenSetUp.wiped > per_old * per_full:
            FrozenSetUp.wiped = 0
            gc.collect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.freezes:
            self.freezes = False
            gc.unfreeze()

    def built(self) -> None:
        self.count += 1
        if self.freezes and (self.count % FREEZE_STRIDE == 0 or self.count == self.total):
            _, young, old = gc.get_count()
            FrozenSetUp.wiped += young + old * gc.get_threshold()[1]
            gc.freeze()
