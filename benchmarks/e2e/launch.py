"""Child-side launcher of one benchmark sample.

``python launch.py [--probe[=SPANS_PATH]] <ginflow argv...>`` imports
``repro.cli``, wraps ``GinFlow.run`` with one timestamp pair (it is called
once, so the pair costs nothing measurable), calls ``repro.cli.main(argv)`` and
prints ``{t_imported, t_run_enter, t_run_exit}`` as one JSON line on stderr.
The clock is ``time.monotonic()``, which is system-wide, so the parent can
subtract its own spawn and exit times.  With ``--probe`` the timing probe is
installed around the run and its totals ride along in the same line.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    spans_path = None  # None: no probe; "": probe, spans not written
    if argv and argv[0].startswith("--probe"):
        spans_path = argv[0].partition("=")[2]
        argv = argv[1:]

    import repro.cli
    from repro.runtime import GinFlow

    stamps: dict = {"t_imported": time.monotonic()}
    probe = None
    if spans_path is not None:
        from probe import Probe

        probe = Probe().install()
    inner = GinFlow.run

    def timed_run(self, *args, **kwargs):  # noqa: ANN001 - mirrors GinFlow.run
        stamps["t_run_enter"] = time.monotonic()
        try:
            return inner(self, *args, **kwargs)
        finally:
            stamps["t_run_exit"] = time.monotonic()

    GinFlow.run = timed_run
    try:
        status = repro.cli.main(argv)
    finally:
        GinFlow.run = inner
        if probe is not None:
            stamps["probe"] = {**probe.totals(), "restored": probe.uninstall()}
            if spans_path:
                probe.write_spans(spans_path)
    print(json.dumps(stamps), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
