"""Stdlib-logging wiring for the library.

Every diagnostic in library code paths goes through a logger under the
``repro`` namespace (all agents share ``repro.agents``, the task name leads
the message); the package installs a :class:`logging.NullHandler` on the
root ``repro`` logger, so embedding the library stays silent until the host
application — or ``ginflow --log-level`` — configures handlers.
"""

from __future__ import annotations

import logging

__all__ = ["get_logger", "configure_logging"]

_ROOT_NAME = "repro"

# Embedding default: no output, no "No handlers could be found" warnings.
logging.getLogger(_ROOT_NAME).addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace (``name`` may already carry it)."""
    if name == _ROOT_NAME or name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def configure_logging(level: str | int) -> None:
    """Attach a stderr handler to the ``repro`` logger at ``level``.

    Called by ``ginflow --log-level``; idempotent — repeated calls adjust
    the level instead of stacking handlers.
    """
    numeric = logging.getLevelName(level.upper()) if isinstance(level, str) else level
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    root = logging.getLogger(_ROOT_NAME)
    root.setLevel(numeric)
    for handler in root.handlers:
        if isinstance(handler, logging.StreamHandler) and not isinstance(handler, logging.NullHandler):
            handler.setLevel(numeric)
            return
    handler = logging.StreamHandler()
    handler.setLevel(numeric)
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
