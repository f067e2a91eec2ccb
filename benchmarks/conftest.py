"""Benchmark-suite configuration (mirrors the repository conftest): ``src/``
importable, and ``tests/`` for the reference reductions the benchmarks hold
the engine to (``tests/reduction_reference.py``)."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "tests", _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
