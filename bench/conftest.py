"""Make the package under ``src/`` and the benchmark modules importable.

Run the benchmark's own tests from the repository root with
``python3 -m pytest bench``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
