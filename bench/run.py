"""Leafspan benchmark: seeded workloads on the certified solve -> verify path.

Run from the repository root:

    python3 bench/run.py --workload random-e2e --seed 1 --seconds 25 --trace 0

The workloads are defined in ``workloads.py`` and listed, with the bounds of
the end-to-end metrics, in ``BENCHMARK.json``.  Each run sets the workload
up several times (``setup_s`` is the median), runs one untimed warm-up job,
then runs passes over all of its jobs for ``--seconds``; each time metric is
the median over the passes.  Times are in nominal seconds: every measured
time is scaled by the speed of a fixed unit of reference work timed next to
it (``reference.py``), so that a stretch in which other tenants of a shared
host slow the machine down does not read as a slower program; the raw
seconds go to standard error.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  A human-readable
report (environment, per-metric spread within the run next to its bound,
failures, refusals, the latency tail) goes to standard error.  The exit code
is 0 only when every job verified and every check held.

Related tools: ``spread.py`` runs several seeds and reports each metric's
spread across them; ``record_golden.py`` records ``golden.json``; the
benchmark's own tests run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # setup_s includes importing the package, so time it here
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
    except ImportError as e:
        print(f"bench: cannot import the leafspan package from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return 2
    package = Path(harness.leafspan.__file__).resolve()
    if not package.is_relative_to(ROOT / "src"):
        print(f"bench: imported leafspan from {package}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)


if __name__ == "__main__":
    sys.exit(main())
