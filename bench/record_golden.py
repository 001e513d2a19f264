"""Record the golden leaf counts and bounds that ``run.py`` checks against.

    python3 bench/record_golden.py --seeds 0-20,9001 [--workload small-exact]

For each (workload, seed) it runs one pass, requires every check of the
first pass to hold, and stores per algorithm the total leaves and a digest
of every job's outcome, leaf count and bounds in ``golden.json``.  Record
only from a commit whose outputs are known good: a run whose outputs
differ from the record fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from spread import seeds  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--workload", action="append", choices=list(harness.WORKLOADS))
    args = parser.parse_args()
    path = harness.BENCH / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    harness.WORK.mkdir(exist_ok=True)
    for workload in args.workload or list(harness.WORKLOADS):
        for seed in args.seeds:
            workdir = Path(tempfile.mkdtemp(dir=harness.WORK))
            try:
                jobs, _, _ = harness.setup(workload, seed, workdir)
                first = harness.run_pass(jobs, str(workdir / "solution.json"))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            problems, reports, _ = harness.check_first_pass(jobs, first)
            if problems:
                i, text = next(iter(problems.items()))
                print(f"{workload} seed {seed}: {jobs[i][0]} {jobs[i][2]}: {text}",
                      file=sys.stderr)
                return 1
            record = harness.golden_record(jobs, first, reports)
            golden.setdefault(workload, {})[str(seed)] = record
            print(workload, seed, {a: r["leaves"] for a, r in record.items()}, flush=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
