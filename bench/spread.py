"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload small-exact --seeds 1-5 [--trace 0]

For each metric it prints the median over the runs and the distance
between the first and third quartile as a share of the median, next to the
metric's bound in BENCHMARK.json and a third of it (the steadiness target).
Runs are sequential, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in list(result["metrics"].items())[:4])
        print(f"seed {seed}: exit {proc.returncode} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        s = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, s / bound)
            flag = "  OK" if s < bound / 3 else ("  WIDE" if s < bound else "  OVER")
        print(f"{name:<40} median={med:<14.6g} spread={s:.4f} bound={bound}{flag}")
    print(f"worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
