"""Command-line front end: generate, solve, verify, and benchmark.

Exit codes: 0 success, 1 validation or certificate failure, 2 usage error
(including out-of-range generator arguments) or an instance too large for an
exact method, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .branching import Branching
from .certificates import PIPELINES, Pipeline
from .errors import MalformedInput, ParseError, TooLarge
from .graph import Digraph
from .instances import (
    gen_adversarial_family,
    gen_random_rooted_dag,
    read_instance,
    write_dot,
    write_instance,
)
# The pipelines' solve functions look these names up on this module.
from .packing import EXACT_PACKER, GREEDY_PACKER
from .solvers import (
    SolveReport,
    exact_max_leaves,
    expansion_baseline,
    max_leaves,
    max_leaves_packing,
)
from .verify import read_solution, verify_solution, write_solution

ALGORITHMS = tuple(PIPELINES)

CSV_HEADER = [
    "instance", "algorithm", "n", "leaves",
    *dict.fromkeys(b for p in PIPELINES.values() for b in p.bounds),
    "certificate_ok", "opt", "ratio", "millis",
]


def _run_algorithm(d: Digraph, pipeline: Pipeline) -> tuple[Branching, SolveReport]:
    # the pipeline finds its solver functions on this module at call time,
    # so wrappers installed on the module's names see every call
    return pipeline.solve(sys.modules[__name__], d)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.generator == "random":
        d = gen_random_rooted_dag(args.n, args.p, args.seed)
        provenance = f"random(n={args.n}, p={args.p}, seed={args.seed})"
    else:
        d = gen_adversarial_family(args.k)
        provenance = f"adversarial(k={args.k})"
    write_instance(d, args.out, provenance=provenance)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    d = read_instance(args.input)
    t, report = _run_algorithm(d, PIPELINES[args.algo])
    write_solution(args.output, report, list(t.parent))
    if args.dot:
        write_dot(t, args.dot)
    if not report.certificate_ok:
        print(f"certificate failed for {args.input}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    d = read_instance(args.instance)
    solution = read_solution(args.solution)
    problems = verify_solution(d, solution)
    if problems:
        for p in problems:
            print(f"verify: {p}", file=sys.stderr)
        return 1
    print(f"{args.solution}: OK")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.input_dir)
    if not directory.is_dir():
        print(f"bench: {directory} is not a directory", file=sys.stderr)
        return 3
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ALGORITHMS:
            print(f"bench: unknown algorithm {a!r}", file=sys.stderr)
            return 2
    rows = []
    for path in sorted(directory.glob("*.json")):
        d = read_instance(path)
        try:
            opt, _ = exact_max_leaves(d)
        except TooLarge:
            opt = None  # never estimated: the opt and ratio cells stay empty
        for algo in algos:
            start = time.perf_counter()
            _, report = _run_algorithm(d, PIPELINES[algo])
            millis = (time.perf_counter() - start) * 1000.0
            row = {"instance": path.name, "algorithm": algo, "n": d.vertex_count,
                   "leaves": report.leaf_count, "certificate_ok": report.certificate_ok,
                   "millis": f"{millis:.3f}"}
            row.update((name, str(value)) for name, value in report.bounds.items())
            if opt is not None:
                row["opt"] = str(opt)
                row["ratio"] = str(Fraction(opt, report.leaf_count))
            rows.append(row)
    with open(args.csv, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_HEADER, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="leafspan",
        description="Leaf-maximizing spanning arborescences on rooted DAGs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--generator", choices=("random", "adversarial"), required=True)
    gen.add_argument("--n", type=int, default=10, help="vertex count (random)")
    gen.add_argument("--p", type=float, default=0.2, help="extra-arc probability (random)")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (random)")
    gen.add_argument("--k", type=int, default=1, help="family parameter (adversarial)")
    gen.add_argument("--out", required=True, help="output instance path")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("--algo", choices=ALGORITHMS, required=True)
    solve.add_argument("--input", required=True, help="instance path")
    solve.add_argument("--output", required=True, help="solution path")
    solve.add_argument("--dot", help="optional DOT export of the arborescence")
    solve.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="re-validate a solution against its instance")
    ver.add_argument("--instance", required=True)
    ver.add_argument("--solution", required=True)
    ver.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="run a directory of instances, write CSV")
    bench.add_argument("--input-dir", required=True)
    bench.add_argument("--algos", default="maxleaves", help="comma-separated algorithms")
    bench.add_argument("--csv", required=True, help="output CSV path")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (MalformedInput, TooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
