"""Command-line front end: generate, solve, verify, and benchmark.

Exit codes: 0 success, 1 validation or certificate failure, 2 usage error
(including out-of-range generator arguments) or an instance too large for an
exact method, 3 I/O or parse error.

A command is parsed by its own parser alone, which reports a bad option with its
own usage; the top-level parser sees only an empty argv, an unknown command or -h.

Each command runs with Python's cyclic garbage collector paused, and `main`
restores the collector's previous state when the command returns or raises.
The package builds no reference cycles, so reference counting frees all its
containers and the collector would only re-scan them; a test enforces this.
Library functions such as `read_instance` and `max_leaves` leave the collector
alone.  The switch is process-wide: cyclic garbage made by other threads
during an in-process call to `main` waits until it returns.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
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
    _write_in_place,
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
    d = read_instance(args.instance, ordered=False)  # verify reads no topological order
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
        raise NotADirectoryError(f"--input-dir {directory} is not a directory")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ALGORITHMS:
            raise MalformedInput(f"unknown algorithm {a!r} in --algos")
    rows = []
    for path in sorted(directory.glob("*.json")):
        d = read_instance(path)
        try:
            opt, _ = exact_max_leaves(d)
        except TooLarge:
            opt = None  # never estimated: the opt and ratio cells stay empty
        for algo in algos:
            row = {"instance": path.name, "algorithm": algo, "n": d.vertex_count}
            rows.append(row)
            start = time.perf_counter()
            try:
                _, report = _run_algorithm(d, PIPELINES[algo])
            except TooLarge as e:
                # like opt: a refused run leaves its cells empty, never estimated
                print(f"bench: {path.name} {algo} refused: {e}", file=sys.stderr)
                continue
            millis = (time.perf_counter() - start) * 1000.0
            row.update(leaves=report.leaf_count, certificate_ok=report.certificate_ok,
                       millis=f"{millis:.3f}")
            row.update((name, str(report.values[name])) for name in report.pipeline.bounds)
            if opt is not None:
                row["opt"] = str(opt)
                row["ratio"] = str(Fraction(opt, report.leaf_count))
    handle = io.StringIO(newline="")
    writer = csv.DictWriter(handle, fieldnames=CSV_HEADER, restval="")
    writer.writeheader()
    writer.writerows(rows)
    _write_in_place(args.csv, handle.getvalue().encode())
    return 0


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, built once; parsing leaves no state."""
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

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("--algo", choices=ALGORITHMS, required=True)
    solve.add_argument("--input", required=True, help="instance path")
    solve.add_argument("--output", required=True, help="solution path")
    solve.add_argument("--dot", help="optional DOT export of the arborescence")

    ver = sub.add_parser("verify", help="re-validate a solution against its instance")
    ver.add_argument("--instance", required=True)
    ver.add_argument("--solution", required=True)

    bench = sub.add_parser("bench", help="run a directory of instances, write CSV")
    bench.add_argument("--input-dir", required=True)
    bench.add_argument("--algos", default="maxleaves", help="comma-separated algorithms")
    bench.add_argument("--csv", required=True, help="output CSV path")
    commands = {"gen": gen, "solve": solve, "verify": ver, "bench": bench}
    for name, command in commands.items():
        command.set_defaults(command=name)
    return parser, commands


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the collector is paused for the reason in the module docstring
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else argv
        parser, commands = build_parser()
        command = commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        # looked up at call time, so a replaced _cmd_* function takes effect
        return globals()[f"_cmd_{args.command}"](args)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (MalformedInput, TooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
