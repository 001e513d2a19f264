"""Benchmark logic: set up a workload, run its jobs in passes, check, report.

A job is one (instance file, algorithm) pair.  It runs the package's own
command line in-process, ``leafspan.cli.main(["solve", ...])`` and then
``leafspan.cli.main(["verify", ...])``, and counts only if both exit 0 and
every check below holds.  A pass runs every job of the workload once.

Checks, in the first pass: the exit codes, ``certificate_ok`` in the
report, the leaf count against the file, and on instances with a known
optimum that opt <= every proven upper bound and opt / leaves stays within
the pipeline's certified ratio.  In every later pass each solution file
must be byte-identical to the first pass's.  Where ``golden.json`` holds a
record for the (workload, seed), every algorithm's leaf counts and bounds
must equal it.  A guard refusal (exit 2) is an expected outcome only where
the oracle's guard predicts it for ``exact``, or for ``w3dm-exact``, whose
set-count guard depends on the greedy phase; any other refusal, and a
missing one, is a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

import leafspan.cli
import leafspan.instances
from leafspan.errors import TooLarge
from leafspan.solvers import _exact_guard

from reference import NOMINAL_S, TABLE_BYTES, Speed
from tracing import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUP_REPS = 5
MIN_PASSES = 3  # untraced; a traced run alternates, so it makes twice as many
CERTIFIED_RATIO = {
    "maxleaves": Fraction(3, 2),
    "expansion2": Fraction(2),
}
UPPER_BOUNDS = ("ub_lemma2", "ub_lemma3", "ub_lemma5")
REPORT_FIELDS = (
    "leaf_count", "leaf_weight", "lb_lemma1", "ub_lemma2", "ub_lemma3",
    "lb_lemma4", "ub_lemma5", "lb_baseline", "claimed_alpha",
)
clock = time.perf_counter


class _Discard(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


def setup(workload: str, seed: int, directory: Path) -> tuple[list, float, str]:
    """Generate the workload's instances and write them.

    Returns the jobs ``(instance name, path, algorithm, expected outcomes)``,
    the seconds taken, and a digest of every instance file's bytes.
    """
    generate, algos = WORKLOADS[workload]
    start = clock()
    instances = generate(seed)
    for name, d in instances:
        leafspan.instances.write_instance(
            d, directory / f"{name}.json", provenance=f"{workload} seed {seed}"
        )
    elapsed = clock() - start
    digest = hashlib.sha256()
    jobs = []
    for name, d in instances:
        path = directory / f"{name}.json"
        digest.update(path.read_bytes())
        for algo in algos:
            jobs.append((name, str(path), algo, _expected(algo, d)))
    return jobs, elapsed, digest.hexdigest()


def _expected(algo: str, d) -> tuple[str, ...]:
    if algo == "w3dm-exact":
        return ("ok", "refused")
    if algo == "exact":
        try:
            _exact_guard(d)
        except TooLarge:
            return ("refused",)
    return ("ok",)


def run_job(job, solution: str, between=None) -> tuple[str, float, float, bytes]:
    """Solve then verify one job; return (outcome, solve s, verify s, bytes).

    The outcome is "ok" (both exit 0), "refused" (solve exit 2, a guard
    refusal) or a description of the failure.  ``between``, if given, is
    called after the solve returns and outside both timings.
    """
    _, path, algo, _ = job
    err = io.StringIO()
    t0 = t1 = clock()
    try:
        with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(err):
            t0 = clock()
            rc = leafspan.cli.main(
                ["solve", "--algo", algo, "--input", path, "--output", solution]
            )
            t1 = clock()
            if between is not None:
                between()
            if rc != 0:
                return ("refused" if rc == 2 else f"solve exit {rc}"), t1 - t0, 0.0, b""
            t2 = clock()
            rc = leafspan.cli.main(["verify", "--instance", path, "--solution", solution])
            t3 = clock()
    except (Exception, SystemExit):
        return f"crashed: {traceback.format_exc(limit=3)}", clock() - t0, 0.0, b""
    if rc != 0:
        return f"verify exit {rc}: {err.getvalue().strip()}", t1 - t0, t3 - t2, b""
    return "ok", t1 - t0, t3 - t2, Path(solution).read_bytes()


def run_pass(jobs, solution: str, tracer: Tracer | None = None, pass_no: int = 0) -> dict:
    """Run every job once, timing each; only pass 0 keeps the solution bytes.

    A job's wall time covers its solve, its verify and reading back and
    hashing the solution; their sum is the pass's wall time.  The reference
    work (``reference.Speed``) runs before each job and between its solve
    and its verify, outside every timing.  Each time is also kept in nominal
    seconds, under ``nominal_<key>``: the solve scaled by the reference
    around the solve, the rest of the job by the reference around the
    verify.
    """
    outcomes, digests, walls, solve, verify, kept, marks = [], [], [], [], [], [], []
    speed = Speed()
    pass_start = clock()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = (pass_no, i)
        mark = [speed.keep_up()]
        pause = 0.0

        def between() -> None:
            nonlocal pause
            t = clock()
            mark.append(speed.keep_up())
            pause += clock() - t

        start = clock()
        outcome, ts, tv, data = run_job(job, solution, between)
        digests.append(hashlib.sha256(data).hexdigest())
        walls.append(clock() - start - pause)
        outcomes.append(outcome)
        solve.append(ts)
        verify.append(tv)
        marks.append(mark)
        if pass_no == 0:
            kept.append(data)
    ends = [m[0] for m in marks[1:]] + [speed.keep_up()]
    if tracer is not None:
        tracer.job = None
    p = {
        "walls": walls, "outcomes": outcomes, "digests": digests,
        "solve": solve, "verify": verify, "bytes": kept,
        "reference": speed.samples, "elapsed": clock() - pass_start,
    }
    for key in ("walls", "solve", "verify", "latency"):
        p[f"nominal_{key}"] = []
    for (first, *mid), end, wall, ts, tv in zip(marks, ends, walls, solve, verify):
        mid = mid[0] if mid else end  # a crashed solve never reached between()
        fs, fv = speed.factor(first, mid), speed.factor(mid, end)
        p["nominal_walls"].append(ts * fs + (wall - ts) * fv)
        p["nominal_solve"].append(ts * fs)
        p["nominal_verify"].append(tv * fv)
        p["nominal_latency"].append(ts * fs + tv * fv)
    return p


def nominal(p: dict, key: str) -> list[float]:
    """A pass's per-job times for ``key``, in nominal seconds."""
    return p[f"nominal_{key}"]


def pass_median(passes: list[dict], key: str) -> float:
    """Median over ``passes`` of the pass's total for ``key``, in nominal seconds."""
    return median(sum(nominal(p, key)) for p in passes)


def job_median(passes: list[dict], key: str) -> list[float]:
    """Each job's median over ``passes`` for ``key``, in nominal seconds."""
    return [median(v) for v in zip(*(nominal(p, key) for p in passes))]


def _report(data: bytes) -> dict:
    obj = json.loads(data)
    rep = obj["report"]
    fields = {k: rep[k] for k in REPORT_FIELDS if k in rep}
    fields["file_leaf_count"] = obj["leaf_count"]
    fields["certificate_ok"] = rep.get("certificate_ok")
    return fields


def check_first_pass(jobs, first: dict) -> tuple[dict[int, str], list, dict]:
    """Check every job of the first pass.

    Returns {job index: problem}, the per-job report fields (None for
    refused or failed jobs) and the quality figures of the pass.
    """
    problems: dict[int, str] = {}
    reports: list = [None] * len(jobs)
    for i, (job, outcome) in enumerate(zip(jobs, first["outcomes"])):
        if outcome not in job[3]:
            problems[i] = f"outcome {outcome!r}, expected {' or '.join(job[3])}"
            continue
        if outcome == "ok":
            rep = _report(first["bytes"][i])
            if rep["certificate_ok"] is not True:
                problems[i] = "report does not claim certificate_ok"
            elif rep["file_leaf_count"] != rep["leaf_count"]:
                problems[i] = "leaf_count differs between file and report"
            else:
                reports[i] = rep

    optimum = {}
    for i, (name, _, algo, _) in enumerate(jobs):
        if algo == "exact" and reports[i] is not None:
            optimum[name] = reports[i]
    leaves_total, opt_ratio_max = 0, None
    bound_sum: dict[str, Fraction] = defaultdict(Fraction)
    leaf_sum: dict[str, int] = defaultdict(int)
    for i, (name, _, algo, _) in enumerate(jobs):
        rep = reports[i]
        if rep is None:
            continue
        leaves = rep["leaf_count"]
        leaves_total += leaves
        if algo == "exact":
            continue
        bounds = [Fraction(rep[k]) for k in UPPER_BOUNDS if k in rep]
        bound_sum[algo] += min(bounds)
        leaf_sum[algo] += leaves
        opt = optimum.get(name)
        if opt is None:
            continue
        if "leaf_weight" in opt:
            if rep["leaf_weight"] > opt["leaf_weight"]:
                problems[i] = "leaf weight exceeds the exact optimum"
            continue
        ratio = Fraction(opt["leaf_count"], leaves)
        certified = CERTIFIED_RATIO.get(
            algo, max(Fraction(4, 3), Fraction(rep.get("claimed_alpha", "1")))
        )
        if leaves > opt["leaf_count"]:
            problems[i] = f"{leaves} leaves exceed the optimum {opt['leaf_count']}"
        elif any(opt["leaf_count"] > b for b in bounds):
            problems[i] = f"an upper bound is below the optimum {opt['leaf_count']}"
        elif ratio > certified:
            problems[i] = f"opt/leaves = {ratio} exceeds the certified {certified}"
        opt_ratio_max = ratio if opt_ratio_max is None else max(opt_ratio_max, ratio)
    quality = {
        "leaves_total": leaves_total,
        "gap_max": float(max(bound_sum[a] / leaf_sum[a] for a in leaf_sum)),
        "opt_ratio_max": None if opt_ratio_max is None else float(opt_ratio_max),
    }
    return problems, reports, quality


def golden_record(jobs, first: dict, reports: list) -> dict:
    """Per algorithm: total leaves and a digest of every job's outcome and bounds."""
    per_algo: dict[str, list] = defaultdict(list)
    for (name, _, algo, _), outcome, rep in zip(jobs, first["outcomes"], reports):
        per_algo[algo].append([name, outcome, rep])
    out = {}
    for algo, rows in per_algo.items():
        blob = json.dumps(rows, sort_keys=True).encode()
        out[algo] = {
            "leaves": sum(r[2]["leaf_count"] for r in rows if r[2] is not None),
            "digest": hashlib.sha256(blob).hexdigest(),
        }
    return out


def load_golden(workload: str, seed: int) -> dict | None:
    path = BENCH / "golden.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def spread(values) -> float | None:
    """Interquartile distance as a share of the median (None below 2 values)."""
    if len(values) < 2 or median(values) == 0:
        return None
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile of the job latencies with at least ten jobs beyond it.

    Below 100 jobs that percentile says little, so the slowest job is
    reported instead; the label states which one was taken.  It is printed
    in the report but is not a gated metric: on small-exact its spread
    between seeds (0.23 measured over ten seeds) is as wide as the largest
    bound a metric may have.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 100:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.2f} of {n}"


def layer_metrics(tracer: Tracer, pass_no: int, counts: dict) -> dict:
    d = tracer.durations(lambda job: job is not None and job[0] == pass_no)

    def total(name: str) -> float:
        return d[name][0] if name in d else 0.0

    def own(name: str) -> float:
        return d[name][1] if name in d else 0.0

    def calls(name: str) -> int:
        return d[name][2] if name in d else 0

    sets = counts.get("packing.sets", 0)
    return {
        "cli.main_self_s": own("cli.main"),
        "instances.read_instance_s": total("instances.read_instance"),
        "instances.parse_self_s": own("instances.read_instance"),
        "instances.instance_bytes": counts.get("instances.instance_bytes", 0),
        "graph.build_digraph_s": total("graph.build_digraph"),
        "graph.topological_order_s": total("graph.topological_order"),
        "graph.topological_order_calls": calls("graph.topological_order"),
        "branching.stats_s": total("branching.stats"),
        "branching.stats_calls": calls("branching.stats"),
        "branching.from_arcs_s": total("branching.from_arcs"),
        "branching.copy_s": total("branching.copy"),
        "branching.is_maximal_s": total("branching.is_maximal"),
        "branching.is_spanning_arborescence_s": total("branching.is_spanning_arborescence"),
        "solvers.greedy_expand_self_s": own("solvers.greedy_expand"),
        "solvers.max_expand_self_s": own("solvers.max_expand"),
        "solvers.attach_self_s": own("solvers.attach"),
        "solvers.pipeline_self_s": own("solvers.pipeline"),
        "solvers.exact_max_leaves_s": total("solvers.exact_max_leaves"),
        "matching.max_matching_s": total("matching.max_matching"),
        "matching.vertices": counts.get("matching.vertices", 0),
        "matching.edges": counts.get("matching.edges", 0),
        "matching.matched": counts.get("matching.matched", 0),
        "matching.largest_component": counts.get("matching.largest_component", 0),
        "packing.pack_greedy_s": total("packing.pack_greedy"),
        "packing.pack_exact_s": total("packing.pack_exact"),
        "packing.sets": sets,
        "packing.selected_frac": counts.get("packing.selected", 0) / sets if sets else 0.0,
        "certificates.s": own("certificates"),
        "verify.write_solution_s": total("verify.write_solution"),
        "verify.solution_bytes": counts.get("verify.solution_bytes", 0),
        "verify.read_solution_s": total("verify.read_solution"),
        "verify.verify_solution_self_s": own("verify.verify_solution"),
    }


def role_check(workload: str, m: dict) -> str:
    """Whether the traced pass confirms the layer the workload is meant to stress."""
    solver_self = {
        k: m[k] for k in (
            "solvers.greedy_expand_self_s", "solvers.max_expand_self_s",
            "solvers.attach_self_s", "solvers.pipeline_self_s",
            "solvers.exact_max_leaves_s",
        )
    }
    solver_layer = dict(solver_self, **{
        k: m[k] for k in ("matching.max_matching_s", "packing.pack_greedy_s",
                          "packing.pack_exact_s")
    })
    if workload == "hub-fanout":
        ok = max(solver_self, key=solver_self.get) == "solvers.greedy_expand_self_s"
    elif workload == "giant-matching":
        ok = max(solver_layer, key=solver_layer.get) == "matching.max_matching_s"
    elif workload == "random-e2e":
        io_graph_verify = sum(m[k] for k in (
            "instances.parse_self_s", "graph.build_digraph_s",
            "graph.topological_order_s", "verify.write_solution_s",
            "verify.read_solution_s", "verify.verify_solution_self_s",
        ))
        ok = io_graph_verify > sum(solver_self.values())
    else:
        exact = m["solvers.exact_max_leaves_s"] + m["packing.pack_exact_s"]
        others = [v for k, v in solver_layer.items()
                  if k not in ("solvers.exact_max_leaves_s", "packing.pack_exact_s")]
        ok = exact > max(others)
    return "confirmed" if ok else "missed"


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.exists() else ref
        else:
            commit = ref
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit,
        "loadavg": os.getloadavg(),
    }


def _bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}


def log(*args) -> None:
    print(*args, file=sys.stderr)


def run(workload: str, seed: int, seconds: float, traced: bool, import_s: float) -> int:
    """Run one workload; print the result line and return the exit code."""
    log(json.dumps({"workload": workload, "seed": seed, "trace": int(traced),
                    **environment()}))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    tracer = Tracer()
    try:
        return _run(workload, seed, seconds, traced, import_s, workdir, tracer)
    finally:
        if tracer.installed:
            tracer.remove()
        shutil.rmtree(workdir, ignore_errors=True)


def _set_up(workload, seed, workdir, tracer, traced, import_s):
    """Set up SETUP_REPS times; each must write the same instance bytes.

    Returns the jobs, each set-up's nominal seconds (import included), the
    ``write_instance`` seconds of each traced set-up, and any problem.
    """
    setup_s, write_s, digests, marks = [], [], set(), []
    speed = Speed()
    for rep in range(SETUP_REPS):
        marks.append(speed.keep_up())
        if traced:
            tracer.job = ("setup", rep)
            tracer.install()
        jobs, elapsed, digest = setup(workload, seed, workdir)
        if traced:
            tracer.remove()
            tracer.job = None
            spans = tracer.durations(lambda job, r=rep: job == ("setup", r))
            write_s.append(spans["instances.write_instance"][0])
        setup_s.append(import_s + elapsed)
        digests.add(digest)
    marks.append(speed.keep_up())
    setup_s = [t * speed.factor(a, b) for t, a, b in zip(setup_s, marks, marks[1:])]
    problems = [] if len(digests) == 1 else ["set-ups of one seed wrote different instances"]
    return jobs, setup_s, write_s, problems


def _measure(jobs, solution, seconds, tracer, traced):
    """Run passes until ``seconds`` would be exceeded, with at least MIN_PASSES.

    A traced run alternates untraced and traced passes; the wrappers are
    installed for the traced ones only, and checked absent for the others.
    Returns the passes and the per-layer metrics of each traced pass.
    """
    passes, layers = [], []
    deadline = clock() + seconds
    while True:
        pass_no = len(passes)
        is_traced = traced and pass_no % 2 == 1
        if is_traced:
            tracer.counts = defaultdict(int)
            tracer.install()
        else:
            tracer.assert_clean()
        p = run_pass(jobs, solution, tracer if is_traced else None, pass_no)
        p["traced"] = is_traced
        if is_traced:
            tracer.remove()
            layers.append(layer_metrics(tracer, pass_no, dict(tracer.counts)))
        passes.append(p)
        enough = len(passes) >= MIN_PASSES * (2 if traced else 1)
        if enough and clock() + p["elapsed"] > deadline:
            return passes, layers


def _failures(jobs, passes, reports, job_problems, golden, problems) -> int:
    """Count failed job runs: first-pass problems, outputs that changed
    between passes, and every run of an algorithm that misses its golden
    record."""
    first = passes[0]
    failed = 0
    for p in passes:
        bad = set(job_problems)
        for i, (o, h) in enumerate(zip(p["outcomes"], p["digests"])):
            if o != first["outcomes"][i] or h != first["digests"][i]:
                bad.add(i)
                job_problems.setdefault(i, "output differs from the first pass")
        failed += len(bad)
    if golden is not None:
        for algo, rec in golden_record(jobs, first, reports).items():
            if golden.get(algo) != rec:
                problems.append(f"{algo}: leaves or bounds differ from golden.json")
                failed += len(passes) * sum(1 for j in jobs if j[2] == algo)
    for i, text in sorted(job_problems.items())[:20]:
        log(f"job {jobs[i][0]} {jobs[i][2]}: {text}")
    for text in problems:
        log(f"check: {text}")
    return min(failed, len(jobs) * len(passes))


def _run(workload, seed, seconds, traced, import_s, workdir, tracer) -> int:
    jobs, setup_s, write_s, problems = _set_up(
        workload, seed, workdir, tracer, traced, import_s)
    solution = str(workdir / "solution.json")
    run_job(jobs[0], solution)  # untimed warm-up
    passes, layers = _measure(jobs, solution, seconds, tracer, traced)

    first = passes[0]
    job_problems, reports, quality = check_first_pass(jobs, first)
    failed = _failures(jobs, passes, reports, job_problems,
                       load_golden(workload, seed), problems)
    attempted = len(jobs) * len(passes)
    refused = sum(o == "refused" for o in first["outcomes"])

    untraced = [p for p in passes if not p["traced"]]
    latency = job_median(untraced, "latency")
    tail_s, tail_label = tail(latency)
    e2e = {
        "setup_s": median(setup_s),
        "e2e_s": pass_median(untraced, "walls"),
        "solve_s": pass_median(untraced, "solve"),
        "verify_s": pass_median(untraced, "verify"),
        "job_ms_p50": 1000 * median(latency),
        # the reference table is resident from the first set-up on
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                        - TABLE_BYTES / 2**20),
        "leaves_total": quality["leaves_total"],
        "gap_max": quality["gap_max"],
    }
    per_pass = {
        "setup_s": setup_s,
        "e2e_s": [sum(nominal(p, "walls")) for p in untraced],
        "solve_s": [sum(nominal(p, "solve")) for p in untraced],
        "verify_s": [sum(nominal(p, "verify")) for p in untraced],
    }
    samples = [s for p in passes for s in p["reference"]]
    bounds = _bounds()
    log(f"reference work: median {median(samples):.4f} s over {len(samples)} "
        f"samples, nominal {NOMINAL_S} s; e2e_s per pass, measured/nominal: "
        + " ".join(f"{sum(p['walls']):.3f}/{sum(nominal(p, 'walls')):.3f}"
                   for p in untraced))
    log(f"passes={len(untraced)} untraced, {len(passes) - len(untraced)} traced; "
        f"jobs/pass={len(jobs)} refused/pass={refused} "
        f"fail_frac={failed / attempted:.4f} refusal_frac={refused / len(jobs):.4f} "
        f"opt_ratio_max={quality['opt_ratio_max']} "
        f"job_ms_tail={1000 * tail_s:.4f} ({tail_label})")
    for name, value in e2e.items():
        s = spread(per_pass.get(name, []))
        log(f"  {name:<14} {value:>14.6f}  spread in run="
            f"{'-' if s is None else f'{s:.3f}'}  bound={bounds.get(name, '-')}")

    if traced:
        metrics = {k: median([m[k] for m in layers]) for k in layers[0]}
        metrics["instances.write_instance_s"] = median(write_s)
        traced_e2e = pass_median([p for p in passes if p["traced"]], "walls")
        metrics["trace.overhead_frac"] = (traced_e2e - e2e["e2e_s"]) / e2e["e2e_s"]
        log(f"role: {role_check(workload, metrics)}")
        spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(str(spans_path))
        log(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = e2e
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s") or name == "certificates.s":
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac") or name in ("gap_max",):
        return "ratio"
    return "count"
