"""Independent re-verification of solution files.

A solution file (format version 2) holds the parent array of the spanning
arborescence, a per-vertex ``phase`` index into its pipeline's phase names,
and the solver's report.  Verification trusts only the instance and those two
arrays: it validates the parent array, recomputes the phase array and the
report from the two arrays with the code the solver used (`SolveReport.certify`
and the pipeline's record in `certificates.PIPELINES`), building no phase, and
compares them with the recorded ones entry by entry and key by key, counts
such as ``selected_triples`` included.  No report field is taken on the
solver's word, and a report key the recomputation does not produce is named
too.  The phase shapes and spanning are certificate inequalities, so `solve`
and `verify` check one list.  `leafspan verify` reads the instance with
``ordered=False``: it re-checks that the instance is a rooted DAG, as every
bound assumes, but builds no topological order.  `read_solution` checks only
the version; `verify_solution` alone checks every field inside, and cuts each
file value it echoes to 40 characters.
"""

from __future__ import annotations

from typing import Optional

from .branching import Branching
from .certificates import PIPELINES, SolveReport
from .errors import LeafspanError, ParseError
from .graph import Digraph
from .instances import PathLike, _same, read_json_object, write_json_object

VERSION = 2


def write_solution(path: PathLike, report: SolveReport, parent: list[Optional[int]]) -> None:
    obj = {
        "version": VERSION,
        "parent": parent,
        "phase": report.phase,
        "leaf_count": report.leaf_count,
        "report": report.to_dict(),
    }
    write_json_object(path, obj)


def read_solution(path: PathLike) -> dict:
    """Parse a solution file and check its version; raises ParseError."""
    obj = read_json_object(path)
    if not _same(obj.get("version"), VERSION):
        raise ParseError(f"{path}: unsupported solution version {obj.get('version')!r:.40}")
    return obj


def verify_solution(d: Digraph, solution: dict) -> list[str]:
    """Return a list of diagnostics; an empty list means the solution verifies."""
    if not isinstance(solution, dict):
        return [f"solution must be an object, got {type(solution).__name__}"]
    problems: list[str] = []
    n = d.vertex_count

    try:
        t = Branching.from_parents(d, solution.get("parent"))
    except LeafspanError as e:
        return [f"parent array invalid: {e}"]

    leaf_count = solution.get("leaf_count")
    if not _same(leaf_count, t.leaf_count):
        problems.append(f"leaf_count is {leaf_count!s:.40}, recount gives {t.leaf_count}")

    report = solution.get("report")
    if not isinstance(report, dict):
        problems.append("missing report")
        return problems
    algorithm = report.get("algorithm")
    pipeline = PIPELINES.get(algorithm) if isinstance(algorithm, str) else None
    if pipeline is None:
        problems.append(f"unknown algorithm {algorithm!r:.40} in report")
        return problems

    phase, count = solution.get("phase"), len(pipeline.phases)
    if not (isinstance(phase, list) and len(phase) == n  # so n >= 1 entries for min and max
            and set(map(type, phase)) == {int} and 0 <= min(phase) and max(phase) < count):
        problems.append(f"phase must be {n} indices in [0, {count})")
        return problems

    expected = SolveReport.certify(pipeline, t, phase)
    if phase != expected.phase:
        v = next(v for v in range(n) if phase[v] != expected.phase[v])
        problems.append(f"phase[{v}] is {phase[v]}, recomputation gives {expected.phase[v]}")
    recomputed = expected.to_dict()
    for key, value in recomputed.items():
        if not _same(report.get(key), value):
            problems.append(f"report {key} is {report.get(key)!r:.40}, "
                            f"recomputation gives {value!r}")
    problems += [f"report {key!s:.40} is not recomputed for {algorithm}"
                 for key in report if key not in recomputed]
    problems += [f"certificate inequality fails: {name}"
                 for name, holds in expected.inequalities.items() if not holds]
    return problems
