"""Independent re-verification of solution files.

A solution file (format version 2) holds the parent array of the spanning
arborescence, a per-vertex ``phase`` index into its pipeline's phase names,
and the solver's report.  Phase ``i`` of the run is the prefix of the
arborescence made of the arcs into vertices whose index is at most ``i``.
Verification trusts only the instance and those two arrays: it rebuilds
every phase, checks each is a t-branching for its pipeline's t, rebuilds
the report from the phases with the code the solver used (`SolveReport`
and the pipeline's record in `certificates.PIPELINES`), and compares it
with the recorded one key by key.  The recorded counts (such as
``selected_triples``) are the only solver claims it takes, and the
certificate's inequalities check them.
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
    """Parse a solution file and type-check its arrays; raises ParseError."""
    obj = read_json_object(path)
    if not _same(obj.get("version"), VERSION):
        raise ParseError(f"{path}: unsupported solution version {obj.get('version')!r}")
    parent, phase = obj.get("parent"), obj.get("phase")
    if not isinstance(parent, list) or not all(p is None or type(p) is int for p in parent):
        raise ParseError(f"{path}: 'parent' must be an array of integers and nulls")
    if not isinstance(phase, list) or not all(type(i) is int for i in phase):
        raise ParseError(f"{path}: 'phase' must be an array of integers")
    return obj


def verify_solution(d: Digraph, solution: dict) -> list[str]:
    """Return a list of diagnostics; an empty list means the solution verifies."""
    problems: list[str] = []
    n = d.vertex_count

    parent = solution.get("parent")
    if not isinstance(parent, list) or len(parent) != n:
        return [f"parent array must have length {n}"]
    try:
        t = Branching.from_parents(d, parent)
    except LeafspanError as e:
        return [f"parent array invalid: {e}"]
    if not t.is_spanning_arborescence():
        return ["parent array is not a spanning arborescence"]

    if not _same(solution.get("leaf_count"), t.leaf_count):
        problems.append(f"leaf_count is {solution.get('leaf_count')}, recount gives {t.leaf_count}")

    report = solution.get("report")
    if not isinstance(report, dict):
        problems.append("missing report")
        return problems
    algorithm = report.get("algorithm")
    pipeline = PIPELINES.get(algorithm) if isinstance(algorithm, str) else None
    if pipeline is None:
        problems.append(f"unknown algorithm {algorithm!r} in report")
        return problems

    phase, count = solution.get("phase"), len(pipeline.phases)
    if not (isinstance(phase, list) and len(phase) == n
            and all(type(i) is int and 0 <= i < count for i in phase)):
        problems.append(f"phase must be {n} indices in [0, {count})")
        return problems

    phases = []
    for i, (name, t_min) in enumerate(pipeline.phases):
        phases.append(t.restricted([p <= i for p in phase]))
        if not phases[-1].is_t_branching(t_min):
            problems.append(f"phase {name} is not a {t_min}-branching")
    counts = {key: report.get(key) for key in pipeline.counts}
    bad = [key for key, value in counts.items() if type(value) is not int]
    if bad:
        problems.append(f"report counts {bad} missing or not integers")
        return problems

    expected = SolveReport.from_phases(pipeline, phases, counts)
    for key, value in expected.to_dict().items():
        if not _same(report.get(key), value):
            problems.append(f"report {key} is {report.get(key)!r}, recomputation gives {value!r}")
    problems += [f"certificate inequality fails: {name}"
                 for name, holds in expected.inequalities.items() if not holds]
    return problems
