"""Outside-in tracing: wrap the package's public functions with timing spans.

The wrappers are installed as module or class attributes for a traced pass
only and removed afterwards; the package itself is never edited.  Only
functions called O(1) times per job are wrapped, never per-vertex helpers
such as ``Branching.available_heads`` or ``Branching._expand``.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``job`` the id the benchmark set
before the call.  A span's self time is its duration minus the durations of
its child spans.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import defaultdict
from typing import Callable

import leafspan.certificates
import leafspan.cli
import leafspan.instances
import leafspan.packing
import leafspan.solvers
from leafspan.branching import Branching

# (owner, attribute, span name); the owner is where callers look the name up
TARGETS = [
    (leafspan.cli, "main", "cli.main"),
    (leafspan.cli, "read_instance", "instances.read_instance"),
    (leafspan.instances, "write_instance", "instances.write_instance"),
    (leafspan.instances, "build_digraph", "graph.build_digraph"),
    (leafspan.solvers, "topological_order", "graph.topological_order"),
    (Branching, "stats", "branching.stats"),
    (Branching, "copy", "branching.copy"),
    (Branching, "from_arcs", "branching.from_arcs"),
    (Branching, "is_maximal", "branching.is_maximal"),
    (Branching, "is_spanning_arborescence", "branching.is_spanning_arborescence"),
    (leafspan.cli, "max_leaves", "solvers.pipeline"),
    (leafspan.cli, "expansion_baseline", "solvers.pipeline"),
    (leafspan.cli, "max_leaves_packing", "solvers.pipeline"),
    (leafspan.cli, "exact_max_leaves", "solvers.exact_max_leaves"),
    (leafspan.solvers, "greedy_expand", "solvers.greedy_expand"),
    (leafspan.solvers, "max_expand", "solvers.max_expand"),
    (leafspan.solvers, "attach", "solvers.attach"),
    (leafspan.solvers, "max_matching", "matching.max_matching"),
    (leafspan.cli, "GREEDY_PACKER", "packing.pack_greedy"),
    (leafspan.cli, "EXACT_PACKER", "packing.pack_exact"),
    (leafspan.cli, "write_solution", "verify.write_solution"),
    (leafspan.cli, "read_solution", "verify.read_solution"),
    (leafspan.cli, "verify_solution", "verify.verify_solution"),
] + [
    (leafspan.certificates, name, "certificates")
    for name in (
        "two_phase_lower_bound",
        "upper_bound_from_two_branching",
        "two_phase_upper_bound",
        "two_phase_bounds",
        "two_phase_certificate_ok",
        "baseline_lower_bound",
        "packing_lower_bound",
        "packing_upper_bound",
    )
]


def _largest_component(vertex_count: int, edges) -> int:
    uf = list(range(vertex_count))

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    touched = set()
    for u, v in edges:
        touched.update((u, v))
        ru, rv = find(u), find(v)
        if ru != rv:
            uf[ru] = rv
    sizes: dict[int, int] = defaultdict(int)
    for v in touched:
        sizes[find(v)] += 1
    return max(sizes.values(), default=0)


def _count_matching(tracer: "Tracer", args, result) -> None:
    vertex_count, edges = args
    c = tracer.counts
    c["matching.vertices"] += vertex_count
    c["matching.edges"] += len(edges)
    c["matching.matched"] += 2 * len(result)
    c["matching.largest_component"] = max(
        c["matching.largest_component"], _largest_component(vertex_count, edges)
    )


def _count_packing(tracer: "Tracer", args, result) -> None:
    tracer.counts["packing.sets"] += len(args[0])
    tracer.counts["packing.selected"] += len(result)


def _file_bytes(key: str) -> Callable:
    def count(tracer: "Tracer", args, result) -> None:
        tracer.counts[key] += os.path.getsize(args[0])

    return count


AFTER = {
    "matching.max_matching": _count_matching,
    "packing.pack_greedy": _count_packing,
    "packing.pack_exact": _count_packing,
    "instances.read_instance": _file_bytes("instances.instance_bytes"),
    "verify.write_solution": _file_bytes("verify.solution_bytes"),
}


class Tracer:
    """Span recorder plus the install/remove logic for its wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job: object = None
        self._stack: list[int] = []
        self._originals = [vars(owner)[attr] for owner, attr, _ in TARGETS]
        self.installed = False

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, after = self.spans, self._stack, AFTER.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.bench_span = name
        return wrapper

    def _traced(self, original, name: str):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(name, original.__func__))
        if isinstance(original, leafspan.packing.Packer):
            return dataclasses.replace(original, solve=self._wrap(name, original.solve))
        return self._wrap(name, original)

    def install(self) -> None:
        self.assert_clean()
        for (owner, attr, name), original in zip(TARGETS, self._originals):
            setattr(owner, attr, self._traced(original, name))
        self.installed = True

    def remove(self) -> None:
        for (owner, attr, _), original in zip(TARGETS, self._originals):
            setattr(owner, attr, original)
        self.installed = False
        self.assert_clean()

    def assert_clean(self) -> None:
        """Raise unless every target holds the package's own object."""
        for (owner, attr, _), original in zip(TARGETS, self._originals):
            current = vars(owner)[attr]
            inner = getattr(current, "__func__", getattr(current, "solve", current))
            if current is not original or hasattr(inner, "bench_span"):
                raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")

    def durations(self, select: Callable[[object], bool]) -> dict[str, list]:
        """Per span name: [total duration, total self time, calls] of the
        spans whose job id satisfies ``select``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            if select(job):
                acc = out[name]
                acc[0] += end - start
                acc[1] += end - start - child[i]
                acc[2] += 1
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, job."""
        with open(path, "w") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")
