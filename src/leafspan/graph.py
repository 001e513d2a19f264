"""Immutable rooted-DAG representation with validation and a deterministic order.

Vertices are dense integer ids ``0..n-1``.  Construction is the one place
arcs are validated: one pass checks each arc and files it under its tail.
Each tail list is then sorted, and one walk over the tails in ascending
order files every arc under its head too, so the head lists come out sorted
and a duplicate arc shows as a head equal to the one before it.  The sorted
tuples are the only copy of the arcs kept.  The graph must be simple,
acyclic and rooted; the Kahn pass that checks this computes the
smallest-id-first topological order, which every solver phase then reuses.
Instances are immutable and safe to share.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from .errors import CycleDetected, MalformedInput, NotRooted

Arc = tuple[int, int]


class Digraph:
    """A validated rooted directed acyclic graph.

    Attributes:
        vertex_count: number of vertices ``n``.
        root: vertex from which every vertex is reachable.
        out_adj / in_adj: per-vertex adjacency tuples in ascending order;
            the only stored copy of the arcs.  ``in_adj`` is derived from
            ``out_adj``, never sorted on its own.
        vertex_weights: optional per-vertex nonnegative integer weights,
            used only by the vertex-weighted leaf objective.
        order: topological order; among ready vertices the smallest id
            comes first, so the root leads.
    """

    __slots__ = ("vertex_count", "root", "out_adj", "in_adj", "vertex_weights", "order")

    def __init__(
        self,
        vertex_count: int,
        root: int,
        arcs: Iterable[Arc],
        weights: Optional[Sequence[int]] = None,
    ):
        # type() rather than isinstance(): JSON true/false must not pass as 1/0,
        # and a float would reach the file writer, whose output the reader refuses
        if type(vertex_count) is not int or type(root) is not int:
            raise MalformedInput(f"vertex_count {vertex_count!r:.20} and root {root!r:.20} "
                                 "must be integers")
        if vertex_count < 1:
            raise MalformedInput(f"vertex_count must be >= 1, got {vertex_count}")
        if not 0 <= root < vertex_count:
            raise MalformedInput(f"root {root} out of range [0, {vertex_count})")

        arcs = arcs if isinstance(arcs, list) else list(arcs)
        # before any list of length n exists, so a declared n cannot size memory
        if len(arcs) < vertex_count - 1:
            raise NotRooted(f"{len(arcs)} arcs cannot span {vertex_count} vertices")

        if weights is not None:
            weights = list(weights)
            if len(weights) != vertex_count:
                raise MalformedInput(
                    f"weights has length {len(weights)}, expected {vertex_count}"
                )
            if any(type(w) is not int or w < 0 for w in weights):
                raise MalformedInput("weights must be nonnegative integers")

        # the one validation pass: each arc goes straight into its tail's list
        bad = f"is not a pair of distinct integer vertex ids in [0, {vertex_count})"
        out_adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for arc in arcs:
            try:
                u, v = arc
            except (TypeError, ValueError):
                u = v = None  # rejected just below
            # type() rather than isinstance(): JSON true/false must not pass as 1/0
            if (type(u) is not int or type(v) is not int
                    or not (0 <= u < vertex_count and 0 <= v < vertex_count) or u == v):
                raise MalformedInput(f"arc {arc!r:.60} {bad}")
            out_adj[u].append(v)

        # ascending tails append each head list in order, so in_adj needs no sort
        in_adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, heads in enumerate(out_adj):
            if len(heads) > 1:
                heads.sort()
            prev = -1
            for v in heads:
                if v == prev:
                    raise MalformedInput(f"duplicate arc ({u}, {v})")
                in_adj[v].append(u)
                prev = v

        self.vertex_count = vertex_count
        self.root = root
        # built from lists, not generators: CPython grows a tuple built from a
        # generator by realloc, so the size-n tuples freed with each graph
        # would pile up on its tuple free lists (about 3 MB) until a full gc
        self.out_adj = tuple(list(map(tuple, out_adj)))
        self.in_adj = tuple(list(map(tuple, in_adj)))
        self.vertex_weights = tuple(weights) if weights is not None else None

        self.order = self._validated_order()

    def _validated_order(self) -> tuple[int, ...]:
        """Smallest-id-first Kahn pass; raises on a cycle or a second source.

        On a DAG every vertex is reachable from some in-degree-0 vertex, so
        the graph is rooted iff the root is the only one.
        """
        n = self.vertex_count
        out_adj = self.out_adj
        heappop, heappush = heapq.heappop, heapq.heappush
        indeg = list(map(len, self.in_adj))
        sources = [v for v in range(n) if indeg[v] == 0]
        ready = list(sources)  # ascending, so already a heap
        order: list[int] = []
        while ready:
            v = heappop(ready)
            order.append(v)
            for u in out_adj[v]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    heappush(ready, u)
        if len(order) != n:
            raise CycleDetected("input contains a directed cycle")
        if sources != [self.root]:
            missing = next(v for v in sources if v != self.root)
            raise NotRooted(f"vertex {missing} unreachable from root {self.root}")
        return tuple(order)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """Lexicographically sorted ``(tail, head)`` pairs, derived from ``out_adj``."""
        return tuple([(u, v) for u, heads in enumerate(self.out_adj) for v in heads])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.root == other.root
            and self.out_adj == other.out_adj
            and self.vertex_weights == other.vertex_weights
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.root, self.out_adj, self.vertex_weights))

    def __repr__(self) -> str:
        return (
            f"Digraph(n={self.vertex_count}, root={self.root}, "
            f"arcs={sum(map(len, self.out_adj))}, weighted={self.vertex_weights is not None})"
        )


def build_digraph(
    vertex_count: int,
    root: int,
    arcs: Iterable[Arc],
    weights: Optional[Sequence[int]] = None,
) -> Digraph:
    """Build and validate a rooted DAG.

    Raises:
        MalformedInput: a ``vertex_count`` or ``root`` that is not an
            integer, an arc that is not a pair of integers, ids out of
            range, self-loops, duplicate arcs, or a weights list of the wrong
            shape.
        CycleDetected: the arc set contains a directed cycle.
        NotRooted: some vertex is unreachable from ``root``, or there are
            fewer than ``vertex_count - 1`` arcs.
    """
    return Digraph(vertex_count, root, arcs, weights)


def topological_order(d: Digraph) -> list[int]:
    """Topological order of ``d`` starting at the root (see ``Digraph.order``)."""
    return list(d.order)
