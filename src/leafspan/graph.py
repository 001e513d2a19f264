"""Immutable rooted-DAG representation with validation and a deterministic order.

Vertices are dense integer ids ``0..n-1``.  Construction validates that the
graph is simple (no self-loops, no parallel arcs), acyclic, and that every
vertex is reachable from the root.  The same single pass computes the
smallest-id-first topological order, which every solver phase then reuses.
Instances are immutable afterwards and safe to share between workers.
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
        arcs: lexicographically sorted tuple of ``(tail, head)`` pairs.
        out_adj / in_adj: per-vertex sorted adjacency tuples.
        vertex_weights: optional per-vertex nonnegative integer weights,
            used only by the vertex-weighted leaf objective.
        order: topological order; among ready vertices the smallest id
            comes first, so the root leads.
    """

    __slots__ = (
        "vertex_count", "root", "arcs", "out_adj", "in_adj", "vertex_weights", "order"
    )

    def __init__(
        self,
        vertex_count: int,
        root: int,
        arcs: Iterable[Arc],
        weights: Optional[Sequence[int]] = None,
    ):
        if vertex_count < 1:
            raise MalformedInput(f"vertex_count must be >= 1, got {vertex_count}")
        if not 0 <= root < vertex_count:
            raise MalformedInput(f"root {root} out of range [0, {vertex_count})")

        arc_list: list[Arc] = []
        seen: set[Arc] = set()
        for arc in arcs:
            u, v = arc
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise MalformedInput(f"arc ({u}, {v}) out of range [0, {vertex_count})")
            if u == v:
                raise MalformedInput(f"self-loop at vertex {u}")
            if (u, v) in seen:
                raise MalformedInput(f"duplicate arc ({u}, {v})")
            seen.add((u, v))
            arc_list.append((u, v))
        arc_list.sort()
        # before any list of length n exists, so a declared n cannot size memory
        if len(arc_list) < vertex_count - 1:
            raise NotRooted(f"{len(arc_list)} arcs cannot span {vertex_count} vertices")

        if weights is not None:
            weights = list(weights)
            if len(weights) != vertex_count:
                raise MalformedInput(
                    f"weights has length {len(weights)}, expected {vertex_count}"
                )
            if any(type(w) is not int or w < 0 for w in weights):
                raise MalformedInput("weights must be nonnegative integers")

        out_adj: list[list[int]] = [[] for _ in range(vertex_count)]
        in_adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in arc_list:
            out_adj[u].append(v)
            in_adj[v].append(u)

        self.vertex_count = vertex_count
        self.root = root
        self.arcs = tuple(arc_list)
        # built from lists, not generators: CPython grows a tuple built from a
        # generator by realloc, so the size-n tuples freed with each graph
        # would pile up on its tuple free lists (about 3 MB) until a full gc
        self.out_adj = tuple([tuple(a) for a in out_adj])
        self.in_adj = tuple([tuple(a) for a in in_adj])
        self.vertex_weights = tuple(weights) if weights is not None else None

        self.order = self._validated_order()

    def _validated_order(self) -> tuple[int, ...]:
        """Smallest-id-first Kahn pass; raises on a cycle or a second source.

        On a DAG every vertex is reachable from some in-degree-0 vertex, so
        the graph is rooted iff the root is the only one.
        """
        n = self.vertex_count
        indeg = [len(a) for a in self.in_adj]
        sources = [v for v in range(n) if indeg[v] == 0]
        ready = list(sources)
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for u in self.out_adj[v]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    heapq.heappush(ready, u)
        if len(order) != n:
            raise CycleDetected("input contains a directed cycle")
        if sources != [self.root]:
            missing = next(v for v in sources if v != self.root)
            raise NotRooted(f"vertex {missing} unreachable from root {self.root}")
        return tuple(order)

    def out_degree(self, v: int) -> int:
        return len(self.out_adj[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.root == other.root
            and self.arcs == other.arcs
            and self.vertex_weights == other.vertex_weights
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.root, self.arcs, self.vertex_weights))

    def __repr__(self) -> str:
        return (
            f"Digraph(n={self.vertex_count}, root={self.root}, "
            f"arcs={len(self.arcs)}, weighted={self.vertex_weights is not None})"
        )


def build_digraph(
    vertex_count: int,
    root: int,
    arcs: Iterable[Arc],
    weights: Optional[Sequence[int]] = None,
) -> Digraph:
    """Build and validate a rooted DAG.

    Raises:
        MalformedInput: ids out of range, self-loops, duplicate arcs, or a
            weights list of the wrong shape.
        CycleDetected: the arc set contains a directed cycle.
        NotRooted: some vertex is unreachable from ``root``.
    """
    return Digraph(vertex_count, root, arcs, weights)


def topological_order(d: Digraph) -> list[int]:
    """Topological order of ``d`` starting at the root (see ``Digraph.order``)."""
    return list(d.order)
