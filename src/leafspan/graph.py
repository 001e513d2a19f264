"""Immutable rooted-DAG representation with validation and a deterministic order.

Vertices are dense integer ids ``0..n-1``.  A graph is given by its head
lists: ``out[u]`` holds the heads of the arcs out of ``u``, strictly
ascending.  `Digraph` is the one validator.  It checks the shape of ``out``
and the arc count before any list of length n exists, then walks the tails
in ascending order once: the walk tests every head (an integer id in range,
above the one before it, not the tail) and counts it at its head.  When the
walk finds a fault, the one reported is the first head that is not an id in
range, else the first self-loop, else the first list out of order, where a
head equal to the one before it is a duplicate arc.
`build_digraph` takes arcs instead: it checks each one, files it under its
tail, sorts each list and hands them to the same validator.

The graph must be simple, acyclic and rooted; the Kahn pass that checks this
computes the smallest-id-first topological order, which every solver phase
then reuses, or, with ``ordered=False`` (``verify`` reads no order), runs over
a list, not a heap.  ``out_adj`` is the only stored copy of the arcs; ``in_adj``
and a deferred ``order`` are derived on first use into caches written once, so
instances are safe to share.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from .errors import CycleDetected, MalformedInput, NotRooted, require_int

Arc = tuple[int, int]


def _check_root(vertex_count: object, root: object) -> None:
    require_int("vertex_count", vertex_count, 1)
    if type(root) is not int or not 0 <= root < vertex_count:
        raise MalformedInput(f"root {root!r:.20} out of range [0, {vertex_count})")


def _check_size(vertex_count: int, arc_count: int, weights: Optional[list]) -> None:
    """The checks made before any list of length n exists, so a declared n cannot size memory."""
    if arc_count < vertex_count - 1:
        raise NotRooted(f"{arc_count} arcs cannot span {vertex_count} vertices")
    if weights is not None:
        if len(weights) != vertex_count:
            raise MalformedInput(f"weights has length {len(weights)}, expected {vertex_count}")
        if any(type(w) is not int or w < 0 for w in weights):
            raise MalformedInput("weights must be nonnegative integers")


def _arc_fault(vertex_count: int, arc: object) -> MalformedInput:
    return MalformedInput(
        f"arc {arc!r:.60} is not a pair of distinct integer vertex ids in [0, {vertex_count})"
    )


def _head_fault(vertex_count: int, out: list[list]) -> MalformedInput:
    """The fault `Digraph` reports for ``out``: the first head that is not an
    id in range, else the first self-loop, else the first list out of order."""
    for u, heads in enumerate(out):
        for v in heads:
            if type(v) is not int or not 0 <= v < vertex_count:
                return _arc_fault(vertex_count, (u, v))
    for u, heads in enumerate(out):
        if u in heads:
            return _arc_fault(vertex_count, (u, u))
    # the walk flagged a head that breaks neither rule, so a list is out of order
    u, prev, v = next((u, prev, v) for u, heads in enumerate(out)
                      for prev, v in zip(heads, heads[1:]) if v <= prev)
    if v == prev:
        return MalformedInput(f"duplicate arc ({u}, {v})")
    return MalformedInput(f"heads of {u} are not ascending: {v} after {prev}")


class Digraph:
    """A validated rooted directed acyclic graph.

    Built from per-vertex head lists (see the module docstring); generators
    and callers holding arcs use `build_digraph`.

    Attributes:
        vertex_count: number of vertices ``n``.
        root: vertex from which every vertex is reachable.
        out_adj / in_adj: per-vertex adjacency tuples in ascending order.
            ``out_adj`` is the only stored copy of the arcs; the read-only
            ``in_adj`` is filed from it on first access, with no sort.
        vertex_weights: optional per-vertex nonnegative integer weights,
            used only by the vertex-weighted leaf objective.
        order: read-only topological order, smallest ready id first, so the root
            leads; under ``ordered=False``, built on first access from ``in_adj``.
    """

    __slots__ = ("vertex_count", "root", "out_adj", "_in_adj", "vertex_weights", "_order")

    def __init__(
        self,
        vertex_count: int,
        root: int,
        out: list[list[int]],
        weights: Optional[Sequence[int]] = None,
        *, ordered: bool = True,
    ):
        _check_root(vertex_count, root)
        if type(out) is not list:
            raise MalformedInput(f"out must be a list of head lists, got {out!r:.20}")
        if len(out) != vertex_count:
            raise MalformedInput(f"out has length {len(out)}, expected {vertex_count}")
        if set(map(type, out)) != {list}:
            u = next(u for u, heads in enumerate(out) if type(heads) is not list)
            raise MalformedInput(f"heads of {u} must be a list, got {out[u]!r:.20}")
        try:
            weights = None if weights is None else list(weights)
        except TypeError:
            raise MalformedInput(f"weights {weights!r:.20} must be iterable") from None
        _check_size(vertex_count, sum(map(len, out)), weights)

        # the one walk over ascending tails checks each head and counts the arc at it
        n, indeg = vertex_count, [0] * vertex_count
        try:
            for u, heads in enumerate(out):
                prev = -1
                for v in heads:
                    if not prev < v < n or v == u or type(v) is not int:
                        raise _head_fault(n, out)
                    indeg[v] += 1
                    prev = v
        except TypeError:  # a head that does not compare with an integer
            raise _head_fault(n, out) from None

        self.vertex_count = vertex_count
        self.root = root
        # built from lists, not generators: CPython grows a tuple built from a
        # generator by realloc, so the size-n tuples freed with each graph
        # would pile up on its tuple free lists (about 3 MB) until a full gc
        self.out_adj = tuple(list(map(tuple, out)))
        self._in_adj: Optional[tuple[tuple[int, ...], ...]] = None
        self.vertex_weights = tuple(weights) if weights is not None else None

        self._order = self._validated_order(indeg, ordered)

    @property
    def order(self) -> tuple[int, ...]:
        if self._order is None:  # built with ordered=False: count in-degrees from in_adj
            self._order = self._validated_order(list(map(len, self.in_adj)), True)
        return self._order

    @property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        """The tails into each vertex, ascending; built on first access, then cached."""
        if self._in_adj is None:
            in_adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
            for u, heads in enumerate(self.out_adj):
                for v in heads:
                    in_adj[v].append(u)
            self._in_adj = tuple(list(map(tuple, in_adj)))
        return self._in_adj

    def _validated_order(self, indeg: list[int], ordered: bool) -> Optional[tuple[int, ...]]:
        """Kahn pass consuming ``indeg``; raises on a cycle or a second source.

        A heap yields the smallest-id-first order if ``ordered``; otherwise the ready
        vertices queue in a growing list and None is returned.  Both passes reach every
        vertex iff the graph is acyclic.  On a DAG every vertex is reachable from some
        in-degree-0 vertex, so the graph is rooted iff the root is the only one.
        """
        n, out_adj = self.vertex_count, self.out_adj
        sources = [v for v in range(n) if indeg[v] == 0]
        order = list(sources)  # ascending, so already a heap
        if ordered:
            heappop, heappush = heapq.heappop, heapq.heappush
            ready, order = order, []
            while ready:
                v = heappop(ready)
                order.append(v)
                for u in out_adj[v]:
                    indeg[u] -= 1
                    if indeg[u] == 0:
                        heappush(ready, u)
        else:
            for v in order:
                for u in out_adj[v]:
                    indeg[u] -= 1
                    if indeg[u] == 0:
                        order.append(u)
        if len(order) != n:
            raise CycleDetected("input contains a directed cycle")
        if sources != [self.root]:
            missing = next(v for v in sources if v != self.root)
            raise NotRooted(f"vertex {missing} unreachable from root {self.root}")
        return tuple(order) if ordered else None

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
    *, ordered: bool = True,
) -> Digraph:
    """Build and validate a rooted DAG from its arcs, in any order.

    Each arc is checked in input order and filed under its tail; the sorted
    lists then go to the `Digraph` validator, with ``ordered`` (see `Digraph`).

    Raises:
        MalformedInput: a ``vertex_count`` or ``root`` that is not an
            integer, ``arcs`` or ``weights`` that is not iterable, an arc
            that is not a pair of integers, ids out of range, self-loops,
            duplicate arcs, or a weights list of the wrong shape.
        CycleDetected: the arc set contains a directed cycle.
        NotRooted: some vertex is unreachable from ``root``, or there are
            fewer than ``vertex_count - 1`` arcs.
    """
    _check_root(vertex_count, root)
    try:
        arcs = arcs if isinstance(arcs, list) else list(arcs)
        weights = None if weights is None else list(weights)
    except TypeError:
        raise MalformedInput(f"arcs {arcs!r:.20} and weights {weights!r:.20} "
                             "must be iterable") from None
    _check_size(vertex_count, len(arcs), weights)

    out: list[list[int]] = [[] for _ in range(vertex_count)]
    for arc in arcs:
        try:
            u, v = arc
        except (TypeError, ValueError):
            u = v = None  # rejected just below
        if (type(u) is not int or type(v) is not int
                or not (0 <= u < vertex_count and 0 <= v < vertex_count) or u == v):
            raise _arc_fault(vertex_count, arc)
        out[u].append(v)
    for heads in out:
        if len(heads) > 1:
            heads.sort()
    return Digraph(vertex_count, root, out, weights, ordered=ordered)


def topological_order(d: Digraph) -> list[int]:
    """Topological order of ``d`` starting at the root (see ``Digraph.order``).

    Not exported; it stays because ``attach`` and ``exact_max_leaves`` call it
    and the benchmark tracer times those calls as ``solvers.topological_order``."""
    return list(d.order)
