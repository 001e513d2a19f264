"""Immutable rooted-DAG representation with validation and a deterministic order.

Vertices are dense integer ids ``0..n-1``.  A graph is given by its head
lists: ``out[u]`` holds the heads of the arcs out of ``u``, strictly
ascending.  `Digraph` is the one validator and its one walk the one head
checker.  It checks the root, the shape of ``out`` and the arc count before
any list of length n exists, then walks the tails in ascending order once,
testing and counting each head, then checks the weights and runs the Kahn
pass below.  The walk names the first head, in tail order, that is not an id
in range or equals its tail, else the first list out of order (an equal pair
is a duplicate arc).  `build_digraph` checks the arc count and the tails, then
sorts the heads under each tail, so arcs in any order name the fault of their
ascending lists.

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


def _check_size(vertex_count: int, arc_count: int) -> None:
    """The check made before any list of length n exists, so a declared n cannot size memory."""
    if arc_count < vertex_count - 1:
        raise NotRooted(f"{arc_count} arcs cannot span {vertex_count} vertices")


def _arc_fault(vertex_count: int, arc: object) -> MalformedInput:
    return MalformedInput(
        f"arc {arc!r:.60} is not a pair of distinct integer vertex ids in [0, {vertex_count})"
    )


class Digraph:
    """A validated rooted directed acyclic graph.

    Built from head lists and checked in one order: root, shape of ``out``,
    arc count, heads, weights, Kahn pass.  Callers holding arcs use `build_digraph`.

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
        _check_size(vertex_count, sum(map(len, out)))

        # one walk checks and counts each head; a list out of order is named after it
        n, indeg, disorder = vertex_count, [0] * vertex_count, None
        try:
            for u, heads in enumerate(out):
                prev = -1
                for v in heads:
                    if not prev < v < n or v == u or type(v) is not int:
                        if type(v) is not int or not 0 <= v < n or v == u:
                            raise _arc_fault(n, (u, v))
                        disorder = disorder or (u, prev, v)
                    indeg[v] += 1
                    prev = v
        except TypeError:  # a head that does not compare with an integer
            raise _arc_fault(n, (u, v)) from None
        if disorder:
            u, prev, v = disorder
            raise MalformedInput(f"duplicate arc ({u}, {v})" if v == prev
                                 else f"heads of {u} are not ascending: {v} after {prev}")
        if weights is not None:
            try:
                weights = tuple(weights)
            except TypeError:
                raise MalformedInput(f"weights {weights!r:.20} must be iterable") from None
            if len(weights) != vertex_count:
                raise MalformedInput(f"weights has length {len(weights)}, expected {vertex_count}")
            if any(type(w) is not int or w < 0 for w in weights):
                raise MalformedInput("weights must be nonnegative integers")

        self.vertex_count = vertex_count
        self.root = root
        # built from lists, not generators: CPython grows a tuple built from a
        # generator by realloc, so the size-n tuples freed with each graph
        # would pile up on its tuple free lists (about 3 MB) until a full gc
        self.out_adj = tuple(list(map(tuple, out)))
        self._in_adj: Optional[tuple[tuple[int, ...], ...]] = None
        self.vertex_weights = weights

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

    Checks the root, the arc count and each arc's shape and tail, files the heads
    unchecked and sorts each list (a ``True`` and a ``1`` keep their input order;
    a list that does not sort leads with its heads that are not numbers); `Digraph`
    gets the lists, the unread ``weights`` and ``ordered``, and names the first head fault.

    Raises:
        MalformedInput: a ``vertex_count`` or ``root`` that is not an
            integer, ``arcs`` that is not iterable, an arc that is not a
            pair of integers, ids out of range, self-loops, duplicate arcs,
            or ``weights`` that `Digraph`, their one checker, refuses.
        CycleDetected: the arc set contains a directed cycle.
        NotRooted: some vertex is unreachable from ``root``, or there are
            fewer than ``vertex_count - 1`` arcs.
    """
    _check_root(vertex_count, root)
    try:
        arcs = arcs if isinstance(arcs, list) else list(arcs)
    except TypeError:
        raise MalformedInput(f"arcs {arcs!r:.20} must be iterable") from None
    _check_size(vertex_count, len(arcs))

    out: list[list[int]] = [[] for _ in range(vertex_count)]
    for arc in arcs:
        try:
            u, v = arc
        except (TypeError, ValueError):
            raise _arc_fault(vertex_count, arc) from None
        if type(u) is not int or not 0 <= u < vertex_count:
            raise _arc_fault(vertex_count, (u, v))
        out[u].append(v)
    for heads in out:
        if len(heads) > 1:
            try:
                heads.sort()
            except TypeError:  # a head that is not a number goes first, so Digraph names it
                heads.sort(key=lambda v: isinstance(v, (int, float)))
    return Digraph(vertex_count, root, out, weights, ordered=ordered)


def topological_order(d: Digraph) -> list[int]:
    """Topological order of ``d`` starting at the root (see ``Digraph.order``).

    Not exported; it stays because ``exact_max_leaves`` calls it and the
    benchmark tracer times that call as ``graph.topological_order``."""
    return list(d.order)
