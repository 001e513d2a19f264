"""Branchings (forests of arborescences) inside a host digraph.

A branching assigns each vertex at most one parent; the parent array is its
only representation, with per-vertex out-degrees kept alongside.  A vertex of
out-degree 0 is a leaf; isolated vertices count as leaves.  The counters
exposed by :class:`BranchingStats` are always recomputed from scratch, which
doubles as a validator against counter drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import IllegalExpansion, MalformedInput, NotTBranching
from .graph import Arc, Digraph


@dataclass(frozen=True)
class BranchingStats:
    """Component/leaf counters of a branching.

    ``N`` is the number of vertices lying in non-trivial (>= 2 vertex)
    components and ``k`` the number of such components.  ``components`` counts
    all components including singletons; ``arcs`` always equals ``N - k``.
    """

    n: int
    N: int
    k: int
    leaves: int
    components: int
    arcs: int


class Branching:
    """Mutable branching value; solver phases copy before mutating.

    In-place mutation (``_expand``, ``_attach``) is reserved for owners of a
    private copy.
    """

    __slots__ = ("host", "parent", "out_degree")

    def __init__(self, host: Digraph):
        """The spanning branching of ``host`` with no arcs."""
        self.host = host
        self.parent: list[Optional[int]] = [None] * host.vertex_count
        self.out_degree: list[int] = [0] * host.vertex_count

    @classmethod
    def from_arcs(cls, host: Digraph, arcs: Iterable[Arc]) -> "Branching":
        """Rebuild a branching from an explicit arc list.

        Raises MalformedInput if an arc is not in the host or some vertex
        would get two parents.
        """
        b = cls(host)
        n = host.vertex_count
        for u, v in arcs:
            # O(in-degree); type() keeps True and 1.0 from passing for 1, and
            # the range check stops a negative v indexing from the end
            if not (type(u) is int and type(v) is int and 0 <= v < n and u in host.in_adj[v]):
                raise MalformedInput(f"arc ({u}, {v}) not in host digraph")
            if b.parent[v] is not None:
                raise MalformedInput(f"vertex {v} has two parents")
            b.parent[v] = u
            b.out_degree[u] += 1
        return b

    @classmethod
    def from_parents(cls, host: Digraph, parents: Sequence[Optional[int]]) -> "Branching":
        """Rebuild a branching from a per-vertex parent array."""
        if len(parents) != host.vertex_count:
            raise MalformedInput(
                f"parent array has length {len(parents)}, expected {host.vertex_count}"
            )
        return cls.from_arcs(host, [(p, v) for v, p in enumerate(parents) if p is not None])

    def copy(self) -> "Branching":
        b = Branching.__new__(Branching)
        b.host = self.host
        b.parent = list(self.parent)
        b.out_degree = list(self.out_degree)
        return b

    def restricted(self, keep: Sequence[bool]) -> "Branching":
        """The sub-branching made of the arcs into the vertices ``v`` with ``keep[v]``."""
        b = Branching(self.host)
        for v, p in enumerate(self.parent):
            if p is not None and keep[v]:
                b.parent[v] = p
                b.out_degree[p] += 1
        return b

    def free_heads(self, t: int) -> Iterator[tuple[int, list[int]]]:
        """``(v, heads)`` for each vertex ``v`` that might still make a ``t``-expansion.

        Walks ``host.order`` and skips every vertex that is internal or has
        fewer than ``t`` host out-arcs; ``heads`` are the out-neighbors of
        ``v`` that still have in-degree 0, ascending.  Each vertex is read
        when it is reached, so the caller may expand ``v`` before the next.
        """
        parent, out_degree, out_adj = self.parent, self.out_degree, self.host.out_adj
        for v in self.host.order:
            arcs = out_adj[v]
            if len(arcs) >= t and out_degree[v] == 0:
                yield v, [u for u in arcs if parent[u] is None]

    def _expand(self, v: int, heads: Sequence[int]) -> None:
        """In-place expansion; caller must own this value."""
        if self.out_degree[v] != 0:
            raise IllegalExpansion(f"vertex {v} is already internal")
        if not heads:
            raise IllegalExpansion("expansion requires at least one head")
        if len(set(heads)) != len(heads):
            raise IllegalExpansion("duplicate heads in expansion")
        # a set: a hub can have thousands of heads to check
        out = set(self.host.out_adj[v])
        for h in heads:
            if h not in out:
                raise IllegalExpansion(f"({v}, {h}) is not a host arc")
            if self.parent[h] is not None:
                raise IllegalExpansion(f"head {h} already has a parent")
        for h in heads:
            self.parent[h] = v
        self.out_degree[v] = len(heads)

    def _attach(self, p: int, v: int) -> None:
        """Add a single arc (p, v); used by the final attachment phase."""
        if self.parent[v] is not None:
            raise IllegalExpansion(f"head {v} already has a parent")
        if p not in self.host.in_adj[v]:
            raise IllegalExpansion(f"({p}, {v}) is not a host arc")
        self.parent[v] = p
        self.out_degree[p] += 1

    @property
    def leaf_count(self) -> int:
        return sum(1 for d in self.out_degree if d == 0)

    def leaf_weight(self) -> int:
        """Total weight of out-degree-0 vertices (host must be weighted)."""
        w = self.host.vertex_weights
        if w is None:
            raise MalformedInput("host digraph has no vertex weights")
        return sum(w[v] for v in range(self.host.vertex_count) if self.out_degree[v] == 0)

    def stats(self) -> BranchingStats:
        """Recompute all counters from scratch from ``parent`` and ``out_degree``.

        Every arc is a host arc and the host is acyclic, so following parents
        from any vertex ends at a parentless one: each component has exactly
        one parentless vertex, and it is a singleton iff that vertex has
        out-degree 0.
        """
        n = self.host.vertex_count
        components = self.parent.count(None)
        isolated = [d for p, d in zip(self.parent, self.out_degree) if p is None].count(0)
        return BranchingStats(
            n=n,
            N=n - isolated,
            k=components - isolated,
            leaves=self.out_degree.count(0),
            components=components,
            arcs=n - components,
        )

    def is_t_branching(self, t: int) -> bool:
        """True iff every internal vertex has out-degree at least ``t``."""
        return min(filter(None, self.out_degree), default=t) >= t

    def is_maximal(self, t: int) -> bool:
        """True iff no out-degree-0 vertex can still make a ``t``-expansion.

        Raises NotTBranching when this value is not a ``t``-branching.
        """
        if not self.is_t_branching(t):
            raise NotTBranching(f"not a {t}-branching")
        return not any(len(heads) >= t for _, heads in self.free_heads(t))

    def is_spanning_arborescence(self) -> bool:
        """True iff this branching is a single arborescence spanning the host.

        Every arc is a host arc and the host is acyclic, so following parents
        from any vertex ends at a vertex without one; the branching is a
        single arborescence iff the root is the only such vertex.
        """
        return self.parent[self.host.root] is None and self.parent.count(None) == 1

    def arcs(self) -> list[Arc]:
        """The ``(parent, child)`` arcs, ordered by child."""
        return [(p, v) for v, p in enumerate(self.parent) if p is not None]

    def __repr__(self) -> str:
        arcs = self.host.vertex_count - self.parent.count(None)
        return f"Branching(arcs={arcs}, leaves={self.leaf_count})"
