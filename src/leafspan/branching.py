"""Branchings (forests of arborescences) inside a host digraph.

A branching assigns each vertex at most one parent; the parent array is its
only representation, with per-vertex out-degrees kept alongside.  A vertex of
out-degree 0 is a leaf; isolated vertices count as leaves.  The counters
exposed by :class:`BranchingStats` are always recomputed from scratch, which
doubles as a validator against counter drift.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import is_not
from typing import Iterable, Iterator, Optional, Sequence

from .errors import MalformedInput, PreconditionViolated
from .graph import Arc, Digraph


def _check_t(t: object) -> None:
    if type(t) is not int or t < 1:  # by type(), so a bool fails
        raise PreconditionViolated(f"t must be a positive integer, got {t!r:.20}")


@dataclass(frozen=True)
class BranchingStats:
    """Component/leaf counters of a branching.

    ``N`` is the number of vertices lying in non-trivial (>= 2 vertex)
    components, ``k`` the number of such components, and ``leaves`` the
    number of out-degree-0 vertices, isolated ones included.  The branching
    has ``N - k`` arcs.
    """

    N: int
    k: int
    leaves: int


class Branching:
    """Mutable branching value; each phase copies the one before, then extends it.

    Only the owner of a private copy mutates it: ``from_arcs`` checks arcs
    from outside; the solver phases and ``verify`` write host arcs they
    computed, or checked where they entered, directly.
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

        Each arc is looked up in its tail's ascending head list, scanned when
        short and bisected when long, so no in-list of the host is built.

        Raises MalformedInput if ``arcs`` is not iterable, an arc is not a
        pair in the host, or some vertex would get two parents.
        """
        b = cls(host)
        n, out_adj, parent, out_degree = host.vertex_count, host.out_adj, b.parent, b.out_degree
        try:
            for u, v in arcs:
                # the range check stops a negative u indexing from the end, a head
                # in out_adj[u] is an id in range, and bisection stops at the last head
                heads = out_adj[u] if type(u) is int and 0 <= u < n else ()
                if type(v) is not int or (v not in heads if len(heads) < 16 else
                                          heads[bisect_left(heads, v, 0, len(heads) - 1)] != v):
                    raise MalformedInput(f"arc {(u, v)!r:.60} not in host digraph")
                if parent[v] is not None:
                    raise MalformedInput(f"vertex {v} has two parents")
                parent[v] = u
                out_degree[u] += 1
        except (TypeError, ValueError) as e:  # from iterating or unpacking, not the body
            raise MalformedInput(f"arcs must be an iterable of pairs: {e}") from None
        return b

    @classmethod
    def from_parents(cls, host: Digraph, parents: Sequence[Optional[int]]) -> "Branching":
        """Rebuild a branching from a per-vertex parent array."""
        if not isinstance(parents, Sequence) or len(parents) != host.vertex_count:
            raise MalformedInput(f"parent array must be a sequence of length "
                                 f"{host.vertex_count}, got {parents!r:.20}")
        arcs = compress(zip(parents, count()), map(is_not, parents, repeat(None)))
        return cls.from_arcs(host, arcs)

    def copy(self) -> "Branching":
        b = Branching.__new__(Branching)
        b.host = self.host
        b.parent = list(self.parent)
        b.out_degree = list(self.out_degree)
        return b

    def free_heads(self, t: int) -> Iterator[tuple[int, list[int]]]:
        """``(v, heads)`` for each vertex ``v`` that might still make a ``t``-expansion.

        A read-only scan in ascending ``v``: skips every vertex that is
        internal or has fewer than ``t`` host out-arcs; ``heads`` are the
        out-neighbors of ``v`` that still have in-degree 0, ascending.
        """
        _check_t(t)
        parent, out_degree = self.parent, self.out_degree
        for v, arcs in enumerate(self.host.out_adj):
            if len(arcs) >= t and out_degree[v] == 0:
                yield v, [u for u in arcs if parent[u] is None]

    @property
    def leaf_count(self) -> int:
        return self.out_degree.count(0)

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
        isolated = [d for p, d in zip(self.parent, self.out_degree) if p is None].count(0)
        return BranchingStats(
            N=self.host.vertex_count - isolated,
            k=self.parent.count(None) - isolated,
            leaves=self.out_degree.count(0),
        )

    def is_maximal(self, t: int) -> bool:
        """True iff no out-degree-0 vertex can still make a ``t``-expansion.

        Raises PreconditionViolated when this value is not a ``t``-branching.
        """
        _check_t(t)
        if min(filter(None, self.out_degree), default=t) < t:
            raise PreconditionViolated(f"not a {t}-branching")
        return not any(len(heads) >= t for _, heads in self.free_heads(t))

    def is_spanning_arborescence(self) -> bool:
        """True iff this branching is a single arborescence spanning the host.

        Every arc is a host arc and the host is acyclic, so following parents
        from any vertex ends at a vertex without one; the branching is a
        single arborescence iff the root is the only such vertex.
        """
        return self.parent[self.host.root] is None and self.parent.count(None) == 1

    def __repr__(self) -> str:
        arcs = self.host.vertex_count - self.parent.count(None)
        return f"Branching(arcs={arcs}, leaves={self.leaf_count})"
