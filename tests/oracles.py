"""Exhaustive oracles the tests compare the package's algorithms against.

Each exhaustive one is guarded: it raises TooLarge above a size where
exhaustive search stops being cheap.  `reference_pack_greedy` and
`reference_pack_exact` are the packers written over frozensets, so they do
not rely on the ascending order of `PackSet.members`.
`reference_greedy_expand` and `brute_force_is_maximal` look at every vertex,
with no skip on the host out-degree.  `random_dag_corpus` and `random_edges`
supply seeded inputs for property tests, and `add_expansion` builds
branchings by hand.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Sequence

from leafspan import (
    Branching,
    Digraph,
    PackSet,
    TooLarge,
    UndirectedGraphInstance,
    gen_random_rooted_dag,
)
from leafspan.matching import Edge, _normalize_edges
from leafspan.packing import EXACT_SET_LIMIT

BRUTE_FORCE_EDGE_LIMIT = 25
BRUTE_FORCE_PARENT_FUNCTION_LIMIT = 10**6
INDEPENDENT_SET_VERTEX_LIMIT = 20


def brute_force_matching(vertex_count: int, edges: Iterable[Edge]) -> list[Edge]:
    """Maximum matching by exhaustive search; oracle twin of `max_matching`.

    Raises TooLarge when the edge count exceeds ``BRUTE_FORCE_EDGE_LIMIT``.
    """
    edge_list = _normalize_edges(vertex_count, edges)
    if len(edge_list) > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLarge(
            f"{len(edge_list)} edges exceeds guard of {BRUTE_FORCE_EDGE_LIMIT}"
        )

    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edge_list:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()

    def rec(v: int, used: int) -> tuple[int, list[Edge]]:
        while v < vertex_count and ((used >> v) & 1 or not adj[v]):
            v += 1
        if v >= vertex_count:
            return 0, []
        best_size, best_edges = rec(v + 1, used)  # leave v unmatched
        for u in adj[v]:
            if u > v and not (used >> u) & 1:
                size, chosen = rec(v + 1, used | (1 << v) | (1 << u))
                if size + 1 > best_size:
                    best_size = size + 1
                    best_edges = chosen + [(v, u)]
        return best_size, best_edges

    _, picked = rec(0, 0)
    return sorted(picked)


def is_matching(edges: Sequence[Edge]) -> bool:
    """True iff no two edges share an endpoint."""
    seen: set[int] = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def brute_force_max_leaves(d: Digraph, objective: str = "leaves") -> int:
    """Best leaf count (or leaf weight) over every parent function of ``d``.

    Oracle twin of `exact_max_leaves`: on a rooted DAG each choice of one
    in-neighbor per non-root vertex is a spanning arborescence, and its leaves
    are the vertices never chosen as a parent.  Raises TooLarge when there
    are more than ``BRUTE_FORCE_PARENT_FUNCTION_LIMIT`` parent functions.
    """
    weight = d.vertex_weights if objective == "leaf_weight" else [1] * d.vertex_count
    options = [d.in_adj[v] for v in range(d.vertex_count) if v != d.root]
    count = math.prod(map(len, options))
    if count > BRUTE_FORCE_PARENT_FUNCTION_LIMIT:
        raise TooLarge(
            f"{count} parent functions exceeds guard of {BRUTE_FORCE_PARENT_FUNCTION_LIMIT}"
        )
    used_weight = min(
        sum(weight[p] for p in set(parents)) for parents in itertools.product(*options)
    )
    return sum(weight) - used_weight


def brute_force_max_independent_set(
    g: UndirectedGraphInstance,
) -> tuple[int, set[int]]:
    """Exhaustive maximum independent set (guarded)."""
    n = g.vertex_count
    if n > INDEPENDENT_SET_VERTEX_LIMIT:
        raise TooLarge(
            f"{n} vertices exceeds guard of {INDEPENDENT_SET_VERTEX_LIMIT}"
        )
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    memo: dict[int, tuple[int, int]] = {}

    def rec(mask: int) -> tuple[int, int]:
        if mask == 0:
            return 0, 0
        hit = memo.get(mask)
        if hit is not None:
            return hit
        v = (mask & -mask).bit_length() - 1
        size_out, set_out = rec(mask & ~(1 << v))
        size_in, set_in = rec(mask & ~((1 << v) | nbr[v]))
        size_in += 1
        set_in |= 1 << v
        result = (size_in, set_in) if size_in >= size_out else (size_out, set_out)
        memo[mask] = result
        return result

    size, chosen = rec((1 << n) - 1)
    return size, {v for v in range(n) if (chosen >> v) & 1}


def _reference_order_key(s: PackSet) -> tuple:
    # descending weight, then ascending candidate id, then member ids
    return (-s.weight, s.candidate, tuple(sorted(frozenset(s.members))))


def reference_pack_greedy(sets: Sequence[PackSet]) -> list[PackSet]:
    """Greedy packing over frozensets; oracle twin of `pack_greedy`."""
    chosen: list[PackSet] = []
    used: set[int] = set()
    for s in sorted(sets, key=_reference_order_key):
        members = frozenset(s.members)
        if used.isdisjoint(members):
            chosen.append(s)
            used.update(members)
    return chosen


def reference_pack_exact(sets: Sequence[PackSet]) -> list[PackSet]:
    """Branch-and-bound packing over frozensets; oracle twin of `pack_exact`.

    Same objective and tie-breaks: the largest total weight, then the most
    sets, then the lexicographically smallest selection.  Raises TooLarge
    above ``EXACT_SET_LIMIT`` sets.
    """
    if len(sets) > EXACT_SET_LIMIT:
        raise TooLarge(f"{len(sets)} sets exceeds guard of {EXACT_SET_LIMIT}")
    order = sorted(sets, key=_reference_order_key)
    m = len(order)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + order[i].weight

    best_weight = -1
    best_count = -1
    best_sig: tuple = ()
    best_sel: list[PackSet] = []

    used: set[int] = set()
    cur: list[PackSet] = []

    def consider() -> None:
        nonlocal best_weight, best_count, best_sig, best_sel
        w = sum(s.weight for s in cur)
        c = len(cur)
        if (w, c) < (best_weight, best_count):
            return
        sig = tuple(sorted((tuple(sorted(frozenset(s.members))), s.candidate) for s in cur))
        if (w, c) > (best_weight, best_count) or sig < best_sig:
            best_weight, best_count, best_sig = w, c, sig
            best_sel = list(cur)

    def dfs(i: int, weight: int) -> None:
        if weight + suffix[i] < best_weight:
            return  # cannot even tie
        if i == m:
            consider()
            return
        s = order[i]
        members = frozenset(s.members)
        if used.isdisjoint(members):
            used.update(members)
            cur.append(s)
            dfs(i + 1, weight + s.weight)
            cur.pop()
            used.difference_update(members)
        dfs(i + 1, weight)

    dfs(0, 0)
    return best_sel


def random_dag_corpus(
    count: int, n_lo: int, n_hi: int, seed: int = 1,
    probabilities: Sequence[float] = (0.0, 0.1, 0.3, 0.6),
) -> list[Digraph]:
    """Deterministic list of random rooted DAGs for property tests."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(n_lo, n_hi)
        p = rng.choice(probabilities)
        out.append(gen_random_rooted_dag(n, p, seed * 100003 + i))
    return out


def random_edges(rng: random.Random, n: int, m: int) -> list[Edge]:
    """``m`` distinct random edges on ``n`` vertices (fewer if the graph is complete)."""
    m = min(m, n * (n - 1) // 2)
    edges: dict[Edge, None] = {}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges[(min(u, v), max(u, v))] = None
    return list(edges)


def available_heads(b: Branching, v: int) -> list[int]:
    """Out-neighbors of ``v`` in ``b.host`` that still have in-degree 0."""
    return [u for u in b.host.out_adj[v] if b.parent[u] is None]


def brute_force_is_maximal(b: Branching, t: int) -> bool:
    """True iff no out-degree-0 vertex has ``t`` free heads; oracle twin of `is_maximal`.

    Checks every vertex by id, with no skip on the host out-degree.
    """
    return not any(
        b.out_degree[v] == 0 and len(available_heads(b, v)) >= t
        for v in range(b.host.vertex_count)
    )


def reference_greedy_expand(d: Digraph, t: int) -> Branching:
    """Greedy t-expansion as one loop over the topological order; twin of `greedy_expand`."""
    work = Branching(d)
    for v in d.order:
        if work.out_degree[v] == 0:
            heads = available_heads(work, v)
            if len(heads) >= t:
                work._expand(v, heads)
    return work


def add_expansion(b: Branching, v: int, heads: Sequence[int]) -> Branching:
    """A copy of ``b`` with every arc ``(v, h)`` added.

    Preconditions: ``v`` has out-degree 0 in ``b``, every ``(v, h)`` is a host
    arc, and every head has in-degree 0; a violation raises IllegalExpansion.
    """
    b = b.copy()
    b._expand(v, heads)
    return b
