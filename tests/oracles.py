"""Exhaustive oracles the tests compare the package's algorithms against.

Each is guarded: it raises TooLarge above a size where exhaustive search
stops being cheap.  `random_dag_corpus` and `random_edges` supply seeded
inputs for property tests, and `add_expansion` builds branchings by hand.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from leafspan import Branching, Digraph, TooLarge, UndirectedGraphInstance, gen_random_rooted_dag
from leafspan.matching import Edge, _normalize_edges

BRUTE_FORCE_EDGE_LIMIT = 25
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


def add_expansion(b: Branching, v: int, heads: Sequence[int]) -> Branching:
    """A copy of ``b`` with every arc ``(v, h)`` added.

    Preconditions: ``v`` has out-degree 0 in ``b``, every ``(v, h)`` is a host
    arc, and every head has in-degree 0; a violation raises IllegalExpansion.
    """
    b = b.copy()
    b._expand(v, heads)
    return b
