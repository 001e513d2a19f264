"""Maximum-cardinality matching in general undirected graphs.

`max_matching` is an augmenting-path search with blossom shrinking, seeded
with a greedy matching and run independently per connected component.  It is
deterministic: vertices are scanned in ascending id and adjacency lists are
kept sorted.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import MalformedInput

Edge = tuple[int, int]


def _normalize_edges(vertex_count: int, edges: Iterable[Edge]) -> list[Edge]:
    out: list[Edge] = []
    seen: set[Edge] = set()
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise MalformedInput(f"edge ({u}, {v}) out of range [0, {vertex_count})")
        if u == v:
            raise MalformedInput(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise MalformedInput(f"duplicate edge {key}")
        seen.add(key)
        out.append(key)
    out.sort()
    return out


def _blossom_match(n: int, adj: list[list[int]]) -> list[int]:
    """Edmonds' blossom algorithm on a connected (or any) graph of n vertices.

    Returns the mate array (-1 for unmatched).
    """
    match = [-1] * n
    # greedy seed keeps the number of augmenting searches low
    for v in range(n):
        if match[v] < 0:
            for u in adj[v]:
                if match[u] < 0:
                    match[v] = u
                    match[u] = v
                    break

    p = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] < 0:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        for i in range(n):
            p[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] >= 0 and p[match[to]] >= 0):
                    # odd cycle: shrink the blossom
                    cur_base = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] < 0:
                    p[to] = v
                    if match[to] < 0:
                        # augment along the alternating path back to root
                        u = to
                        while u >= 0:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] < 0:
            find_path(v)
    return match


def max_matching(vertex_count: int, edges: Iterable[Edge]) -> list[Edge]:
    """Maximum-cardinality matching of a simple undirected graph.

    Args:
        vertex_count: vertices are 0..vertex_count-1.
        edges: unordered simple edges; self-loops and duplicates are rejected.

    Returns:
        Sorted list of matched edges as ``(u, v)`` with ``u < v``.
    """
    edge_list = _normalize_edges(vertex_count, edges)

    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edge_list:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()

    # process per connected component so sparse instances stay cheap
    comp = [-1] * vertex_count
    comps: list[list[int]] = []
    for s in range(vertex_count):
        if comp[s] >= 0 or not adj[s]:
            continue
        members = [s]
        comp[s] = len(comps)
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if comp[u] < 0:
                    comp[u] = len(comps)
                    members.append(u)
                    queue.append(u)
        comps.append(sorted(members))

    matched: list[Edge] = []
    for members in comps:
        local = {v: i for i, v in enumerate(members)}
        local_adj = [[local[u] for u in adj[v]] for v in members]
        mate = _blossom_match(len(members), local_adj)
        for i, j in enumerate(mate):
            if 0 <= j and i < j:
                u, v = members[i], members[j]
                matched.append((u, v) if u < v else (v, u))
    matched.sort()
    return matched
