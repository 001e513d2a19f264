"""Maximum-cardinality matching in general undirected graphs.

`max_matching` is an augmenting-path search with blossom shrinking, seeded
with a greedy matching and run once over the whole graph.  It is
deterministic: vertices are scanned in ascending id and adjacency lists are
kept sorted.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import count

from .errors import MalformedInput, require_int

Edge = tuple[int, int]


def _normalize_edges(
    vertex_count: int, edges: Iterable[Edge], merge_repeats: bool = False
) -> list[Edge]:
    """Sorted ``(u, v)`` edges with ``u < v``.

    Raises MalformedInput unless ``vertex_count`` is an int >= 0 and ``edges``
    yields pairs of distinct int ids in range, and for a repeated edge unless
    ``merge_repeats`` keeps one copy.
    """
    require_int("vertex_count", vertex_count, 0)
    if not isinstance(edges, Iterable):
        raise MalformedInput(f"edges must be an iterable of pairs, got {edges!r:.20}")
    out: list[Edge] = []
    seen: set[Edge] = set()
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            u = v = None  # rejected just below
        if not (type(u) is type(v) is int and 0 <= u < vertex_count and 0 <= v < vertex_count):
            raise MalformedInput(f"edge {edge!r:.60} is not a pair of ids in [0, {vertex_count})")
        if u == v:
            raise MalformedInput(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            if merge_repeats:
                continue
            raise MalformedInput(f"duplicate edge {key}")
        seen.add(key)
        out.append(key)
    out.sort()
    return out


def _blossom_match(n: int, adj: list[list[int]]) -> list[int]:
    """Edmonds' blossom algorithm on a graph of n vertices.

    Returns the mate array (-1 for unmatched).  Each augmenting search records
    the vertices it adds to its alternating tree in ``touched`` and resets only
    those afterwards, so a search costs time in what it reaches, not in n.
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
    used = [False] * n
    # mark[v] == s: v was marked under stamp s; a fresh stamp clears all marks
    mark = [0] * n
    stamps = count(1)
    touched: list[int] = []

    def lca(a: int, b: int, stamp: int) -> int:
        while True:
            a = base[a]
            mark[a] = stamp
            if match[a] < 0:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if mark[b] == stamp:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, stamp: int) -> None:
        while base[v] != b:
            mark[base[v]] = stamp
            mark[base[match[v]]] = stamp
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        used[root] = True
        touched.append(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] >= 0 and p[match[to]] >= 0):
                    # odd cycle: shrink the blossom
                    cur_base = lca(v, to, next(stamps))
                    blossom = next(stamps)
                    mark_path(v, cur_base, to, blossom)
                    mark_path(to, cur_base, v, blossom)
                    # only tree vertices can lie in the blossom; ascending id
                    # keeps the queue order of a scan over all vertices
                    for i in sorted(i for i in touched if mark[base[i]] == blossom):
                        base[i] = cur_base
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
                elif p[to] < 0:
                    p[to] = v
                    touched.append(to)
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
                    touched.append(match[to])
                    queue.append(match[to])
        return False

    for v in range(n):
        # a search from a vertex without edges reaches nothing
        if match[v] < 0 and adj[v]:
            find_path(v)
            for i in touched:
                p[i] = -1
                base[i] = i
                used[i] = False
            touched.clear()
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
    # the edges come sorted, so every adjacency list comes out sorted too
    for u, v in edge_list:
        adj[u].append(v)
        adj[v].append(u)
    mate = _blossom_match(vertex_count, adj)
    return [(u, v) for u, v in enumerate(mate) if u < v]
