import random
from collections import deque

import pytest

import leafspan.cli
from leafspan import (
    Branching,
    IllegalExpansion,
    MalformedInput,
    NotTBranching,
    TooLarge,
    build_digraph,
    greedy_expand,
    max_expand,
)
from leafspan.certificates import PIPELINES
from leafspan.verify import verify_solution
from oracles import add_expansion, available_heads, brute_force_is_maximal, random_dag_corpus


def star(k):
    return build_digraph(k + 1, 0, [(0, i) for i in range(1, k + 1)])


def path(n):
    return build_digraph(n, 0, [(i, i + 1) for i in range(n - 1)])


def recount_stats(b):
    """Independent recount by full traversal, no union-find."""
    n = b.host.vertex_count
    adj = [[] for _ in range(n)]
    for u, v in b.arcs():
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    sizes = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        size = 1
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    size += 1
                    queue.append(u)
        sizes.append(size)
    big = [s for s in sizes if s >= 2]
    out_deg = [0] * n
    indeg = [0] * n
    for u, v in b.arcs():
        out_deg[u] += 1
        indeg[v] += 1
    assert all(d <= 1 for d in indeg)
    return {
        "N": sum(big),
        "k": len(big),
        "components": len(sizes),
        "leaves": sum(1 for d in out_deg if d == 0),
        "arcs": len(b.arcs()),
    }


def assert_stats_match_recount(b):
    s = b.stats()
    oracle = recount_stats(b)
    assert (s.N, s.k, s.components, s.leaves, s.arcs) == (
        oracle["N"],
        oracle["k"],
        oracle["components"],
        oracle["leaves"],
        oracle["arcs"],
    )
    assert s.n == b.host.vertex_count
    assert s.arcs == s.N - s.k
    assert s.components == s.n - s.N + s.k


def test_empty_branching_single_vertex():
    b = Branching(build_digraph(1, 0, []))
    s = b.stats()
    assert (s.leaves, s.components) == (1, 1)


def test_empty_branching_counters():
    b = Branching(star(4))
    s = b.stats()
    assert (s.N, s.k, s.arcs, s.leaves, s.components) == (0, 0, 0, 5, 5)


def test_empty_branching_is_t_branching_for_all_t():
    b = Branching(star(3))
    for t in range(1, 6):
        assert b.is_t_branching(t)


def test_add_expansion_star():
    d = star(3)
    b = Branching(d)
    b2 = add_expansion(b, 0, [1, 2, 3])
    assert b2.stats().leaves == 3
    assert b.stats().leaves == 4  # original untouched


def test_repeat_expansion_rejected():
    d = star(3)
    b = add_expansion(Branching(d), 0, [1, 2, 3])
    with pytest.raises(IllegalExpansion):
        add_expansion(b, 0, [1, 2, 3])


def test_expansion_precondition_messages():
    d = build_digraph(4, 0, [(0, 1), (0, 2), (1, 3), (2, 1)])
    b = Branching(d)
    with pytest.raises(IllegalExpansion, match="not a host arc"):
        add_expansion(b, 0, [3])
    with pytest.raises(IllegalExpansion, match="duplicate"):
        add_expansion(b, 0, [1, 1])
    with pytest.raises(IllegalExpansion, match="at least one head"):
        add_expansion(b, 0, [])
    taken = add_expansion(b, 0, [1, 2])
    with pytest.raises(IllegalExpansion, match="already has a parent"):
        add_expansion(taken, 2, [1])
    with pytest.raises(IllegalExpansion, match="already internal"):
        add_expansion(taken, 0, [1])


def test_path_expansion_gives_spanning_arborescence():
    d = path(3)
    b = add_expansion(add_expansion(Branching(d), 0, [1]), 1, [2])
    assert b.is_spanning_arborescence()
    assert b.stats().leaves == 1


def test_empty_branching_not_spanning_arborescence():
    assert not Branching(star(2)).is_spanning_arborescence()


def test_is_t_branching():
    d = build_digraph(5, 0, [(0, 1), (0, 2), (1, 3), (1, 4)])
    b = add_expansion(add_expansion(Branching(d), 0, [1, 2]), 1, [3, 4])
    assert b.is_t_branching(2)
    assert not b.is_t_branching(3)


def test_is_maximal_star():
    d = star(3)
    b = Branching(d)
    assert not b.is_maximal(3)  # root still has 3 free out-neighbors
    assert not b.is_maximal(1)
    d2 = star(2)
    assert Branching(d2).is_maximal(3)


def test_is_maximal_requires_t_branching():
    d = star(3)
    b = add_expansion(Branching(d), 0, [1, 2, 3])
    with pytest.raises(NotTBranching):
        b.is_maximal(4)


def test_scan_matches_brute_force_on_random_branchings():
    # the greedy 3- and 4-branchings, the 2-branching after matching, and
    # non-maximal ones grown by random expansions from the empty branching
    rng = random.Random(3)
    outcomes = set()
    for d in random_dag_corpus(150, 1, 25, seed=29):
        f3 = greedy_expand(d, 3)
        branchings = [Branching(d), f3, greedy_expand(d, 4), max_expand(f3)[0]]
        b = Branching(d)
        for _ in range(4):
            candidates = [v for v in range(d.vertex_count)
                          if b.out_degree[v] == 0 and available_heads(b, v)]
            if not candidates:
                break
            v = rng.choice(candidates)
            heads = available_heads(b, v)
            b = add_expansion(b, v, rng.sample(heads, rng.randint(1, len(heads))))
            branchings.append(b)
        for b in branchings:
            for t in range(1, 6):
                assert list(b.free_heads(t)) == [
                    (v, available_heads(b, v)) for v in d.order
                    if b.out_degree[v] == 0 and len(d.out_adj[v]) >= t
                ]
                if not b.is_t_branching(t):
                    with pytest.raises(NotTBranching):
                        b.is_maximal(t)
                    continue
                maximal = b.is_maximal(t)
                assert maximal == brute_force_is_maximal(b, t)
                outcomes.add((t, maximal))
    assert outcomes == {(t, m) for t in range(1, 6) for m in (False, True)}


def test_stats_match_independent_recount_on_random_expansions():
    rng = random.Random(7)
    for d in random_dag_corpus(50, 2, 30, seed=11):
        b = Branching(d).copy()
        for _ in range(50):
            candidates = [
                v for v in range(d.vertex_count)
                if b.out_degree[v] == 0 and available_heads(b, v)
            ]
            if not candidates:
                break
            v = rng.choice(candidates)
            heads = available_heads(b, v)
            take = rng.sample(heads, rng.randint(1, len(heads)))
            b._expand(v, take)
        assert_stats_match_recount(b)


def test_stats_match_independent_recount_without_arcs():
    assert_stats_match_recount(Branching(build_digraph(1, 0, [])))
    for d in random_dag_corpus(20, 1, 30, seed=19):
        assert_stats_match_recount(Branching(d))


def test_stats_match_independent_recount_on_every_phase_solved_and_verified(monkeypatch):
    # every branching the four approximate pipelines report on, and every
    # phase prefix verify rebuilds from the solution, goes through stats()
    seen = []
    stats = Branching.stats

    def recorded_stats(b):
        seen.append(b.copy())
        return stats(b)

    monkeypatch.setattr(Branching, "stats", recorded_stats)
    for d in random_dag_corpus(30, 1, 40, seed=23):
        for name in ("maxleaves", "expansion2", "w3dm-greedy", "w3dm-exact"):
            pipeline = PIPELINES[name]
            try:
                t, report = pipeline.solve(leafspan.cli, d)
            except TooLarge:
                continue
            solution = {"parent": t.parent, "phase": report.phase,
                        "leaf_count": report.leaf_count, "report": report.to_dict()}
            assert verify_solution(d, solution) == []
    monkeypatch.undo()
    assert len(seen) > 200
    for b in seen:
        assert_stats_match_recount(b)
        for t in range(1, 6):
            assert b.is_t_branching(t) == all(d == 0 or d >= t for d in b.out_degree)


@pytest.mark.parametrize("arc", [(0, -1), (0, 3), (0, 7), (-3, 1), (2, 1), (1, 1),
                                 (False, 1), (0.0, 2), (0, 2.0), (0, True)])
def test_from_arcs_rejects_arcs_outside_the_host(arc):
    # -1 must not index in_adj from the end: (0, -1) would match host arc (0, 2);
    # False and 0.0 compare equal to the tail 0 but are not vertex ids
    d = build_digraph(3, 0, [(0, 1), (0, 2)])
    with pytest.raises(MalformedInput, match="not in host"):
        Branching.from_arcs(d, [arc])


def test_from_arcs_rejects_a_second_parent():
    d = build_digraph(3, 0, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(MalformedInput, match="two parents"):
        Branching.from_arcs(d, [(0, 2), (1, 2)])
    assert Branching.from_arcs(d, [(1, 2), (0, 1)]).parent == [None, 0, 1]
