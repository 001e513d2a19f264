import itertools
import random
from collections import deque

import pytest

from leafspan import (
    CycleDetected,
    MalformedInput,
    NotRooted,
    build_digraph,
    topological_order,
)
from oracles import random_dag_corpus


def test_single_vertex():
    d = build_digraph(1, 0, [])
    assert d.vertex_count == 1
    assert d.arcs == ()
    assert topological_order(d) == [0]


def test_three_cycle_rejected():
    with pytest.raises(CycleDetected):
        build_digraph(3, 0, [(0, 1), (1, 2), (2, 0)])


def test_unreachable_vertex_rejected():
    with pytest.raises(NotRooted):
        build_digraph(3, 0, [(0, 1)])


@pytest.mark.parametrize(
    "n,root,arcs",
    [
        (3, 0, [(0, 1), (1, 1), (0, 2)]),  # self-loop
        (3, 0, [(0, 1), (0, 1), (0, 2)]),  # duplicate arc
        (3, 0, [(0, 1), (0, 3)]),  # head out of range
        (3, 5, [(0, 1), (0, 2)]),  # root out of range
        (0, 0, []),  # empty graph
        (4, 0, [(0, 2), (0, 1), (1, 3), (0, 2)]),  # duplicate arc, apart in the input
    ] + [
        (3, 0, [(0, 2), arc])  # not a pair of ints; bools are not ints here
        for arc in [(0, True), [False, 1], (0, 1.0), ("0", 1), (0,), (0, 1, 2), 0, None, "01",
                    [0, [1]]]
    ] + [
        # n or root not an int: written to a file, a bool or float is refused on reading
        (2, True, [(1, 0)]), (2, 0.0, [(0, 1)]), (2, 1.0, [(1, 0)]),
        (True, 0, []), (2.0, 0, [(0, 1)]), ("2", 0, [(0, 1)]),
    ],
)
def test_malformed_inputs(n, root, arcs):
    with pytest.raises(MalformedInput):
        build_digraph(n, root, arcs)


def test_wrong_weight_length():
    with pytest.raises(MalformedInput):
        build_digraph(2, 0, [(0, 1)], weights=[1])


def test_error_cases_are_disjoint():
    # each malformed input maps to exactly one declared error class
    cases = {
        MalformedInput: (3, 0, [(0, 1), (1, 1), (0, 2)]),
        CycleDetected: (3, 0, [(0, 1), (1, 2), (2, 0)]),
        NotRooted: (3, 0, [(0, 1)]),
    }
    for expected, (n, root, arcs) in cases.items():
        try:
            build_digraph(n, root, arcs)
        except (MalformedInput, CycleDetected, NotRooted) as e:
            assert type(e) is expected
        else:
            pytest.fail("expected an error")


def test_adjacency_consistency():
    d = build_digraph(4, 0, [(0, 2), (0, 1), (1, 3), (2, 3)])
    assert d.out_adj[0] == (1, 2)
    assert d.in_adj[3] == (1, 2)
    assert len(d.out_adj[0]) == 2
    assert len(d.in_adj[3]) == 2
    assert d.arcs == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_topological_order_star():
    d = build_digraph(5, 0, [(0, i) for i in range(1, 5)])
    assert topological_order(d) == [0, 1, 2, 3, 4]


def test_topological_order_path():
    d = build_digraph(3, 0, [(0, 1), (1, 2)])
    assert topological_order(d) == [0, 1, 2]


def test_topological_order_diamond_matches_enumeration():
    arcs = [(0, 1), (0, 2), (1, 3), (2, 3)]
    d = build_digraph(4, 0, arcs)
    got = topological_order(d)
    # oracle: enumerate every topological order by brute force
    valid = [
        list(perm)
        for perm in itertools.permutations(range(4))
        if all(perm.index(u) < perm.index(v) for u, v in arcs)
    ]
    assert got in valid
    # smallest-id tie-break: 1 is ready before 2 once 0 is placed
    assert got == [0, 1, 2, 3]


def test_topological_order_respects_arcs_on_random_dags():
    for d in random_dag_corpus(60, 1, 30, seed=5):
        order = topological_order(d)
        pos = {v: i for i, v in enumerate(order)}
        assert len(order) == d.vertex_count
        assert order[0] == d.root
        for u, v in d.arcs:
            assert pos[u] < pos[v]


def test_rootedness_agrees_with_bfs_count():
    for d in random_dag_corpus(40, 1, 25, seed=9):
        seen = {d.root}
        queue = deque([d.root])
        while queue:
            v = queue.popleft()
            for u in d.out_adj[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        assert len(seen) == d.vertex_count


def _same_graph(a, b):
    assert a == b and hash(a) == hash(b)
    assert (a.arcs, a.out_adj, a.in_adj, a.order) == (b.arcs, b.out_adj, b.in_adj, b.order)


def test_arc_order_and_container_do_not_matter():
    rng = random.Random(3)
    for d in random_dag_corpus(30, 1, 40, seed=13):
        arcs = list(d.arcs)
        assert arcs == sorted(arcs)
        shuffled = arcs[:]
        rng.shuffle(shuffled)
        n, root = d.vertex_count, d.root
        _same_graph(d, build_digraph(n, root, arcs))
        _same_graph(d, build_digraph(n, root, shuffled))
        _same_graph(d, build_digraph(n, root, [[u, v] for u, v in shuffled]))
        _same_graph(d, build_digraph(n, root, (arc for arc in shuffled)))


@pytest.mark.parametrize("arcs", [[], [(0, 1)], iter([(0, 1), (0, 5)])])
def test_too_few_arcs_is_not_rooted(arcs):
    # checked before the arcs themselves, so a bad arc in a short list
    # reports NotRooted
    with pytest.raises(NotRooted):
        build_digraph(4, 0, arcs)
