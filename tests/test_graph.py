import itertools
import random
from collections import deque

import pytest

from leafspan import (
    CycleDetected,
    Digraph,
    MalformedInput,
    NotRooted,
    build_digraph,
)
from oracles import digraph_arcs, graph_fields, random_dag_corpus


def test_single_vertex():
    d = build_digraph(1, 0, [])
    assert d.vertex_count == 1
    assert digraph_arcs(d) == ()
    assert list(d.order) == [0]


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
    assert digraph_arcs(d) == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_in_adj_is_built_on_first_use_from_out_adj():
    # only out_adj is stored: in_adj is filed from it when first read, then
    # cached, and equals both a recount and the in_adj of a fresh build
    for d in random_dag_corpus(80, 1, 30, seed=101):
        n = d.vertex_count
        recount = tuple(tuple(u for u in range(n) if v in d.out_adj[u]) for v in range(n))
        assert d.in_adj == recount
        assert d.in_adj is d.in_adj
        fresh = Digraph(n, d.root, [list(heads) for heads in d.out_adj])
        assert fresh.in_adj == d.in_adj
        assert graph_fields(fresh) == graph_fields(d)


def test_in_adj_refuses_assignment_before_and_after_first_use():
    d = build_digraph(3, 0, [(0, 1), (0, 2), (1, 2)])
    forged = ((), (0,), (1,))
    with pytest.raises(AttributeError):
        d.in_adj = forged
    assert d.in_adj == ((), (0,), (0, 1))
    with pytest.raises(AttributeError):
        d.in_adj = forged
    assert d.in_adj == ((), (0,), (0, 1))


def test_topological_order_star():
    d = build_digraph(5, 0, [(0, i) for i in range(1, 5)])
    assert list(d.order) == [0, 1, 2, 3, 4]


def test_topological_order_path():
    d = build_digraph(3, 0, [(0, 1), (1, 2)])
    assert list(d.order) == [0, 1, 2]


def test_topological_order_diamond_matches_enumeration():
    arcs = [(0, 1), (0, 2), (1, 3), (2, 3)]
    d = build_digraph(4, 0, arcs)
    got = list(d.order)
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
        order = list(d.order)
        pos = {v: i for i, v in enumerate(order)}
        assert len(order) == d.vertex_count
        assert order[0] == d.root
        for u, v in digraph_arcs(d):
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


def test_arc_order_and_container_do_not_matter():
    rng = random.Random(3)
    for d in random_dag_corpus(30, 1, 40, seed=13):
        arcs = list(digraph_arcs(d))
        assert arcs == sorted(arcs)
        shuffled = arcs[:]
        rng.shuffle(shuffled)
        n, root = d.vertex_count, d.root
        for given in (arcs, shuffled, [[u, v] for u, v in shuffled], (a for a in shuffled)):
            assert graph_fields(build_digraph(n, root, given)) == graph_fields(d)


@pytest.mark.parametrize("arcs", [[], [(0, 1)], iter([(0, 1), (0, 5)])])
def test_too_few_arcs_is_not_rooted(arcs):
    # checked before the arcs themselves, so a bad arc in a short list
    # reports NotRooted
    with pytest.raises(NotRooted):
        build_digraph(4, 0, arcs)
