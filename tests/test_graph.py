import itertools
import random
from collections import deque

import pytest

from leafspan import (
    Branching,
    CycleDetected,
    Digraph,
    LeafspanError,
    MalformedInput,
    NotRooted,
    build_digraph,
    gen_random_rooted_dag,
    max_leaves,
)
from oracles import digraph_arcs, graph_fields, random_dag_corpus, reference_head_fault


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


@pytest.mark.parametrize("args, message", [
    ((2, 0, [(0, 1)], 7), "weights 7 must be iterable"),
    ((2, 0, 5), "arcs 5 must be iterable"),
    # the arcs are checked before Digraph reads the weights
    ((3, 0, [(0, 1), (0, 9)], 7),
     "arc (0, 9) is not a pair of distinct integer vertex ids in [0, 3)"),
], ids=["weights", "arcs", "arc-beats-weights"])
def test_build_digraph_leaves_the_weights_to_digraph(args, message):
    with pytest.raises(MalformedInput) as caught:
        build_digraph(*args)
    assert str(caught.value) == message


def raised(make):
    with pytest.raises(LeafspanError) as caught:
        make()
    return type(caught.value), str(caught.value)


def test_both_formats_name_the_same_fault_in_any_arc_order():
    # 1-3 faults injected into the head lists of a small rooted DAG, with
    # weights that are fine, not iterable, too short or negative: the arcs,
    # shuffled, name the fault of the sorted lists, where a head that is not
    # a number (a string, None, a list: at most one per list) leads its list;
    # a list holding True beside 1 (or False beside 0) is skipped: the sort
    # keeps equal faults in input order
    rng, kept, odd_kept = random.Random(35), 0, 0
    odd_heads = ("x", None, [0])
    for _ in range(3000):
        n = rng.randint(2, 6)
        d = gen_random_rooted_dag(n, 0.4, rng.randrange(2**31))
        out = list(map(list, d.out_adj))
        for _ in range(rng.randint(1, 3)):
            u = rng.randrange(n)
            heads = out[u]
            kind = rng.choice(("self-loop", "range", "true", "repeat", "odd"))
            if kind == "repeat" and heads:
                j = rng.randrange(len(heads))
                heads.insert(j, heads[j])
            elif kind != "odd" or all(isinstance(v, int) for v in heads):
                bad = {"range": rng.choice((-1, n)), "true": True,
                       "odd": rng.choice(odd_heads)}.get(kind, u)
                heads.insert(rng.randint(0, len(heads)), bad)
        if any(len({type(v) for v in heads if v == b}) > 1 for heads in out for b in (0, 1)):
            continue
        kept += 1
        weights = rng.choice((None, 7, [1], [0] * n, [0] * (n - 1) + [-1]))
        arcs = [(u, v) for u, heads in enumerate(out) for v in heads]
        rng.shuffle(arcs)
        lists = [[v for v in heads if not isinstance(v, int)]
                 + sorted(v for v in heads if isinstance(v, int)) for heads in out]
        odd_kept += any(not isinstance(v, int) for heads in out for v in heads)
        assert (raised(lambda: build_digraph(n, d.root, arcs, weights))
                == raised(lambda: Digraph(n, d.root, lists, weights))), (arcs, weights)
    assert kept > 2500 and odd_kept > 800


def test_digraph_names_the_head_fault_the_reference_names():
    # version 2 bodies with 1-4 faults: ids out of range, self-loops, heads
    # that are not integers (a string, None and a list do not compare with
    # one), repeated heads and swapped neighbours, which give a descending pair
    rng, seen = random.Random(36), set()
    bad_heads = {"true": True, "float": 1.5, "string": "x", "none": None, "list": [0]}
    for _ in range(4000):
        n = rng.randint(2, 7)
        d = gen_random_rooted_dag(n, 0.4, rng.randrange(2**31))
        out = list(map(list, d.out_adj))
        for _ in range(rng.randint(1, 4)):
            u = rng.randrange(n)
            heads = out[u]
            kind = rng.choice(("self-loop", "range", "repeat", "swap", *bad_heads))
            if kind == "swap" and len(heads) > 1:
                j = rng.randrange(len(heads) - 1)
                heads[j], heads[j + 1] = heads[j + 1], heads[j]
            elif kind == "repeat" and heads:
                j = rng.randrange(len(heads))
                heads.insert(j, heads[j])
            else:
                bad = {"range": rng.choice((-1, n, n + 5)), **bad_heads}.get(kind, u)
                heads.insert(rng.randint(0, len(heads)), bad)
        expected = reference_head_fault(n, out)
        for ordered in (True, False):
            assert raised(lambda: Digraph(n, d.root, out, ordered=ordered)) == (
                MalformedInput, expected), out
        seen.add(expected.split()[0])
    assert seen == {"arc", "duplicate", "heads"}


def test_weights_are_read_once_by_digraph():
    # an iterator survives build_digraph unread and is stored as a tuple
    weights = [0, 2, 1]
    d = build_digraph(3, 0, [(0, 1), (1, 2)], iter(weights))
    assert d.vertex_weights == Digraph(3, 0, [[1], [2], []], weights).vertex_weights == (0, 2, 1)


def test_graph_and_branching_reprs():
    d = build_digraph(3, 0, [(0, 1), (0, 2)])
    assert repr(d) == "Digraph(n=3, root=0, arcs=2, weighted=False)"
    assert repr(Branching(d)) == "Branching(arcs=0, leaves=3)"
    tree, _ = max_leaves(d)
    assert repr(tree) == "Branching(arcs=2, leaves=2)"
    weighted = build_digraph(2, 0, [(0, 1)], [1, 1])
    assert repr(weighted) == "Digraph(n=2, root=0, arcs=1, weighted=True)"


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
