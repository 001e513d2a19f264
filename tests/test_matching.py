import random

import pytest

from leafspan import MalformedInput, TooLarge, max_matching
from oracles import brute_force_matching, is_matching, random_edges


def petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def random_graph(rng, n, p):
    return [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]


def test_empty_graph():
    assert max_matching(0, []) == []
    assert max_matching(5, []) == []


def test_single_edge():
    assert brute_force_matching(2, [(0, 1)]) == [(0, 1)]
    assert max_matching(2, [(0, 1)]) == [(0, 1)]


def test_triangle():
    edges = [(0, 1), (1, 2), (0, 2)]
    assert len(max_matching(3, edges)) == 1
    assert len(brute_force_matching(3, edges)) == 1


def test_path_four_vertices():
    edges = [(0, 1), (1, 2), (2, 3)]
    assert len(brute_force_matching(4, edges)) == 2
    assert len(max_matching(4, edges)) == 2


def test_petersen_has_perfect_matching():
    m = max_matching(10, petersen_edges())
    assert len(m) == 5
    assert is_matching(m)
    assert len(brute_force_matching(10, petersen_edges())) == 5


def test_odd_cycles_and_blossoms():
    # two triangles joined by a bridge need blossom handling
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    assert len(max_matching(6, edges)) == 3


def test_rejects_bad_edges():
    with pytest.raises(MalformedInput):
        max_matching(3, [(0, 0)])
    with pytest.raises(MalformedInput):
        max_matching(3, [(0, 1), (1, 0)])
    with pytest.raises(MalformedInput):
        max_matching(3, [(0, 4)])


@pytest.mark.parametrize("edge", [(0.0, 1), (0, "1"), (True, 2), (0, 1, 2), (0,), 5, None],
                         ids=["float", "str", "bool", "triple", "single", "int", "none"])
def test_rejects_non_int_ids(edge):
    # a bool must not pass as 0/1; a float, a str or anything but a pair
    # must not end in a bare TypeError or ValueError
    with pytest.raises(MalformedInput):
        max_matching(3, [edge])


def test_brute_force_guard():
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    assert len(edges) > 25
    with pytest.raises(TooLarge):
        brute_force_matching(8, edges)


def test_equals_brute_force_on_random_graphs():
    rng = random.Random(42)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 12)
        edges = random_graph(rng, n, 0.35)
        if len(edges) > 25:
            continue
        got = max_matching(n, edges)
        assert is_matching(got)
        assert len(got) == len(brute_force_matching(n, edges))
        checked += 1


def test_cardinality_invariant_under_relabeling():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 11)
        edges = random_graph(rng, n, 0.4)
        if len(edges) > 25:
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [(perm[u], perm[v]) for u, v in edges]
        assert len(max_matching(n, edges)) == len(max_matching(n, relabeled))


def test_deterministic_output():
    edges = petersen_edges()
    assert max_matching(10, edges) == max_matching(10, list(reversed(edges)))


def test_disjoint_union_is_union_of_matchings():
    # searches never cross components, so G and H are matched as if alone
    rng = random.Random(2024)
    for _ in range(40):
        n, k = rng.randint(1, 300), rng.randint(1, 300)
        g = random_edges(rng, n, round(rng.choice((0.8, 1.5, 3.0)) * n))
        h = random_edges(rng, k, round(rng.choice((0.8, 1.5, 3.0)) * k))
        union = g + [(n + u, n + v) for u, v in h]
        shifted = [(n + u, n + v) for u, v in max_matching(k, h)]
        assert max_matching(n + k, union) == max_matching(n, g) + shifted


def test_size_equals_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1965)
    for n in (2, 5, 10, 31, 100, 316, 1000):
        for density in (0.8, 1.5, 3.0):
            edges = random_edges(rng, n, round(density * n))
            got = max_matching(n, edges)
            assert is_matching(got)
            assert set(got) <= set(edges)
            g = nx.Graph(edges)
            assert len(got) == len(nx.max_weight_matching(g, maxcardinality=True))
