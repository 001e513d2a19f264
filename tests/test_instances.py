import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from leafspan import (
    CycleDetected,
    MalformedInput,
    NotReducedInstance,
    NotRooted,
    ParseError,
    TooLarge,
    UndirectedGraphInstance,
    build_digraph,
    exact_max_leaves,
    gen_adversarial_family,
    gen_random_rooted_dag,
    leaves_to_independent_set,
    max_leaves,
    read_instance,
    reduce_independent_set,
    write_dot,
    write_instance,
)
from oracles import brute_force_max_independent_set, random_dag_corpus


def random_undirected(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return UndirectedGraphInstance.build(n, edges)


class TestGenerator:
    def test_deterministic_bytes(self, tmp_path):
        a = gen_random_rooted_dag(50, 0.2, 7)
        b = gen_random_rooted_dag(50, 0.2, 7)
        assert a == b
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_instance(a, pa)
        write_instance(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        assert gen_random_rooted_dag(50, 0.2, 7) != gen_random_rooted_dag(50, 0.2, 8)

    def test_single_vertex(self):
        d = gen_random_rooted_dag(1, 0.5, 0)
        assert d.vertex_count == 1 and d.arcs == ()

    def test_p_zero_gives_tree(self):
        for seed in range(5):
            d = gen_random_rooted_dag(30, 0.0, seed)
            assert len(d.arcs) == 29
            assert all(len(d.in_adj[v]) == 1 for v in range(30) if v != d.root)

    def test_p_one_gives_complete_order(self):
        d = gen_random_rooted_dag(10, 1.0, 4)
        assert len(d.arcs) == 45

    def test_subnormal_p_gives_tree(self):
        # log1p(-p) is subnormal, so the first skip is infinite
        d = gen_random_rooted_dag(10, 1e-320, 0)
        assert len(d.arcs) == 9

    def test_sparse_skipping_matches_density(self):
        # p = 0.3 over C(40, 2) optional slots plus 39 mandatory arcs
        total = sum(len(gen_random_rooted_dag(40, 0.3, s).arcs) for s in range(40))
        expected = 40 * (39 + 0.3 * (780 - 39))
        assert abs(total - expected) / expected < 0.1

    def test_rejects_bad_parameters(self):
        with pytest.raises(MalformedInput):
            gen_random_rooted_dag(0, 0.5, 1)
        with pytest.raises(MalformedInput):
            gen_random_rooted_dag(5, -0.1, 1)
        with pytest.raises(MalformedInput):
            gen_random_rooted_dag(5, 1.5, 1)


class TestAdversarialFamily:
    def test_shape(self):
        d = gen_adversarial_family(1)
        m = 3
        assert d.vertex_count == 4 * m + 2
        assert len(d.out_adj[0]) == m + 1
        assert len(d.out_adj[m + 1]) == 3 * m

    def test_rejects_k_zero(self):
        with pytest.raises(MalformedInput):
            gen_adversarial_family(0)

    def test_measured_ratios(self):
        expected = {
            1: (10, 12),
            2: (13, 16),
            3: (16, 20),
        }
        for k, (alg, opt) in expected.items():
            d = gen_adversarial_family(k)
            t, rep = max_leaves(d)
            assert rep.leaf_count == alg
            value, _ = exact_max_leaves(d)
            assert value == opt
            assert Fraction(opt, alg) <= Fraction(3, 2)

    def test_certified_for_larger_k(self):
        for k in (10, 25, 50):
            d = gen_adversarial_family(k)
            t, rep = max_leaves(d)
            assert t.is_spanning_arborescence()
            assert rep.certificate_ok


class TestReduction:
    def test_empty_graph(self):
        g = UndirectedGraphInstance.build(3, [])
        d = reduce_independent_set(g)
        assert d.vertex_count == 4
        assert len(d.arcs) == 3

    def test_single_edge(self):
        g = UndirectedGraphInstance.build(2, [(0, 1)])
        d = reduce_independent_set(g)
        assert d.vertex_count == 4
        assert len(d.arcs) == 4
        assert max(len(d.in_adj[v]) for v in range(4)) == 2

    def test_build_rejects_float_ids(self):
        with pytest.raises(MalformedInput):
            UndirectedGraphInstance.build(3, [(0.0, 1)])

    @pytest.mark.parametrize("edge", [(0, "1"), ("0", 1), (0, 1, 2), (0,), 5, None],
                             ids=["str-head", "str-tail", "triple", "single", "int", "none"])
    def test_build_rejects_edges_that_are_not_int_pairs(self, edge):
        # the ids are checked before the edge is oriented, so no bare TypeError
        with pytest.raises(MalformedInput):
            UndirectedGraphInstance.build(3, [edge])

    def test_build_merges_repeats_in_either_orientation(self):
        g = UndirectedGraphInstance.build(3, [(1, 0), (0, 1), (2, 1), (1, 0)])
        assert g.edges == ((0, 1), (1, 2))

    def test_triangle_weighted_optimum(self):
        g = UndirectedGraphInstance.build(3, [(0, 1), (0, 2), (1, 2)])
        d = reduce_independent_set(g)
        assert d.vertex_count == 7
        assert len(d.arcs) == 9
        value, t = exact_max_leaves(d, objective="leaf_weight")
        assert value == 1  # triangle independence number
        assert leaves_to_independent_set(t) <= {0, 1, 2}
        assert len(leaves_to_independent_set(t)) == 1

    def test_edgeless_graph_maps_back_to_everything(self):
        g = UndirectedGraphInstance.build(4, [])
        d = reduce_independent_set(g)
        _, t = exact_max_leaves(d, objective="leaf_weight")
        assert leaves_to_independent_set(t) == {0, 1, 2, 3}

    def test_round_trip_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_undirected(rng, rng.randint(1, 7), 0.4)
            d = reduce_independent_set(g)
            value, t = exact_max_leaves(d, objective="leaf_weight")
            chosen = leaves_to_independent_set(t)
            best, witness = brute_force_max_independent_set(g)
            assert value == best
            assert len(chosen) >= best  # weight-1 leaves == weighted value
            # independence of the mapped-back set
            for u, v in g.edges:
                assert not (u in chosen and v in chosen)

    def test_rejects_non_reduced_instance(self):
        d = build_digraph(3, 0, [(0, 1), (0, 2)])
        _, t = exact_max_leaves(d)
        with pytest.raises(NotReducedInstance):
            leaves_to_independent_set(t)


class TestBruteForceIndependentSet:
    def test_triangle(self):
        g = UndirectedGraphInstance.build(3, [(0, 1), (0, 2), (1, 2)])
        assert brute_force_max_independent_set(g)[0] == 1

    def test_edgeless(self):
        g = UndirectedGraphInstance.build(5, [])
        size, chosen = brute_force_max_independent_set(g)
        assert size == 5 and chosen == set(range(5))

    def test_petersen(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        g = UndirectedGraphInstance.build(10, outer + spokes + inner)
        assert brute_force_max_independent_set(g)[0] == 4

    def test_guard(self):
        g = UndirectedGraphInstance.build(21, [])
        with pytest.raises(TooLarge):
            brute_force_max_independent_set(g)

    def test_matches_exhaustive_subset_check(self):
        rng = random.Random(19)
        for _ in range(40):
            g = random_undirected(rng, rng.randint(1, 8), 0.35)
            size, chosen = brute_force_max_independent_set(g)
            edges = set(g.edges)
            best = max(
                len(s)
                for r in range(g.vertex_count + 1)
                for s in itertools.combinations(range(g.vertex_count), r)
                if all((u, v) not in edges for u, v in itertools.combinations(s, 2))
            )
            assert size == best
            assert all(
                (u, v) not in edges for u, v in itertools.combinations(sorted(chosen), 2)
            )


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        d = gen_random_rooted_dag(25, 0.3, 11)
        p = tmp_path / "i.json"
        write_instance(d, p, provenance="random n=25 p=0.3 seed=11")
        assert read_instance(p) == d

    def test_round_trip_on_random_corpus(self, tmp_path):
        p = tmp_path / "i.json"
        for d in random_dag_corpus(40, 1, 60, seed=21):
            write_instance(d, p)
            back = read_instance(p)
            assert back == d and hash(back) == hash(d)
            assert (back.arcs, back.out_adj, back.in_adj, back.order) == (
                d.arcs, d.out_adj, d.in_adj, d.order)

    def test_written_as_one_line_of_compact_json(self, tmp_path):
        d = build_digraph(4, 0, [(0, 2), (0, 1), (1, 3), (2, 3)])
        p = tmp_path / "i.json"
        write_instance(d, p)
        assert p.read_text() == (
            '{"arcs":[[0,1],[0,2],[1,3],[2,3]],"n":4,"root":0,"version":1}\n'
        )

    def test_weighted_round_trip(self, tmp_path):
        g = UndirectedGraphInstance.build(3, [(0, 1)])
        d = reduce_independent_set(g)
        p = tmp_path / "w.json"
        write_instance(d, p)
        back = read_instance(p)
        assert back == d
        assert back.vertex_weights == d.vertex_weights

    def test_parse_error_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ not json")
        with pytest.raises(ParseError):
            read_instance(p)

    def test_parse_error_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_instance(tmp_path / "absent.json")

    def test_parse_error_cycle_keeps_cause(self, tmp_path):
        p = tmp_path / "cycle.json"
        p.write_text(
            '{"version": 1, "n": 3, "root": 0,'
            ' "arcs": [[0, 1], [1, 2], [2, 0]]}'
        )
        with pytest.raises(ParseError) as info:
            read_instance(p)
        assert isinstance(info.value.__cause__, CycleDetected)

    def test_declared_n_does_not_size_memory(self, tmp_path):
        # 2 arcs cannot span 200k vertices: rejected before any list of length n
        p = tmp_path / "huge_n.json"
        p.write_text('{"version": 1, "n": 200000, "root": 0, "arcs": [[0, 1], [1, 2]]}')
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as info:
                read_instance(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(info.value.__cause__, NotRooted)
        assert peak < 1_000_000

    def test_parse_error_wrong_weight_length(self, tmp_path):
        p = tmp_path / "w.json"
        p.write_text(
            '{"version": 1, "n": 2, "root": 0, "arcs": [[0, 1]], "weights": [3]}'
        )
        with pytest.raises(ParseError):
            read_instance(p)

    @pytest.mark.parametrize(
        "body",
        [
            "[1, 2, 3]",
            '{"version": 2, "n": 1, "root": 0, "arcs": []}',
            '{"version": true, "n": 1, "root": 0, "arcs": []}',
            '{"version": 1.0, "n": 1, "root": 0, "arcs": []}',
            '{"version": 1, "root": 0, "arcs": []}',
            '{"version": 1, "n": 2, "root": 0, "arcs": [[0, 1, 2]]}',
            '{"version": 1, "n": 2, "root": 0, "arcs": [[0, "x"]]}',
            '{"version": 1, "n": true, "root": 0, "arcs": []}',
            '{"version": 1, "n": 2, "root": false, "arcs": [[0, 1]]}',
            '{"version": 1, "n": 2, "root": 0, "arcs": [[false, true]]}',
            '{"version": 1, "n": 2, "root": 0, "arcs": [[0, 1]], "weights": [1, true]}',
            '{"version": 1, "n": 2, "root": 0, "arcs": [[0, 1.0]]}',
            '{"version": 1, "n": 2, "root": 0, "arcs": [[0, [1]]]}',
            '{"version": 1, "n": 2, "root": 0, "arcs": [{"0": 1, "1": 0}]}',
            '{"version": 1, "n": 2, "root": 0, "arcs": ["01"]}',
            '{"version": 1, "n": 2, "root": 0, "arcs": [null]}',
            '{"version": 1, "n": 3, "root": 0, "arcs": [[0, 1], [0, 1]]}',
            '{"version": 1, "n": 3, "root": 0, "arcs": [[0, 1], [1, 1]]}',
            '{"version": 1, "n": 3, "root": 0, "arcs": [[0, 1], [-1, 2]]}',
            pytest.param("[" * 100_000, id="nested-deeper-than-the-decoder-recurses"),
            pytest.param('{"version": 1, "n": ' + "1" * 5000 + ', "root": 0, "arcs": []}',
                         id="int-too-long-to-convert"),
        ],
    )
    def test_parse_error_shapes(self, tmp_path, body):
        p = tmp_path / "shape.json"
        p.write_text(body)
        with pytest.raises(ParseError):
            read_instance(p)

    def test_dot_output_stable(self, tmp_path):
        d = build_digraph(3, 0, [(0, 1), (1, 2)])
        p1, p2 = tmp_path / "a.dot", tmp_path / "b.dot"
        write_dot(d, p1)
        write_dot(d, p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert "0 -> 1" in text and "doublecircle" in text

    def test_dot_marks_branching_arcs(self, tmp_path):
        d = build_digraph(3, 0, [(0, 1), (0, 2)])
        _, t = exact_max_leaves(d)
        p = tmp_path / "t.dot"
        write_dot(t, p)
        assert p.read_text().count("style=bold") == 2
