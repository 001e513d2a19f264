import errno
import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import leafspan
from leafspan import (
    Branching,
    CycleDetected,
    MalformedInput,
    NotRooted,
    ParseError,
    TooLarge,
    UndirectedGraphInstance,
    build_digraph,
    exact_max_leaves,
    gen_adversarial_family,
    gen_random_rooted_dag,
    max_leaves,
    max_matching,
    read_instance,
    reduce_independent_set,
    write_dot,
    write_instance,
)
from leafspan.cli import ALGORITHMS, main
from leafspan.instances import _read_all, _write_in_place, read_json_object, write_json_object
from oracles import (
    brute_force_max_independent_set,
    digraph_arcs,
    graph_fields,
    instance_v1,
    leaves_to_independent_set,
    random_dag_corpus,
)


def random_undirected(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return UndirectedGraphInstance.build(n, edges)


class TestGenerator:
    def test_deterministic_bytes(self, tmp_path):
        a = gen_random_rooted_dag(50, 0.2, 7)
        b = gen_random_rooted_dag(50, 0.2, 7)
        assert graph_fields(a) == graph_fields(b)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_instance(a, pa)
        write_instance(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        # recorded instance bytes: a rework of the generator must draw and
        # write the same graphs, from the tree and the infinite first skip
        # to the complete order
        recorded = {
            (1, 0.5, 0): "2e3445e75752d5c376ea56c48a49f756ee5c86a5a04fb1923371cb21cf36645f",
            (2, 1.0, 3): "254cc4dadc4575d3b234387910d783f5086c5b5d16b1d4e3ee12d874ba16c452",
            (30, 0.0, 5): "d7e5beb275dd95cca9ed2ea291039a9069b7a00e72ce634cc15c90552611949d",
            (10, 1.0, 4): "ad70b7b762cd0abc6b89742b37dc2c40c8703702e657966719739e3f795b638c",
            (10, 1e-320, 0): "0d4030070a67c34782bdbaf4ee968d85d2626064a6e8538178e0a782fc7861f8",
            (2000, 0.002, 11): "a6b44ad856d5719511c3cc3d57e57c1d37192578c0f523c4094d4a84426a87b0",
        }
        for (n, p, seed), digest in recorded.items():
            write_instance(gen_random_rooted_dag(n, p, seed), pa)
            assert hashlib.sha256(pa.read_bytes()).hexdigest() == digest, (n, p, seed)

    def test_peak_memory_is_a_small_multiple_of_the_graph(self):
        # the heads are filed under their tails as they are drawn: an arc
        # list held beside the head lists took the peak to 4.3 times the graph
        n = 48_000
        tracemalloc.start()
        try:
            d = gen_random_rooted_dag(n, 4 / n, 1)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.vertex_count == n
        assert peak <= 4 * retained

    def test_different_seed_differs(self):
        a, b = gen_random_rooted_dag(50, 0.2, 7), gen_random_rooted_dag(50, 0.2, 8)
        assert graph_fields(a) != graph_fields(b)

    def test_single_vertex(self):
        d = gen_random_rooted_dag(1, 0.5, 0)
        assert d.vertex_count == 1 and digraph_arcs(d) == ()

    def test_p_zero_gives_tree(self):
        for seed in range(5):
            d = gen_random_rooted_dag(30, 0.0, seed)
            assert len(digraph_arcs(d)) == 29
            assert all(len(d.in_adj[v]) == 1 for v in range(30) if v != d.root)

    def test_p_one_gives_complete_order(self):
        d = gen_random_rooted_dag(10, 1.0, 4)
        assert len(digraph_arcs(d)) == 45

    def test_subnormal_p_gives_tree(self):
        # log1p(-p) is subnormal, so the first skip is infinite
        d = gen_random_rooted_dag(10, 1e-320, 0)
        assert len(digraph_arcs(d)) == 9

    def test_sparse_skipping_matches_density(self):
        # p = 0.3 over C(40, 2) optional slots plus 39 mandatory arcs
        total = sum(len(digraph_arcs(gen_random_rooted_dag(40, 0.3, s))) for s in range(40))
        expected = 40 * (39 + 0.3 * (780 - 39))
        assert abs(total - expected) / expected < 0.1

    def test_rejects_bad_parameters(self):
        with pytest.raises(MalformedInput):
            gen_random_rooted_dag(0, 0.5, 1)
        with pytest.raises(MalformedInput):
            gen_random_rooted_dag(5, -0.1, 1)
        with pytest.raises(MalformedInput):
            gen_random_rooted_dag(5, 1.5, 1)

    def test_pinned_output_digest(self):
        # recorded before the pair walk was rewritten; every density, from
        # the tree (p = 0) and an infinite first skip (1e-320) to the
        # complete order (p = 1), must keep its arcs and their order
        grid = [
            (n, p, seed)
            for n in (1, 2, 3, 17, 200)
            for p in (0, 1e-320, 0.001, 0.3, 0.999, 1)
            for seed in (0, 1, 2)
        ] + [(12000, 1 / 3000, seed) for seed in (1, 7)]
        h = hashlib.sha256()
        for n, p, seed in grid:
            d = gen_random_rooted_dag(n, p, seed)
            h.update(repr((d.root, d.out_adj)).encode())
        assert h.hexdigest() == (
            "b9ef41ea0d96f02effa857ea5f43f50031c7118d99c4b124314e13eb624c5bf3"
        )

    def test_negative_seed_is_valid(self):
        # the command line's --seed accepts negative integers
        assert gen_random_rooted_dag(5, 0.5, -3).vertex_count == 5


@pytest.mark.parametrize("make", [
    lambda: gen_random_rooted_dag(3.0, 0.5, 1),
    lambda: gen_random_rooted_dag(5, True, 1),
    lambda: gen_adversarial_family(2.0),
    lambda: gen_adversarial_family(True),
    lambda: UndirectedGraphInstance.build(3.0, [(0, 1)]),
    lambda: UndirectedGraphInstance.build(True, []),
    lambda: UndirectedGraphInstance(3, [(0, True)]),
    lambda: gen_random_rooted_dag(5, 0.5, [1]),
    lambda: gen_random_rooted_dag(5, 0.5, 1.5),
    lambda: gen_random_rooted_dag(5, 0.5, "x"),
    lambda: gen_random_rooted_dag(5, 0.5, True),
    lambda: max_matching(3, None),
    lambda: UndirectedGraphInstance(3, None),
    lambda: max_matching(3.0, []),
    lambda: max_matching(None, []),
    lambda: max_matching(True, []),
    lambda: max_matching(-1, []),
    lambda: build_digraph(3, 0, None),
    lambda: build_digraph(3, 0, 5),
    lambda: build_digraph(3, 0, [(0, 1), (0, 2)], 5),
    lambda: Branching.from_arcs(build_digraph(2, 0, [(0, 1)]), [5]),
    lambda: Branching.from_arcs(build_digraph(2, 0, [(0, 1)]), None),
    lambda: Branching.from_parents(build_digraph(2, 0, [(0, 1)]), None),
    lambda: exact_max_leaves(build_digraph(2, 0, [(0, 1)]), "x"),
    lambda: build_digraph(2, 0, [(0, 1)], [0, -1]),
    lambda: Branching(build_digraph(2, 0, [(0, 1)])).leaf_weight(),
], ids=["dag-float-n", "dag-bool-p", "family-float-k", "family-bool-k",
        "build-float-n", "build-bool-n", "constructor-bool-id", "dag-list-seed",
        "dag-float-seed", "dag-str-seed", "dag-bool-seed", "matching-none-edges",
        "constructor-none-edges", "matching-float-n", "matching-none-n",
        "matching-bool-n", "matching-negative-n", "digraph-none-arcs",
        "digraph-int-arcs", "digraph-int-weights", "from-arcs-int-arc",
        "from-arcs-none", "from-parents-none", "oracle-unknown-objective",
        "digraph-negative-weight", "leaf-weight-unweighted"])
def test_non_integer_sizes_and_ids_are_malformed(make):
    # each once built a graph from the bool or the negative count, seeded
    # from the float or string, or raised a bare TypeError or ValueError
    with pytest.raises(MalformedInput):
        make()


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
        assert len(digraph_arcs(d)) == 3

    def test_single_edge(self):
        g = UndirectedGraphInstance.build(2, [(0, 1)])
        d = reduce_independent_set(g)
        assert d.vertex_count == 4
        assert len(digraph_arcs(d)) == 4
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
        assert UndirectedGraphInstance(3, [(2, 1), (1, 0), (0, 1)]) == g

    def test_triangle_weighted_optimum(self):
        g = UndirectedGraphInstance.build(3, [(0, 1), (0, 2), (1, 2)])
        d = reduce_independent_set(g)
        assert d.vertex_count == 7
        assert len(digraph_arcs(d)) == 9
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
        assert graph_fields(read_instance(p)) == graph_fields(d)

    def test_round_trip_on_random_corpus(self, tmp_path):
        p = tmp_path / "i.json"
        for d in random_dag_corpus(40, 1, 60, seed=21):
            write_instance(d, p)
            assert graph_fields(read_instance(p)) == graph_fields(d)

    def test_written_as_one_line_of_compact_json(self, tmp_path):
        d = build_digraph(4, 0, [(0, 2), (0, 1), (1, 3), (2, 3)])
        p = tmp_path / "i.json"
        write_instance(d, p)
        assert p.read_text() == (
            '{"n":4,"out":[[1,2],[3],[3],[]],"root":0,"version":2}\n'
        )

    def test_weighted_round_trip(self, tmp_path):
        g = UndirectedGraphInstance.build(3, [(0, 1)])
        d = reduce_independent_set(g)
        p = tmp_path / "w.json"
        write_instance(d, p)
        back = read_instance(p)
        assert back.vertex_weights == (0, 1, 1, 1, 0)
        assert graph_fields(back) == graph_fields(d)

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

    def test_declared_n_does_not_size_memory_in_format_2(self, tmp_path):
        # 2 head lists cannot be 200k: rejected before any list of length n
        p = tmp_path / "huge_n.json"
        p.write_text('{"version": 2, "n": 200000, "root": 0, "out": [[1], [2]]}')
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as info:
                read_instance(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(info.value.__cause__, MalformedInput)
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
            '{"version": 3, "n": 1, "root": 0, "out": [[]]}',
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
        d = build_digraph(3, 0, [(0, 1), (1, 2), (0, 2)])
        t = Branching.from_parents(d, [None, 0, 1])
        p1, p2 = tmp_path / "a.dot", tmp_path / "b.dot"
        write_dot(t, p1)
        write_dot(t, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # every host arc in lexicographic order, the arborescence's drawn bold
        assert p1.read_text() == (
            "digraph instance {\n"
            "  0 [shape=doublecircle];\n"
            "  1;\n"
            "  2;\n"
            "  0 -> 1 [style=bold, penwidth=2];\n"
            "  0 -> 2;\n"
            "  1 -> 2 [style=bold, penwidth=2];\n"
            "}\n"
        )
        # a weighted host labels every vertex with its weight, the root too
        d = reduce_independent_set(UndirectedGraphInstance.build(2, [(0, 1)]))
        write_dot(Branching.from_parents(d, [None, 0, 0, 1]), p1)
        assert p1.read_bytes() == (
            b"digraph instance {\n"
            b'  0 [shape=doublecircle, label="0 w=0"];\n'
            b'  1 [label="1 w=1"];\n'
            b'  2 [label="2 w=1"];\n'
            b'  3 [label="3 w=0"];\n'
            b"  0 -> 1 [style=bold, penwidth=2];\n"
            b"  0 -> 2 [style=bold, penwidth=2];\n"
            b"  1 -> 3 [style=bold, penwidth=2];\n"
            b"  2 -> 3;\n"
            b"}\n"
        )

    def test_dot_marks_branching_arcs(self, tmp_path):
        d = build_digraph(3, 0, [(0, 1), (0, 2)])
        _, t = exact_max_leaves(d)
        p = tmp_path / "t.dot"
        write_dot(t, p)
        assert p.read_text().count("style=bold") == 2


# Version 2 bodies (the fields after "version": 2), each with one fault, or
# several to pin which is reported: after the shape of out and the arc count,
# the validator names the first head, in tail order, that is not an id in
# range or equals its tail, else the first list out of order, then checks the
# weights, then runs the Kahn pass
FORMAT_2_ERRORS = {
    "out-missing": ('"n": 3, "root": 0',
                    "MalformedInput: out must be a list of head lists, got None"),
    "out-int": ('"n": 3, "root": 0, "out": 5',
                "MalformedInput: out must be a list of head lists, got 5"),
    "out-object": ('"n": 3, "root": 0, "out": {"0": [1]}',
                   "MalformedInput: out must be a list of head lists, got {'0': [1]}"),
    "out-too-short": ('"n": 3, "root": 0, "out": [[1, 2], [2]]',
                      "MalformedInput: out has length 2, expected 3"),
    "out-too-long": ('"n": 2, "root": 0, "out": [[1], [], []]',
                     "MalformedInput: out has length 3, expected 2"),
    "heads-int": ('"n": 3, "root": 0, "out": [[1, 2], 5, []]',
                  "MalformedInput: heads of 1 must be a list, got 5"),
    "heads-null": ('"n": 3, "root": 0, "out": [[1, 2], [2], null]',
                   "MalformedInput: heads of 2 must be a list, got None"),
    "heads-string": ('"n": 3, "root": 0, "out": [[1, 2], "2", []]',
                     "MalformedInput: heads of 1 must be a list, got '2'"),
    "bool-head": ('"n": 3, "root": 0, "out": [[1, true], [2], []]',
                  "MalformedInput: arc (0, True) is not a pair of distinct integer "
                  "vertex ids in [0, 3)"),
    "float-head": ('"n": 3, "root": 0, "out": [[1, 2.0], [2], []]',
                   "MalformedInput: arc (0, 2.0) is not a pair of distinct integer "
                   "vertex ids in [0, 3)"),
    "nested-head": ('"n": 3, "root": 0, "out": [[1, [2]], [2], []]',
                    "MalformedInput: arc (0, [2]) is not a pair of distinct integer "
                    "vertex ids in [0, 3)"),
    "head-out-of-range": ('"n": 3, "root": 0, "out": [[1, 3], [2], []]',
                          "MalformedInput: arc (0, 3) is not a pair of distinct integer "
                          "vertex ids in [0, 3)"),
    "negative-head": ('"n": 3, "root": 0, "out": [[-1, 1], [2], []]',
                      "MalformedInput: arc (0, -1) is not a pair of distinct integer "
                      "vertex ids in [0, 3)"),
    "self-loop": ('"n": 3, "root": 0, "out": [[1, 2], [1, 2], []]',
                  "MalformedInput: arc (1, 1) is not a pair of distinct integer "
                  "vertex ids in [0, 3)"),
    "descending-pair": ('"n": 3, "root": 0, "out": [[2, 1], [2], []]',
                        "MalformedInput: heads of 0 are not ascending: 1 after 2"),
    "equal-pair": ('"n": 3, "root": 0, "out": [[1, 1], [2], []]',
                   "MalformedInput: duplicate arc (0, 1)"),
    "too-few-heads": ('"n": 3, "root": 0, "out": [[1], [], []]',
                      "NotRooted: 1 arcs cannot span 3 vertices"),
    "cycle": ('"n": 4, "root": 0, "out": [[1], [2], [3], [1]]',
              "CycleDetected: input contains a directed cycle"),
    "second-source": ('"n": 4, "root": 0, "out": [[1], [3], [3], []]',
                      "NotRooted: vertex 2 unreachable from root 0"),
    "weights-not-iterable": ('"n": 2, "root": 0, "out": [[1], []], "weights": 7',
                             "MalformedInput: weights 7 must be iterable"),
    # several faults in one list
    "self-loop-beats-later-range-and-earlier-order": (
        '"n": 4, "root": 0, "out": [[3, 3, 0, 7], [2], [3], []]',
        "MalformedInput: arc (0, 0) is not a pair of distinct integer vertex ids in [0, 4)"),
    "self-loop-beats-order": (
        '"n": 4, "root": 0, "out": [[3, 2, 2, 0], [2], [3], []]',
        "MalformedInput: arc (0, 0) is not a pair of distinct integer vertex ids in [0, 4)"),
    "descending-before-equal": ('"n": 4, "root": 0, "out": [[2, 1, 1], [2], [3], []]',
                                "MalformedInput: heads of 0 are not ascending: 1 after 2"),
    "equal-before-descending": ('"n": 4, "root": 0, "out": [[1, 1, 3, 2], [2], [3], []]',
                                "MalformedInput: duplicate arc (0, 1)"),
    # faults in two lists
    "earlier-self-loop-beats-later-id": (
        '"n": 3, "root": 0, "out": [[0, 1], [2], [true]]',
        "MalformedInput: arc (0, 0) is not a pair of distinct integer vertex ids in [0, 3)"),
    "later-self-loop-beats-earlier-order": (
        '"n": 3, "root": 0, "out": [[2, 1], [1, 2], []]',
        "MalformedInput: arc (1, 1) is not a pair of distinct integer vertex ids in [0, 3)"),
    "order-beats-cycle": ('"n": 3, "root": 0, "out": [[2, 1], [2], [1]]',
                          "MalformedInput: heads of 0 are not ascending: 1 after 2"),
}


@pytest.mark.parametrize("fields, expected", FORMAT_2_ERRORS.values(), ids=FORMAT_2_ERRORS)
def test_format_2_faults_name_the_first_broken_rule(tmp_path, fields, expected):
    p = tmp_path / "bad.json"
    p.write_text('{"version": 2, ' + fields + "}")
    with pytest.raises(ParseError) as info:
        read_instance(p)
    cause = info.value.__cause__
    assert f"{type(cause).__name__}: {cause}" == expected
    assert str(info.value) == f"{p}: {cause}"


def format_corpus():
    """Graphs of every kind the generators make, weighted ones included."""
    rng = random.Random(23)
    weighted = [reduce_independent_set(random_undirected(rng, rng.randint(1, 7), 0.4))
                for _ in range(8)]
    adversarial = [gen_adversarial_family(k) for k in range(1, 7)]
    return random_dag_corpus(16, 1, 40, seed=23) + weighted + adversarial


def test_both_formats_read_and_solve_the_same(tmp_path):
    """A graph in a version 1 file, its arcs in reverse order, and in a
    version 2 file reads to the same graph, `leafspan solve` writes the same
    bytes from either file, and `leafspan verify` accepts each solution
    against the file it came from."""
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    for d in format_corpus():
        obj = instance_v1(d)
        write_json_object(v1, {**obj, "arcs": obj["arcs"][::-1]})
        write_instance(d, v2)
        assert graph_fields(read_instance(v1)) == graph_fields(read_instance(v2)) == graph_fields(d)
        for algo in ALGORITHMS:
            solutions = []
            for inst in (v1, v2):
                sol = tmp_path / f"{inst.stem}.sol.json"
                code = main(["solve", "--algo", algo, "--input", str(inst), "--output", str(sol)])
                solutions.append((code, sol.read_bytes() if code == 0 else None))
                if code == 0:
                    assert main(["verify", "--instance", str(inst), "--solution", str(sol)]) == 0
            assert solutions[0] == solutions[1]


_READ_PROVENANCE = "import sys; from leafspan.instances import read_json_object; " \
    "print(ascii(read_json_object(sys.argv[1])['provenance']))"


def test_utf8_provenance_reads_back_unchanged_under_any_locale(tmp_path):
    p = tmp_path / "utf8.json"
    p.write_bytes('{"version":2,"n":1,"root":0,"out":[[]],"provenance":"caf\u00e9"}'.encode())
    assert read_json_object(p)["provenance"] == "caf\u00e9"
    # a child Python whose locale encoding is ASCII: the C locale, not coerced
    # to UTF-8 and without UTF-8 mode
    src = os.path.dirname(os.path.dirname(leafspan.__file__))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _READ_PROVENANCE, str(p)],
                          env=env, capture_output=True, text=True, encoding="utf-8")
    assert (done.returncode, done.stdout, done.stderr) == (0, "'caf\\xe9'\n", "")


class TestWriteInPlace:
    def test_partial_writes_land_whole(self, tmp_path, monkeypatch):
        os_write, sizes = os.write, []

        def at_most_7(fd, data):
            sizes.append(os_write(fd, data[:7]))
            return sizes[-1]

        data = bytes(range(256)) * 3
        p = tmp_path / "out.bin"
        monkeypatch.setattr(os, "write", at_most_7)
        _write_in_place(p, data)
        monkeypatch.undo()
        assert p.read_bytes() == data
        assert sizes == [7] * (len(data) // 7) + [len(data) % 7]

    def test_a_longer_file_is_trimmed_to_the_new_length(self, tmp_path):
        p = tmp_path / "out.bin"
        p.write_bytes(b"x" * 100)
        _write_in_place(p, b"short")
        assert p.read_bytes() == b"short"

    def test_only_regular_files_are_truncated(self, tmp_path, monkeypatch):
        os_ftruncate, lengths = os.ftruncate, []

        def spy(fd, length):
            lengths.append(length)
            os_ftruncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", spy)
        _write_in_place(os.devnull, b"to the device")
        assert lengths == []
        _write_in_place(tmp_path / "out.bin", b"to a file")
        assert lengths == [9]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds in /proc")
    def test_a_failed_write_closes_the_descriptor(self, tmp_path, monkeypatch):
        # a leaked raw fd raises no ResourceWarning, so count the open ones
        def full(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        before = sorted(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "write", full)
        with pytest.raises(OSError):
            _write_in_place(tmp_path / "out.bin", b"data")
        monkeypatch.undo()
        assert sorted(os.listdir("/proc/self/fd")) == before


class TestReadJsonObject:
    def test_a_whole_first_read_is_returned_without_a_copy(self, tmp_path, monkeypatch):
        os_read, returned = os.read, []

        def spy(fd, size):
            returned.append((size, os_read(fd, size)))
            return returned[-1][1]

        p = tmp_path / "inst.json"
        write_instance(gen_random_rooted_dag(50, 0.1, 1), p)
        monkeypatch.setattr(os, "read", spy)
        data = _read_all(p)
        monkeypatch.undo()
        size = p.stat().st_size
        assert [(s, len(b)) for s, b in returned] == [(size + 1, size), (65536, 0)]
        assert data is returned[0][1]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="opens a pipe as /dev/fd/N")
    def test_a_pipe_reads_the_same_graph_as_the_file(self, tmp_path):
        # a pipe reports size 0 to fstat, so the read goes on past its first byte
        p = tmp_path / "inst.json"
        write_instance(gen_random_rooted_dag(800, 0.004, 1), p)
        data = p.read_bytes()
        assert 8_000 < len(data) < 16_000  # well under a 64 KiB pipe buffer
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            assert os.fstat(r).st_size == 0
            assert graph_fields(read_instance(f"/dev/fd/{r}")) == graph_fields(read_instance(p))
        finally:
            os.close(r)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds in /proc")
    def test_reads_leave_no_descriptor_open(self, tmp_path):
        # a leaked raw fd raises no ResourceWarning, so count the open ones
        good = tmp_path / "good.json"
        write_instance(gen_random_rooted_dag(20, 0.2, 1), good)
        bad = [tmp_path / "missing.json", tmp_path / "dir"]
        bad[1].mkdir()
        for name, body in [("latin-1", '{"p":"café"}'.encode("latin-1")),
                           ("bom", '{"p":1}'.encode("utf-8-sig")),
                           ("nan", b'{"p":NaN}'), ("list", b"[1]")]:
            bad.append(tmp_path / f"{name}.json")
            bad[-1].write_bytes(body)
        before = sorted(os.listdir("/proc/self/fd"))
        for i in range(200):
            with pytest.raises(ParseError):
                read_json_object(bad[i % len(bad)])
            assert read_json_object(good)["version"] == 2
        assert sorted(os.listdir("/proc/self/fd")) == before
