import gc
import random
from fractions import Fraction

import pytest

from leafspan import (
    Branching,
    GREEDY_PACKER,
    PackSet,
    Packer,
    PreconditionViolated,
    TooLarge,
    attach,
    build_digraph,
    exact_max_leaves,
    expansion_baseline,
    gen_random_rooted_dag,
    greedy_expand,
    max_expand,
    max_leaves,
    max_leaves_packing,
    pack_exact,
    pack_greedy,
)
from leafspan.certificates import two_phase_bounds
from oracles import (
    add_expansion,
    available_heads,
    brute_force_matching,
    brute_force_max_leaves,
    random_dag_corpus,
    reference_greedy_expand,
)


def star(k):
    return build_digraph(k + 1, 0, [(0, i) for i in range(1, k + 1)])


def path(n):
    return build_digraph(n, 0, [(i, i + 1) for i in range(n - 1)])


def shared_head_instance():
    """Two 2-expansion candidates whose head sets share one vertex.

    Root 0 expands fully in the 3-phase (children 1..5); candidates are then
    v1=4 with heads {6, 7} and v2=5 with heads {6, 8}.
    """
    arcs = [(0, i) for i in range(1, 6)]
    arcs += [(4, 6), (4, 7), (5, 6), (5, 8)]
    return build_digraph(9, 0, arcs)


class TestGreedyExpand:
    def test_star_three_children(self):
        d = star(3)
        f = greedy_expand(d, 3)
        assert f.stats().leaves == 3
        assert f.out_degree[0] == 3

    def test_star_two_children_unchanged(self):
        d = star(2)
        f = greedy_expand(d, 3)
        assert f.stats().arcs == 0

    def test_nonpositive_t_rejected(self):
        with pytest.raises(PreconditionViolated):
            greedy_expand(star(3), 0)

    def test_output_is_maximal_t_branching_on_random_dags(self):
        for i, d in enumerate(random_dag_corpus(100, 1, 25, seed=21)):
            for t in (1, 2, 3):
                f = greedy_expand(d, t)
                assert f.is_t_branching(t)
                assert f.is_maximal(t)
                # no internal vertex keeps an in-degree-0 out-neighbor
                assert not any(
                    f.out_degree[v] and available_heads(f, v) for v in range(d.vertex_count)
                )


    def test_matches_reference_loop_on_random_dags(self):
        for d in random_dag_corpus(150, 1, 30, seed=31):
            for t in range(1, 6):
                f, ref = greedy_expand(d, t), reference_greedy_expand(d, t)
                assert (f.parent, f.out_degree) == (ref.parent, ref.out_degree)


class TestMaxExpand:
    def test_no_candidates_returns_input(self):
        d = star(4)
        f = greedy_expand(d, 3)
        f2, size = max_expand(f)
        assert size == 0
        assert f2.arcs() == f.arcs()

    def test_shared_head_forces_single_expansion(self):
        d = shared_head_instance()
        f1 = greedy_expand(d, 3)
        assert f1.out_degree[0] == 5
        f2, size = max_expand(f1)
        # oracle: both candidate edges share head 6, so only one fits
        assert brute_force_matching(9, [(6, 7), (6, 8)]) is not None
        assert len(brute_force_matching(9, [(6, 7), (6, 8)])) == 1
        assert size == 1
        # tie-break picks the smaller candidate id
        assert f2.out_degree[4] == 2
        assert f2.out_degree[5] == 0

    def test_applied_count_matches_brute_force_on_random_dags(self):
        for d in random_dag_corpus(300, 1, 14, seed=23):
            f1 = greedy_expand(d, 3)
            # derive the collapsed candidate graph independently
            pairs = set()
            for v in range(d.vertex_count):
                if f1.out_degree[v] == 0:
                    heads = available_heads(f1, v)
                    if len(heads) == 2:
                        pairs.add(tuple(sorted(heads)))
            f2, size = max_expand(f1)
            applied = sum(
                1 for v in range(d.vertex_count)
                if f1.out_degree[v] == 0 and f2.out_degree[v] == 2
            )
            assert applied == size
            if len(pairs) <= 25:
                oracle = brute_force_matching(d.vertex_count, sorted(pairs))
                assert size == len(oracle)
            assert f2.is_t_branching(2)

    def test_precondition_rejected(self):
        d = star(3)
        with pytest.raises(PreconditionViolated):
            max_expand(Branching(d))  # not maximal for t=3


class TestMaxLeaves:
    def test_star(self):
        d = star(6)
        t, rep = max_leaves(d)
        assert rep.leaf_count == 6
        assert t.is_spanning_arborescence()

    def test_path(self):
        d = path(4)
        t, rep = max_leaves(d)
        assert rep.leaf_count == 1
        assert rep.certificate_ok

    def test_worked_bound_numbers(self):
        lb, u2, u3 = two_phase_bounds(25, 3, 30, 4)
        assert lb == Fraction(53, 3)
        assert u2 == 27
        assert u3 == 25

    def test_spanning_and_certified_on_random_dags(self):
        for d in random_dag_corpus(200, 1, 20, seed=31):
            t, rep = max_leaves(d)
            assert t.is_spanning_arborescence()
            assert rep.certificate_ok
            # leaves lost in the matching phase equal the matching size
            s1, s2 = rep.phase_stats["F1"], rep.phase_stats["F2"]
            lost = s1.leaves - s2.leaves
            assert lost == rep.counts["matching_size"]
            assert 2 * lost == (s2.N - s2.k) - (s1.N - s1.k)
            assert s1.N - s1.k <= s2.N - s2.k


class TestBaseline:
    def test_star(self):
        d = star(5)
        t, rep = expansion_baseline(d)
        assert rep.leaf_count == 5

    def test_half_of_optimum_on_random_dags(self):
        for d in random_dag_corpus(120, 3, 12, seed=37):
            t, rep = expansion_baseline(d)
            assert t.is_spanning_arborescence()
            opt, _ = exact_max_leaves(d)
            assert 2 * rep.leaf_count >= opt


class TestMaxLeavesPacking:
    def test_star_four_children_single_expansion(self):
        d = star(4)
        t, rep = max_leaves_packing(d)
        assert rep.leaf_count == 4
        assert rep.counts["selected_triples"] == 0 and rep.counts["selected_pairs"] == 0

    def test_star_three_children_selects_triple(self):
        d = star(3)
        t, rep = max_leaves_packing(d)
        assert rep.counts["selected_triples"] == 1
        assert rep.counts["selected_pairs"] == 0
        assert rep.leaf_count == 3

    def test_certified_with_both_packers_on_random_dags(self):
        for d in random_dag_corpus(120, 1, 14, seed=41):
            for packer in (GREEDY_PACKER,):
                t, rep = max_leaves_packing(d, packer)
                assert t.is_spanning_arborescence()
                assert rep.certificate_ok
            t, rep = max_leaves_packing(d)
            assert rep.certificate_ok
            opt, _ = exact_max_leaves(d)
            assert 3 * opt <= 4 * rep.leaf_count  # exact packer: ratio 4/3
            assert opt <= rep.bounds["ub_lemma5"]

    def test_user_packer_certifies_with_its_claimed_alpha(self):
        packer = Packer("mine", Fraction(2), pack_greedy)
        for d in random_dag_corpus(40, 3, 14, seed=43):
            t, rep = max_leaves_packing(d, packer)
            assert rep.algorithm == "w3dm-mine" and rep.certificate_ok
            assert rep.to_dict()["claimed_alpha"] == "2"

    def test_packer_receives_ascending_sets_with_their_subsets(self):
        # the PackSet contract every Packer may rely on: members strictly
        # ascending ints; one own set per candidate, weight len - 1, within
        # its out-neighbors; a triple comes with exactly its three 2-subsets
        triples = 0
        for d in random_dag_corpus(150, 3, 30, seed=47):
            received = []

            def spy(sets):
                received.extend(sets)
                return pack_greedy(sets)

            max_leaves_packing(d, Packer("spy", Fraction(3), spy))
            groups = {}
            for s in received:
                assert type(s) is PackSet
                assert all(type(x) is int for x in s.members)
                assert all(a < b for a, b in zip(s.members, s.members[1:]))
                groups.setdefault(s.candidate, []).append(s)
            for v, group in groups.items():
                own = max(group, key=lambda s: len(s.members))
                assert len(own.members) in (2, 3)
                assert own.weight == len(own.members) - 1
                assert set(own.members) <= set(d.out_adj[v])
                rest = sorted(s for s in group if s is not own)
                if len(own.members) == 3:
                    a, b, c = own.members
                    triples += 1
                    assert rest == [PackSet((a, b), 1, v), PackSet((a, c), 1, v),
                                    PackSet((b, c), 1, v)]
                else:
                    assert rest == []
        assert triples > 0


class TestExactOracle:
    def test_star(self):
        assert exact_max_leaves(star(7))[0] == 7

    def test_diamond(self):
        d = build_digraph(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)])
        value, t = exact_max_leaves(d)
        assert value == 2
        assert t.is_spanning_arborescence()

    def test_guard(self):
        d = gen_random_rooted_dag(60, 0.5, 3)
        with pytest.raises(TooLarge):
            exact_max_leaves(d)

    def test_matches_brute_force_on_both_objectives(self):
        rng = random.Random(44)
        for d in random_dag_corpus(200, 1, 10, seed=43):
            value, t = exact_max_leaves(d)
            assert value == brute_force_max_leaves(d) == t.leaf_count
            weights = [rng.randint(0, 9) for _ in range(d.vertex_count)]
            w = build_digraph(d.vertex_count, d.root, d.arcs, weights=weights)
            value, t = exact_max_leaves(w, objective="leaf_weight")
            assert value == brute_force_max_leaves(w, "leaf_weight") == t.leaf_weight()

    def test_searches_leave_no_reference_cycles(self):
        # their state must be freed on return, not at the next full gc
        d = build_digraph(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)])
        sets = [PackSet((1, 2), 1, 0), PackSet((2, 3), 1, 1)]
        gc.collect()
        gc.disable()
        try:
            exact_max_leaves(d)
            pack_exact(sets)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_weighted_objective(self):
        d = build_digraph(
            4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)], weights=[0, 5, 1, 1]
        )
        value, t = exact_max_leaves(d, objective="leaf_weight")
        # keep vertex 1 a leaf: parent of 3 must be 2
        assert value == 6
        assert t.parent[3] == 2


class TestParentFunctions:
    def test_every_parent_function_is_spanning_arborescence(self):
        rng = random.Random(51)
        for d in random_dag_corpus(80, 2, 20, seed=53):
            parents = [None] * d.vertex_count
            for v in range(d.vertex_count):
                if v != d.root:
                    parents[v] = rng.choice(d.in_adj[v])
            b = Branching.from_parents(d, parents)
            assert b.is_spanning_arborescence()


class TestAttach:
    def test_prefers_internal_parent(self):
        # 3 reachable via internal 1 or leaf 2; attach must not cost a leaf
        d = build_digraph(5, 0, [(0, 1), (0, 2), (1, 4), (1, 3), (2, 3)])
        f = add_expansion(add_expansion(Branching(d), 0, [1, 2]), 1, [4])
        t = attach(f)
        assert t.parent[3] == 1
        assert t.is_spanning_arborescence()

    def test_handles_vertices_with_only_internal_in_neighbors(self):
        # after a partial expansion, 3's only in-neighbor is internal
        d = build_digraph(4, 0, [(0, 1), (0, 2), (0, 3)])
        f = add_expansion(Branching(d), 0, [1, 2])
        t = attach(f)
        assert t.is_spanning_arborescence()
        assert t.parent[3] == 0
