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
from oracles import brute_force_matching, random_dag_corpus


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
        f = greedy_expand(d, 3, Branching(d))
        assert f.stats().leaves == 3
        assert f.out_degree[0] == 3

    def test_star_two_children_unchanged(self):
        d = star(2)
        f = greedy_expand(d, 3, Branching(d))
        assert f.stats().arcs == 0

    def test_precondition_rejected(self):
        d = build_digraph(5, 0, [(0, 1), (0, 2), (1, 3), (1, 4)])
        two_branching = greedy_expand(d, 2, Branching(d))
        with pytest.raises(PreconditionViolated):
            greedy_expand(d, 2, two_branching)  # needs a 3-branching

    def test_t1_requires_internal_coverage(self):
        d = build_digraph(4, 0, [(0, 1), (0, 2), (0, 3)])
        bad = Branching(d).add_expansion(0, [1])  # 2 and 3 still free
        with pytest.raises(PreconditionViolated):
            greedy_expand(d, 1, bad)

    def test_output_is_maximal_t_branching_on_random_dags(self):
        for i, d in enumerate(random_dag_corpus(100, 1, 25, seed=21)):
            for t in (1, 2, 3):
                f = greedy_expand(d, t, Branching(d))
                assert f.is_t_branching(t)
                assert f.is_maximal(t)
                assert f.has_internal_coverage()


class TestMaxExpand:
    def test_no_candidates_returns_input(self):
        d = star(4)
        f = greedy_expand(d, 3, Branching(d))
        f2, size = max_expand(d, f)
        assert size == 0
        assert f2.arcs() == f.arcs()

    def test_shared_head_forces_single_expansion(self):
        d = shared_head_instance()
        f1 = greedy_expand(d, 3, Branching(d))
        assert f1.out_degree[0] == 5
        f2, size = max_expand(d, f1)
        # oracle: both candidate edges share head 6, so only one fits
        assert brute_force_matching(9, [(6, 7), (6, 8)]) is not None
        assert len(brute_force_matching(9, [(6, 7), (6, 8)])) == 1
        assert size == 1
        # tie-break picks the smaller candidate id
        assert f2.out_degree[4] == 2
        assert f2.out_degree[5] == 0

    def test_applied_count_matches_brute_force_on_random_dags(self):
        for d in random_dag_corpus(300, 1, 14, seed=23):
            f1 = greedy_expand(d, 3, Branching(d))
            # derive the collapsed candidate graph independently
            pairs = set()
            for v in range(d.vertex_count):
                if f1.out_degree[v] == 0:
                    heads = f1.available_heads(v)
                    if len(heads) == 2:
                        pairs.add(tuple(sorted(heads)))
            f2, size = max_expand(d, f1)
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
            max_expand(d, Branching(d))  # not maximal for t=3


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

    def test_pruning_does_not_change_value(self):
        for d in random_dag_corpus(200, 1, 10, seed=43):
            pruned, _ = exact_max_leaves(d, prune=True)
            full, _ = exact_max_leaves(d, prune=False)
            assert pruned == full

    def test_searches_leave_no_reference_cycles(self):
        # their state must be freed on return, not at the next full gc
        d = build_digraph(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)])
        sets = [PackSet(frozenset({1, 2}), 1, 0), PackSet(frozenset({2, 3}), 1, 1)]
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
        f = Branching(d).add_expansion(0, [1, 2]).add_expansion(1, [4])
        t = attach(d, f)
        assert t.parent[3] == 1
        assert t.is_spanning_arborescence()

    def test_handles_vertices_with_only_internal_in_neighbors(self):
        # after a partial expansion, 3's only in-neighbor is internal
        d = build_digraph(4, 0, [(0, 1), (0, 2), (0, 3)])
        f = Branching(d).add_expansion(0, [1, 2])
        t = attach(d, f)
        assert t.is_spanning_arborescence()
        assert t.parent[3] == 0
