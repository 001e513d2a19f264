import collections
import gc
import random
from dataclasses import replace
from fractions import Fraction
from operator import itemgetter

import pytest

import leafspan.cli
from leafspan import (
    Branching,
    EXACT_PACKER,
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
from leafspan.certificates import (
    PIPELINES,
    SolveReport,
    baseline_lower_bound,
    packing_lower_bound,
    packing_upper_bound,
    two_phase_bounds,
    two_phase_certificate_ok,
    two_phase_lower_bound,
    two_phase_upper_bound,
)
from leafspan.verify import read_solution, verify_solution, write_solution
from oracles import (
    add_expansion,
    available_heads,
    brute_force_matching,
    branching_arcs,
    brute_force_is_maximal,
    brute_force_max_leaves,
    digraph_arcs,
    is_t_branching,
    phase_prefixes,
    random_dag_corpus,
    reference_attach,
    reference_baseline_lower_bound,
    reference_certify,
    reference_greedy_expand,
    reference_max_expand,
    reference_max_leaves_packing,
    reference_packing_lower_bound,
    reference_packing_upper_bound,
    reference_two_phase_lower_bound,
    reference_two_phase_upper_bound,
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


def two_offered_pairs_instance():
    """Root 0 takes 1..4 in the greedy 4-branching; leaf 1 is offered (5, 6), leaf 2 (6, 7)."""
    return build_digraph(8, 0, [(0, 1), (0, 2), (0, 3), (0, 4),
                                (1, 5), (1, 6), (2, 6), (2, 7)])


def relabeled(n, root, arcs, rng):
    """``build_digraph`` after a seeded vertex permutation, so ids and d.order disagree."""
    perm = rng.sample(range(n), n)
    return build_digraph(n, perm[root], [(perm[u], perm[v]) for u, v in arcs])


def candidate_pairs(rng, candidates, heads):
    """Arcs giving each candidate two of ``heads``; the first ones cover every head."""
    arcs = []
    for i, v in enumerate(candidates):
        if 2 * i < len(heads):
            pair = (heads[2 * i], heads[(2 * i + 1) % len(heads)])
        else:
            pair = rng.sample(heads, 2)
        arcs += [(v, h) for h in pair]
    return arcs


def hub_dag(rng, c, h):
    """Root 0 fans out to ``c >= 3`` candidates, each pointing at two of ``h`` shared heads."""
    candidates, heads = list(range(1, c + 1)), list(range(c + 1, c + 1 + h))
    arcs = [(0, v) for v in candidates] + candidate_pairs(rng, candidates, heads)
    return relabeled(1 + c + h, 0, arcs, rng)


def spine_dag(rng, internal, h):
    """A ternary spine whose ``2 * internal + 1`` leaves each point at two of ``h`` shared heads."""
    spine = 3 * internal + 1
    arcs = [(v, 3 * v + j) for v in range(internal) for j in (1, 2, 3)]
    heads = list(range(spine, spine + h))
    arcs += candidate_pairs(rng, list(range(internal, spine)), heads)
    return relabeled(spine + h, 0, arcs, rng)


def hub_and_spine_dags(seed):
    rng = random.Random(seed)
    # at least five candidates, enough to cover up to nine heads
    return ([hub_dag(rng, rng.randint(5, 14), rng.randint(2, 9)) for _ in range(60)]
            + [spine_dag(rng, rng.randint(2, 7), rng.randint(2, 9)) for _ in range(60)])


class TestGreedyExpand:
    def test_star_three_children(self):
        d = star(3)
        f = greedy_expand(d, 3)
        assert f.stats().leaves == 3
        assert f.out_degree[0] == 3

    def test_star_two_children_unchanged(self):
        d = star(2)
        f = greedy_expand(d, 3)
        assert branching_arcs(f) == []

    def test_output_is_maximal_t_branching_on_random_dags(self):
        for i, d in enumerate(random_dag_corpus(100, 1, 25, seed=21)):
            for t in range(1, 6):  # 4 is the packing pipeline's F1
                f = greedy_expand(d, t)
                assert is_t_branching(f, t)
                assert f.is_maximal(t)
                # closed, checked vertex by vertex rather than through
                # free_heads: no leaf keeps t or more in-degree-0
                # out-neighbors, and no internal vertex keeps any
                assert brute_force_is_maximal(f, t)
                assert not any(
                    f.out_degree[v] and available_heads(f, v) for v in range(d.vertex_count)
                )
                # the arrays greedy_expand writes directly are a host branching
                assert Branching.from_parents(d, f.parent).out_degree == f.out_degree

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
        assert branching_arcs(f2) == branching_arcs(f)

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
            # F2 is closed, as the upper bounds need: maximal, and no internal
            # vertex keeps an in-degree-0 out-neighbor
            assert f2.is_maximal(2)
            assert not any(
                f2.out_degree[v] and available_heads(f2, v) for v in range(d.vertex_count)
            )

    def test_matches_reference_on_random_hub_and_spine_dags(self):
        # the reference walks d.order, keeps the smallest candidate per pair
        # and applies the matched pairs through the checked expansion
        ties = 0
        for d in random_dag_corpus(150, 1, 30, seed=73) + hub_and_spine_dags(79):
            f1 = greedy_expand(d, 3)
            f2, size = max_expand(f1)
            ref, ref_size = reference_max_expand(f1)
            assert (f2.parent, f2.out_degree, size) == (ref.parent, ref.out_degree, ref_size)
            # count DAGs where a pair's smallest candidate is not its first in d.order
            first = {}
            for v in d.order:
                heads = available_heads(f1, v)
                if f1.out_degree[v] == 0 and len(heads) == 2:
                    first.setdefault(tuple(heads), []).append(v)
            ties += any(vs[0] != min(vs) for vs in first.values())
        assert ties > 20

    def test_precondition_rejected(self):
        d = star(3)
        with pytest.raises(PreconditionViolated):
            max_expand(Branching(d))  # not maximal for t=3

    def test_branching_with_a_two_expansion_rejected(self):
        # a 2-expansion breaks the 3-branching shape, a precondition failure
        f = add_expansion(Branching(star(2)), 0, [1, 2])
        with pytest.raises(PreconditionViolated, match="not a 3-branching") as caught:
            max_expand(f)
        assert type(caught.value) is PreconditionViolated


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

    def test_lemma1_bound_is_the_chain_of_the_upper_bounds(self):
        # lb_lemma1 == (U3-1)/3 + (U2-1)/3 + 1 for every a1 = N1-k1, a2 = N2-k2,
        # so "leaf_count >= lb_lemma1" already carries the 3/2 ratio
        rng = random.Random(67)
        grid = [(a1, a2, 0, 0) for a1 in range(41) for a2 in range(41)]
        large = [tuple(rng.randrange(10**12) for _ in range(4)) for _ in range(20)]
        for a1, a2, k1, k2 in grid + large:
            lb, u2, u3 = two_phase_bounds(a1 + k1, k1, a2 + k2, k2)
            assert (u3 - 1) / 3 + (u2 - 1) / 3 + 1 == lb
            for leaves in range(int(lb) - 2, int(lb) + 3):
                assert two_phase_certificate_ok(leaves, u2, u3) == (leaves >= lb)

    def test_bounds_equal_their_sums_of_fractions(self):
        # each bound is one Fraction over an integer numerator: the value of
        # the sum of Fraction terms, so the report strings are the same
        rng = random.Random(71)
        alphas = [Fraction(1), Fraction(3), Fraction(2, 3), Fraction(5, 4), Fraction(7, 3)]
        for _ in range(2000):
            nk = []  # N1, k1, N2, k2, N3, k3 with every N >= k >= 0
            for _ in range(3):
                scale = rng.choice((10, 10**6, 10**15))
                k = rng.randrange(scale)
                nk += [k + rng.randrange(scale), k]
            pairs = [
                (two_phase_lower_bound(*nk[:4]), reference_two_phase_lower_bound(*nk[:4])),
                (two_phase_upper_bound(*nk[:4]), reference_two_phase_upper_bound(*nk[:4])),
                (baseline_lower_bound(*nk[:2]), reference_baseline_lower_bound(*nk[:2])),
                (packing_lower_bound(*nk), reference_packing_lower_bound(*nk)),
            ] + [(packing_upper_bound(*nk, a), reference_packing_upper_bound(*nk, a))
                 for a in alphas]
            for new, old in pairs:
                assert type(new) is Fraction
                assert (new, str(new)) == (old, str(old)), nk

    def test_both_certificate_sides_tight_at_ratio_7_5(self):
        # the worst ratio known for maxleaves: 5 leaves, exactly lb_lemma1,
        # against an optimum of 7, exactly ub_lemma2 and ub_lemma3
        arcs = [(0, 1), (0, 2), (1, 2), (1, 4), (1, 10), (2, 3), (2, 4), (2, 8), (3, 8), (3, 9),
                (4, 5), (4, 6), (4, 10), (5, 6), (5, 8), (5, 9), (5, 10), (6, 7), (6, 9), (7, 8),
                (7, 9), (8, 9), (8, 10), (9, 10)]
        d = build_digraph(11, 0, arcs)
        t, rep = max_leaves(d)
        assert t.is_spanning_arborescence() and rep.certificate_ok
        assert rep.leaf_count == rep.values["lb_lemma1"] == 5
        assert rep.values["ub_lemma2"] == rep.values["ub_lemma3"] == 7
        assert exact_max_leaves(d)[0] == 7

    def test_spanning_and_certified_on_random_dags(self):
        for d in random_dag_corpus(200, 1, 20, seed=31):
            t, rep = max_leaves(d)
            assert t.is_spanning_arborescence()
            assert rep.certificate_ok
            # leaves lost in the matching phase equal the matching size
            f1 = greedy_expand(d, 3)
            f2, size = max_expand(f1)
            s1, s2 = f1.stats(), f2.stats()
            assert [rep.values[key] for key in ("N1", "k1", "N2", "k2")] == [s1.N, s1.k, s2.N, s2.k]
            lost = s1.leaves - s2.leaves
            assert lost == rep.values["matching_size"] == size
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
        assert rep.values["selected_triples"] == 0 and rep.values["selected_pairs"] == 0

    def test_star_three_children_selects_triple(self):
        d = star(3)
        t, rep = max_leaves_packing(d)
        assert rep.values["selected_triples"] == 1
        assert rep.values["selected_pairs"] == 0
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
            assert opt <= rep.values["ub_lemma5"]

    def test_counts_are_the_sets_the_packer_returned(self):
        sizes = []
        for d in random_dag_corpus(150, 3, 30, seed=47):
            for solve in (pack_greedy, pack_exact):
                returned = []

                def spy(sets):
                    returned.extend(solve(sets))
                    return returned

                _, rep = max_leaves_packing(d, replace(GREEDY_PACKER, solve=spy))
                run = [len(s.members) for s in returned]
                assert rep.values["selected_triples"] == run.count(3)
                assert rep.values["selected_pairs"] == run.count(2)
                sizes += run
        assert 2 in sizes and 3 in sizes

    def test_packer_without_a_pipeline_row_is_refused(self):
        d = star(3)
        for packer in (Packer("mine", pack_greedy), None):
            with pytest.raises(PreconditionViolated):
                max_leaves_packing(d, packer)

    def test_each_packer_is_certified_by_its_own_row(self, tmp_path):
        # the ratio lives in PIPELINES alone: a packer's run reports that row,
        # and so does a packer wrapped with replace, which keeps the name
        def spy(sets):
            return pack_greedy(sets)

        packers = (GREEDY_PACKER, EXACT_PACKER, replace(GREEDY_PACKER, solve=spy))
        path = tmp_path / "sol.json"
        for d in random_dag_corpus(40, 3, 14, seed=43):
            for packer in packers:
                try:
                    t, rep = max_leaves_packing(d, packer)
                except TooLarge:
                    continue
                assert rep.pipeline is PIPELINES[f"w3dm-{packer.name}"]
                write_solution(path, rep, t.parent)
                assert verify_solution(d, read_solution(path)) == []

    def test_greedy_upper_bound_covers_the_optimum(self):
        # certified at alpha = 1, greedy's ub_lemma5 would be 3 here
        d = build_digraph(6, 4, [(0, 1), (2, 0), (2, 3), (2, 5), (3, 1), (3, 5),
                                 (4, 0), (4, 2), (4, 3), (5, 1)])
        opt, _ = exact_max_leaves(d)
        _, rep = max_leaves_packing(d, GREEDY_PACKER)
        assert opt == 4 and rep.certificate_ok
        assert rep.values["ub_lemma5"] >= opt

    @pytest.mark.parametrize("selection", [
        [PackSet((5, 7), 1, 1)],
        [PackSet((1, 2), 1, 0)],
        [PackSet((5, 6), 1, 1), PackSet((6, 7), 1, 2)],
        [PackSet((5, 6), 1, 1)] * 2,
        [PackSet((6, 5), 1, 1)],
        [PackSet((5, 6), 2, 1)],
        [PackSet((5,), 0, 1)],
        None,
        [PackSet([5, 6], 1, 1)],
    ], ids=["arc-not-in-host", "candidate-internal-in-F1", "overlapping", "same-set-twice",
            "permuted-members", "changed-weight", "subset-never-offered", "not-iterable",
            "unhashable-set"])
    def test_selection_outside_the_offered_sets_is_refused(self, selection):
        packer = Packer("greedy", lambda sets: selection)
        with pytest.raises(PreconditionViolated, match="not an offered set") as caught:
            max_leaves_packing(two_offered_pairs_instance(), packer)
        assert type(caught.value) is PreconditionViolated

    def test_equal_copy_of_an_offered_set_is_accepted(self):
        # the check compares by value, not by identity
        d = two_offered_pairs_instance()
        t, rep = max_leaves_packing(d, Packer("greedy", lambda sets: [PackSet((5, 6), 1, 1)]))
        stock, stock_rep = max_leaves_packing(d, GREEDY_PACKER)
        assert (t.parent, rep) == (stock.parent, stock_rep)
        assert t.parent[5] == t.parent[6] == 1 and rep.values["selected_pairs"] == 1

    def test_matches_reference_on_random_hub_and_spine_dags(self, tmp_path):
        # the reference offers sets by id, applies the selection in candidate
        # order through Branching.from_arcs, and rebuilds every phase
        path = tmp_path / "sol.json"

        def solution_bytes(d, packer):
            t, rep = max_leaves_packing(d, packer)
            write_solution(path, rep, t.parent)
            return t, rep, path.read_bytes()

        sizes = collections.Counter()
        for d in random_dag_corpus(150, 1, 30, seed=89) + hub_and_spine_dags(97):
            # pack_exact's search grows fast on the larger spines
            small = d.vertex_count <= 20
            for packer in (GREEDY_PACKER, EXACT_PACKER) if small else (GREEDY_PACKER,):
                stock = []

                def spy(sets):
                    stock.extend(packer.solve(sets))
                    return stock

                t, rep, stock_bytes = solution_bytes(d, replace(packer, solve=spy))
                ref, ref_rep = reference_max_leaves_packing(d, packer)
                assert (t.parent, t.out_degree, rep) == (ref.parent, ref.out_degree, ref_rep)
                sizes.update(len(s.members) for s in stock)
                # the writes are disjoint, so the selection's order cannot matter
                backwards = replace(packer, solve=lambda sets: stock[::-1])
                assert solution_bytes(d, backwards)[2] == stock_bytes
        assert sizes[2] > 100 and sizes[3] > 10, sizes

    def test_packer_receives_sets_in_candidate_then_members_order(self):
        # sets arrive presorted, so the packing order's first sort meets one run
        shuffled = 0
        for d in random_dag_corpus(150, 3, 30, seed=47) + hub_and_spine_dags(83):
            received = []

            def spy(sets):
                received.extend(sets)
                return pack_greedy(sets)

            max_leaves_packing(d, replace(GREEDY_PACKER, solve=spy))
            assert received == sorted(received, key=itemgetter(2, 0))
            # the candidates' order in d.order differs from their id order
            rank = {v: i for i, v in enumerate(d.order)}
            candidates = [s.candidate for s in received]
            shuffled += candidates != sorted(candidates, key=rank.__getitem__)
        assert shuffled > 20

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

            max_leaves_packing(d, replace(GREEDY_PACKER, solve=spy))
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
            w = build_digraph(d.vertex_count, d.root, digraph_arcs(d), weights=weights)
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

    def test_weighted_objective_needs_weights(self):
        # without the guard the search ends in a bare TypeError
        with pytest.raises(PreconditionViolated, match="needs vertex weights"):
            exact_max_leaves(star(3), "leaf_weight")

    def test_missing_weights_are_reported_before_the_guard(self):
        # the objective is checked first, so the error does not depend on size
        for n in (8, 40):
            d = gen_random_rooted_dag(n, 0.3, 1)
            with pytest.raises(PreconditionViolated, match="needs vertex weights"):
                exact_max_leaves(d, "leaf_weight")

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

    # attach gathers the in-neighbors of the vertices it attaches, where the
    # reference reads the host's full in_adj
    @staticmethod
    def assert_matches_reference(f):
        t, ref = attach(f), reference_attach(f)
        assert (t.parent, t.out_degree) == (ref.parent, ref.out_degree)
        assert t.is_spanning_arborescence()
        return t

    def test_matches_reference_after_each_pipelines_last_phase(self):
        attached = 0
        for d in random_dag_corpus(150, 1, 30, seed=109):
            for name in ("maxleaves", "expansion2", "w3dm-greedy", "w3dm-exact"):
                if name == "w3dm-exact" and d.vertex_count > 20:
                    continue  # pack_exact's search grows fast on the larger DAGs
                pipeline = PIPELINES[name]
                t, report = pipeline.solve(leafspan.cli, d)
                count = len(pipeline.phases) - 1
                last = phase_prefixes(d, t.parent, report.phase, count)[-1]
                assert self.assert_matches_reference(last).parent == t.parent
                attached += last.parent.count(None) - 1
        assert attached > 1000, attached

    def test_matches_reference_from_the_empty_branching(self):
        # every non-root vertex is parentless, so every in-list is gathered,
        # and a vertex attached early is preferred by those after it
        preferred = 0
        for d in random_dag_corpus(150, 1, 30, seed=113) + hub_and_spine_dags(127):
            t = self.assert_matches_reference(Branching(d))
            preferred += sum(1 for v, p in enumerate(t.parent)
                             if p is not None and p != d.in_adj[v][0])
        assert preferred > 100, preferred

    def test_matches_reference_where_w3dm_leaves_free_heads_under_internal_vertices(self):
        # a packer that selects only pairs splits each spine vertex's triple,
        # so F3 leaves its third head parentless under an internal vertex
        pairs_only = Packer("greedy", lambda sets: pack_greedy(
            [s for s in sets if len(s.members) == 2]))
        under_internal = preferred = 0
        for d in hub_and_spine_dags(131) + random_dag_corpus(150, 1, 30, seed=137):
            t, report = max_leaves_packing(d, pairs_only)
            f3 = phase_prefixes(d, t.parent, report.phase, 3)[-1]
            assert self.assert_matches_reference(f3).parent == t.parent
            attached = [v for v, p in enumerate(f3.parent) if p is None and v != d.root]
            under_internal += sum(1 for v in attached if f3.out_degree[t.parent[v]] > 0)
            preferred += sum(1 for v in attached if t.parent[v] != d.in_adj[v][0])
        assert under_internal > 200 and preferred > 0, (under_internal, preferred)


def test_solve_and_verify_each_build_their_report_once(monkeypatch):
    # one certificate path over the two arrays: every pipeline and verify
    # call SolveReport.certify once, each with its own arborescence (verify's
    # is the tree it validated) and verify with the file's own phase array
    calls, trees = [], []
    certify, from_parents = SolveReport.certify, Branching.from_parents

    def spy_certify(pipeline, tree, phase):
        calls.append((tree, phase, certify(pipeline, tree, phase)))
        return calls[-1][2]

    def spy_from_parents(host, parents):
        trees.append(from_parents(host, parents))
        return trees[-1]

    monkeypatch.setattr(SolveReport, "certify", staticmethod(spy_certify))
    monkeypatch.setattr(Branching, "from_parents", staticmethod(spy_from_parents))
    for d in random_dag_corpus(40, 1, 12, seed=59):
        for pipeline in PIPELINES.values():
            calls.clear()
            t, report = pipeline.solve(leafspan.cli, d)
            assert report.pipeline is pipeline
            assert len(calls) == 1 and calls[0][0] is t and calls[0][2] is report
            _, solved_phase, _ = calls.pop()
            solution = {"parent": t.parent, "phase": list(report.phase),
                        "leaf_count": report.leaf_count, "report": report.to_dict()}
            assert verify_solution(d, solution) == []
            assert len(calls) == 1
            tree, phase, verified = calls[0]
            assert tree is trees[-1] and phase is solution["phase"]
            # verify certifies the arrays the solver certified: the same tree,
            # and the same index for every vertex with a parent
            assert (tree.parent, tree.out_degree) == (t.parent, t.out_degree)
            assert [j for p, j in zip(t.parent, phase) if p is not None] == [
                j for p, j in zip(t.parent, solved_phase) if p is not None]
            assert verified == report


def test_certify_matches_the_reference_on_solved_and_forged_arrays():
    # the two arrays give the report of one branching per phase, item by item
    # and in the same key order: on solved files, and on forged phase arrays
    # (random indices, a nonzero root entry) and a forest, which between them
    # fail shapes, identities and spanning
    rng = random.Random(67)
    failed = collections.Counter()
    for i, d in enumerate(random_dag_corpus(40, 2, 16, seed=71)):
        if i % 2:
            d = build_digraph(d.vertex_count, d.root, digraph_arcs(d),
                              [rng.randint(1, 5) for _ in range(d.vertex_count)])
        for pipeline in PIPELINES.values():
            t, report = pipeline.solve(leafspan.cli, d)
            count = len(pipeline.phases)
            forest = list(t.parent)
            forest[rng.choice([v for v, p in enumerate(forest) if p is not None])] = None
            root_forged = list(report.phase)
            root_forged[d.root] = count - 1
            for parent, phase in [(t.parent, report.phase),
                                  (t.parent, [rng.randrange(count) for _ in t.parent]),
                                  (t.parent, root_forged),
                                  (forest, report.phase)]:
                ours = SolveReport.certify(pipeline, Branching.from_parents(d, parent), phase)
                ref = reference_certify(pipeline, phase_prefixes(d, parent, phase, count))
                assert ours.phase == ref.phase and ours.leaf_count == ref.leaf_count
                assert list(ours.values.items()) == list(ref.values.items())
                assert list(ours.inequalities.items()) == list(ref.inequalities.items())
                failed.update(name for name, holds in ours.inequalities.items() if not holds)
    shapes = {f"{name} is a {t}-branching" for p in PIPELINES.values() for name, t in p.phases
              if t > 1}
    assert shapes | {"T is a spanning arborescence"} <= set(failed), failed
    # the identities of matching_size, selected_triples and selected_pairs
    assert len([name for name in failed if "==" in name]) == 3, failed


def test_shape_checks_start_the_inequalities_and_skip_t_one():
    # every branching is a 1-branching, so no phase with t = 1 is checked
    for d in random_dag_corpus(20, 1, 10, seed=61):
        names = {name: list(p.solve(leafspan.cli, d)[1].inequalities)
                 for name, p in PIPELINES.items()}
        assert names["maxleaves"][:3] == [
            "F1 is a 3-branching", "F2 is a 2-branching", "T is a spanning arborescence"]
        assert names["exact"][0] == "T is a spanning arborescence"
        assert not any(n.endswith("1-branching") for ns in names.values() for n in ns)
        # the list is closed: shapes, T, one per bound, one identity per count
        for name, p in PIPELINES.items():
            assert names[name] == (
                [f"{phase} is a {t}-branching" for phase, t in p.phases if t > 1]
                + ["T is a spanning arborescence"]
                + [f"leaf_count >= {b}" if b.startswith("lb_") else f"{b} >= leaf_count"
                   for b in p.bounds]
                + [f"{t} * {c} == (N{i + 2} - k{i + 2}) - (N{i + 1} - k{i + 1})"
                   for i, (c, (_, t)) in enumerate(zip(p.counts, p.phases[1:]))])
