import itertools
import random

import pytest

from leafspan import PackSet, TooLarge, pack_exact, pack_greedy
from leafspan.packing import EXACT_SET_LIMIT
from oracles import reference_pack_exact, reference_pack_greedy


def ps(members, weight, candidate):
    return PackSet(tuple(sorted(members)), weight, candidate)


def exhaustive_best_weight(sets):
    """Enumerate every pairwise-disjoint subfamily; return the best weight."""
    best = 0
    for r in range(len(sets) + 1):
        for combo in itertools.combinations(sets, r):
            used = set()
            ok = True
            for s in combo:
                if not used.isdisjoint(s.members):
                    ok = False
                    break
                used.update(s.members)
            if ok:
                best = max(best, sum(s.weight for s in combo))
    return best


def triple_with_subsets(a, b, c, candidate):
    out = [ps((a, b, c), 2, candidate)]
    for pair in ((a, b), (a, c), (b, c)):
        out.append(ps(pair, 1, candidate))
    return out


def random_system(rng, universe=8, count=10):
    sets = []
    for i in range(rng.randint(0, count)):
        size = rng.choice([2, 3])
        members = rng.sample(range(universe), size)
        sets.append(ps(members, size - 1, i))
    return sets


def test_empty_system():
    assert pack_greedy([]) == []
    assert pack_exact([]) == []


def test_triple_beats_its_own_subsets():
    sets = triple_with_subsets(1, 2, 3, candidate=0)
    for solver in (pack_greedy, pack_exact):
        sel = solver(sets)
        assert len(sel) == 1
        assert sel[0].members == (1, 2, 3)


def test_two_disjoint_pairs_selected():
    sets = [ps((1, 2), 1, 0), ps((3, 4), 1, 1)]
    sel = pack_exact(sets)
    assert len(sel) == 2
    assert sum(s.weight for s in sel) == 2


def test_exact_tie_prefers_more_sets():
    # {a,b,c} (weight 2) ties with {a,b} + {c,d} (weight 1 each)
    sets = [ps((1, 2, 3), 2, 0), ps((1, 2), 1, 1), ps((3, 4), 1, 2)]
    assert exhaustive_best_weight(sets) == 2
    sel = pack_exact(sets)
    assert sum(s.weight for s in sel) == 2
    assert sorted(s.members for s in sel) == [(1, 2), (3, 4)]
    # {(1,2),(3,4)} and {(1,3),(2,4)} both weigh 2 with 2 sets; the first is
    # smaller by (members, candidate) though its candidates come later
    sets = [ps((1, 2), 1, 5), ps((3, 4), 1, 6), ps((1, 3), 1, 0), ps((2, 4), 1, 1)]
    assert exhaustive_best_weight(sets) == 2
    assert pack_exact(sets) == [ps((1, 2), 1, 5), ps((3, 4), 1, 6)]


def test_exact_guard():
    sets = [ps((2 * i, 2 * i + 1), 1, i) for i in range(41)]
    with pytest.raises(TooLarge):
        pack_exact(sets)


def test_exact_matches_exhaustive_enumeration():
    rng = random.Random(5)
    for _ in range(200):
        sets = random_system(rng)
        sel = pack_exact(sets)
        used = set()
        for s in sel:
            assert used.isdisjoint(s.members)
            used.update(s.members)
        assert sum(s.weight for s in sel) == exhaustive_best_weight(sets)


def test_greedy_within_third_of_optimum_and_disjoint():
    rng = random.Random(6)
    for _ in range(200):
        sets = random_system(rng)
        sel = pack_greedy(sets)
        used = set()
        for s in sel:
            assert used.isdisjoint(s.members)
            used.update(s.members)
        greedy_w = sum(s.weight for s in sel)
        opt_w = exhaustive_best_weight(sets)
        assert 3 * greedy_w >= opt_w
        assert sum(s.weight for s in pack_exact(sets)) >= greedy_w


def test_at_most_one_set_per_candidate():
    # all sets sharing a candidate intersect, so any packing picks at most one
    rng = random.Random(8)
    for _ in range(100):
        sets = []
        for cand in range(rng.randint(1, 4)):
            base = rng.sample(range(10), 3)
            sets.extend(triple_with_subsets(*base, candidate=cand))
        for solver in (pack_greedy, pack_exact):
            sel = solver(sets)
            cands = [s.candidate for s in sel]
            assert len(cands) == len(set(cands))


def pipeline_like_family(rng, universe, candidates):
    """Sets shaped like the packing pipeline's, with ties in weight and candidate.

    Each draw is a pair, or a triple together with its three 2-subsets, under
    a candidate id drawn with repeats; the small universe makes equal member
    tuples under different candidates common.
    """
    sets = []
    for _ in range(rng.randint(0, candidates)):
        cand = rng.randrange(candidates)
        heads = sorted(rng.sample(range(universe), rng.choice((2, 3))))
        if len(heads) == 3:
            sets.extend(triple_with_subsets(*heads, candidate=cand))
        else:
            sets.append(ps(heads, 1, cand))
    rng.shuffle(sets)
    return sets


def test_packers_ignore_input_order():
    # the pipeline passes its sets in (candidate, members) order; any other
    # order of the same sets must give the same selection
    rng = random.Random(13)
    for _ in range(300):
        sets = pipeline_like_family(rng, rng.randint(3, 9), 10)
        presorted = sorted(sets, key=lambda s: (s.candidate, s.members))
        for solver in (pack_greedy, pack_exact):
            assert solver(rng.sample(sets, len(sets))) == solver(presorted)


def test_packers_match_frozenset_reference():
    rng = random.Random(11)
    for _ in range(300):
        sets = pipeline_like_family(rng, rng.randint(3, 9), 10)
        assert pack_greedy(sets) == reference_pack_greedy(sets)
        assert pack_exact(sets) == reference_pack_exact(sets)
    # the largest systems the guard admits, where pruning is weakest
    for _ in range(5):
        sets = []
        while len(sets) < EXACT_SET_LIMIT:
            sets = pipeline_like_family(rng, rng.randint(10, 20), EXACT_SET_LIMIT)
        sets = sets[:EXACT_SET_LIMIT]
        assert pack_exact(sets) == reference_pack_exact(sets)
