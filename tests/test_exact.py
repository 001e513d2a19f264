"""The exact oracle against its earlier search, and its bound's node count.

`exact_max_leaves` prunes with a disjoint in-neighbourhood bound on top of
the cost prune of `reference_exact_max_leaves`.  On a seeded corpus it must
return the same value and parent array and refuse the same inputs, for both
objectives, while visiting a subset of the earlier search's nodes.  Nodes
are counted as calls of each search's nested ``dfs`` code object, seen
through `sys.setprofile`, so no counter lives in the package.
"""

import hashlib
import json
import math
import random
import sys
import types

import pytest

from leafspan import (
    TooLarge,
    UndirectedGraphInstance,
    build_digraph,
    exact_max_leaves,
    gen_adversarial_family,
    gen_random_rooted_dag,
    reduce_independent_set,
)
from leafspan import solvers
from leafspan.solvers import EXACT_PRODUCT_LIMIT, EXACT_SMALL_N
from oracles import digraph_arcs, reference_exact_max_leaves

# as the benchmark's small-exact workload draws its random DAGs
SOLVABLE, OVER_GUARD, SPACE_CAP = 100, 6, 3_000_000


def search_space(d):
    return math.prod(len(d.in_adj[v]) for v in range(d.vertex_count) if v != d.root)


def corpus():
    """``(name, digraph, objective)`` triples, seeded."""
    rng = random.Random(2026)
    out = []
    solvable = over_guard = 0
    # random DAGs of 14-30 vertices, solvable ones up to SPACE_CAP and some
    # the guard refuses; every fourth also weighted, with some weights 0
    while solvable < SOLVABLE or over_guard < OVER_GUARD:
        n = rng.randint(14, 30)
        d = gen_random_rooted_dag(n, rng.choice((0.1, 0.15, 0.2)), rng.randrange(2**31))
        space = search_space(d)
        if space <= SPACE_CAP and solvable < SOLVABLE:
            solvable += 1
        elif n > EXACT_SMALL_N and space > EXACT_PRODUCT_LIMIT and over_guard < OVER_GUARD:
            over_guard += 1
        else:
            continue
        out.append((f"random{len(out)}", d, "leaves"))
        if len(out) % 4 == 0:
            weights = [rng.randint(0, 3) for _ in range(n)]
            w = build_digraph(n, d.root, digraph_arcs(d), weights=weights)
            out.append((f"weighted{len(out)}", w, "leaf_weight"))
    for i in range(16):
        d = gen_random_rooted_dag(rng.randint(8, 16), rng.choice((0.3, 0.5, 0.8)), i)
        out.append((f"dense{i}", d, "leaves"))
    for i in range(60):
        n = rng.randint(5, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        d = reduce_independent_set(UndirectedGraphInstance.build(n, edges))
        out += [(f"mis{i}", d, "leaf_weight"), (f"mis{i}", d, "leaves")]
    out += [(f"adv{k}", gen_adversarial_family(k), "leaves") for k in range(1, 7)]
    return out


def dfs_code(search):
    (code,) = [c for c in search.__code__.co_consts
               if isinstance(c, types.CodeType) and c.co_name == "dfs"]
    return code


def run_counted(search, d, objective):
    """``((value, parent) or "TooLarge", calls of the search's dfs)``."""
    code, calls = dfs_code(search), 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        value, t = search(d, objective)
        outcome = (value, t.parent)
    except TooLarge:
        outcome = "TooLarge"
    finally:
        sys.setprofile(None)
    return outcome, calls


@pytest.fixture(scope="module")
def runs():
    return [(name, objective, run_counted(reference_exact_max_leaves, d, objective),
             run_counted(exact_max_leaves, d, objective))
            for name, d, objective in corpus()]


def test_same_value_parents_and_refusals_as_the_reference(runs):
    for name, objective, (ref, _), (new, _) in runs:
        assert new == ref, (name, objective)
    # the corpus holds refusals (weighted copies of over-guard draws add to
    # them) and both objectives
    assert sum(1 for _, _, (ref, _), _ in runs if ref == "TooLarge") >= OVER_GUARD
    assert sum(1 for _, objective, _, _ in runs if objective == "leaf_weight") > 60


def test_pruned_search_visits_a_subset_and_at_most_a_tenth(runs):
    # the two searches record the same leaves at the same points, so a node
    # the bound keeps is one the cost prune alone keeps too
    for name, objective, (_, ref_calls), (_, new_calls) in runs:
        assert new_calls <= ref_calls, (name, objective)
    ref_total = sum(ref_calls for _, _, (_, ref_calls), _ in runs)
    new_total = sum(new_calls for _, _, _, (_, new_calls) in runs)
    assert ref_total > 10_000  # the corpus has searches worth pruning
    assert 10 * new_total <= ref_total, (new_total, ref_total)


def test_search_visits_the_recorded_node_total(runs):
    # the dfs calls over the corpus, as recorded when this test was written:
    # a set-up that reorders the choices or their options, or starts from
    # other fixed parents, changes the search and moves this total
    assert sum(new_calls for _, _, _, (_, new_calls) in runs) == 6046


def test_counter_sees_every_search_node():
    # the only choice is vertex 3's parent: the root call, the leaf through
    # parent 1, and the call through parent 2 that the cost prune ends
    d = build_digraph(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)])
    for search in (reference_exact_max_leaves, exact_max_leaves):
        assert run_counted(search, d, "leaves") == ((2, [None, 0, 0, 1]), 3)


def pair_family(k):
    """Root 0 points at a_1..a_2k (ids 1..2k); b_i (id 2k + i) has the
    in-neighbours a_{2i-1} and a_{2i}.  No two b share a parent, so no parent
    is ever in use when a choice is made, and only the family bound prunes."""
    arcs = [(0, a) for a in range(1, 2 * k + 1)]
    arcs += [(a, 2 * k + i) for i in range(1, k + 1) for a in (2 * i - 1, 2 * i)]
    return build_digraph(3 * k + 1, 0, arcs)


def test_family_bound_prunes_where_nothing_else_can():
    # 2^16 parent functions, inside the guard; without the bound the search
    # visits all 2^17 - 1 nodes, with or without a rule for parents in use
    k = 16
    (value, parent), nodes = run_counted(exact_max_leaves, pair_family(k), "leaves")
    assert value == 2 * k
    assert parent == [None] + [0] * (2 * k) + list(range(1, 2 * k, 2))
    assert nodes <= 2 * k + 1


@pytest.mark.parametrize("n, p, value, digest", [
    (50, 0.10, 36, "d9e83c9297b304ab"),
    (60, 0.08, 44, "362f7e8b96749f21"),
])
def test_covered_choices_do_not_branch(monkeypatch, n, p, value, digest):
    # value and parent digest as recorded from the search that branched on every
    # parent, parents in use first, which visits 101,095 and 321,683 nodes here
    monkeypatch.setattr(solvers, "EXACT_PRODUCT_LIMIT", 10**400)
    (found, parent), nodes = run_counted(exact_max_leaves, gen_random_rooted_dag(n, p, 1), "leaves")
    assert found == value
    assert hashlib.sha256(json.dumps(parent).encode()).hexdigest()[:16] == digest
    assert nodes <= 1_000
