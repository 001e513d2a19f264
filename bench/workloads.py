"""Seeded instance generators for the four benchmark workloads.

Each generator takes the workload seed and returns a list of
``(name, Digraph)`` pairs; the same seed gives the same instances, and
``write_instance`` makes the same bytes from them.  The sizes are chosen so
that one pass over a workload's jobs takes a few seconds on a 2-core
machine while each workload still spends most of its solver time in the
layer it is meant to stress.
"""

from __future__ import annotations

import random

from leafspan import (
    UndirectedGraphInstance,
    build_digraph,
    gen_adversarial_family,
    gen_random_rooted_dag,
    reduce_independent_set,
)
from leafspan.solvers import EXACT_PRODUCT_LIMIT, EXACT_SMALL_N

ALL_ALGOS = ("maxleaves", "expansion2", "w3dm-greedy", "w3dm-exact", "exact")

# random-e2e: about 3 arcs per vertex (n - 1 tree arcs plus ~2n extra arcs)
RANDOM_N = 12_000
RANDOM_ARCS_PER_VERTEX = 3

# hub-fanout: the root points at every candidate; each candidate owns 2 heads
HUB_CANDIDATES = 5_000

# giant-matching: ternary spine with SPINE_LEAVES leaves, each pointing at 2
# of GIANT_HEADS shared heads, so the 2-expansion graph is one big component
SPINE_LEAVES = 15_001
GIANT_HEADS = 10_000

# small-exact: random DAGs drawn until each band of exact search space (the
# product of in-degrees the oracle's guard bounds) has its quota.  Capping the
# solvable band keeps the branch-and-bound cost per pass steady across seeds;
# the over-guard band makes a fixed number of exact jobs refuse.
SMALL_SOLVABLE = 100
SMALL_SPACE_CAP = 3_000_000
SMALL_OVER_GUARD = 6
SMALL_N = (14, 30)
SMALL_P = (0.1, 0.15, 0.2)
SMALL_INDEPENDENT_SET = 60
IS_VERTICES = (5, 10)
IS_EDGE_P = 0.35
ADVERSARIAL_K = range(1, 7)


def _relabel(n: int, root: int, arcs, rng: random.Random):
    """Apply a seeded vertex permutation so ids carry no structure."""
    perm = list(range(n))
    rng.shuffle(perm)
    return build_digraph(n, perm[root], [(perm[u], perm[v]) for u, v in arcs])


def search_space(d) -> int:
    """Number of parent functions: the product of the non-root in-degrees."""
    product = 1
    for v in range(d.vertex_count):
        if v != d.root:
            product *= len(d.in_adj[v])
    return product


def random_e2e(seed: int):
    p = 2 * (RANDOM_ARCS_PER_VERTEX - 1) / RANDOM_N
    return [("random", gen_random_rooted_dag(RANDOM_N, p, seed))]


def hub_fanout(seed: int):
    c = HUB_CANDIDATES
    # 0 = root, 1..c = candidates, c+1..3c = heads (two private ones each)
    arcs = [(0, 1 + i) for i in range(c)]
    for i in range(c):
        arcs.append((1 + i, 1 + c + 2 * i))
        arcs.append((1 + i, 2 + c + 2 * i))
    return [("hub", _relabel(1 + 3 * c, 0, arcs, random.Random(seed)))]


def giant_matching(seed: int):
    rng = random.Random(seed)
    internal = (SPINE_LEAVES - 1) // 2  # a full ternary tree with I internal
    spine = 3 * internal + 1            # nodes has 2I + 1 leaves
    arcs = [(v, 3 * v + j) for v in range(internal) for j in (1, 2, 3)]
    leaves = list(range(internal, spine))
    heads = list(range(spine, spine + GIANT_HEADS))
    # The heads split into two sides and every candidate points at one head
    # on each, so the 2-expansion graph is bipartite.  The first candidates
    # pair the sides off: a planted perfect matching, which also makes every
    # head reachable.  Every augmenting search then succeeds, and the cost of
    # the search (an O(n) reset each) follows the greedy seed's deficit,
    # which varies little between seeds.  Odd cycles are left out on purpose:
    # the number of blossom contractions they cause varied 3x between seeds.
    order = heads[:]
    rng.shuffle(order)
    half = GIANT_HEADS // 2
    left, right = order[:half], order[half:]
    for i, cand in enumerate(leaves):
        if i < half:
            arcs += [(cand, left[i]), (cand, right[i])]
        else:
            arcs += [(cand, rng.choice(left)), (cand, rng.choice(right))]
    return [("giant", _relabel(spine + GIANT_HEADS, 0, arcs, rng))]


def small_exact(seed: int):
    rng = random.Random(seed)
    solvable, over_guard = [], []
    while len(solvable) < SMALL_SOLVABLE or len(over_guard) < SMALL_OVER_GUARD:
        n = rng.randint(*SMALL_N)
        d = gen_random_rooted_dag(n, rng.choice(SMALL_P), rng.randrange(2**31))
        space = search_space(d)
        if space <= SMALL_SPACE_CAP and len(solvable) < SMALL_SOLVABLE:
            solvable.append(d)
        elif (n > EXACT_SMALL_N and space > EXACT_PRODUCT_LIMIT
              and len(over_guard) < SMALL_OVER_GUARD):
            over_guard.append(d)
    out = [(f"rand{i:04d}", d) for i, d in enumerate(solvable + over_guard)]
    for i in range(SMALL_INDEPENDENT_SET):
        n = rng.randint(*IS_VERTICES)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < IS_EDGE_P
        ]
        out.append((f"mis{i:04d}", reduce_independent_set(UndirectedGraphInstance.build(n, edges))))
    for k in ADVERSARIAL_K:
        out.append((f"adv{k}", gen_adversarial_family(k)))
    return out


WORKLOADS = {
    "random-e2e": (random_e2e, ("maxleaves", "expansion2", "w3dm-greedy")),
    "hub-fanout": (hub_fanout, ("maxleaves", "expansion2", "w3dm-greedy")),
    "giant-matching": (giant_matching, ("maxleaves", "w3dm-greedy")),
    "small-exact": (small_exact, ALL_ALGOS),
}
