"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
without ``-s`` they appear in the captured output of each test.
"""

import functools
import random
from fractions import Fraction

from leafspan import (
    EXACT_PACKER,
    GREEDY_PACKER,
    UndirectedGraphInstance,
    exact_max_leaves,
    expansion_baseline,
    gen_random_rooted_dag,
    greedy_expand,
    max_expand,
    max_leaves,
    max_leaves_packing,
    max_matching,
    reduce_independent_set,
)
from leafspan.certificates import two_phase_bounds
from leafspan.cli import ALGORITHMS, main
from oracles import available_heads, brute_force_matching, brute_force_max_independent_set


def report(num, ok, label):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} - {label}")
    assert ok, f"criterion {num:02d} failed: {label}"


@functools.lru_cache(maxsize=1)
def solved_corpus():
    """2000 seeded random rooted DAGs with 3 <= n <= 12, solved and oracled."""
    sizes = list(range(3, 13))
    probabilities = (0.0, 0.1, 0.3, 0.6)
    out = []
    for seed in range(2000):
        n = sizes[seed % len(sizes)]
        p = probabilities[(seed // len(sizes)) % len(probabilities)]
        d = gen_random_rooted_dag(n, p, seed)
        t, rep = max_leaves(d)
        opt, _ = exact_max_leaves(d)
        out.append((d, rep, opt))
    return out


def test_criterion_1_approximation_ratio():
    ok = all(
        3 * rep.leaf_count > 2 * opt for _, rep, opt in solved_corpus()
    )
    report(1, ok, "strict 3/2 ratio vs exact oracle on 2000 random DAGs")


def test_criterion_2_certificates_always_hold():
    ok = all(rep.certificate_ok for _, rep, _ in solved_corpus())
    # large instances where the oracle is out of range
    for n, p, seed in ((1000, 0.002, 0), (10000, 0.0, 1), (10000, 0.0005, 2)):
        d = gen_random_rooted_dag(n, p, seed)
        t, rep = max_leaves(d)
        ok = ok and rep.certificate_ok and t.is_spanning_arborescence()
    report(2, ok, "bound certificate holds on every solved instance up to n=10^4")


def test_criterion_3_worked_bound_numbers():
    lb, u2, u3 = two_phase_bounds(25, 3, 30, 4)
    ok = lb == Fraction(11, 3) + 14 and u2 == 27 and u3 == 25
    report(3, ok, "calculator reproduces the fixed vectors 53/3, 27, 25")


def test_criterion_4_upper_bounds_dominate_optimum():
    ok = all(
        opt <= rep.bounds["ub_lemma2"] and opt <= rep.bounds["ub_lemma3"]
        for _, rep, opt in solved_corpus()
    )
    report(4, ok, "exact optimum never exceeds either upper bound")


def test_criterion_5_matching_equals_brute_force():
    fixed = [
        (3, [(0, 1), (1, 2), (0, 2)]),
        (4, [(0, 1), (1, 2), (2, 3)]),
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        (
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
        ),
    ]
    ok = all(
        len(max_matching(n, e)) == len(brute_force_matching(n, e))
        for n, e in fixed
    )
    rng = random.Random(1001)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 12)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.35
        ]
        if len(edges) > 25:
            continue  # stay within the brute-force guard
        ok = ok and len(max_matching(n, edges)) == len(
            brute_force_matching(n, edges)
        )
        checked += 1
    report(5, ok, "blossom matching matches brute force on 500 random graphs")


def test_criterion_6_matching_phase_is_optimal():
    ok = True
    checked = 0
    seed = 0
    while checked < 300:
        seed += 1
        d = gen_random_rooted_dag(3 + seed % 12, (seed % 7) / 10.0, 5000 + seed)
        f1 = greedy_expand(d, 3)
        pairs = set()
        for v in range(d.vertex_count):
            if f1.out_degree[v] == 0:
                heads = available_heads(f1, v)
                if len(heads) == 2:
                    pairs.add(tuple(sorted(heads)))
        if len(pairs) > 25:
            continue
        f2, size = max_expand(f1)
        ok = ok and size == len(brute_force_matching(d.vertex_count, sorted(pairs)))
        checked += 1
    report(6, ok, "applied 2-expansions equal the brute-force maximum, 300 runs")


def test_criterion_7_packing_variant_ratio_and_identities():
    ok = True
    for seed in range(500):
        d = gen_random_rooted_dag(3 + seed % 9, (seed % 5) / 8.0, 7000 + seed)
        opt, _ = exact_max_leaves(d)
        _, exact_rep = max_leaves_packing(d, EXACT_PACKER)
        _, greedy_rep = max_leaves_packing(d, GREEDY_PACKER)
        ok = ok and 3 * opt <= 4 * exact_rep.leaf_count
        ok = ok and exact_rep.certificate_ok and greedy_rep.certificate_ok
    report(7, ok, "4/3 ratio with exact packing; identities hold for any packer")


def test_criterion_8_independent_set_reduction():
    petersen = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    fixed = [
        UndirectedGraphInstance.build(3, [(0, 1), (0, 2), (1, 2)]),
        UndirectedGraphInstance.build(10, petersen),
        UndirectedGraphInstance.build(5, []),
    ]
    rng = random.Random(2002)
    graphs = fixed + [
        UndirectedGraphInstance.build(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ],
        )
        for n in (rng.randint(1, 8) for _ in range(200))
    ]
    ok = True
    for g in graphs:
        n, m = g.vertex_count, len(g.edges)
        d = reduce_independent_set(g)
        ok = ok and d.vertex_count == n + m + 1 and len(d.arcs) == n + 2 * m
        ok = ok and max(len(d.in_adj[v]) for v in range(d.vertex_count)) <= 2
        value, _ = exact_max_leaves(d, objective="leaf_weight")
        ok = ok and value == brute_force_max_independent_set(g)[0]
    report(8, ok, "reduction preserves the independence number, 203 graphs")


def test_criterion_9_baseline_half_of_optimum():
    ok = True
    for d, _, opt in solved_corpus():
        _, rep = expansion_baseline(d)
        ok = ok and 2 * rep.leaf_count >= opt
    report(9, ok, "2-expansion baseline stays within half of the optimum")


def test_criterion_10_end_to_end(tmp_path):
    ok = True
    for seed in range(100):
        inst = tmp_path / f"i{seed}.json"
        if seed % 10 == 9:
            k = str(1 + (seed // 10) % 6)
            code = main(["gen", "--generator", "adversarial", "--k", k,
                         "--out", str(inst)])
        else:
            code = main(["gen", "--generator", "random",
                         "--n", str(5 + seed % 12), "--p", str((seed % 4) / 10.0),
                         "--seed", str(seed), "--out", str(inst)])
        ok = ok and code == 0
        for algo in ALGORITHMS:
            sol = tmp_path / f"s{seed}-{algo}.json"
            ok = ok and main(["solve", "--algo", algo, "--input", str(inst),
                              "--output", str(sol)]) == 0
            ok = ok and main(["verify", "--instance", str(inst),
                              "--solution", str(sol)]) == 0
    report(10, ok, "gen/solve/verify exits 0 for 100 seeds, all algorithms")
