import random
from collections import deque

import pytest

import leafspan.cli
from leafspan import (
    Branching,
    MalformedInput,
    PreconditionViolated,
    TooLarge,
    build_digraph,
    greedy_expand,
    max_expand,
)
from leafspan.certificates import PIPELINES, SolveReport
from leafspan.verify import verify_solution
from oracles import (
    add_expansion,
    available_heads,
    branching_arcs,
    brute_force_is_maximal,
    is_t_branching,
    phase_prefixes,
    random_dag_corpus,
    reference_from_parents,
)


def star(k):
    return build_digraph(k + 1, 0, [(0, i) for i in range(1, k + 1)])


def path(n):
    return build_digraph(n, 0, [(i, i + 1) for i in range(n - 1)])


def recount_stats(b):
    """Independent recount by full traversal, no union-find."""
    n = b.host.vertex_count
    adj = [[] for _ in range(n)]
    for u, v in branching_arcs(b):
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    sizes = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        size = 1
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    size += 1
                    queue.append(u)
        sizes.append(size)
    big = [s for s in sizes if s >= 2]
    out_deg = [0] * n
    indeg = [0] * n
    for u, v in branching_arcs(b):
        out_deg[u] += 1
        indeg[v] += 1
    assert all(d <= 1 for d in indeg)
    return {
        "N": sum(big),
        "k": len(big),
        "components": len(sizes),
        "leaves": sum(1 for d in out_deg if d == 0),
        "arcs": len(branching_arcs(b)),
    }


def assert_stats_match_recount(b):
    s = b.stats()
    oracle = recount_stats(b)
    assert (s.N, s.k, s.leaves) == (oracle["N"], oracle["k"], oracle["leaves"])
    # the forest identities the counters stand for
    assert oracle["arcs"] == s.N - s.k
    assert oracle["components"] == b.host.vertex_count - s.N + s.k


def test_empty_branching_single_vertex():
    b = Branching(build_digraph(1, 0, []))
    s = b.stats()
    assert (s.N, s.k, s.leaves) == (0, 0, 1)


def test_empty_branching_counters():
    b = Branching(star(4))
    s = b.stats()
    assert (s.N, s.k, s.leaves) == (0, 0, 5)


def test_empty_branching_is_t_branching_for_all_t():
    # is_maximal's precondition holds for every t: no vertex is internal
    b = Branching(star(3))
    for t in range(1, 6):
        assert is_t_branching(b, t)
        assert b.is_maximal(t) == (t > 3)


def test_add_expansion_star():
    d = star(3)
    b = Branching(d)
    b2 = add_expansion(b, 0, [1, 2, 3])
    assert b2.stats().leaves == 3
    assert b.stats().leaves == 4  # original untouched


def test_repeat_expansion_rejected():
    d = star(3)
    b = add_expansion(Branching(d), 0, [1, 2, 3])
    with pytest.raises(MalformedInput, match="two parents"):
        add_expansion(b, 0, [1, 2, 3])


def test_path_expansion_gives_spanning_arborescence():
    d = path(3)
    b = add_expansion(add_expansion(Branching(d), 0, [1]), 1, [2])
    assert b.is_spanning_arborescence()
    assert b.stats().leaves == 1


def test_empty_branching_not_spanning_arborescence():
    assert not Branching(star(2)).is_spanning_arborescence()


def test_is_t_branching():
    # is_maximal checks the t-branching shape first: 0 and 1 have two children each
    d = build_digraph(5, 0, [(0, 1), (0, 2), (1, 3), (1, 4)])
    b = add_expansion(add_expansion(Branching(d), 0, [1, 2]), 1, [3, 4])
    assert b.is_maximal(2)
    with pytest.raises(PreconditionViolated, match="not a 3-branching"):
        b.is_maximal(3)


def test_is_maximal_star():
    d = star(3)
    b = Branching(d)
    assert not b.is_maximal(3)  # root still has 3 free out-neighbors
    assert not b.is_maximal(1)
    d2 = star(2)
    assert Branching(d2).is_maximal(3)


def test_is_maximal_requires_t_branching():
    d = star(3)
    b = add_expansion(Branching(d), 0, [1, 2, 3])
    with pytest.raises(PreconditionViolated, match="not a 4-branching"):
        b.is_maximal(4)


@pytest.mark.parametrize("t", ["3", 1.5, True, 0], ids=["string", "float", "bool", "zero"])
@pytest.mark.parametrize("scan", ["free_heads", "greedy_expand", "is_maximal"])
def test_scans_reject_a_t_that_is_not_a_positive_integer(scan, t):
    # is_maximal("3") once raised TypeError and free_heads(1.5) ran as if t
    # were a number; greedy_expand runs the same check before its pass
    b = Branching(star(3))
    with pytest.raises(PreconditionViolated, match="t must be a positive integer"):
        if scan == "greedy_expand":
            greedy_expand(b.host, t)
        else:
            result = getattr(b, scan)(t)
            if scan == "free_heads":
                list(result)  # a generator checks t on its first step


def test_scan_matches_brute_force_on_random_branchings():
    # the greedy 3- and 4-branchings, the 2-branching after matching, and
    # non-maximal ones grown by random expansions from the empty branching
    rng = random.Random(3)
    outcomes = set()
    for d in random_dag_corpus(150, 1, 25, seed=29):
        f3 = greedy_expand(d, 3)
        branchings = [Branching(d), f3, greedy_expand(d, 4), max_expand(f3)[0]]
        b = Branching(d)
        for _ in range(4):
            candidates = [v for v in range(d.vertex_count)
                          if b.out_degree[v] == 0 and available_heads(b, v)]
            if not candidates:
                break
            v = rng.choice(candidates)
            heads = available_heads(b, v)
            b = add_expansion(b, v, rng.sample(heads, rng.randint(1, len(heads))))
            branchings.append(b)
        for b in branchings:
            for t in range(1, 6):
                # the scan walks ids in ascending order
                assert list(b.free_heads(t)) == [
                    (v, available_heads(b, v)) for v in range(d.vertex_count)
                    if b.out_degree[v] == 0 and len(d.out_adj[v]) >= t
                ]
                if not is_t_branching(b, t):
                    with pytest.raises(PreconditionViolated, match=f"not a {t}-branching"):
                        b.is_maximal(t)
                    continue
                maximal = b.is_maximal(t)
                assert maximal == brute_force_is_maximal(b, t)
                outcomes.add((t, maximal))
    assert outcomes == {(t, m) for t in range(1, 6) for m in (False, True)}


def test_stats_match_independent_recount_on_random_expansions():
    rng = random.Random(7)
    for d in random_dag_corpus(50, 2, 30, seed=11):
        b = Branching(d).copy()
        for _ in range(50):
            candidates = [
                v for v in range(d.vertex_count)
                if b.out_degree[v] == 0 and available_heads(b, v)
            ]
            if not candidates:
                break
            v = rng.choice(candidates)
            heads = available_heads(b, v)
            b = add_expansion(b, v, rng.sample(heads, rng.randint(1, len(heads))))
        assert_stats_match_recount(b)


def test_stats_match_independent_recount_without_arcs():
    assert_stats_match_recount(Branching(build_digraph(1, 0, [])))
    for d in random_dag_corpus(20, 1, 30, seed=19):
        assert_stats_match_recount(Branching(d))


def test_stats_match_independent_recount_on_every_phase_solved_and_verified(monkeypatch):
    # every report the four approximate pipelines and verify certify: each
    # N{i}/k{i}, count, shape and leaf count equals a recount on the phase
    # prefixes built from the two arrays with Branching.from_parents
    certified = []
    certify = SolveReport.certify

    def recorded_certify(pipeline, tree, phase):
        report = certify(pipeline, tree, phase)
        certified.append((tree.host, list(tree.parent), list(phase), report))
        return report

    monkeypatch.setattr(SolveReport, "certify", staticmethod(recorded_certify))
    for d in random_dag_corpus(30, 1, 40, seed=23):
        for name in ("maxleaves", "expansion2", "w3dm-greedy", "w3dm-exact"):
            pipeline = PIPELINES[name]
            try:
                t, report = pipeline.solve(leafspan.cli, d)
            except TooLarge:
                continue
            solution = {"parent": t.parent, "phase": report.phase,
                        "leaf_count": report.leaf_count, "report": report.to_dict()}
            assert verify_solution(d, solution) == []
    monkeypatch.undo()
    assert len(certified) > 200
    for d, parent, phase, report in certified:
        pipeline = report.pipeline
        prefixes = phase_prefixes(d, parent, phase, len(pipeline.phases))
        recounts = [recount_stats(b) for b in prefixes]
        for i, r in enumerate(recounts[:-1], start=1):
            assert (report.values[f"N{i}"], report.values[f"k{i}"]) == (r["N"], r["k"])
        for i, name in enumerate(pipeline.counts):
            assert report.values[name] == recounts[i]["leaves"] - recounts[i + 1]["leaves"]
        assert report.leaf_count == recounts[-1]["leaves"]
        for (name, t), b in zip(pipeline.phases, prefixes):
            assert_stats_match_recount(b)
            if t > 1:
                assert report.inequalities[f"{name} is a {t}-branching"] == is_t_branching(b, t)
            for s in range(1, 6):
                if is_t_branching(b, s):
                    b.is_maximal(s)  # its precondition holds
                else:
                    with pytest.raises(PreconditionViolated, match=f"not a {s}-branching"):
                        b.is_maximal(s)


@pytest.mark.parametrize("arc", [(0, -1), (0, 3), (0, 7), (-3, 1), (2, 1), (1, 1),
                                 (False, 1), (0.0, 2), (0, 2.0), (0, True)])
def test_from_arcs_rejects_arcs_outside_the_host(arc):
    # -3 must not index out_adj from the end: out_adj[-3] is out_adj[0], so
    # (-3, 1) would match host arc (0, 1); False and 0.0 compare equal to the
    # tail 0 but are not vertex ids
    d = build_digraph(3, 0, [(0, 1), (0, 2)])
    with pytest.raises(MalformedInput, match="not in host"):
        Branching.from_arcs(d, [arc])


@pytest.mark.parametrize("v", [-1, 0, 2, 20, 40, 41])
def test_from_arcs_rejects_misses_in_a_bisected_head_list(v):
    # root 0 has the 20 heads 1, 3, ..., 39, enough for its list to be
    # bisected: a miss before the first head, between two or after the last
    odd = range(1, 41, 2)
    d = build_digraph(41, 0, [(0, h) for h in odd] + [(h, h + 1) for h in odd])
    with pytest.raises(MalformedInput, match="not in host"):
        Branching.from_arcs(d, [(0, v)])
    assert Branching.from_arcs(d, [(0, h) for h in odd]).out_degree[0] == 20


def test_from_arcs_rejects_a_second_parent():
    d = build_digraph(3, 0, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(MalformedInput, match="two parents"):
        Branching.from_arcs(d, [(0, 2), (1, 2)])
    assert Branching.from_arcs(d, [(1, 2), (0, 1)]).parent == [None, 0, 1]


def parents_outcome(build, d, parents):
    """The arrays ``build(d, parents)`` gives, or the message it raises."""
    try:
        b = build(d, parents)
    except MalformedInput as e:
        return f"MalformedInput: {e}"
    return b.parent, b.out_degree


def corrupted(d, parent, rng):
    """``parent`` with one child's entry replaced by each kind of bad tail."""
    n = d.vertex_count
    child = rng.choice([v for v, p in enumerate(parent) if p is not None])
    strangers = [u for u in range(n) if child not in d.out_adj[u] and u != child]
    for tail in [-1, n, True, 1.0, "0", child] + rng.sample(strangers, min(2, len(strangers))):
        yield parent[:child] + [tail] + parent[child + 1:]
    yield parent[:child] + [None] + parent[child + 1:]


def test_from_parents_matches_the_pair_list_path():
    # from_parents hands from_arcs a lazy iterator of the (p, v) pairs; the
    # list of those pairs it built before gives the same arrays and messages
    rng = random.Random(31)
    cases = []
    for d in random_dag_corpus(40, 2, 60, seed=31):
        for name, pipeline in PIPELINES.items():
            try:
                t, _ = pipeline.solve(leafspan.cli, d)
            except TooLarge:
                continue
            cases += [(d, t.parent), *((d, p) for p in corrupted(d, t.parent, rng))]
    # root 0 has the 20 heads 1..20, so its list is bisected: 20 is its last
    # head, and 21, one past it, reaches the bound of the bisection
    hub = build_digraph(22, 0, [(0, h) for h in range(1, 21)] + [(20, 21)])
    tree = [None] + [0] * 20 + [20]
    cases += [(hub, tree), (hub, tree[:21] + [0]), (hub, tree[:20] + [21, 20]),
              (hub, tree[:20] + [None, 20]), (hub, [None, True] + tree[2:]),
              (hub, tree[:-1]), (hub, None), (hub, "x" * 22)]
    outcomes = [parents_outcome(Branching.from_parents, d, p) for d, p in cases]
    assert outcomes == [parents_outcome(reference_from_parents, d, p) for d, p in cases]
    messages = {o for o in outcomes if isinstance(o, str)}
    assert len(outcomes) > 1000 and len(messages) > 100
    assert {"MalformedInput: arc (0, 21) not in host digraph",
            "MalformedInput: arc (True, 1) not in host digraph"} <= messages
