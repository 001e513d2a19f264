"""Exhaustive oracles the tests compare the package's algorithms against.

Each exhaustive one is guarded: it raises TooLarge above a size where
exhaustive search stops being cheap.  `reference_pack_greedy` and
`reference_pack_exact` are packers written over frozensets, so they do not
rely on the ascending order of `PackSet.members`; the exact one also keeps
the earlier search order and tie-break.
`reference_greedy_expand`, `reference_max_expand`,
`reference_max_leaves_packing` and `brute_force_is_maximal` look at every
vertex, with no skip on the host out-degree; those that build a branching
build it through the checked `Branching.from_arcs`.  `reference_attach`
reads every in-list of the host's full ``in_adj``.  `reference_certify`
reports on one branching per phase (the certificate path before it read the
two arrays), and `phase_prefixes` builds those branchings from a parent and
a phase array.  `random_dag_corpus` and `random_edges` supply seeded inputs
for property tests, and `add_expansion` builds branchings by hand.
`digraph_arcs` and `branching_arcs` list the arcs of a digraph and of a
branching, and `is_t_branching` checks a branching's shape by its definition.
`reference_from_parents` rebuilds a branching from a parent array through
the list of its ``(parent, child)`` pairs, as `Branching.from_parents` did
before it handed `Branching.from_arcs` a lazy iterator.
`reference_exact_max_leaves` is the exact oracle with its cost prune
alone, and the `reference_*_bound` functions are the certificate bounds
written as sums of `Fraction` terms.
`leaves_to_independent_set` maps a solved `reduce_independent_set`
instance back to the source graph.
`graph_fields` compares two digraphs field by field, and `instance_v1`
gives one as a version 1 instance object.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from leafspan import (
    Branching,
    Digraph,
    MalformedInput,
    Packer,
    PackSet,
    PreconditionViolated,
    TooLarge,
    UndirectedGraphInstance,
    attach,
    gen_random_rooted_dag,
)
from leafspan.certificates import PIPELINES, Pipeline, SolveReport
from leafspan.graph import Arc
from leafspan.matching import Edge, _normalize_edges, max_matching
from leafspan.packing import EXACT_SET_LIMIT
from leafspan.solvers import _exact_guard

BRUTE_FORCE_EDGE_LIMIT = 25
BRUTE_FORCE_PARENT_FUNCTION_LIMIT = 10**6
INDEPENDENT_SET_VERTEX_LIMIT = 20


def brute_force_matching(vertex_count: int, edges: Iterable[Edge]) -> list[Edge]:
    """Maximum matching by exhaustive search; oracle twin of `max_matching`.

    Raises MalformedInput for a repeated edge, as `max_matching` does, and
    TooLarge when the edge count exceeds ``BRUTE_FORCE_EDGE_LIMIT``.
    """
    edge_list = _normalize_edges(vertex_count, edges)
    seen: set[Edge] = set()
    for edge in edge_list:
        if edge in seen:
            raise MalformedInput(f"duplicate edge {edge}")
        seen.add(edge)
    if len(edge_list) > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLarge(
            f"{len(edge_list)} edges exceeds guard of {BRUTE_FORCE_EDGE_LIMIT}"
        )

    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edge_list:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()

    def rec(v: int, used: int) -> tuple[int, list[Edge]]:
        while v < vertex_count and ((used >> v) & 1 or not adj[v]):
            v += 1
        if v >= vertex_count:
            return 0, []
        best_size, best_edges = rec(v + 1, used)  # leave v unmatched
        for u in adj[v]:
            if u > v and not (used >> u) & 1:
                size, chosen = rec(v + 1, used | (1 << v) | (1 << u))
                if size + 1 > best_size:
                    best_size = size + 1
                    best_edges = chosen + [(v, u)]
        return best_size, best_edges

    _, picked = rec(0, 0)
    return sorted(picked)


def is_matching(edges: Sequence[Edge]) -> bool:
    """True iff no two edges share an endpoint."""
    seen: set[int] = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def brute_force_max_leaves(d: Digraph, objective: str = "leaves") -> int:
    """Best leaf count (or leaf weight) over every parent function of ``d``.

    Oracle twin of `exact_max_leaves`: on a rooted DAG each choice of one
    in-neighbor per non-root vertex is a spanning arborescence, and its leaves
    are the vertices never chosen as a parent.  Raises TooLarge when there
    are more than ``BRUTE_FORCE_PARENT_FUNCTION_LIMIT`` parent functions.
    """
    weight = d.vertex_weights if objective == "leaf_weight" else [1] * d.vertex_count
    options = [d.in_adj[v] for v in range(d.vertex_count) if v != d.root]
    count = math.prod(map(len, options))
    if count > BRUTE_FORCE_PARENT_FUNCTION_LIMIT:
        raise TooLarge(
            f"{count} parent functions exceeds guard of {BRUTE_FORCE_PARENT_FUNCTION_LIMIT}"
        )
    used_weight = min(
        sum(weight[p] for p in set(parents)) for parents in itertools.product(*options)
    )
    return sum(weight) - used_weight


def reference_exact_max_leaves(d: Digraph, objective: str = "leaves") -> tuple[int, Branching]:
    """The exact oracle before its disjoint-family bound; twin of `exact_max_leaves`.

    Its only prune is "cost so far >= best cost"; `exact_max_leaves` must
    return the same value and parent array, and refuse the same inputs.

    On a rooted DAG every parent function (one in-neighbor per non-root
    vertex) yields a spanning arborescence, so the search minimizes the
    total weight of distinct parents used.  ``objective`` is "leaves" (count
    of out-degree-0 vertices) or "leaf_weight" (their summed vertex weights).
    The optimistic bound assumes every undecided vertex becomes a leaf, which
    is admissible, so pruning never changes the returned value.  Ties go to
    the first optimum in search order: free parents first, then ascending id.
    """
    if objective not in ("leaves", "leaf_weight"):
        raise MalformedInput(f"unknown objective {objective!r:.20}")
    n = d.vertex_count
    if objective == "leaf_weight":
        if d.vertex_weights is None:
            raise PreconditionViolated("leaf_weight objective needs vertex weights")
        weight = d.vertex_weights
    else:
        weight = [1] * n
    _exact_guard(d)
    total = sum(weight)

    in_adj = d.in_adj  # built on first use: read once, not per search node
    order = [v for v in d.order if v != d.root]
    forced = [v for v in order if len(in_adj[v]) == 1]
    choices = [v for v in order if len(in_adj[v]) > 1]

    parent: list[Optional[int]] = [None] * n
    use_count = [0] * n
    base_cost = 0
    for v in forced:
        p = in_adj[v][0]
        parent[v] = p
        if use_count[p] == 0:
            base_cost += weight[p]
        use_count[p] += 1

    best_cost = total + 1
    best_parent: Optional[list[Optional[int]]] = None

    def dfs(i: int, cost: int) -> None:
        nonlocal best_cost, best_parent
        if cost >= best_cost:
            return
        if i == len(choices):
            best_cost = cost
            best_parent = list(parent)
            return
        v = choices[i]
        options = in_adj[v]
        # free (already-internal) parents first, then ascending id
        for p in sorted(options, key=lambda q: (use_count[q] == 0, q)):
            added = weight[p] if use_count[p] == 0 else 0
            parent[v] = p
            use_count[p] += 1
            dfs(i + 1, cost + added)
            use_count[p] -= 1
            parent[v] = None

    dfs(0, base_cost)
    del dfs  # dfs refers to itself; break the cycle so its state is freed now
    assert best_parent is not None
    return total - best_cost, Branching.from_parents(d, best_parent)


def reference_two_phase_lower_bound(N1: int, k1: int, N2: int, k2: int) -> Fraction:
    """lb_lemma1 as a sum of `Fraction` terms; twin of `two_phase_lower_bound`."""
    return Fraction(N1 - k1, 6) + Fraction(N2 - k2, 2) + 1


def reference_two_phase_upper_bound(N1: int, k1: int, N2: int, k2: int) -> Fraction:
    """ub_lemma3 as a sum of `Fraction` terms; twin of `two_phase_upper_bound`."""
    return Fraction(N1 - k1, 2) + Fraction(N2 - k2, 2) + 1


def reference_baseline_lower_bound(N: int, k: int) -> Fraction:
    """lb_baseline as a sum of `Fraction` terms; twin of `baseline_lower_bound`."""
    return Fraction(N - k, 2) + 1


def reference_packing_lower_bound(
    N1: int, k1: int, N2: int, k2: int, N3: int, k3: int
) -> Fraction:
    """lb_lemma4 as a sum of `Fraction` terms; twin of `packing_lower_bound`."""
    return (
        Fraction(N1 - k1, 12) + Fraction(N2 - k2, 6) + Fraction(N3 - k3, 2) + 1
    )


def reference_packing_upper_bound(
    N1: int, k1: int, N2: int, k2: int, N3: int, k3: int, alpha: Fraction
) -> Fraction:
    """ub_lemma5 as a sum of `Fraction` terms in ``alpha``; twin of `packing_upper_bound`."""
    return (
        Fraction(3 - 2 * alpha, 3) * (N1 - k1)
        + (alpha / 6) * (N2 - k2)
        + (alpha / 2) * (N3 - k3)
        + 1
    )


def brute_force_max_independent_set(
    g: UndirectedGraphInstance,
) -> tuple[int, set[int]]:
    """Exhaustive maximum independent set (guarded)."""
    n = g.vertex_count
    if n > INDEPENDENT_SET_VERTEX_LIMIT:
        raise TooLarge(
            f"{n} vertices exceeds guard of {INDEPENDENT_SET_VERTEX_LIMIT}"
        )
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    memo: dict[int, tuple[int, int]] = {}

    def rec(mask: int) -> tuple[int, int]:
        if mask == 0:
            return 0, 0
        hit = memo.get(mask)
        if hit is not None:
            return hit
        v = (mask & -mask).bit_length() - 1
        size_out, set_out = rec(mask & ~(1 << v))
        size_in, set_in = rec(mask & ~((1 << v) | nbr[v]))
        size_in += 1
        set_in |= 1 << v
        result = (size_in, set_in) if size_in >= size_out else (size_out, set_out)
        memo[mask] = result
        return result

    size, chosen = rec((1 << n) - 1)
    return size, {v for v in range(n) if (chosen >> v) & 1}


def leaves_to_independent_set(t: Branching) -> set[int]:
    """Source vertices left as leaves by ``t``, an arborescence of a reduction."""
    return {v - 1 for v in t.host.out_adj[0] if t.out_degree[v] == 0}


def digraph_arcs(d: Digraph) -> tuple[Arc, ...]:
    """The ``(tail, head)`` arcs of ``d`` in lexicographic order, read from ``out_adj``."""
    return tuple((u, v) for u, heads in enumerate(d.out_adj) for v in heads)


def instance_v1(d: Digraph) -> dict:
    """``d`` as a version 1 instance object, the arcs as ``[t, h]`` pairs in lexicographic order.

    Written with `write_json_object`, it gives the bytes `write_instance`
    wrote before instances were stored as head lists.
    """
    obj = {"version": 1, "n": d.vertex_count, "root": d.root,
           "arcs": [list(arc) for arc in digraph_arcs(d)]}
    if d.vertex_weights is not None:
        obj["weights"] = list(d.vertex_weights)
    return obj


def branching_arcs(b: Branching) -> list[Arc]:
    """The ``(parent, child)`` arcs of ``b``, ordered by child."""
    return [(p, v) for v, p in enumerate(b.parent) if p is not None]


def graph_fields(d: Digraph) -> tuple:
    """What defines ``d``, for comparing two builds; `Digraph` compares by identity."""
    return (d.vertex_count, d.root, d.out_adj, d.in_adj, d.order, d.vertex_weights)


def _reference_order_key(s: PackSet) -> tuple:
    # descending weight, then ascending candidate id, then member ids
    return (-s.weight, s.candidate, tuple(sorted(frozenset(s.members))))


def reference_pack_greedy(sets: Sequence[PackSet]) -> list[PackSet]:
    """Greedy packing over frozensets; oracle twin of `pack_greedy`."""
    chosen: list[PackSet] = []
    used: set[int] = set()
    for s in sorted(sets, key=_reference_order_key):
        members = frozenset(s.members)
        if used.isdisjoint(members):
            chosen.append(s)
            used.update(members)
    return chosen


def reference_pack_exact(sets: Sequence[PackSet]) -> list[PackSet]:
    """Branch-and-bound packing over frozensets, kept as an independent reference.

    It is the earlier `pack_exact`: it searches in packing order and, at
    every leaf, compares sorted ``(members, candidate)`` signatures, where
    `pack_exact` searches in signature order and keeps the first best.  Same
    objective and tie-breaks: the largest total weight, then the most sets,
    then the lexicographically smallest selection.  Raises TooLarge above
    ``EXACT_SET_LIMIT`` sets.
    """
    if len(sets) > EXACT_SET_LIMIT:
        raise TooLarge(f"{len(sets)} sets exceeds guard of {EXACT_SET_LIMIT}")
    order = sorted(sets, key=_reference_order_key)
    m = len(order)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + order[i].weight

    best_weight = -1
    best_count = -1
    best_sig: tuple = ()
    best_sel: list[PackSet] = []

    used: set[int] = set()
    cur: list[PackSet] = []

    def consider() -> None:
        nonlocal best_weight, best_count, best_sig, best_sel
        w = sum(s.weight for s in cur)
        c = len(cur)
        if (w, c) < (best_weight, best_count):
            return
        sig = tuple(sorted((tuple(sorted(frozenset(s.members))), s.candidate) for s in cur))
        if (w, c) > (best_weight, best_count) or sig < best_sig:
            best_weight, best_count, best_sig = w, c, sig
            best_sel = list(cur)

    def dfs(i: int, weight: int) -> None:
        if weight + suffix[i] < best_weight:
            return  # cannot even tie
        if i == m:
            consider()
            return
        s = order[i]
        members = frozenset(s.members)
        if used.isdisjoint(members):
            used.update(members)
            cur.append(s)
            dfs(i + 1, weight + s.weight)
            cur.pop()
            used.difference_update(members)
        dfs(i + 1, weight)

    dfs(0, 0)
    return best_sel


def random_dag_corpus(
    count: int, n_lo: int, n_hi: int, seed: int = 1,
    probabilities: Sequence[float] = (0.0, 0.1, 0.3, 0.6),
) -> list[Digraph]:
    """Deterministic list of random rooted DAGs for property tests."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(n_lo, n_hi)
        p = rng.choice(probabilities)
        out.append(gen_random_rooted_dag(n, p, seed * 100003 + i))
    return out


def random_edges(rng: random.Random, n: int, m: int) -> list[Edge]:
    """``m`` distinct random edges on ``n`` vertices (fewer if the graph is complete)."""
    m = min(m, n * (n - 1) // 2)
    edges: dict[Edge, None] = {}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges[(min(u, v), max(u, v))] = None
    return list(edges)


def available_heads(b: Branching, v: int) -> list[int]:
    """Out-neighbors of ``v`` in ``b.host`` that still have in-degree 0."""
    return [u for u in b.host.out_adj[v] if b.parent[u] is None]


def is_t_branching(b: Branching, t: int) -> bool:
    """True iff every internal vertex of ``b`` has out-degree at least ``t``."""
    return all(o == 0 or o >= t for o in b.out_degree)


def brute_force_is_maximal(b: Branching, t: int) -> bool:
    """True iff no out-degree-0 vertex has ``t`` free heads; oracle twin of `is_maximal`.

    Checks every vertex by id, with no skip on the host out-degree.
    """
    return not any(
        b.out_degree[v] == 0 and len(available_heads(b, v)) >= t
        for v in range(b.host.vertex_count)
    )


def reference_greedy_expand(d: Digraph, t: int) -> Branching:
    """Greedy t-expansion over the topological order, built through `add_expansion`; twin of `greedy_expand`."""
    work = Branching(d)
    for v in d.order:
        if work.out_degree[v] == 0:
            heads = available_heads(work, v)
            if len(heads) >= t:
                work = add_expansion(work, v, heads)
    return work


def reference_max_expand(f: Branching) -> tuple[Branching, int]:
    """Matching-optimal 2-expansion over ``d.order`` with checked expansions; twin of `max_expand`.

    Keeps the smallest candidate of each pair, matches the pairs with
    `max_matching`, and applies each matched pair through `add_expansion`.
    """
    d = f.host
    edge_for_pair: dict[tuple[int, ...], int] = {}
    for v in d.order:
        heads = available_heads(f, v)
        if f.out_degree[v] == 0 and len(heads) == 2:
            pair = tuple(heads)
            edge_for_pair[pair] = min(v, edge_for_pair.get(pair, v))
    matched = max_matching(d.vertex_count, edge_for_pair)
    for pair in matched:
        f = add_expansion(f, edge_for_pair[pair], pair)
    return f, len(matched)


def reference_attach(f: Branching) -> Branching:
    """Attachment over the host's full ``in_adj``; twin of `attach`.

    Walks ``d.order`` and gives each parentless non-root vertex its first
    internal in-neighbor, else its smallest one.
    """
    d = f.host
    work = f.copy()
    for v in d.order:
        if v != d.root and work.parent[v] is None:
            candidates = d.in_adj[v]
            pick = next((p for p in candidates if work.out_degree[p] > 0), candidates[0])
            work.parent[v] = pick
            work.out_degree[pick] += 1
    return work


def add_expansion(b: Branching, v: int, heads: Sequence[int]) -> Branching:
    """A new branching: the arcs of ``b`` and every arc ``(v, h)``, through `Branching.from_arcs`.

    ``v`` should have out-degree 0 in ``b``.  A ``(v, h)`` that is not a
    host arc, or a head that repeats or already has a parent, raises
    MalformedInput.
    """
    return Branching.from_arcs(b.host, branching_arcs(b) + [(v, h) for h in heads])


def reference_max_leaves_packing(d: Digraph, packer: Packer) -> tuple[Branching, SolveReport]:
    """The packing pipeline built through the checked `Branching.from_arcs`; twin of `max_leaves_packing`.

    Offers every leaf of the greedy 4-branching with two or three free heads
    (and a triple's three pairs), then adds the selected triples (F2) and
    pairs (F3) in candidate order, each phase rebuilt from its arc list.
    """
    f1 = reference_greedy_expand(d, 4)
    sets = []
    for v in range(d.vertex_count):
        heads = tuple(available_heads(f1, v))
        if f1.out_degree[v] == 0 and len(heads) in (2, 3):
            sets.append(PackSet(heads, len(heads) - 1, v))
            if len(heads) == 3:
                sets += [PackSet(pair, 1, v) for pair in itertools.combinations(heads, 2)]
    selection = sorted(packer.solve(sets), key=lambda s: s.candidate)
    phases = [f1]
    for size in (3, 2):
        added = [(s.candidate, h) for s in selection if len(s.members) == size for h in s.members]
        phases.append(Branching.from_arcs(d, branching_arcs(phases[-1]) + added))
    t = attach(phases[-1])
    return t, reference_certify(PIPELINES[f"w3dm-{packer.name}"], [*phases, t])


def reference_from_parents(host: Digraph, parents: Sequence[Optional[int]]) -> Branching:
    """Twin of `Branching.from_parents` that hands `from_arcs` a list of ``(p, v)`` pairs."""
    if not isinstance(parents, Sequence) or len(parents) != host.vertex_count:
        raise MalformedInput(f"parent array must be a sequence of length "
                             f"{host.vertex_count}, got {parents!r:.20}")
    return Branching.from_arcs(host, [(p, v) for v, p in enumerate(parents) if p is not None])


def phase_prefixes(d: Digraph, parent: Sequence, phase: Sequence[int],
                   count: int) -> list[Branching]:
    """The first ``count`` phases, each through `Branching.from_parents`:
    phase i keeps the arcs into the vertices of index <= i."""
    return [Branching.from_parents(d, [p if j <= i else None for p, j in zip(parent, phase)])
            for i in range(count)]


def reference_certify(pipeline: Pipeline, phases: Sequence[Branching]) -> SolveReport:
    """The report on one branching per phase, the arborescence last; twin of `SolveReport.certify`.

    Calls `Branching.stats` and `is_t_branching` on every phase and
    rebuilds the phase array from the branchings, one pass per phase.
    """
    stats = [b.stats() for b in phases]
    tree = phases[-1]
    phase = [0] * tree.host.vertex_count
    for i in reversed(range(len(phases))):
        phase = [i if p is not None else q for p, q in zip(phases[i].parent, phase)]
    values: dict = {}
    for i, s in enumerate(stats[:-1], start=1):
        values[f"N{i}"], values[f"k{i}"] = s.N, s.k
    inequalities = {f"{name} is a {t}-branching": is_t_branching(b, t)
                    for (name, t), b in zip(pipeline.phases, phases) if t > 1}
    inequalities["T is a spanning arborescence"] = tree.is_spanning_arborescence()
    identities = {}
    for i, name in enumerate(pipeline.counts):
        a, b, t = stats[i], stats[i + 1], pipeline.phases[i + 1][1]
        values[name] = a.leaves - b.leaves
        identity = f"{t} * {name} == (N{i + 2} - k{i + 2}) - (N{i + 1} - k{i + 1})"
        identities[identity] = t * values[name] == (b.N - b.k) - (a.N - a.k)
    leaves = stats[-1].leaves
    for b, v in zip(pipeline.bounds, pipeline.rule(stats, pipeline.alpha)):
        values[b] = v
        if b.startswith("lb_"):
            inequalities[f"leaf_count >= {b}"] = leaves >= v
        else:
            inequalities[f"{b} >= leaf_count"] = v >= leaves
    if pipeline.alpha is not None:
        values["claimed_alpha"] = pipeline.alpha
    if tree.host.vertex_weights is not None:
        values["leaf_weight"] = tree.leaf_weight()
    return SolveReport(pipeline, phase, leaves, values, {**inequalities, **identities})
