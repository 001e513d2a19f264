"""Leaf-maximizing arborescence solvers and the exact oracle.

Pipelines:
  * ``max_leaves``         greedy 3-expansions, matching-optimal 2-expansions,
                           then attachment; certified 3/2 ratio.
  * ``expansion_baseline`` greedy 2-expansions then attachment; ratio 2.
  * ``max_leaves_packing`` greedy 4-expansions, weighted 2/3-set packing,
                           then attachment; ratio max{4/3, alpha}.
  * ``exact_max_leaves``   branch-and-bound over parent functions (oracle).

The phases take only what a pipeline passes them: ``greedy_expand(d, t)``
starts from the empty branching, and ``max_expand(f)`` and ``attach(f)``
read the digraph from ``f.host``.

Each pipeline returns its arborescence and a `SolveReport` certified by its
record in `certificates.PIPELINES`, the same code `verify` rechecks with.
All vertex iteration happens in the digraph's deterministic topological
order, so identical inputs give identical outputs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .branching import Branching
from .certificates import PIPELINES, Pipeline, SolveReport
from .errors import MalformedInput, PreconditionViolated, TooLarge
from .graph import Digraph, topological_order
from .matching import max_matching
from .packing import EXACT_PACKER, Packer, PackSet

EXACT_PRODUCT_LIMIT = 10**8
EXACT_SMALL_N = 16


def greedy_expand(d: Digraph, t: int) -> Branching:
    """Maximal spanning t-branching of ``d``, built from the empty branching.

    Each out-degree-0 vertex is examined once, in topological order; when it
    still has at least ``t`` in-degree-0 out-neighbors, all of them are taken.
    A vertex is expanded only while it has out-degree 0, so no internal
    vertex is left with an in-degree-0 out-neighbor.
    """
    work = Branching(d)
    for v, heads in work.free_heads(t):
        if len(heads) >= t:
            work._expand(v, heads)
    return work


def attach(f: Branching) -> Branching:
    """Give every remaining in-degree-0 non-root vertex of ``f.host`` a parent.

    Processed in topological order; an already-internal in-neighbor is
    preferred (it costs no leaf), ties broken by smallest id.  The result is
    always a spanning arborescence, even when earlier phases left vertices
    whose in-neighbors are all internal.
    """
    d = f.host
    work = f.copy()
    for v in topological_order(d):
        if v != d.root and work.parent[v] is None:
            candidates = d.in_adj[v]
            pick = next(
                (p for p in candidates if work.out_degree[p] > 0), candidates[0]
            )
            work._attach(pick, v)
    return work


def max_expand(f: Branching) -> tuple[Branching, int]:
    """Maximum spanning 2-branching containing the maximal 3-branching ``f``.

    Builds the multigraph of feasible 2-expansions over the in-degree-0
    vertices of ``f.host``, collapses parallel edges (smallest candidate id
    wins), computes a maximum matching, and applies the matched expansions.
    Returns the expanded branching and the matching size.
    """
    if not f.is_t_branching(3):
        raise PreconditionViolated("input is not a 3-branching")
    if not f.is_maximal(3):
        raise PreconditionViolated("input 3-branching is not maximal")
    d = f.host

    # candidate v: out-degree 0 with exactly two in-degree-0 out-neighbors;
    # heads are sorted, so each pair is already a normalized matching edge
    edge_for_pair: dict[tuple[int, ...], int] = {}
    for v, heads in f.free_heads(2):
        if len(heads) == 2:
            pair = tuple(heads)
            if v < edge_for_pair.get(pair, d.vertex_count):
                edge_for_pair[pair] = v

    matched = max_matching(d.vertex_count, edge_for_pair)

    # a pair is exactly its candidate's free heads, and matched pairs are
    # disjoint, so applying one leaves the others' heads free
    work = f.copy()
    for v, pair in sorted((edge_for_pair[pair], pair) for pair in matched):
        work._expand(v, pair)
    return work, len(matched)


def _finish(pipeline: Pipeline, phases: list[Branching]) -> tuple[Branching, SolveReport]:
    t = attach(phases[-1])
    return t, SolveReport.from_phases(pipeline, [*phases, t])


def max_leaves(d: Digraph) -> tuple[Branching, SolveReport]:
    """The certified 3/2-ratio pipeline: 3-expansions, matching, attachment."""
    f1 = greedy_expand(d, 3)
    f2, _ = max_expand(f1)
    return _finish(PIPELINES["maxleaves"], [f1, f2])


def expansion_baseline(d: Digraph) -> tuple[Branching, SolveReport]:
    """Plain greedy 2-expansion baseline (ratio 2) with its own certificate."""
    return _finish(PIPELINES["expansion2"], [greedy_expand(d, 2)])


def max_leaves_packing(
    d: Digraph, packer: Packer = EXACT_PACKER
) -> tuple[Branching, SolveReport]:
    """The weighted 2/3-set-packing pipeline (ratio max{4/3, alpha}).

    Greedy 4-expansions first; every remaining out-degree-0 vertex with two
    or three in-degree-0 out-neighbors contributes a set (weight = size - 1),
    and each 3-set also contributes its three 2-subsets.  Size-3 selections
    are applied before size-2 ones, then the attachment phase completes the
    arborescence.  The report is certified by its ``w3dm-<packer name>`` row
    of `PIPELINES`; a packer without one raises PreconditionViolated.
    """
    pipeline = PIPELINES.get(f"w3dm-{packer.name}") if isinstance(packer, Packer) else None
    if pipeline is None:
        raise PreconditionViolated(f"no certified pipeline for packer {packer!r:.40}")
    f1 = greedy_expand(d, 4)

    # heads come ascending (out_adj is sorted), as PackSet.members must be
    sets: list[PackSet] = []
    for v, heads in f1.free_heads(2):
        if 2 <= len(heads) <= 3:
            sets.append(PackSet(tuple(heads), len(heads) - 1, v))
            if len(heads) == 3:
                a, b, c = heads
                sets += [PackSet((a, b), 1, v), PackSet((a, c), 1, v), PackSet((b, c), 1, v)]

    selection = sorted(packer.solve(sets), key=itemgetter(2))  # by candidate
    phases = [f1]
    for size in (3, 2):  # F2 adds the selected triples, F3 the pairs
        phases.append(phases[-1].copy())
        for s in selection:
            if len(s.members) == size:
                phases[-1]._expand(s.candidate, s.members)
    return _finish(pipeline, phases)


def _exact_guard(d: Digraph) -> None:
    if d.vertex_count <= EXACT_SMALL_N:
        return
    product = 1
    for v in range(d.vertex_count):
        if v == d.root:
            continue
        product *= len(d.in_adj[v])
        if product > EXACT_PRODUCT_LIMIT:
            raise TooLarge(
                f"search space exceeds {EXACT_PRODUCT_LIMIT} parent functions"
            )


def exact_max_leaves(d: Digraph, objective: str = "leaves") -> tuple[int, Branching]:
    """Exact optimum by branch-and-bound over parent functions.

    On a rooted DAG every parent function (one in-neighbor per non-root
    vertex) yields a spanning arborescence, so the search minimizes the
    total weight of distinct parents used.  ``objective`` is "leaves" (count
    of out-degree-0 vertices) or "leaf_weight" (their summed vertex weights).
    The optimistic bound assumes every undecided vertex becomes a leaf, which
    is admissible, so pruning never changes the returned value.
    """
    if objective not in ("leaves", "leaf_weight"):
        raise MalformedInput(f"unknown objective {objective!r:.20}")
    _exact_guard(d)

    n = d.vertex_count
    if objective == "leaf_weight":
        if d.vertex_weights is None:
            raise PreconditionViolated("leaf_weight objective needs vertex weights")
        weight = d.vertex_weights
    else:
        weight = [1] * n
    total = sum(weight)

    order = [v for v in topological_order(d) if v != d.root]
    forced = [v for v in order if len(d.in_adj[v]) == 1]
    choices = [v for v in order if len(d.in_adj[v]) > 1]

    parent: list[Optional[int]] = [None] * n
    use_count = [0] * n
    base_cost = 0
    for v in forced:
        p = d.in_adj[v][0]
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
            if cost < best_cost:
                best_cost = cost
                best_parent = list(parent)
            return
        v = choices[i]
        options = d.in_adj[v]
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
