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
Greedy expansion and attachment walk the topological order, and the read-only
`Branching.free_heads` walks vertex ids, so identical inputs give identical outputs.
Each phase writes its arcs into a copy; a packer's selection is checked first.
"""

from __future__ import annotations

from typing import Optional

from .branching import Branching, _check_t
from .certificates import PIPELINES, Pipeline, SolveReport
from .errors import MalformedInput, PreconditionViolated, TooLarge
from .graph import Digraph, topological_order
from .matching import max_matching
from .packing import EXACT_PACKER, Packer, PackSet

EXACT_PRODUCT_LIMIT = 10**8
EXACT_SMALL_N = 16


def greedy_expand(d: Digraph, t: int) -> Branching:
    """Maximal spanning t-branching of ``d``, built from the empty branching.

    Each vertex is examined once, in topological order, so it still has
    out-degree 0; if at least ``t`` of its out-neighbors have in-degree 0,
    all of them are taken, written directly: host arcs into parentless
    vertices.  No internal vertex keeps an in-degree-0 out-neighbor.
    """
    _check_t(t)
    work = Branching(d)
    parent, out_degree, out_adj = work.parent, work.out_degree, d.out_adj
    for v in d.order:
        arcs = out_adj[v]
        if len(arcs) >= t:
            heads = [u for u in arcs if parent[u] is None]
            if len(heads) >= t:
                for u in heads:
                    parent[u] = v
                out_degree[v] = len(heads)
    return work


def attach(f: Branching) -> Branching:
    """Give every remaining in-degree-0 non-root vertex of ``f.host`` a parent.

    Processed in topological order; an already-internal in-neighbor is
    preferred (it costs no leaf), ties broken by smallest id.  The result is
    always a spanning arborescence, even when earlier phases left vertices
    whose in-neighbors are all internal.  In-neighbors are gathered only for
    the vertices to attach, in one pass over the tails before any write.
    """
    work = f.copy()
    d, parent, out_degree = f.host, work.parent, work.out_degree
    # the root has no in-arcs; the tails come ascending, as in d.in_adj
    tails = {v: [] for v, p in enumerate(parent) if p is None and v != d.root}
    if tails:
        for u, heads in enumerate(d.out_adj):
            for v in heads:
                if parent[v] is None:
                    tails[v].append(u)
        for v in topological_order(d):
            candidates = tails.get(v)
            if candidates:
                pick = next((p for p in candidates if out_degree[p] > 0), candidates[0])
                # an in-neighbor of a parentless v: the arc needs no check
                parent[v] = pick
                out_degree[pick] += 1
    return work


def max_expand(f: Branching) -> tuple[Branching, int]:
    """Maximum spanning 2-branching containing the maximal 3-branching ``f``.

    Builds the multigraph of feasible 2-expansions over the in-degree-0
    vertices of ``f.host``, collapses parallel edges (smallest candidate id
    wins), computes a maximum matching, and applies the matched expansions.
    Returns the expanded branching and the matching size.
    """
    if not f.is_maximal(3):
        raise PreconditionViolated("input 3-branching is not maximal")
    d = f.host

    # candidate v: out-degree 0 with exactly two in-degree-0 out-neighbors;
    # heads are sorted, so each pair is already a normalized matching edge
    edge_for_pair: dict[tuple[int, ...], int] = {}
    # the scan walks ids, so the first candidate of a pair is its smallest
    for v, heads in f.free_heads(2):
        if len(heads) == 2:
            edge_for_pair.setdefault(tuple(heads), v)

    matched = max_matching(d.vertex_count, edge_for_pair)

    # a pair is exactly its candidate's free heads, and matched pairs are
    # disjoint, so applying one leaves the others' heads free
    work = f.copy()
    parent, out_degree = work.parent, work.out_degree
    for a, b in matched:
        v = parent[a] = parent[b] = edge_for_pair[a, b]
        out_degree[v] = 2
    return work, len(matched)


def _finish(pipeline: Pipeline, phases: list[Branching]) -> tuple[Branching, SolveReport]:
    t = attach(phases[-1])
    phase = [len(phases)] * t.host.vertex_count  # T's index; certify zeroes the root's
    for i in reversed(range(len(phases))):
        phase = [i if p is not None else q for p, q in zip(phases[i].parent, phase)]
    return t, SolveReport.certify(pipeline, t, phase)


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
    and each 3-set also contributes its three 2-subsets.  A selection that is
    not pairwise-disjoint offered sets raises PreconditionViolated before any
    write.  Size-3 selections go first, then attachment completes the
    arborescence.  The report is certified by its ``w3dm-<packer name>`` row
    of `PIPELINES`; a packer without one raises PreconditionViolated.
    """
    pipeline = PIPELINES.get(f"w3dm-{packer.name}") if isinstance(packer, Packer) else None
    if pipeline is None:
        raise PreconditionViolated(f"no certified pipeline for packer {packer!r:.40}")
    f1 = greedy_expand(d, 4)

    # heads come ascending (out_adj is sorted), as PackSet.members must be;
    # the scan walks ids, so the sets come in (candidate, members) order
    sets: list[PackSet] = []
    for v, heads in f1.free_heads(2):
        if len(heads) == 2:
            sets.append(PackSet(tuple(heads), 1, v))
        elif len(heads) == 3:
            a, b, c = heads
            sets += [PackSet((a, b), 1, v), PackSet((a, b, c), 2, v),
                     PackSet((a, c), 1, v), PackSet((b, c), 1, v)]

    selection = packer.solve(sets)  # from outside: checked before any write
    offered, used = set(sets), set()
    try:
        selection = list(selection)
        for s in selection:
            if s not in offered or not used.isdisjoint(s.members):
                raise PreconditionViolated(f"packer selected {s!r:.80}, not an offered "
                                           f"set disjoint from the others")
            used.update(s.members)
    except TypeError:  # not iterable, or an unhashable set: nothing offered is either
        raise PreconditionViolated(f"packer returned {selection!r:.80}, not an offered "
                                   f"set or an iterable of them") from None
    del offered, used  # an entry per offered set and per head: free them before the writes

    # offered members are free heads of their leaf candidate in F1, and two
    # sets of one candidate share a head, so disjoint sets write disjoint arcs
    phases = [f1]
    for size in (3, 2):  # F2 adds the selected triples, F3 the pairs
        work = phases[-1].copy()
        parent, out_degree = work.parent, work.out_degree
        for members, _, v in selection:
            if len(members) == size:
                for h in members:
                    parent[h] = v
                out_degree[v] = size
        phases.append(work)
    return _finish(pipeline, phases)


def _exact_guard(d: Digraph) -> None:
    if d.vertex_count <= EXACT_SMALL_N:
        return
    product = 1
    for tails in d.in_adj:
        product *= len(tails) or 1  # the root has no in-neighbor and no choice
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
    Vertices with one in-neighbor are fixed; the rest, the choices, are
    decided in topological order, each by ascending id, and ties go to the
    first optimum in that order.  A choice with a parent in use takes the
    first such parent and does not branch: the cost prices only the set of
    parents in use, so another in use repeats the subtree, and a new parent p
    cannot do better, as a later choice that needs p can add it at that price.

    Each node builds a greedy family in (in-degree, id) order from its
    undecided choices v with low(v) > 0, low(v) being v's lightest
    in-neighbor's weight: a member has no in-neighbor in use and an in-list
    disjoint from every earlier member's.  The node is cut when its bound,
    cost + the sum of low(v) over the members, is at least the best cost.
    This cannot change the result:
      * each member needs a parent not yet in use, and no two members can
        share one, so every completion of the node costs at least the
        bound: it is admissible;
      * let L* be the first leaf of least cost c* in search order.  Until L*
        is reached, best cost > c*; every ancestor of L* has bound <= c*, so
        L* is reached, recorded, and never replaced: later leaves cost >= c*;
      * the order of a node's children depends only on the path to it.
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
    choices = [v for v in topological_order(d) if len(in_adj[v]) > 1]  # never the root
    # one bit per parent a choice can take, so a set of parents in use is an int
    bit = {p: 1 << b for b, p in enumerate(dict.fromkeys(p for v in choices for p in in_adj[v]))}
    options = [[(p, bit[p]) for p in in_adj[v]] for v in choices]

    parent: list[Optional[int]] = [tails[0] if len(tails) == 1 else None for tails in in_adj]
    fixed = set(parent) - {None}  # the parents in use before the search
    base_cost, base_used = sum(weight[p] for p in fixed), sum(bit.get(p, 0) for p in fixed)

    masks = [sum(b for _, b in opts) for opts in options]
    lows = [min(weight[p] for p, _ in opts) for opts in options]
    # (in-list mask, low, index) of each choice with low > 0, in (in-degree, id) order
    ranked = [(masks[i], lows[i], i) for _, _, i in sorted(
        (len(options[i]), choices[i], i) for i in range(len(choices))) if lows[i]]

    best_cost = total + 1
    best_parent: Optional[list[Optional[int]]] = None

    def dfs(i: int, cost: int, used: int) -> None:
        nonlocal best_cost, best_parent
        if cost >= best_cost:
            return
        if i == len(choices):
            best_cost = cost
            best_parent = list(parent)
            return
        bound, taken = cost, used
        for mask, low, j in ranked:
            if j >= i and not taken & mask:
                taken |= mask
                bound += low
        if bound >= best_cost:
            return
        v = choices[i]
        covered = [o for o in options[i] if used & o[1]][:1]  # no branch: see docstring
        for p, b in covered or options[i]:
            parent[v] = p
            dfs(i + 1, cost if covered else cost + weight[p], used | b)

    dfs(0, base_cost, base_used)
    del dfs  # dfs refers to itself; break the cycle so its state is freed now
    assert best_parent is not None
    return total - best_cost, Branching.from_parents(d, best_parent)
