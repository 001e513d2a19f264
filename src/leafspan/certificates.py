"""Per-run bound certificates, computed in exact rational arithmetic, and the
table of certified pipelines.

The two-phase certificate bounds opt by ub_lemma2 and ub_lemma3, and
lb_lemma1 = (N1-k1)/6 + (N2-k2)/2 + 1 is identically (ub_lemma3 - 1)/3 +
(ub_lemma2 - 1)/3 + 1, so "leaf_count >= lb_lemma1" is the whole per-run
check of the 3/2 ratio.  The weighted-packing variant has its own lower bound
and an upper bound parametric in the packing ratio its pipeline's record pins.

`PIPELINES` holds one `Pipeline` record per algorithm: its phases, its pinned
packing ratio, and its certificate.  The solvers, the command line and
`verify` all read the same record, so a solution is certified by the same
code that produced it and rechecked by the same code that reads it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Any, Callable, Optional, Sequence

from .branching import Branching, BranchingStats


def two_phase_lower_bound(N1: int, k1: int, N2: int, k2: int) -> Fraction:
    """Guaranteed leaf count after the 3-phase, matching phase, and attach: lb_lemma1."""
    return Fraction(N1 - k1 + 3 * (N2 - k2) + 6, 6)


def upper_bound_from_two_branching(N2: int, k2: int) -> Fraction:
    """opt <= N2 - k2 + 1 for a closed spanning 2-branching: maximal, and no internal
    vertex has a parentless host out-neighbor (maximal alone is not enough)."""
    return Fraction(N2 - k2 + 1)


def two_phase_upper_bound(N1: int, k1: int, N2: int, k2: int) -> Fraction:
    """The sharper two-phase bound opt <= (N1-k1)/2 + (N2-k2)/2 + 1, when F1 and F2 are
    closed: maximal 3- and 2-branchings, no internal vertex with a parentless host out-neighbor."""
    return Fraction(N1 - k1 + N2 - k2 + 2, 2)


def two_phase_bounds(
    N1: int, k1: int, N2: int, k2: int
) -> tuple[Fraction, Fraction, Fraction]:
    """(lower bound on leaves, weaker upper bound U2, sharper upper bound U3)."""
    return (
        two_phase_lower_bound(N1, k1, N2, k2),
        upper_bound_from_two_branching(N2, k2),
        two_phase_upper_bound(N1, k1, N2, k2),
    )


def two_phase_certificate_ok(leaves: int, u2: Fraction, u3: Fraction) -> bool:
    """leaves >= (U3-1)/3 + (U2-1)/3 + 1 for U2, U3 of `two_phase_bounds`.

    The right side is lb_lemma1 exactly, so the certificate no longer calls
    this; it stays only because the benchmark's tracer wraps it by name.
    """
    return leaves >= (u3 - 1) / 3 + (u2 - 1) / 3 + 1


def baseline_lower_bound(N: int, k: int) -> Fraction:
    """Leaf guarantee of the plain 2-expansion baseline: (N-k)/2 + 1."""
    return Fraction(N - k + 2, 2)


def packing_lower_bound(N1: int, k1: int, N2: int, k2: int, N3: int, k3: int) -> Fraction:
    """Leaf guarantee of the weighted-packing pipeline: (N1-k1)/12 + (N2-k2)/6 + (N3-k3)/2 + 1."""
    return Fraction(N1 - k1 + 2 * (N2 - k2) + 6 * (N3 - k3) + 12, 12)


def packing_upper_bound(
    N1: int, k1: int, N2: int, k2: int, N3: int, k3: int, alpha: Fraction
) -> Fraction:
    """opt bound parametric in the packing solver's approximation factor, when F1 and F3 are
    closed: maximal 4- and 2-branchings, no internal vertex with a parentless host out-neighbor."""
    # (3 - 2a)/3 (N1-k1) + a/6 (N2-k2) + a/2 (N3-k3) + 1, over 6q for a = p/q
    p, q = alpha.numerator, alpha.denominator
    top = 2 * (3 * q - 2 * p) * (N1 - k1) + p * (N2 - k2) + 3 * p * (N3 - k3) + 6 * q
    return Fraction(top, 6 * q)


@dataclass(frozen=True)
class Pipeline:
    """One certified algorithm, as a plain record read by `SolveReport.certify`.

    ``phases`` lists ``(phase name, t)``: phase ``i`` is a t-branching that
    contains phase ``i - 1``, and the last is the spanning arborescence
    ``("T", 1)``.  ``alpha`` is the packing ratio, pinned here alone (None when
    the pipeline packs nothing).  ``counts[i]`` names the expansions from
    phase ``i`` to ``i + 1``.  ``rule`` maps the phase statistics and alpha
    to the ``bounds`` values.  Every inequality comes from a column: the
    phase shapes, "T is a spanning arborescence", one per bound and one
    identity per count, all checked in `SolveReport.certify`.
    ``solve(api, d)`` runs the pipeline with the solver functions found on
    ``api`` and returns the arborescence and its `SolveReport`.
    """

    name: str
    phases: tuple[tuple[str, int], ...]
    alpha: Optional[Fraction]
    counts: tuple[str, ...]
    bounds: tuple[str, ...]
    rule: Callable[..., tuple[Fraction, ...]]
    solve: Callable[[Any, Any], tuple[Branching, "SolveReport"]]


@dataclass
class SolveReport:
    """The certificate of one run, kept as the flat report a solution file stores.

    ``phase[v]`` is the index (into ``pipeline.phases``) of the first phase
    that gave ``v`` its parent, and 0 if none did.  ``values`` holds, in
    file order, ``N{i}``/``k{i}`` of each phase but T, the counts, the bounds
    (as `Fraction`), then ``claimed_alpha`` and ``leaf_weight`` if they apply.
    ``inequalities`` names every check the certificate makes.
    """

    pipeline: Pipeline
    phase: list[int]
    leaf_count: int
    values: dict[str, Any]
    inequalities: dict[str, bool]

    @classmethod
    def certify(cls, pipeline: Pipeline, tree: Branching, phase: Sequence[int]) -> "SolveReport":
        """Report on ``tree`` and its ``phase`` array, entries in ``range(len(pipeline.phases))``.

        Phase ``i`` is the prefix of ``tree`` made of the arcs into vertices of
        index at most ``i``; one out-degree count, extended phase by phase,
        gives its arcs, leaves and k (internal vertices it leaves parentless),
        and N = arcs + k.  The bounds need each phase to be a t-branching for
        its t > 1 and the last to span the host, so those are inequalities too.
        Each expansion costs one leaf, so count ``i`` is the leaves lost from
        phase ``i`` to ``i + 1``; with that phase's t, "t * count == arcs
        added" holds exactly when it adds only t-expansions of leaves.
        """
        parent, n = tree.parent, tree.host.vertex_count
        phase = [i if p is not None else 0 for p, i in zip(parent, phase)]
        out: Counter[int] = Counter()  # out-degrees in the prefix
        stats, values, inequalities = [], {}, {}
        for i, (name, t) in enumerate(pipeline.phases[:-1]):
            out.update(compress(parent, map(i.__eq__, phase)))  # the parents of index-i vertices,
            out.pop(None, None)  # less those of vertices without one
            k = sum(1 for u in out if parent[u] is None or phase[u] > i)
            stats.append(BranchingStats(sum(out.values()) + k, k, n - len(out)))
            values[f"N{i + 1}"], values[f"k{i + 1}"] = stats[-1].N, k
            if t > 1:
                inequalities[f"{name} is a {t}-branching"] = min(out.values(), default=t) >= t
        stats.append(tree.stats())  # T, the last phase: its t is 1
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
        return cls(pipeline, phase, leaves, values, {**inequalities, **identities})

    @property
    def certificate_ok(self) -> bool:
        return all(self.inequalities.values())

    def to_dict(self) -> dict:
        """Flat JSON-ready view; rationals serialize as "p/q" strings."""
        return {
            "algorithm": self.pipeline.name,
            "leaf_count": self.leaf_count,
            "certificate_ok": self.certificate_ok,
            **{k: str(v) if type(v) is Fraction else v for k, v in self.values.items()},
        }


def _two_phase(s, alpha):
    (s1, s2, _) = s
    return two_phase_bounds(s1.N, s1.k, s2.N, s2.k)


def _baseline(s, alpha):
    (s1, _) = s
    return (baseline_lower_bound(s1.N, s1.k), upper_bound_from_two_branching(s1.N, s1.k))


def _packing(s, alpha):
    (s1, s2, s3, _) = s
    nk = (s1.N, s1.k, s2.N, s2.k, s3.N, s3.k)
    return (packing_lower_bound(*nk), packing_upper_bound(*nk, alpha))


def _solve_exact(api, d):
    weighted = d.vertex_weights is not None
    _, t = api.exact_max_leaves(d, "leaf_weight" if weighted else "leaves")
    return t, SolveReport.certify(PIPELINES["exact"], t, [0] * d.vertex_count)


_PACKING_PHASES = (("F1", 4), ("F2", 3), ("F3", 2), ("T", 1))
_PACKING_COUNTS = ("selected_triples", "selected_pairs")

PIPELINES: dict[str, Pipeline] = {
    p.name: p
    for p in (
        Pipeline(
            "maxleaves", (("F1", 3), ("F2", 2), ("T", 1)), None, ("matching_size",),
            ("lb_lemma1", "ub_lemma2", "ub_lemma3"), _two_phase,
            lambda api, d: api.max_leaves(d),
        ),
        Pipeline(
            "expansion2", (("F1", 2), ("T", 1)), None, (),
            ("lb_baseline", "ub_lemma2"), _baseline,
            lambda api, d: api.expansion_baseline(d),
        ),
        Pipeline(
            # a greedy pick blocks at most three optimum sets no heavier
            "w3dm-greedy", _PACKING_PHASES, Fraction(3),
            _PACKING_COUNTS, ("lb_lemma4", "ub_lemma5"), _packing,
            lambda api, d: api.max_leaves_packing(d, api.GREEDY_PACKER),
        ),
        Pipeline(
            # branch-and-bound returns an optimum packing
            "w3dm-exact", _PACKING_PHASES, Fraction(1),
            _PACKING_COUNTS, ("lb_lemma4", "ub_lemma5"), _packing,
            lambda api, d: api.max_leaves_packing(d, api.EXACT_PACKER),
        ),
        Pipeline(
            "exact", (("T", 1),), None, (), (),
            lambda s, alpha: (), _solve_exact,
        ),
    )
}
