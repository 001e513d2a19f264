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

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .branching import Branching


def two_phase_lower_bound(N1: int, k1: int, N2: int, k2: int) -> Fraction:
    """Guaranteed leaf count after the 3-phase, matching phase, and attach."""
    return Fraction(N1 - k1, 6) + Fraction(N2 - k2, 2) + 1


def upper_bound_from_two_branching(N2: int, k2: int) -> Fraction:
    """opt <= N2 - k2 + 1, valid for any maximal spanning 2-branching."""
    return Fraction(N2 - k2 + 1)


def two_phase_upper_bound(N1: int, k1: int, N2: int, k2: int) -> Fraction:
    """opt <= (N1-k1)/2 + (N2-k2)/2 + 1, the sharper two-phase bound."""
    return Fraction(N1 - k1, 2) + Fraction(N2 - k2, 2) + 1


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
    return Fraction(N - k, 2) + 1


def packing_lower_bound(
    N1: int, k1: int, N2: int, k2: int, N3: int, k3: int
) -> Fraction:
    """Leaf guarantee of the weighted-packing pipeline."""
    return (
        Fraction(N1 - k1, 12) + Fraction(N2 - k2, 6) + Fraction(N3 - k3, 2) + 1
    )


def packing_upper_bound(
    N1: int, k1: int, N2: int, k2: int, N3: int, k3: int, alpha: Fraction
) -> Fraction:
    """opt bound parametric in the packing solver's approximation factor."""
    return (
        Fraction(3 - 2 * alpha, 3) * (N1 - k1)
        + (alpha / 6) * (N2 - k2)
        + (alpha / 2) * (N3 - k3)
        + 1
    )


@dataclass(frozen=True)
class Pipeline:
    """One certified algorithm, as a plain record read by `SolveReport.from_phases`.

    ``phases`` lists ``(phase name, t)``: phase ``i`` is a t-branching that
    contains phase ``i - 1``, and the last is the spanning arborescence
    ``T``.  ``alpha`` is the packing ratio, pinned here alone (None when
    the pipeline packs nothing).  ``counts[i]`` names the expansions from
    phase ``i`` to ``i + 1``.  ``rule`` maps the phase statistics and alpha
    to the ``bounds`` values.  Every inequality comes from a column: the
    phase shapes, "T is a spanning arborescence", one per bound and one
    identity per count, all checked in `SolveReport.from_phases`.
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
    that gave ``v`` its parent; the root's entry is 0.  ``values`` holds, in
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
    def from_phases(cls, pipeline: Pipeline, phases: Sequence[Branching]) -> "SolveReport":
        """Report on the branchings of each phase, the arborescence last.

        The bounds hold only when each phase is a t-branching for its t > 1
        and the last spans the host, so those are inequalities too.  Each
        expansion from phase ``i`` to ``i + 1`` costs one leaf, so count
        ``i`` is the leaves lost.  With t of phase ``i + 1``, the arcs added
        less t * count sum (children - t) over expanded leaves plus the arcs
        under already-internal vertices: "t * count == arcs added" holds
        exactly when phase ``i + 1`` adds only t-expansions of leaves.
        """
        stats = [b.stats() for b in phases]
        tree = phases[-1]
        phase = [0] * tree.host.vertex_count
        for i in reversed(range(len(phases))):
            phase = [i if p is not None else q for p, q in zip(phases[i].parent, phase)]
        values: dict[str, Any] = {}
        for i, s in enumerate(stats[:-1], start=1):
            values[f"N{i}"], values[f"k{i}"] = s.N, s.k
        inequalities = {f"{name} is a {t}-branching": b.is_t_branching(t)
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
            **{k: str(v) if isinstance(v, Fraction) else v for k, v in self.values.items()},
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
    return t, SolveReport.from_phases(PIPELINES["exact"], [t])


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
