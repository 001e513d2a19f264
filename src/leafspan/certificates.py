"""Per-run bound certificates, computed in exact rational arithmetic, and the
table of certified pipelines.

The two-phase certificate chains a lower bound on the produced leaf count
against two independent upper bounds on the optimum; together they imply the
3/2 ratio without knowing the optimum.  The weighted-packing variant has its
own lower bound and an upper bound parametric in the packing solver's
claimed approximation factor.

`PIPELINES` holds one `Pipeline` record per algorithm: its phases, its pinned
packing ratio, and its certificate.  The solvers, the command line and
`verify` all read the same record, so a solution is certified by the same
code that produced it and rechecked by the same code that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping, Optional, Sequence

from .branching import Branching, BranchingStats
from .packing import EXACT_PACKER, GREEDY_PACKER


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


def two_phase_certificate_ok(leaves: int, N1: int, k1: int, N2: int, k2: int) -> bool:
    """Machine-checkable inequality chain implying the 3/2 ratio.

    Requires leaves >= the lower bound and
    leaves >= (U3-1)/3 + (U2-1)/3 + 1, both exactly.
    """
    lb, u2, u3 = two_phase_bounds(N1, k1, N2, k2)
    chain = (u3 - 1) / 3 + (u2 - 1) / 3 + 1
    return leaves >= lb and leaves >= chain


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
    """One certified algorithm.

    ``phases`` lists ``(phase name, t)``: phase ``i`` is a t-branching that
    contains phase ``i - 1``, and the last is the spanning arborescence
    ``T``.  ``alpha`` is the pinned ratio of the packing solver (None when
    the pipeline packs nothing).  ``rule`` maps the phase statistics, alpha
    and the solver's ``counts`` to the values of the ``bounds`` named here
    and any inequalities beyond "leaf_count >= lb" and "ub >= leaf_count".
    ``solve(api, d)`` runs the pipeline with the solver functions found on
    ``api`` and returns the arborescence and its `SolveReport`.
    """

    name: str
    phases: tuple[tuple[str, int], ...]
    alpha: Optional[Fraction]
    counts: tuple[str, ...]
    bounds: tuple[str, ...]
    rule: Callable[..., tuple[tuple[Fraction, ...], dict[str, bool]]]
    solve: Callable[[Any, Any], tuple[Branching, "SolveReport"]]

    def certify(
        self, stats: Sequence[BranchingStats], counts: Mapping[str, int]
    ) -> tuple[dict[str, Fraction], dict[str, bool]]:
        """Named bounds and named inequalities from per-phase statistics."""
        leaves = stats[-1].leaves
        values, checks = self.rule(stats, self.alpha, counts)
        bounds = dict(zip(self.bounds, values))
        inequalities = {}
        for b, v in bounds.items():
            if b.startswith("lb_"):
                inequalities[f"leaf_count >= {b}"] = leaves >= v
            else:
                inequalities[f"{b} >= leaf_count"] = v >= leaves
        return bounds, {**inequalities, **checks}


@dataclass
class SolveReport:
    """Phase-by-phase statistics plus the certificate of one run.

    ``phase[v]`` is the index (into ``pipeline.phases``) of the first phase
    that gave ``v`` its parent; the root's entry is 0.
    """

    pipeline: Pipeline
    phase_stats: dict[str, BranchingStats]
    phase: list[int]
    counts: dict[str, int]
    bounds: dict[str, Fraction]
    inequalities: dict[str, bool]
    leaf_weight: Optional[int] = None

    @classmethod
    def from_phases(cls, pipeline: Pipeline, phases: Sequence[Branching],
                    counts: Optional[dict] = None) -> "SolveReport":
        """Report on the branchings of each phase, the arborescence last."""
        counts = counts or {}
        stats = [b.stats() for b in phases]
        t = phases[-1]
        phase = [0] * t.host.vertex_count
        for i in reversed(range(len(phases))):
            phase = [i if p is not None else q for p, q in zip(phases[i].parent, phase)]
        return cls(
            pipeline,
            {name: s for (name, _), s in zip(pipeline.phases, stats)},
            phase,
            counts,
            *pipeline.certify(stats, counts),
            t.leaf_weight() if t.host.vertex_weights is not None else None,
        )

    @property
    def algorithm(self) -> str:
        return self.pipeline.name

    @property
    def leaf_count(self) -> int:
        return self.phase_stats["T"].leaves

    @property
    def certificate_ok(self) -> bool:
        return all(self.inequalities.values())

    def to_dict(self) -> dict:
        """Flat JSON-ready view; rationals serialize as "p/q" strings."""
        out: dict = {
            "algorithm": self.algorithm,
            "leaf_count": self.leaf_count,
            "certificate_ok": self.certificate_ok,
        }
        for i, s in enumerate(list(self.phase_stats.values())[:-1], start=1):
            out[f"N{i}"] = s.N
            out[f"k{i}"] = s.k
        out.update(self.counts)
        out.update((name, str(value)) for name, value in self.bounds.items())
        if self.pipeline.alpha is not None:
            out["claimed_alpha"] = str(self.pipeline.alpha)
        if self.leaf_weight is not None:
            out["leaf_weight"] = self.leaf_weight
        return out


def _two_phase(s, alpha, counts):
    (s1, s2, st) = s
    chain = "leaf_count >= (ub_lemma3 - 1)/3 + (ub_lemma2 - 1)/3 + 1"
    return two_phase_bounds(s1.N, s1.k, s2.N, s2.k), {
        chain: two_phase_certificate_ok(st.leaves, s1.N, s1.k, s2.N, s2.k)
    }


def _baseline(s, alpha, counts):
    (s1, _) = s
    return (baseline_lower_bound(s1.N, s1.k), upper_bound_from_two_branching(s1.N, s1.k)), {}


def _packing(s, alpha, counts):
    (s1, s2, s3, _) = s
    nk = (s1.N, s1.k, s2.N, s2.k, s3.N, s3.k)
    a1, a2, a3 = s1.N - s1.k, s2.N - s2.k, s3.N - s3.k
    triples, pairs = counts["selected_triples"], counts["selected_pairs"]
    # leaf-loss identities: each applied selection costs exactly one leaf
    return (packing_lower_bound(*nk), packing_upper_bound(*nk, alpha)), {
        "leaves(F1) - leaves(F2) == selected_triples": s1.leaves - s2.leaves == triples,
        "3 * selected_triples == (N2 - k2) - (N1 - k1)": 3 * triples == a2 - a1,
        "leaves(F2) - leaves(F3) == selected_pairs": s2.leaves - s3.leaves == pairs,
        "2 * selected_pairs == (N3 - k3) - (N2 - k2)": 2 * pairs == a3 - a2,
        "N1 - k1 <= N2 - k2 <= N3 - k3": a1 <= a2 <= a3,
    }


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
            "maxleaves", (("F1", 3), ("F2", 2), ("T", 1)), None, (),
            ("lb_lemma1", "ub_lemma2", "ub_lemma3"), _two_phase,
            lambda api, d: api.max_leaves(d),
        ),
        Pipeline(
            "expansion2", (("F1", 2), ("T", 1)), None, (),
            ("lb_baseline", "ub_lemma2"), _baseline,
            lambda api, d: api.expansion_baseline(d),
        ),
        Pipeline(
            "w3dm-greedy", _PACKING_PHASES, GREEDY_PACKER.claimed_alpha,
            _PACKING_COUNTS, ("lb_lemma4", "ub_lemma5"), _packing,
            lambda api, d: api.max_leaves_packing(d, api.GREEDY_PACKER),
        ),
        Pipeline(
            "w3dm-exact", _PACKING_PHASES, EXACT_PACKER.claimed_alpha,
            _PACKING_COUNTS, ("lb_lemma4", "ub_lemma5"), _packing,
            lambda api, d: api.max_leaves_packing(d, api.EXACT_PACKER),
        ),
        Pipeline(
            "exact", (("T", 1),), None, (), (),
            lambda s, alpha, counts: ((), {}), _solve_exact,
        ),
    )
}
