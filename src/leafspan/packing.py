"""Weighted packing of 2/3-element sets (pairwise-disjoint selection).

Two interchangeable solvers share one plug-in interface: a cheap greedy one
and an exact branch-and-bound one.  Each carries the approximation factor it
is entitled to claim; the ratio certificates downstream are parametric in
that factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .errors import TooLarge

EXACT_SET_LIMIT = 40


class PackSet(NamedTuple):
    """One selectable set: its member ids, weight, and originating candidate.

    ``members`` holds distinct ids in ascending order; packers rely on it.
    """

    members: tuple[int, ...]
    weight: int
    candidate: int


def _packing_order(sets: Sequence[PackSet]) -> list[PackSet]:
    """The sets by descending weight, then ascending candidate id, then member ids."""
    # two stable C-keyed sorts; reverse=True keeps equal weights in order
    order = sorted(sets, key=itemgetter(2, 0))
    order.sort(key=itemgetter(1), reverse=True)
    return order


def pack_greedy(sets: Sequence[PackSet]) -> list[PackSet]:
    """Greedy selection by descending weight; deterministic tie-breaks.

    A weight-w pick can block at most three optimum sets of weight <= w, so
    the selected weight is at least a third of the optimum.
    """
    chosen: list[PackSet] = []
    used: set[int] = set()
    for s in _packing_order(sets):
        if used.isdisjoint(s.members):
            chosen.append(s)
            used.update(s.members)
    return chosen


def _selection_sig(sel: Sequence[PackSet]) -> tuple:
    return tuple(sorted((s.members, s.candidate) for s in sel))


def pack_exact(sets: Sequence[PackSet]) -> list[PackSet]:
    """Maximum-weight pairwise-disjoint subfamily by branch-and-bound.

    Ties on total weight prefer more sets, then the lexicographically
    smallest selection.  Raises TooLarge above ``EXACT_SET_LIMIT`` sets.
    """
    if len(sets) > EXACT_SET_LIMIT:
        raise TooLarge(f"{len(sets)} sets exceeds guard of {EXACT_SET_LIMIT}")
    order = _packing_order(sets)
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
        sig = _selection_sig(cur)
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
        if used.isdisjoint(s.members):
            used.update(s.members)
            cur.append(s)
            dfs(i + 1, weight + s.weight)
            cur.pop()
            used.difference_update(s.members)
        dfs(i + 1, weight)

    dfs(0, 0)
    del dfs  # dfs refers to itself; break the cycle so its state is freed now
    return best_sel


@dataclass(frozen=True)
class Packer:
    """A pluggable packing solver together with its claimed ratio."""

    name: str
    claimed_alpha: Fraction
    solve: Callable[[Sequence[PackSet]], list[PackSet]]


GREEDY_PACKER = Packer("greedy", Fraction(3), pack_greedy)
EXACT_PACKER = Packer("exact", Fraction(1), pack_exact)
