"""Weighted packing of 2/3-element sets (pairwise-disjoint selection).

Two packers, a cheap greedy one and an exact branch-and-bound one, are the
solvers of the ``w3dm-greedy`` and ``w3dm-exact`` rows of
`certificates.PIPELINES`; a row pins the ratio its packer is certified at.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def pack_exact(sets: Sequence[PackSet]) -> list[PackSet]:
    """Maximum-weight pairwise-disjoint subfamily by branch-and-bound.

    Ties on weight prefer more sets, then the smallest selection by
    ``(members, candidate)``.  The search walks the sets in that order, each
    tried before it is left out, and keeps the first best it meets: of two
    equal-size selections it meets first the one with the smaller sorted
    index list, the smaller by that key, and pruning (only of subtrees that
    cannot reach the best weight) never drops a tie.  Returns the selection
    in packing order; raises TooLarge above ``EXACT_SET_LIMIT`` sets.
    """
    if len(sets) > EXACT_SET_LIMIT:
        raise TooLarge(f"{len(sets)} sets exceeds guard of {EXACT_SET_LIMIT}")
    order = sorted(sets, key=itemgetter(0, 2))
    m = len(order)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + order[i].weight

    best: tuple[tuple[int, int], list[PackSet]] = ((-1, -1), [])
    used: set[int] = set()
    cur: list[PackSet] = []

    def dfs(i: int, weight: int) -> None:
        nonlocal best
        if weight + suffix[i] < best[0][0]:
            return  # cannot even tie
        if i == m:
            if (weight, len(cur)) > best[0]:
                best = (weight, len(cur)), list(cur)
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
    return _packing_order(best[1])


@dataclass(frozen=True)
class Packer:
    """A packing solver; its ``w3dm-<name>`` row of `certificates.PIPELINES` pins its ratio.

    ``solve`` returns pairwise-disjoint sets, each equal to one it was given.
    """

    name: str
    solve: Callable[[Sequence[PackSet]], list[PackSet]]


GREEDY_PACKER = Packer("greedy", pack_greedy)
EXACT_PACKER = Packer("exact", pack_exact)
