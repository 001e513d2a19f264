"""Every small rooted DAG, up to relabelling, certified on each approximate row.

A DAG whose ids are a topological order with root 0 gives vertex j > 0 any
nonempty in-set from ``0..j-1``, so there are prod(2^j - 1) of them: 21 at
n = 4, 315 at n = 5, 9,765 at n = 6 and 615,195 at n = 7, and every rooted
DAG is isomorphic to one (the solvers break ties by id, so not every
labelling is covered).  Tier 1 checks n = 4-6; for n = 7 (a few
CPU-minutes) run ``PYTHONPATH=src python tests/test_exhaustive.py``, which
prints the worst opt / leaves of each row.
"""

from fractions import Fraction
from itertools import product

import pytest

import leafspan.cli
from leafspan import Digraph, exact_max_leaves
from leafspan.certificates import PIPELINES
from oracles import brute_force_max_leaves

# each approximate row's claimed ratio; a packing row's is max{4/3, alpha}
RATIOS = {
    "maxleaves": Fraction(3, 2),
    "expansion2": Fraction(2),
    "w3dm-greedy": Fraction(3),
    "w3dm-exact": Fraction(4, 3),
}


def every_dag(n):
    """Every DAG on ``0..n-1`` whose ids are a topological order and whose root is 0."""
    for masks in product(*(range(1, 2**j) for j in range(1, n))):
        out = [[] for _ in range(n)]
        for v, mask in enumerate(masks, start=1):
            for u in range(v):
                if mask >> u & 1:
                    out[u].append(v)
        yield Digraph(n, 0, out)


def worst_ratios(n):
    """Certify every DAG of `every_dag` on each row; return each row's worst opt / leaves.

    Asserts ``certificate_ok``, every ``lb_*`` <= leaves <= opt <= every
    ``ub_*``, and opt / leaves within the row's ratio, with opt from
    `exact_max_leaves`, checked against brute force for n <= 5.
    """
    worst = dict.fromkeys(RATIOS, Fraction(1))
    for d in every_dag(n):
        opt, _ = exact_max_leaves(d)
        assert n > 5 or opt == brute_force_max_leaves(d), d.out_adj
        for name, ratio in RATIOS.items():
            _, report = PIPELINES[name].solve(leafspan.cli, d)
            leaves, case = report.leaf_count, (name, d.out_adj)
            assert report.certificate_ok, case
            for bound in PIPELINES[name].bounds:
                value = report.values[bound]
                assert value <= leaves if bound.startswith("lb_") else opt <= value, case
            assert leaves <= opt <= ratio * leaves, case
            worst[name] = max(worst[name], Fraction(opt, leaves))
    return worst


@pytest.mark.parametrize("n", [4, 5, 6])
def test_every_small_dag_is_certified_within_its_rows_ratio(n):
    worst_ratios(n)  # asserts on every DAG and row


if __name__ == "__main__":
    for name, ratio in worst_ratios(7).items():
        print(f"n = 7: {name} worst opt / leaves {ratio} (claimed {RATIOS[name]})")
