"""Golden graphs: what `build_digraph` stores, and what it raises, on a fixed corpus.

``digraph_golden.json`` holds, for each seeded random rooted DAG, a digest of
``out_adj``, ``in_adj`` and ``order`` built from four inputs: the arcs
shuffled as a list of tuples, the same as a tuple, as a list of 2-item lists
and as a generator.  It also holds the exact exception class and message for
each malformed input below, so a change to the build keeps which error wins
when an input has several faults.  Both validators are held to the same
record: the heap pass of ``ordered=True`` and the list pass of
``ordered=False``, whose ``order`` is then computed on first read.
Re-record with ``PYTHONPATH=src python tests/test_digraph_golden.py``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from leafspan import LeafspanError, build_digraph
from oracles import digraph_arcs, random_dag_corpus

GOLDEN = Path(__file__).with_name("digraph_golden.json")

INPUTS = {
    "shuffled": lambda arcs: arcs,
    "tuple": tuple,
    "list": lambda arcs: [[u, v] for u, v in arcs],
    "generator": lambda arcs: (arc for arc in arcs),
}

# (n, root, arcs): each has one fault, or several to pin which is reported
ERRORS = {
    "bad-arc-before-duplicate": (4, 0, [(0, 1), (0, 9), (1, 2), (0, 1), (2, 3)]),
    "bad-arc-after-duplicate": (4, 0, [(0, 1), (1, 2), (0, 1), (2, 3), (3, 3)]),
    "duplicates-at-two-tails": (5, 0, [(2, 4), (0, 1), (1, 2), (2, 4), (2, 3), (0, 1), (1, 3)]),
    "two-duplicates-at-one-tail": (5, 0, [(0, 3), (0, 1), (0, 2), (0, 3), (0, 2), (2, 4)]),
    "duplicate-and-cycle": (4, 0, [(0, 1), (1, 2), (2, 3), (3, 1), (2, 3)]),
    "later-self-loop-listed-first": (3, 0, [(2, 2), (0, 9), (0, 1), (1, 2)]),
    "self-loop": (3, 0, [(0, 1), (1, 2), (2, 2)]),
    "bool-id": (3, 0, [(0, 1), (1, True), (0, 2)]),
    "out-of-range-id": (3, 0, [(0, 1), (0, 2), (2, 3)]),
    "negative-id": (3, 0, [(0, 1), (0, 2), (-1, 2)]),
    "second-source": (4, 0, [(0, 1), (2, 3), (1, 3)]),
    "two-more-sources": (5, 2, [(0, 1), (2, 3), (4, 3), (3, 1)]),
    "cycle": (4, 0, [(0, 1), (1, 2), (2, 3), (3, 1)]),
    "cycle-and-second-source": (5, 0, [(0, 1), (2, 3), (3, 4), (4, 3)]),
    "too-few-arcs": (4, 0, [(0, 1), (0, True)]),
    "root-out-of-range": (3, 3, [(0, 1), (0, 2)]),
}


def graph_digests(ordered: bool = True) -> dict:
    result = {}
    for i, d in enumerate(random_dag_corpus(80, 1, 150, seed=21)):
        arcs = list(digraph_arcs(d))
        random.Random(i).shuffle(arcs)
        for kind, shape in INPUTS.items():
            g = build_digraph(d.vertex_count, d.root, shape(arcs), ordered=ordered)
            blob = json.dumps([g.out_adj, g.in_adj, g.order])
            result[f"{i}-n{d.vertex_count}-{kind}"] = hashlib.sha256(blob.encode()).hexdigest()[:24]
    return result


def outcome(n, root, arcs, ordered: bool = True) -> str:
    try:
        build_digraph(n, root, arcs, ordered=ordered)
    except LeafspanError as e:
        return f"{type(e).__name__}: {e}"
    return "no error"


def error_messages(ordered: bool = True) -> dict:
    return {name: outcome(*case, ordered) for name, case in ERRORS.items()}


def record() -> dict:
    return {"graphs": graph_digests(), "errors": error_messages()}


@pytest.mark.parametrize("ordered", [True, False])
def test_graphs_match_golden(ordered):
    golden = json.loads(GOLDEN.read_text())["graphs"]
    got = graph_digests(ordered)
    assert got.keys() == golden.keys()
    assert [k for k in golden if got[k] != golden[k]] == []


@pytest.mark.parametrize("ordered", [True, False])
def test_errors_match_golden(ordered):
    assert error_messages(ordered) == json.loads(GOLDEN.read_text())["errors"]


def broken_dags(seed: int):
    """Seeded rooted DAGs, each made invalid once: ``("cycle", n, root, arcs)``
    with one back arc from a descendant to an ancestor, and ``("source", ...)``
    with one extra vertex whose arcs lead into the DAG."""
    rng = random.Random(seed)
    for d in random_dag_corpus(60, 2, 120, seed=seed):
        n, arcs = d.vertex_count, list(digraph_arcs(d))
        u, v = rng.choice(arcs)
        z = v  # walk down from v, so u reaches z and (z, u) closes a cycle
        while d.out_adj[z] and rng.random() < 0.8:
            z = rng.choice(d.out_adj[z])
        yield "cycle", n, d.root, arcs + [(z, u)]
        heads = rng.sample(range(n), rng.randint(1, min(n, 3)))
        yield "source", n + 1, d.root, arcs + [(n, h) for h in heads]


@pytest.mark.parametrize("seed", [1, 2])
def test_both_validators_raise_alike_on_a_cycle_or_a_second_source(seed):
    for kind, n, root, arcs in broken_dags(seed):
        # the extra source has the largest id, so it is the one named
        want = ("CycleDetected: input contains a directed cycle" if kind == "cycle"
                else f"NotRooted: vertex {n - 1} unreachable from root {root}")
        assert outcome(n, root, arcs, ordered=True) == want
        assert outcome(n, root, arcs, ordered=False) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
