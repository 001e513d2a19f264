"""Golden graphs: what `build_digraph` stores, and what it raises, on a fixed corpus.

``digraph_golden.json`` holds, for each seeded random rooted DAG, a digest of
``out_adj``, ``in_adj`` and ``order`` built from four inputs: the arcs
shuffled as a list of tuples, the same as a tuple, as a list of 2-item lists
and as a generator.  It also holds the exact exception class and message for
each malformed input below, so a change to the build keeps which error wins
when an input has several faults.  Re-record with
``python tests/test_digraph_golden.py``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

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


def graph_digests() -> dict:
    result = {}
    for i, d in enumerate(random_dag_corpus(80, 1, 150, seed=21)):
        arcs = list(digraph_arcs(d))
        random.Random(i).shuffle(arcs)
        for kind, shape in INPUTS.items():
            g = build_digraph(d.vertex_count, d.root, shape(arcs))
            blob = json.dumps([g.out_adj, g.in_adj, g.order])
            result[f"{i}-n{d.vertex_count}-{kind}"] = hashlib.sha256(blob.encode()).hexdigest()[:24]
    return result


def error_messages() -> dict:
    result = {}
    for name, (n, root, arcs) in ERRORS.items():
        try:
            build_digraph(n, root, arcs)
        except LeafspanError as e:
            result[name] = f"{type(e).__name__}: {e}"
        else:
            result[name] = "no error"
    return result


def record() -> dict:
    return {"graphs": graph_digests(), "errors": error_messages()}


def test_graphs_match_golden():
    golden = json.loads(GOLDEN.read_text())["graphs"]
    got = graph_digests()
    assert got.keys() == golden.keys()
    assert [k for k in golden if got[k] != golden[k]] == []


def test_errors_match_golden():
    assert error_messages() == json.loads(GOLDEN.read_text())["errors"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
