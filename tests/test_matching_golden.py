"""Golden matchings: the exact edge set `max_matching` returns on a fixed corpus.

Matching size alone does not pin the blossom search down: two correct
searches can return different maximum matchings, and the solvers' outputs
depend on which one is returned.  ``matching_golden.json`` holds a digest of
the matched edge list for each seeded random general graph, with n from 2 to
2000 and about 0.8n, 1.5n and 3n edges, and for each graph again with every
vertex u renamed 2u (so odd ids are isolated).  Re-record with
``PYTHONPATH=src python tests/test_matching_golden.py``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from leafspan import max_matching
from oracles import random_edges

GOLDEN = Path(__file__).with_name("matching_golden.json")

SIZES = (2, 3, 4, 5, 6, 7, 9, 12, 16, 23, 31, 47, 64, 100, 150, 200, 317, 500, 777, 1000, 1500, 2000)
DENSITIES = (0.8, 1.5, 3.0)


def corpus():
    """(name, vertex count, edges) for every graph in the golden corpus."""
    out = []
    for n in SIZES:
        for density in DENSITIES:
            rng = random.Random(f"{n}/{density}")
            edges = random_edges(rng, n, round(density * n))
            out.append((f"n{n}-m{density}", n, edges))
            out.append((f"n{n}-m{density}-even", 2 * n, [(2 * u, 2 * v) for u, v in edges]))
    return out


def digests() -> dict:
    result = {}
    for name, n, edges in corpus():
        blob = json.dumps(max_matching(n, edges))
        result[name] = hashlib.sha256(blob.encode()).hexdigest()[:24]
    return result


def test_matchings_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    assert got.keys() == golden.keys()
    assert [k for k in golden if got[k] != golden[k]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
