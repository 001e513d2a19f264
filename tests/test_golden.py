"""Golden equivalence: every algorithm's parent array and report on a fixed corpus.

``golden_outputs.json`` holds, for each (instance, algorithm) pair, a digest
of the parent array and of the ``report`` object that ``leafspan solve``
writes, or the exit code when the solve is refused.  A refactor must leave
every entry unchanged.  Re-record with ``python tests/test_golden.py``.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from leafspan import (
    UndirectedGraphInstance,
    gen_adversarial_family,
    gen_random_rooted_dag,
    reduce_independent_set,
    write_instance,
)
from leafspan.cli import ALGORITHMS, main

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def corpus():
    """The adversarial family, 40 random DAGs and 10 independent-set reductions."""
    out = [(f"adversarial-{k}", gen_adversarial_family(k)) for k in range(1, 7)]
    for i in range(40):
        n = 2 + (i * 17) % 59
        p = (0.0, 0.1, 0.3)[i % 3]
        out.append((f"random-{i}", gen_random_rooted_dag(n, p, 1000 + i)))
    rng = random.Random(2020)
    for i in range(10):
        n = rng.randint(3, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        g = UndirectedGraphInstance.build(n, edges)
        out.append((f"independent-set-{i}", reduce_independent_set(g)))
    return out


def outputs(directory: Path) -> dict:
    result = {}
    for name, d in corpus():
        inst = directory / f"{name}.json"
        write_instance(d, inst)
        for algo in ALGORITHMS:
            sol = directory / "sol.json"
            code = main(["solve", "--algo", algo, "--input", str(inst), "--output", str(sol)])
            if code != 0:
                result[f"{name} {algo}"] = f"exit {code}"
                continue
            obj = json.loads(sol.read_text())
            blob = json.dumps([obj["parent"], obj["report"]], sort_keys=True)
            result[f"{name} {algo}"] = hashlib.sha256(blob.encode()).hexdigest()[:24]
    return result


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = outputs(tmp_path)
    assert got.keys() == golden.keys()
    assert [k for k in golden if got[k] != golden[k]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(outputs(Path(tmp)), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
