"""Instance generators, the independent-set reduction, and serialization.

The JSON instance format is::

    { "version": 1, "n": int, "root": int, "arcs": [[t, h], ...],
      "weights": [int, ...]?, "provenance": str? }

Writers emit one line of compact JSON with sorted keys and the arcs in
lexicographic order, so they are byte-stable; readers take any layout.
"""

from __future__ import annotations

import json
import math
import os
import random
import stat
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from .branching import Branching
from .errors import (
    LeafspanError,
    MalformedInput,
    NotReducedInstance,
    ParseError,
)
from .graph import Arc, Digraph, build_digraph
from .matching import _normalize_edges

PathLike = Union[str, Path]


@dataclass(frozen=True)
class UndirectedGraphInstance:
    """A simple undirected graph: vertices 0..n-1, normalized edge tuples."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def build(
        cls, vertex_count: int, edges: Iterable[tuple[int, int]]
    ) -> "UndirectedGraphInstance":
        if vertex_count < 0:
            raise MalformedInput("vertex_count must be nonnegative")
        # repeats merge in either orientation
        return cls(vertex_count, tuple(_normalize_edges(vertex_count, edges, merge_repeats=True)))


def gen_random_rooted_dag(n: int, extra_arc_probability: float, seed: int) -> Digraph:
    """Seeded random rooted DAG.

    A random permutation fixes the topological order (position 0 becomes the
    root).  Every non-root vertex gets one mandatory in-arc from a uniformly
    random earlier vertex, which guarantees rootedness; every other forward
    pair becomes an arc independently with ``extra_arc_probability``.
    """
    if n < 1:
        raise MalformedInput("n must be >= 1")
    p = extra_arc_probability
    if not 0 <= p <= 1:
        raise MalformedInput("extra_arc_probability must be in [0, 1]")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    root = perm[0]

    mandatory: set[tuple[int, int]] = set()
    arcs: list[Arc] = []
    for i in range(1, n):
        j = rng.randrange(i)
        mandatory.add((j, i))
        arcs.append((perm[j], perm[i]))

    if p == 1:
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in mandatory:
                    arcs.append((perm[i], perm[j]))
    elif p > 0:
        # sample the sparse forward pairs with geometric gap skipping;
        # each pair is still included independently with probability p
        total = n * (n - 1) // 2
        row_start = [0] * n  # rank of pair (i, i+1) in lexicographic order
        acc = 0
        for i in range(n):
            row_start[i] = acc
            acc += n - 1 - i
        log_q = math.log1p(-p)
        idx = -1
        while True:
            u = rng.random()
            # compared as a float first: a tiny p can make the skip infinite
            skip = math.log1p(-u) / log_q
            if skip >= total - 1 - idx:
                break
            idx += int(skip) + 1
            i = bisect_right(row_start, idx) - 1
            j = i + 1 + (idx - row_start[i])
            if (i, j) not in mandatory:
                arcs.append((perm[i], perm[j]))

    return build_digraph(n, root, arcs)


def gen_adversarial_family(k: int) -> Digraph:
    """A hard family where the measured ratio opt / alg grows with ``k``.

    Construction with m = k + 2 decoys: the root points at a hub and at every
    decoy; each decoy points at its own three targets; the hub points at all
    3m targets.  The greedy 3-phase expands the root and then every decoy,
    starving the hub, which leaves 3m + 1 leaves, while the optimum keeps
    only the root and the hub internal for 4m leaves.

    Measured with the exact oracle (within its guard):

        k=1: alg 10, opt 12, ratio 6/5
        k=2: alg 13, opt 16, ratio 16/13
        k=3: alg 16, opt 20, ratio 5/4
        k=4: alg 19, opt 24, ratio 24/19
        k=5: alg 22, opt 28, ratio 14/11
        k=6: alg 25, opt 32, ratio 32/25

    The ratio approaches 4/3 as k grows.
    """
    if k < 1:
        raise MalformedInput("k must be >= 1")
    m = k + 2
    root = 0
    decoys = list(range(1, m + 1))
    hub = m + 1
    first_target = m + 2
    n = 4 * m + 2

    arcs: list[Arc] = [(root, v) for v in decoys + [hub]]
    for i, dvy in enumerate(decoys):
        for t in range(3):
            arcs.append((dvy, first_target + 3 * i + t))
    for t in range(3 * m):
        arcs.append((hub, first_target + t))
    return build_digraph(n, root, arcs)


def reduce_independent_set(g: UndirectedGraphInstance) -> Digraph:
    """Encode an independent-set instance as a vertex-weighted rooted DAG.

    Layout: root = 0 (weight 0); graph vertex ``i`` becomes ``1 + i``
    (weight 1); edge ``j`` (in sorted edge order) becomes ``1 + n + j``
    (weight 0).  The root points at every graph vertex; each edge vertex is
    pointed at by its two endpoints.  The result has n + m + 1 vertices,
    n + 2m arcs, and maximum in-degree 2.
    """
    n, m = g.vertex_count, len(g.edges)
    arcs: list[Arc] = [(0, 1 + i) for i in range(n)]
    for j, (u, v) in enumerate(g.edges):
        arcs.append((1 + u, 1 + n + j))
        arcs.append((1 + v, 1 + n + j))
    weights = [0] + [1] * n + [0] * m
    return build_digraph(n + m + 1, 0, arcs, weights)


def _reduced_shape(d: Digraph) -> tuple[int, int]:
    """Validate the reduction layout of ``d``; return (n, m) of the source graph."""
    w = d.vertex_weights
    if w is None or d.root != 0 or w[0] != 0:
        raise NotReducedInstance("missing weights or root layout")
    n = 0
    while n + 1 < d.vertex_count and w[n + 1] == 1:
        n += 1
    m = d.vertex_count - n - 1
    if any(w[1 + n + j] != 0 for j in range(m)):
        raise NotReducedInstance("weight layout is not [0, 1^n, 0^m]")
    if tuple(d.out_adj[0]) != tuple(range(1, n + 1)):
        raise NotReducedInstance("root does not point at exactly the weight-1 vertices")
    for j in range(m):
        e = 1 + n + j
        if d.out_adj[e] or len(d.in_adj[e]) != 2:
            raise NotReducedInstance(f"vertex {e} is not a valid edge vertex")
        if any(not 1 <= u <= n for u in d.in_adj[e]):
            raise NotReducedInstance(f"edge vertex {e} has a non-graph in-neighbor")
    if sum(map(len, d.out_adj)) != n + 2 * m:
        raise NotReducedInstance("arc count does not match n + 2m")
    return n, m


def leaves_to_independent_set(t: Branching) -> set[int]:
    """Map the weight-1 leaves of an arborescence back to source vertex ids.

    The input must be a spanning arborescence of a digraph produced by
    `reduce_independent_set`; the returned set is independent in the source
    graph by construction.
    """
    n, _ = _reduced_shape(t.host)
    if not t.is_spanning_arborescence():
        raise NotReducedInstance("input is not a spanning arborescence")
    return {i for i in range(n) if t.out_degree[1 + i] == 0}


def write_instance(
    d: Digraph, path: PathLike, provenance: Optional[str] = None
) -> None:
    obj: dict = {
        "version": 1,
        "n": d.vertex_count,
        "root": d.root,
        "arcs": [[u, v] for u, heads in enumerate(d.out_adj) for v in heads],
    }
    if d.vertex_weights is not None:
        obj["weights"] = list(d.vertex_weights)
    if provenance is not None:
        obj["provenance"] = provenance
    write_json_object(path, obj)


def _write_in_place(path: PathLike, data: bytes) -> None:
    """Overwrite ``path`` with ``data``, then trim the file to their length.

    Opening with ``O_TRUNC``, as ``open(path, "w")`` does, empties the file
    first, and ext4 (``auto_da_alloc``) starts writeback when a file
    truncated to zero is closed, about a millisecond per rewrite.  Trimming
    to a nonzero length does not.  Only regular files are trimmed, since ``ftruncate`` fails on
    devices and pipes such as ``/dev/null``.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def write_json_object(path: PathLike, obj: dict) -> None:
    """Write ``obj`` as one line of compact JSON with sorted keys; see `read_json_object`."""
    _write_in_place(path, (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode())


def read_json_object(path: PathLike) -> dict:
    """Read the JSON object in ``path``; unreadable or malformed content raises ParseError."""
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:
        # a JSONDecodeError, an integer too long to convert, or nesting too deep
        raise ParseError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return obj


def _same(recorded: object, expected: object) -> bool:
    """Equal in type and value, so JSON true/false or 1.0 cannot stand in for 1."""
    return type(recorded) is type(expected) and recorded == expected


def read_instance(path: PathLike) -> Digraph:
    """Parse and validate an instance file; malformed content raises ParseError."""
    obj = read_json_object(path)
    if not _same(obj.get("version"), 1):
        raise ParseError(f"{path}: field 'version' must be 1")
    # type() rather than isinstance(): JSON true/false must not pass as 1/0
    for field_name, kind in (("n", int), ("root", int), ("arcs", list)):
        if type(obj.get(field_name)) is not kind:
            raise ParseError(f"{path}: field '{field_name}' missing or wrong type")
    weights = obj.get("weights")
    if weights is not None and not isinstance(weights, list):
        raise ParseError(f"{path}: field 'weights' must be a list of integers")
    try:
        return build_digraph(obj["n"], obj["root"], obj["arcs"], weights)
    except LeafspanError as e:
        # the original CycleDetected / NotRooted / MalformedInput stays as cause
        raise ParseError(f"{path}: {e}") from e


def write_dot(target: Union[Digraph, Branching], path: PathLike) -> None:
    """DOT export as ``digraph instance``; a branching's arcs are drawn bold over its host."""
    if isinstance(target, Branching):
        host = target.host
        chosen = set(target.arcs())
    else:
        host = target
        chosen = set()
    lines = ["digraph instance {"]
    weights = host.vertex_weights
    for v in range(host.vertex_count):
        attrs = []
        if v == host.root:
            attrs.append("shape=doublecircle")
        if weights is not None:
            attrs.append(f'label="{v} w={weights[v]}"')
        lines.append(f"  {v}" + (f" [{', '.join(attrs)}];" if attrs else ";"))
    for u, v in host.arcs:
        style = " [style=bold, penwidth=2]" if (u, v) in chosen else ""
        lines.append(f"  {u} -> {v}{style};")
    lines.append("}")
    _write_in_place(path, ("\n".join(lines) + "\n").encode())
