"""Instance generators, the independent-set reduction, and serialization.

The JSON instance format (version 2) stores the head lists::

    { "version": 2, "n": int, "root": int, "out": [[heads of 0], [heads of 1], ...],
      "weights": [int, ...]?, "provenance": str? }

with every head list strictly ascending.  `read_instance` hands them to
`Digraph`, the one validator, as they are.  Version 1 files, which store
``"arcs": [[t, h], ...]`` in any order, are still read: `build_digraph`
files their arcs under their tails, sorts them and calls the same
validator.  Writers emit version 2 as one line of compact JSON with sorted
keys, so they are byte-stable; readers take any layout.
"""

from __future__ import annotations

import json
import math
import os
import random
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from .branching import Branching
from .errors import LeafspanError, MalformedInput, ParseError, require_int
from .graph import Arc, Digraph, build_digraph
from .matching import _normalize_edges

PathLike = Union[str, Path]


@dataclass(frozen=True)
class UndirectedGraphInstance:
    """A simple undirected graph: vertices 0..n-1, normalized edge tuples.

    The constructor validates and normalizes: edges are stored sorted as
    ``(u, v)`` with ``u < v``, and repeats merge (`max_matching` refuses them).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        edges = tuple(dict.fromkeys(_normalize_edges(self.vertex_count, self.edges)))
        object.__setattr__(self, "edges", edges)

    @classmethod
    def build(
        cls, vertex_count: int, edges: Iterable[tuple[int, int]]
    ) -> "UndirectedGraphInstance":
        """Same as the constructor, which does all the checks."""
        return cls(vertex_count, edges)


def gen_random_rooted_dag(n: int, extra_arc_probability: float, seed: int) -> Digraph:
    """Seeded random rooted DAG.

    A random permutation fixes the topological order (position 0 becomes the
    root).  Every non-root vertex gets one mandatory in-arc from a uniformly
    random earlier vertex, which guarantees rootedness; every other forward
    pair becomes an arc independently with ``extra_arc_probability``.
    """
    require_int("n", n, 1)
    if type(seed) is not int:
        raise MalformedInput(f"seed must be an integer, got {seed!r:.20}")
    p = extra_arc_probability
    if type(p) not in (int, float) or not 0 <= p <= 1:
        raise MalformedInput(f"extra_arc_probability must be a number in [0, 1], got {p!r:.20}")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    root = perm[0]

    tail = [0] * n  # tail[i]: position of the tail of i's mandatory in-arc
    arcs: list[Arc] = []
    for i in range(1, n):
        j = tail[i] = rng.randrange(i)
        arcs.append((perm[j], perm[i]))

    if p > 0:
        # Batagelj & Brandes (2005): walk the forward pairs i < j in order,
        # skipping geometric gaps so each is taken with probability p
        log_q = math.log1p(-p) if p < 1 else -math.inf
        i = j = 0  # the cursor starts just before pair (0, 1)
        left = n * (n - 1) // 2  # pairs after the cursor
        while True:
            # compared as a float first: a tiny p can make the skip infinite
            skip = math.log1p(-rng.random()) / log_q
            if skip >= left:
                break
            step = int(skip) + 1
            left -= step
            j += step
            while j >= n:  # carry into row i + 1, whose first pair is (i + 1, i + 2)
                i += 1
                j -= n - i - 1
            if tail[j] != i:
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
    require_int("k", k, 1)
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


def write_instance(
    d: Digraph, path: PathLike, provenance: Optional[str] = None
) -> None:
    obj: dict = {"version": 2, "n": d.vertex_count, "root": d.root, "out": d.out_adj}
    if d.vertex_weights is not None:
        obj["weights"] = d.vertex_weights
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
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_json_object(path: PathLike, obj: dict) -> None:
    """Write ``obj`` as one line of compact JSON with sorted keys; see `read_json_object`."""
    _write_in_place(path, (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode())


def _not_a_number(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def read_json_object(path: PathLike) -> dict:
    """Read the UTF-8 JSON object in ``path``; unreadable or malformed content raises ParseError."""
    try:
        with open(path, "rb") as f:
            obj = json.loads(f.read().decode(), parse_constant=_not_a_number)
    except (OSError, UnicodeDecodeError) as e:  # caught before ValueError, its base class
        raise ParseError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:
        # a JSONDecodeError, NaN or Infinity, an integer too long to convert, or nesting too deep
        raise ParseError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return obj


def _same(recorded: object, expected: object) -> bool:
    """Equal in type and value, so JSON true/false or 1.0 cannot stand in for 1."""
    return type(recorded) is type(expected) and recorded == expected


def read_instance(path: PathLike, *, ordered: bool = True) -> Digraph:
    """Parse and validate an instance file of version 1 or 2; malformed content raises ParseError.
    ``ordered`` is passed to `Digraph`."""
    obj = read_json_object(path)
    n, root, weights = obj.get("n"), obj.get("root"), obj.get("weights")
    try:
        if _same(obj.get("version"), 2):
            return Digraph(n, root, obj.get("out"), weights, ordered=ordered)
        if _same(obj.get("version"), 1):
            return build_digraph(n, root, obj.get("arcs"), weights, ordered=ordered)
    except LeafspanError as e:
        # the original CycleDetected / NotRooted / MalformedInput stays as cause
        raise ParseError(f"{path}: {e}") from e
    raise ParseError(f"{path}: field 'version' must be 1 or 2")


def write_dot(t: Branching, path: PathLike) -> None:
    """DOT export as ``digraph instance``: the host of ``t``, with the arcs of ``t`` bold."""
    host, parent = t.host, t.parent
    lines = ["digraph instance {"]
    weights = host.vertex_weights
    for v in range(host.vertex_count):
        attrs = []
        if v == host.root:
            attrs.append("shape=doublecircle")
        if weights is not None:
            attrs.append(f'label="{v} w={weights[v]}"')
        lines.append(f"  {v}" + (f" [{', '.join(attrs)}];" if attrs else ";"))
    for u, heads in enumerate(host.out_adj):
        for v in heads:
            style = " [style=bold, penwidth=2]" if parent[v] == u else ""
            lines.append(f"  {u} -> {v}{style};")
    lines.append("}")
    _write_in_place(path, ("\n".join(lines) + "\n").encode())
