"""Leaf-maximizing spanning arborescences on rooted DAGs.

Public surface: validated rooted DAGs, branchings with exact counters,
general-graph maximum matching, weighted 2/3-set packing, the certified
approximation pipelines, an exact oracle, instance generators, the
independent-set reduction, and JSON/DOT serialization.
"""

from .branching import Branching, BranchingStats
from .errors import (
    CycleDetected,
    IllegalExpansion,
    LeafspanError,
    MalformedInput,
    NotRooted,
    ParseError,
    PreconditionViolated,
    TooLarge,
)
from .graph import Digraph, build_digraph
from .instances import (
    UndirectedGraphInstance,
    gen_adversarial_family,
    gen_random_rooted_dag,
    read_instance,
    reduce_independent_set,
    write_dot,
    write_instance,
)
from .matching import max_matching
from .packing import (
    EXACT_PACKER,
    GREEDY_PACKER,
    Packer,
    PackSet,
    pack_exact,
    pack_greedy,
)
from .solvers import (
    SolveReport,
    attach,
    exact_max_leaves,
    expansion_baseline,
    greedy_expand,
    max_expand,
    max_leaves,
    max_leaves_packing,
)

__all__ = [
    "Branching",
    "BranchingStats",
    "Digraph",
    "EXACT_PACKER",
    "GREEDY_PACKER",
    "PackSet",
    "Packer",
    "SolveReport",
    "UndirectedGraphInstance",
    "attach",
    "build_digraph",
    "exact_max_leaves",
    "expansion_baseline",
    "gen_adversarial_family",
    "gen_random_rooted_dag",
    "greedy_expand",
    "max_expand",
    "max_leaves",
    "max_leaves_packing",
    "max_matching",
    "pack_exact",
    "pack_greedy",
    "read_instance",
    "reduce_independent_set",
    "write_dot",
    "write_instance",
    "CycleDetected",
    "IllegalExpansion",
    "LeafspanError",
    "MalformedInput",
    "NotRooted",
    "ParseError",
    "PreconditionViolated",
    "TooLarge",
]
