"""lexsweep: multi-sweep lexicographic BFS toolkit.

Graph search engines (LBFS, LBFS+), vertex-ordering certificates,
terminal-cycle (orbit) analysis of repeated LBFS+ sweeps, and
cocomparability graph-class machinery with generators and an exact
oracle.
"""

__version__ = "0.1.0"

from .graph import (
    Embedding,
    Graph,
    GraphError,
    PatternTooLargeError,
    complement,
    find_induced,
    from_edge_list,
    girth,
    induced_subgraph,
)
from .io import FormatError, from_edge_list_text, from_graph6, to_edge_list_text, to_graph6
from .search import (
    MIN_INDEX,
    MinIndex,
    Ordering,
    OrderingError,
    PriorRightmost,
    Seeded,
    lbfs,
    lbfs_naive,
    lbfs_plus,
    lbfs_reachable,
    lmpn,
)
from .certify import (
    BadTriple,
    CheckReport,
    check_c4_property,
    check_flip_pair,
    is_lbfs_ordering,
    is_umbrella_free,
)
from .lexcycle import (
    LexCycleEstimate,
    OrbitBudgetError,
    OrbitResult,
    SizeGuardError,
    SweepEngine,
    TheoremReport,
    detect_orbit,
    lexcycle_exact,
    lexcycle_sampled,
    sweep_sequence,
    theorem_check,
)
from .classes import (
    ClassSample,
    GenerationExhausted,
    PosetSpec,
    classify,
    cocomp_oracle,
    gen_interval,
    gen_poset_cocomp,
    gen_rejection,
    is_cocomparability,
    is_interval,
    k_ladder,
    named,
    pattern_free,
    pattern_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
