"""Graph-class machinery: recognition, forbidden patterns, generators.

Cocomparability recognition follows the repeated-sweep route: "no" when
none of the first n+1 sweeps is umbrella-free. That this is exact is the
multisweep conjecture, not a theorem; the tests check it against
`cocomp_oracle`, the exact polynomial test by Gallai's implication
classes on the complement (Golumbic, ch. 5). A "yes" carries its
umbrella-free sweep.
Generators emit graphs together with a provenance witness.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .certify import is_umbrella_free
from .graph import Graph, GraphError, complement, find_induced, girth, Embedding
from .lexcycle import SweepEngine
from .search import MIN_INDEX, Ordering, lbfs

TAG_COCOMP = "cocomparability"
TAG_P2P3BAR_FREE = "p2p3bar-free"
TAG_DIAMOND_FREE = "diamond-free"
TAG_GIRTH_GE_4 = "girth-ge-4"
TAG_INTERVAL = "interval"
TAG_THEOREM = "theorem-3.1-applicable"

ALL_TAGS = frozenset(
    {
        TAG_COCOMP,
        TAG_P2P3BAR_FREE,
        TAG_DIAMOND_FREE,
        TAG_GIRTH_GE_4,
        TAG_INTERVAL,
        TAG_THEOREM,
    }
)


class GenerationExhausted(RuntimeError):
    """Rejection sampling ran out of budget."""

    def __init__(self, predicate: str, draws: int) -> None:
        super().__init__(
            f"no sample matching {predicate!r} within {draws} draws"
        )
        self.predicate = predicate
        self.draws = draws


# -- named catalog -----------------------------------------------------------


def _path(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def _cycle(k: int) -> Graph:
    if k < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def _complete(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def k_ladder(k: int) -> Graph:
    """Two rails of k+1 vertices joined by rungs.

    Vertex labels: a=0, b=1, a_j=2j, b_j=2j+1 for j=1..k.
    """
    if k < 1:
        raise GraphError(f"k-ladder needs k >= 1, got {k}")
    edges = [(0, 1), (0, 2), (1, 3)]
    for j in range(1, k + 1):
        edges.append((2 * j, 2 * j + 1))  # rung a_j b_j
    for j in range(1, k):
        edges.append((2 * j, 2 * j + 2))  # rail a_j a_{j+1}
        edges.append((2 * j + 1, 2 * j + 3))  # rail b_j b_{j+1}
    return Graph(2 * k + 2, edges)


def p2p3bar() -> Graph:
    # complement of (one edge 01) + (path 2-3-4): non-edges {01, 23, 34}
    non = {(0, 1), (2, 3), (3, 4)}
    edges = [
        (i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) not in non
    ]
    return Graph(5, edges)


def diamond() -> Graph:
    # K4 minus the edge 23
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def domino() -> Graph:
    # two C4s, 0-1-2-3-0 and 2-3-4-5-2, sharing the edge 23
    return Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (2, 5)])


def named(name: str, k: Optional[int] = None) -> Graph:
    """Bit-exact catalog constructions."""
    parametric = {"path": _path, "cycle": _cycle, "complete": _complete, "k_ladder": k_ladder}
    fixed = {"p2p3bar": p2p3bar, "diamond": diamond, "domino": domino}
    if name in parametric:
        if k is None:
            raise GraphError(f"catalog graph {name!r} needs a parameter k")
        return parametric[name](k)
    if name in fixed:
        if k is not None:
            raise GraphError(f"catalog graph {name!r} takes no parameter")
        return fixed[name]()
    raise GraphError(f"unknown catalog name: {name!r}")


# Graphs are immutable, so each pattern is built once and shared.
_PATTERNS = {
    "p2p3bar": p2p3bar(),
    "diamond": diamond(),
    "c4": _cycle(4),
    "domino": domino(),
    "triangle": _complete(3),
}


def pattern_graph(which: str) -> Graph:
    try:
        return _PATTERNS[which]
    except KeyError:
        raise GraphError(f"unknown pattern name: {which!r}") from None


# -- recognition -------------------------------------------------------------


def _first_umbrella_free(
    eng: SweepEngine, sigma: Ordering, sweeps: int
) -> Optional[Ordering]:
    """The first umbrella-free ordering among sigma and the next `sweeps`
    LBFS+ sweeps from it, or None."""
    while not is_umbrella_free(eng.g, sigma):
        if not sweeps:
            return None
        sweeps -= 1
        sigma = eng.step(sigma.seq)
    return sigma


def is_cocomparability(g: Graph) -> Tuple[bool, Optional[Ordering]]:
    """Repeated-sweep recognition.

    Runs one LBFS then n further LBFS+ sweeps; true iff some sweep is
    umbrella-free, returning the first such ordering as witness.
    """
    if g.n == 0:
        return True, Ordering(())
    sigma = _first_umbrella_free(SweepEngine(g), lbfs(g, 0, MIN_INDEX), g.n)
    return sigma is not None, sigma


def _random_cocomp_starts(
    g: Graph, count: int, rng: random.Random
) -> List[Ordering]:
    """Cocomparability orderings: the first umbrella-free one of the n + 2
    sweeps after each random start; requires g to be cocomparability."""
    eng = SweepEngine(g)
    found: List[Ordering] = []
    attempts = 0
    while len(found) < count:
        attempts += 1
        if attempts > 20 * count + 20:
            raise RuntimeError("could not find umbrella-free sweeps")
        perm = list(range(g.n))
        rng.shuffle(perm)
        sigma = _first_umbrella_free(eng, eng.step(tuple(perm)), g.n + 1)
        if sigma is not None:
            found.append(sigma)
    return found


def cocomp_oracle(g: Graph) -> bool:
    """Exact cocomparability test by Gamma-forcing on the complement.

    g is cocomparability iff its complement H is a comparability graph,
    and H is one iff no implication class of its arcs holds an arc
    together with its reverse (Gallai; Golumbic, *Algorithmic Graph
    Theory and Perfect Graphs*, ch. 5). Whenever bc is an edge of g and a
    is adjacent to neither b nor c, orienting ab as a->b forces a->c, and
    b->a forces c->a. Union-find over the arcs of H (a->b is a * n + b)
    closes that relation into the implication classes: O(n m) unions.

    The union-find keeps n^2 slots, one per ordered pair of vertices, as a
    list of Python ints: about 6 MB at n = 400, and growing as n^2 (600 MB
    at n = 4000). Its time grows at least as fast: one call on a sparse
    400-vertex cocomparability graph takes about 9 s (2 cores, Python
    3.11). So it is practical up to about n = 400; larger graphs have only
    the repeated-sweep `is_cocomparability`.
    """
    n = g.n
    masks = [0] * n
    for v in range(n):
        for w in g.neighbors(v):
            masks[v] |= 1 << w
    parent = list(range(n * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    full = (1 << n) - 1
    for b, c in g.edges():
        free = full & ~(masks[b] | masks[c])  # bc is an edge: drops b and c too
        while free:
            low = free & -free
            free ^= low
            a = low.bit_length() - 1
            union(a * n + b, a * n + c)
            union(b * n + a, c * n + a)
    return all(
        find(u * n + v) != find(v * n + u)
        for u in range(n)
        for v in range(u + 1, n)
        if not (masks[u] >> v) & 1
    )


def pattern_free(g: Graph, which: str) -> Tuple[bool, Optional[Embedding]]:
    """True iff g has no induced copy of the named pattern."""
    emb = find_induced(g, pattern_graph(which))
    return (emb is None), emb


def is_interval(g: Graph) -> bool:
    if not pattern_free(g, "c4")[0]:
        return False
    return is_cocomparability(g)[0]


def classify(g: Graph) -> FrozenSet[str]:
    tags: Set[str] = set()
    cocomp, _ = is_cocomparability(g)
    if cocomp:
        tags.add(TAG_COCOMP)
    p2p3_free = pattern_free(g, "p2p3bar")[0]
    if p2p3_free:
        tags.add(TAG_P2P3BAR_FREE)
    if pattern_free(g, "diamond")[0]:
        tags.add(TAG_DIAMOND_FREE)
    c4_free = pattern_free(g, "c4")[0]
    if girth(g) >= 4:
        tags.add(TAG_GIRTH_GE_4)
    if cocomp and c4_free:
        tags.add(TAG_INTERVAL)
    if cocomp and p2p3_free:
        tags.add(TAG_THEOREM)
    return frozenset(tags)


# -- generators --------------------------------------------------------------


@dataclass(frozen=True)
class PosetSpec:
    """A strict partial order as a transitively closed relation."""

    n: int
    relation: FrozenSet[Tuple[int, int]]

    def __post_init__(self) -> None:
        rel = self.relation
        succ: Dict[int, Set[int]] = {}
        for a, b in rel:
            if a == b:
                raise GraphError(f"irreflexivity violated: ({a}, {b})")
            if (b, a) in rel:
                raise GraphError(f"acyclicity violated: ({a}, {b}) and ({b}, {a})")
            succ.setdefault(a, set()).add(b)
        # transitive iff a < b implies succ(b) is a subset of succ(a)
        for a, b in rel:
            later = succ.get(b)
            if later and not later <= succ[a]:
                d = min(later - succ[a])
                raise GraphError(f"transitivity violated: ({a}, {b}), ({b}, {d})")


@dataclass(frozen=True)
class ClassSample:
    """A generated graph with its provenance witness."""

    graph: Graph
    witness_ordering: Optional[Ordering] = None
    interval_model: Optional[Tuple[Tuple[float, float], ...]] = None
    poset: Optional[PosetSpec] = None


def gen_poset_cocomp(n: int, p: float, seed: int) -> ClassSample:
    """Complement of the comparability graph of a random poset.

    A uniform linear order on the ids is sampled, each forward pair
    becomes an arc with probability p, and the arcs are transitively
    closed. The linear order is a linear extension and hence an
    umbrella-free ordering of the complement.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability out of range: {p}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    direct = [0] * n  # bitmask of direct successors, by vertex id
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                direct[order[i]] |= 1 << order[j]
    # close transitively in reverse topological order
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        v = order[i]
        r = direct[v]
        d = direct[v]
        while d:
            w = (d & -d).bit_length() - 1
            d &= d - 1
            r |= reach[w]
        reach[v] = r
    relation = []
    comp_edges = []
    for v in range(n):
        r = reach[v]
        while r:
            w = (r & -r).bit_length() - 1
            r &= r - 1
            relation.append((v, w))
            comp_edges.append((v, w))
    comparability = Graph(n, comp_edges)
    return ClassSample(
        graph=complement(comparability),
        witness_ordering=Ordering(order),
        poset=PosetSpec(n, frozenset(relation)),
    )


def gen_interval(n: int, seed: int) -> ClassSample:
    """Random interval graph from 2n distinct endpoints."""
    if n < 0:
        raise ValueError(f"vertex count must be non-negative: {n}")
    rng = random.Random(seed)
    endpoints = rng.sample(range(10 * max(2 * n, 1) ** 2 + 10), 2 * n)
    model = []
    for v in range(n):
        a, b = endpoints[2 * v], endpoints[2 * v + 1]
        model.append((float(min(a, b)), float(max(a, b))))
    edges = []
    for u in range(n):
        lu, hu = model[u]
        for v in range(u + 1, n):
            lv, hv = model[v]
            if lu <= hv and lv <= hu:
                edges.append((u, v))
    order = sorted(range(n), key=lambda v: (model[v][0], v))
    return ClassSample(
        graph=Graph(n, edges),
        witness_ordering=Ordering(order),
        interval_model=tuple(model),
    )


def gen_rejection(
    n: int,
    p: float,
    seed: int,
    predicate: str,
    budget: int = 1000,
) -> ClassSample:
    """Draw poset-based samples until classify(graph) contains predicate."""
    if predicate not in ALL_TAGS:
        raise ValueError(
            f"unknown class tag {predicate!r}; expected one of {sorted(ALL_TAGS)}"
        )
    rng = random.Random(seed)
    for draw in range(budget):
        sub_seed = rng.randrange(2**63)
        sample = gen_poset_cocomp(n, p, sub_seed)
        if predicate in classify(sample.graph):
            return sample
    raise GenerationExhausted(predicate, budget)
