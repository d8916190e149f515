"""Simple undirected graphs on dense integer vertex ids 0..n-1.

Graphs are immutable after construction and safe to share between
threads. Adjacency is stored per vertex as a sorted tuple (ordered
iteration for the search engines) with lazily-built frozensets for
membership tests. `Graph.__init__` builds the tuples in the compiled
kernel (`graph_adj` in `_lbfs_kernel.c`, the file of the C LBFS) whenever
it loads, else in `_python_adj`, which gives identical output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from ._kernel import _kernel, _warn_fallback


class GraphError(ValueError):
    """Malformed graph construction or out-of-range vertex."""


class PatternTooLargeError(GraphError):
    """Induced-pattern search called with a pattern above the size guard."""


MAX_PATTERN_VERTICES = 10


class Graph:
    __slots__ = ("n", "m", "_adj", "_adjsets")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        if not isinstance(edges, list):
            edges = list(edges)
        lib, reason = _kernel()
        if lib is None:
            _warn_fallback(reason)
            adj = _python_adj(n, edges)
        else:
            adj = lib.graph_adj(n, edges)
            if adj is None:
                # an edge that is not a tuple or list of two ints (numpy
                # integers, say), which only the Python loop reads
                adj = _python_adj(n, edges)
            elif isinstance(adj, int):
                raise _edge_error(n, *edges[adj])
        self.n = n
        self._adj = adj
        self.m = sum(map(len, adj)) // 2
        self._adjsets = None

    @classmethod
    def _from_sorted_adj(cls, adj: Tuple[Tuple[int, ...], ...]) -> "Graph":
        # trusted constructor: adj must already be symmetric, sorted, loop-free
        g = cls.__new__(cls)
        g.n = len(adj)
        g._adj = adj
        g.m = sum(len(t) for t in adj) // 2
        g._adjsets = None
        return g

    @property
    def adj(self) -> Tuple[Tuple[int, ...], ...]:
        return self._adj

    @property
    def adjsets(self) -> Tuple[frozenset, ...]:
        if self._adjsets is None:
            self._adjsets = tuple(frozenset(t) for t in self._adj)
        return self._adjsets

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjsets[u]

    def edges(self) -> Iterator[Tuple[int, int]]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _python_adj(n: int, edges: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, ...], ...]:
    """`Graph.adj` built in Python: the fallback of the C builder, and its
    reference in the tests."""
    adj = [set() for _ in range(n)]
    # Rows share one int object per vertex instead of keeping the caller's:
    # scans of a large graph (the C LBFS kernel's above all) then read a
    # compact block of ints, not 2m objects scattered over the heap.
    ids = list(range(n))
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise _edge_error(n, u, v)
        adj[u].add(ids[v])
        adj[v].add(ids[u])
    return tuple(tuple(sorted(s)) for s in adj)


def _edge_error(n: int, u: int, v: int) -> GraphError:
    """The error for an edge that is out of range or a self-loop."""
    if 0 <= u < n and 0 <= v < n:
        return GraphError(f"self-loop rejected: ({u}, {v})")
    return GraphError(f"edge endpoint out of range 0..{n - 1}: ({u}, {v})")


def from_edge_list(n: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Build a normalized graph; duplicate edges collapse, order is irrelevant."""
    return Graph(n, edges)


def complement(g: Graph) -> Graph:
    full = range(g.n)
    adj = []
    for v in full:
        nb = g.adjsets[v]
        adj.append(tuple(w for w in full if w != v and w not in nb))
    return Graph._from_sorted_adj(tuple(adj))


def induced_subgraph(g: Graph, members: Iterable[int]) -> Tuple[Graph, Tuple[int, ...]]:
    """Induced subgraph on ``members`` plus the id map (host ids, ascending)."""
    idmap = tuple(sorted(set(members)))
    for v in idmap:
        if not (0 <= v < g.n):
            raise GraphError(f"induced-subgraph member out of range: {v}")
    back = {v: i for i, v in enumerate(idmap)}
    adj = []
    for v in idmap:
        adj.append(tuple(sorted(back[w] for w in g.neighbors(v) if w in back)))
    return Graph._from_sorted_adj(tuple(adj)), idmap


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern vertex -> host vertex preserving induced adjacency."""

    mapping: Tuple[int, ...]

    def check(self, host: Graph, pattern: Graph) -> bool:
        m = self.mapping
        if len(m) != pattern.n or len(set(m)) != len(m):
            return False
        if any(not (0 <= h < host.n) for h in m):
            return False
        for a in range(pattern.n):
            for b in range(a + 1, pattern.n):
                if pattern.has_edge(a, b) != host.has_edge(m[a], m[b]):
                    return False
        return True


def find_induced(g: Graph, pattern: Graph) -> Optional[Embedding]:
    """Search for an induced copy of ``pattern`` in ``g``.

    Returns the lexicographically least embedding (as a mapping vector
    indexed by pattern vertex) or None. Backtracking over pattern
    vertices in id order with degree pruning.
    """
    k = pattern.n
    if k > MAX_PATTERN_VERTICES:
        raise PatternTooLargeError(
            f"pattern has {k} vertices, guard is {MAX_PATTERN_VERTICES}"
        )
    if k == 0:
        return Embedding(())
    if k > g.n:
        return None

    pat_sets = pattern.adjsets
    host_sets = g.adjsets
    pat_deg = [pattern.degree(a) for a in range(k)]
    assign: list = [-1] * k
    used = [False] * g.n

    def extend(a: int) -> bool:
        for h in range(g.n):
            if used[h]:
                continue
            if len(host_sets[h]) < pat_deg[a]:
                continue
            ok = True
            pa = pat_sets[a]
            hs = host_sets[h]
            for b in range(a):
                if (b in pa) != (assign[b] in hs):
                    ok = False
                    break
            if not ok:
                continue
            assign[a] = h
            used[h] = True
            if a + 1 == k or extend(a + 1):
                return True
            used[h] = False
            assign[a] = -1
        return False

    if extend(0):
        return Embedding(tuple(assign))
    return None


def girth(g: Graph) -> float:
    """Minimum cycle length via per-vertex BFS; math.inf for forests."""
    best = math.inf
    adj = g.adj
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                du = dist[u]
                if 2 * du >= best:
                    continue
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = du + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w:
                        cand = du + dist[w] + 1
                        if cand < best:
                            best = cand
            frontier = nxt
    return best
