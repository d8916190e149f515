"""Simple undirected graphs on dense integer vertex ids 0..n-1.

Graphs are immutable after construction and safe to share between
threads. Adjacency is stored per vertex as a sorted tuple (ordered
iteration for the search engines) with lazily-built frozensets for
membership tests, and once more packed for the C LBFS as `Graph._csr`
(see `_kernel`). `Graph.__init__` builds both in the compiled kernel
(`graph_adj` in `_lbfs_kernel.c`) whenever it loads, else the tuples
alone in `_python_adj`, which gives identical output. The packed rows
hold int32 ids and offsets, so `Graph.__init__` refuses, before building
anything, 2**31 vertices or more, or 2**30 edges or more (repeats
included).

The packed rows are built in vertex order and laid out once more, in the
order of the graph's first kernel LBFS, by `search._refine`, which then
replaces ``_csr`` and sets ``_relaid``. That changes neither the graph nor
any sweep's output. The replacement is one attribute store, so under the
GIL a concurrent sweep reads the old rows or the new, each whole; two
threads that sweep a fresh graph at once may both lay it out, to equal
rows.
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


_INT32_LIMIT = 2**31


class Graph:
    """A simple undirected graph. ``_csr`` holds the rows packed for the C
    LBFS kernel, or None when the graph was built without the kernel;
    ``_relaid`` says whether they have had their one re-layout."""

    __slots__ = ("n", "m", "_adj", "_adjsets", "_csr", "_relaid")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        if not isinstance(edges, list):
            edges = list(edges)
        if n >= _INT32_LIMIT or 2 * len(edges) >= _INT32_LIMIT:
            raise GraphError(
                f"cannot build {n} vertices and {len(edges)} edges: ids and row "
                f"offsets are int32, so n and 2m must be below 2**31"
            )
        lib, reason = _kernel()
        csr = None
        if lib is None:
            _warn_fallback(reason)
            adj = _python_adj(n, edges)
        else:
            built = lib.graph_adj(n, edges)
            if built is None:
                # an edge that is not a tuple or list of two ints (numpy
                # integers, say): the Python loop reads it and raises the
                # same errors, and the kernel packs the rows it gives
                rows = _python_adj(n, edges)
                built = lib.graph_adj(n, [(u, v) for u, row in enumerate(rows)
                                          for v in row if u < v])
            elif isinstance(built, int):
                raise _edge_error(n, *edges[built])
            adj, csr = built
        self.n = n
        self._adj = adj
        self._csr = csr
        self._relaid = False
        self.m = sum(map(len, adj)) // 2
        self._adjsets = None

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
    """`Graph.adj` built in Python: the builder when the kernel cannot load,
    the reader of edges that `graph_adj` does not read, and the reference
    of `graph_adj` in the tests."""
    adj = [set() for _ in range(n)]
    # Rows share one int object per vertex instead of keeping the caller's,
    # as graph_adj's do: a scan of a large graph then reads a compact block
    # of ints, not 2m objects scattered over the heap.
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
    n = g.n
    return Graph(n, [(v, w) for v, nb in enumerate(g.adjsets)
                     for w in range(v + 1, n) if w not in nb])


def induced_subgraph(g: Graph, members: Iterable[int]) -> Tuple[Graph, Tuple[int, ...]]:
    """Induced subgraph on ``members`` plus the id map (host ids, ascending)."""
    idmap = tuple(sorted(set(members)))
    for v in idmap:
        if not (0 <= v < g.n):
            raise GraphError(f"induced-subgraph member out of range: {v}")
    back = {v: i for i, v in enumerate(idmap)}
    edges = [(i, back[w]) for i, v in enumerate(idmap)
             for w in g.neighbors(v) if v < w and w in back]
    return Graph(len(idmap), edges), idmap


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
