"""Reference computations the benchmark checks lexsweep against.

Nothing here imports lexsweep. Graphs are given as ``n`` plus a list of
neighbour sets (or bitmasks, where the name says so); orderings are
sequences of vertex ids. Every routine is the plainest correct one, not a
fast one, except the interval builder, which has to produce two million
edges.
"""
from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

Adj = Sequence[Set[int]]


def adjacency(n: int, edges) -> List[Set[int]]:
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def masks(adj: Adj) -> List[int]:
    out = []
    for nb in adj:
        m = 0
        for w in nb:
            m |= 1 << w
        out.append(m)
    return out


# -- LBFS+ -----------------------------------------------------------------


def lbfs_plus(adj: Adj, prior: Sequence[int]) -> Tuple[int, ...]:
    """Label-list LBFS+: start at prior's last vertex, break ties toward the
    vertex rightmost in prior.

    Each unnumbered vertex carries the list of the numbers n-1, n-2, ...
    given to its numbered neighbours, in the order they were numbered; the
    next vertex has the lexicographically largest list.
    """
    n = len(adj)
    if n == 0:
        return ()
    pos = [0] * n
    for i, v in enumerate(prior):
        pos[v] = i
    labels: List[List[int]] = [[] for _ in range(n)]
    unnumbered = set(range(n))
    out = []
    u = prior[-1]
    for i in range(n):
        if i:
            u = max(unnumbered, key=lambda v: (labels[v], pos[v]))
        unnumbered.remove(u)
        out.append(u)
        for w in adj[u]:
            if w in unnumbered:
                labels[w].append(n - 1 - i)
    return tuple(out)


def is_lbfs_ordering(adj: Adj, order: Sequence[int]) -> bool:
    """Four-point condition, by brute force over position triples: for
    a < b < c with ac an edge and ab not, some d < a sees b and not c."""
    n = len(order)
    for a, b, c in combinations(range(n), 3):
        x, y, z = order[a], order[b], order[c]
        if z in adj[x] and y not in adj[x]:
            if not any(
                y in adj[order[d]] and z not in adj[order[d]] for d in range(a)
            ):
                return False
    return True


# -- cocomparability ---------------------------------------------------------


def find_umbrella(adj: Adj, order: Sequence[int]) -> Optional[Tuple[int, int, int]]:
    """First triple x < y < z (by position) with xz an edge and xy, yz not."""
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    later = []  # later[i]: bitmask of the vertices placed after position i
    acc = 0
    for i in range(n - 1, -1, -1):
        later.append(acc)
        acc |= 1 << order[i]
    later.reverse()
    nb = masks(adj)
    for i, x in enumerate(order):
        for y in range(n):
            if pos[y] <= i or (nb[x] >> y) & 1:
                continue
            zs = nb[x] & ~nb[y] & later[pos[y]]
            if zs:
                z = min((w for w in range(n) if (zs >> w) & 1), key=pos.__getitem__)
                return x, y, z
    return None


def umbrella_free(adj: Adj, order: Sequence[int]) -> bool:
    return find_umbrella(adj, order) is None


def cocomp_ordering(adj: Adj) -> Optional[Tuple[int, ...]]:
    """An umbrella-free ordering of the graph, or None if it has none.

    Backtracking over prefixes. ``forbid[w]`` collects, over the placed
    vertices y not adjacent to w, the non-neighbours of y placed before y;
    placing w next makes an umbrella iff ``forbid[w]`` meets N(w). A prefix
    is given up as soon as some unplaced vertex can no longer be placed.
    Once no unplaced vertex is blocked, whether the prefix can be completed
    depends only on its vertex set, so failed sets are remembered.
    """
    n = len(adj)
    nb = masks(adj)
    full = (1 << n) - 1
    forbid = [0] * n
    order: List[int] = []
    dead = set()

    def extend(placed: int) -> bool:
        if placed == full:
            return True
        if placed in dead:
            return False
        for z in range(n):
            if (placed >> z) & 1:
                continue
            before_z = placed & ~nb[z]
            saved = []
            ok = True
            for w in range(n):
                if w == z or (placed >> w) & 1 or (nb[z] >> w) & 1:
                    continue
                grown = forbid[w] | before_z
                saved.append((w, forbid[w]))
                forbid[w] = grown
                if grown & nb[w]:
                    ok = False
                    break
            if ok:
                order.append(z)
                if extend(placed | (1 << z)):
                    return True
                order.pop()
            for w, old in saved:
                forbid[w] = old
        dead.add(placed)
        return False

    return tuple(order) if extend(0) else None


def is_cocomparability(adj: Adj) -> bool:
    return cocomp_ordering(adj) is not None


# -- induced patterns --------------------------------------------------------


def _induced_edges(nb: List[int], vs: Tuple[int, ...]) -> List[Tuple[int, int]]:
    return [(a, b) for a, b in combinations(vs, 2) if (nb[a] >> b) & 1]


def has_induced_p2p3bar(adj: Adj) -> Optional[Tuple[int, ...]]:
    """Five vertices whose complement-induced graph is P2 + P3.

    A five-vertex graph with three edges and degrees (2, 1, 1, 1, 1) is
    exactly P2 + P3, so the test counts non-edges and degrees.
    """
    nb = masks(adj)
    for vs in combinations(range(len(adj)), 5):
        non = [(a, b) for a, b in combinations(vs, 2) if not (nb[a] >> b) & 1]
        if len(non) != 3:
            continue
        deg = {v: 0 for v in vs}
        for a, b in non:
            deg[a] += 1
            deg[b] += 1
        if sorted(deg.values()) == [1, 1, 1, 1, 2]:
            return vs
    return None


def has_induced_diamond(adj: Adj) -> Optional[Tuple[int, ...]]:
    """Four vertices spanning exactly five edges (K4 minus one edge)."""
    nb = masks(adj)
    for vs in combinations(range(len(adj)), 4):
        if len(_induced_edges(nb, vs)) == 5:
            return vs
    return None


def has_induced_c4(adj: Adj) -> Optional[Tuple[int, ...]]:
    """Four vertices spanning four edges, every vertex of degree two."""
    nb = masks(adj)
    for vs in combinations(range(len(adj)), 4):
        es = _induced_edges(nb, vs)
        if len(es) == 4 and all(sum(v in e for e in es) == 2 for v in vs):
            return vs
    return None


def has_triangle(adj: Adj) -> Optional[Tuple[int, ...]]:
    nb = masks(adj)
    for vs in combinations(range(len(adj)), 3):
        if len(_induced_edges(nb, vs)) == 3:
            return vs
    return None


def is_induced_copy(adj: Adj, pattern_edges, mapping: Sequence[int]) -> bool:
    """Whether ``mapping`` (pattern vertex -> host vertex) is an induced copy."""
    k = len(mapping)
    if len(set(mapping)) != k:
        return False
    pe = {frozenset(e) for e in pattern_edges}
    return all(
        (frozenset((a, b)) in pe) == (mapping[b] in adj[mapping[a]])
        for a, b in combinations(range(k), 2)
    )


# -- interval graphs ---------------------------------------------------------


def interval_edges(left: np.ndarray, right: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges of the interval graph of closed intervals [left[v], right[v]].

    A sweep over the left endpoints in increasing order: when interval j
    starts, it meets exactly the earlier-starting intervals that have not
    ended yet, i.e. those i with left[i] <= left[j] <= right[i]. Returns
    ``(u, v, order)``: edge endpoints and the left-endpoint ordering
    (ties by vertex id).
    """
    n = left.size
    order = np.lexsort((np.arange(n), left))
    ls = left[order]
    rs = right[order]
    # for the i-th interval in sweep order, the later starters it meets are
    # positions i+1 .. hi[i]-1
    hi = np.searchsorted(ls, rs, side="right")
    cnt = np.maximum(hi - np.arange(n) - 1, 0)
    first = np.repeat(np.arange(n), cnt)
    offset = np.arange(first.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return order[first], order[first + 1 + offset], order


# -- graph6 ------------------------------------------------------------------


def graph6_decode(text: str) -> Tuple[int, List[Tuple[int, int]]]:
    """Short-form graph6 (n <= 62): the vertex count and the edge list."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    n = ord(s[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"unsupported graph6 size byte {s[0]!r}")
    bits = []
    for ch in s[1:]:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"invalid graph6 character {ch!r}")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs) or len(bits) - len(pairs) >= 6:
        raise ValueError("graph6 body length does not match its size byte")
    return n, [pair for pair, bit in zip(pairs, bits) if bit]
