"""LBFS and tie-breaking.

There is one LBFS, an ordered partition refinement (linear-time up to
tie-break scans), with two engines that share one contract,
``(rows, start, prior) -> (seq, pos)``: the visit order of an LBFS from
``start`` and its inverse, in vertex ids. The C kernel (`_lbfs_kernel.c`,
compiled on first use) reads the graph's packed rows, ``Graph._csr``, and
works on their internal ids, translating at its boundary; `_lbfs_core`,
the pure-Python fallback, reads ``Graph.adj``. `_refine` runs one of them
and is the one place that wraps the pair, as a trusted `Ordering`: both
engines build a permutation and its inverse by construction, so it skips
the O(n) check that the public `Ordering(seq)` makes. After a graph's
first kernel sweep, `_refine` also lays its packed rows out once more, in
that sweep's order (`csr_relayout`): a graph is swept many times, and in
LBFS order the neighbours of an interval or cocomparability graph's
vertices lie close together, so the later sweeps read memory that is
already in cache. Ties go by prior position alone, so no layout changes
a sweep's output. The LBFS+ map (LBFS from the prior's last vertex) is
`_sweep`: `lbfs_plus` calls it on an `Ordering`'s sequence,
`lexcycle.SweepEngine` on raw tuples, and the ``seq`` of its result is
the next sweep's prior as it stands.

The prior is the only tie-break form: within a set of tied vertices the
one rightmost in it wins. `_prior` turns each `TieBreak` into one;
`_lbfs_core` and `lbfs_naive`, the literal label-list LBFS kept as the
oracle, read it as a priority through `_rightmost_priority`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ._kernel import _kernel, _warn_fallback
from .graph import Graph, GraphError


class OrderingError(ValueError):
    """A sequence that is not a permutation of the expected vertex set."""


class Ordering:
    """A permutation of 0..n-1, indexable both ways.

    ``seq[i]`` is the vertex at position i (0-based); ``pos[v]`` is the
    position of vertex v. ``seq`` and ``pos`` are mutually inverse.
    """

    __slots__ = ("seq", "pos")

    def __init__(self, seq: Iterable[int]) -> None:
        s = tuple(seq)
        n = len(s)
        pos = [-1] * n
        for i, v in enumerate(s):
            if not (0 <= v < n) or pos[v] != -1:
                raise OrderingError(f"not a permutation of 0..{n - 1}: {s}")
            pos[v] = i
        self.seq = s
        self.pos = tuple(pos)

    def __len__(self) -> int:
        return len(self.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ordering):
            return NotImplemented
        return self.seq == other.seq

    def __hash__(self) -> int:
        return hash(self.seq)

    def __iter__(self):
        return iter(self.seq)

    def last(self) -> int:
        return self.seq[-1]

    def reverse(self) -> "Ordering":
        return Ordering(reversed(self.seq))

    def precedes(self, u: int, v: int) -> bool:
        return self.pos[u] < self.pos[v]

    def __repr__(self) -> str:
        return f"Ordering{self.seq}"


@dataclass(frozen=True)
class MinIndex:
    """Break ties toward the smallest vertex id (library default)."""


@dataclass(frozen=True)
class PriorRightmost:
    """Break ties toward the vertex rightmost in a prior ordering."""

    prior: Ordering


@dataclass(frozen=True)
class Seeded:
    """Break ties by a seeded uniform priority permutation."""

    seed: int


TieBreak = Union[MinIndex, PriorRightmost, Seeded]

MIN_INDEX = MinIndex()


def _prior(tb: TieBreak, n: int) -> Sequence[int]:
    """``tb`` as a prior, the one tie-break form the engines and the
    oracle read: ties go to the vertex rightmost in it."""
    if isinstance(tb, MinIndex):
        return list(range(n - 1, -1, -1))
    if isinstance(tb, PriorRightmost):
        return tb.prior.seq
    if isinstance(tb, Seeded):
        prio = list(range(n))
        random.Random(tb.seed).shuffle(prio)
        prior = [0] * n
        for v, p in enumerate(prio):
            prior[n - 1 - p] = v
        return prior
    raise TypeError(f"unknown tie-break: {tb!r}")


def _rightmost_priority(prior: Sequence[int], n: int) -> List[int]:
    """The LBFS+ tie-break, prio[v] = n - 1 - (position of v in prior).
    Raises `OrderingError` unless prior is a permutation of 0..n-1, for the
    same priors as the kernel's `lbfs_refine` (an entry that is not an
    integer, say)."""
    prio = [-1] * n
    try:
        # min runs at C speed, and is checked because a negative entry
        # wraps around in prio; a bad entry stops the loop before it
        # fills the last slot
        if len(prior) == n and (not n or min(prior) >= 0):
            for i, v in enumerate(reversed(prior)):
                prio[v] = i
    except (TypeError, IndexError):
        pass
    if len(prior) != n or -1 in prio:
        raise OrderingError(f"not a permutation of 0..{n - 1}: {prior}")
    return prio


def _lbfs_core(
    adj: Sequence[Sequence[int]], n: int, start: int, prior: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    # Ordered partition refinement over the array `arr`, whose inverse is
    # `loc`. Numbered vertices occupy arr[:p] in visit order; unnumbered
    # ones occupy arr[p:], tiled by classes in label order. Visiting u
    # splits each class into neighbours-first / non-neighbours.
    prio = _rightmost_priority(prior, n)
    arr = list(range(n))
    loc = list(range(n))
    if start != 0:
        arr[0], arr[start] = arr[start], arr[0]
        loc[0], loc[start] = loc[start], loc[0]
    cls = [1] * n
    cls[start] = 0
    # Each split adds a non-empty class and each step empties at most one,
    # so at most n + 1 classes are ever created.
    cstart = [0] * (n + 2)
    cend = [0] * (n + 2)
    moved = [0] * (n + 2)
    cstart[1] = 1
    cend[0] = 1
    cend[1] = n
    nc = 2
    # the last vertex is forced, and visiting it refines nothing
    for p in range(n - 1):
        u = arr[p]
        head = cls[u]
        end = cend[head]
        if end - p > 1:
            # select the minimum-priority vertex of the head class
            bp = prio[u]
            bi = p
            for i in range(p + 1, end):
                v = arr[i]
                if prio[v] < bp:
                    u = v
                    bp = prio[v]
                    bi = i
            if bi != p:
                x = arr[p]
                arr[bi] = x
                loc[x] = bi
                arr[p] = u
                loc[u] = p
        cstart[head] = p + 1
        touched = []
        for w in adj[u]:
            i = loc[w]
            if i <= p:
                continue
            c = cls[w]
            mv = moved[c]
            if not mv:
                touched.append(c)
            j = cstart[c] + mv
            if i != j:
                x = arr[j]
                arr[j] = w
                arr[i] = x
                loc[w] = j
                loc[x] = i
            moved[c] = mv + 1
        for c in touched:
            mv = moved[c]
            moved[c] = 0
            if mv < cend[c] - cstart[c]:
                ns = cstart[c]
                ne = ns + mv
                cstart[nc] = ns
                cend[nc] = ne
                for idx in range(ns, ne):
                    cls[arr[idx]] = nc
                cstart[c] = ne
                nc += 1
    return tuple(arr), tuple(loc)


def _refine(g: Graph, start: int, prior: Sequence[int]) -> Ordering:
    """LBFS from ``start``, ties toward the vertex rightmost in ``prior`` (a
    tuple or list). It runs the C kernel on ``g._csr`` if the kernel loads,
    else `_lbfs_core`, and wraps their ``(seq, pos)`` as an `Ordering`
    without the check of `Ordering.__init__`. The first kernel sweep of g
    replaces ``g._csr`` by its rows laid out in that sweep's order. Raises
    `OrderingError` unless prior is a permutation of the vertices;
    ``start`` must be a vertex when there is one."""
    n = g.n
    lib, reason = _kernel()
    if len(prior) != n:
        out = None
    elif n == 0:
        out = (), ()
    elif lib is not None:
        out = lib.lbfs_refine(g._csr, start, prior)
        if out is not None and not g._relaid:
            g._csr = lib.csr_relayout(g._csr, out[0])
            g._relaid = True
    else:
        _warn_fallback(reason)
        out = _lbfs_core(g.adj, n, start, prior)
    if out is None:
        raise OrderingError(f"not a permutation of 0..{n - 1}: {prior}")
    sigma = Ordering.__new__(Ordering)  # trusted: no check in __init__
    sigma.seq, sigma.pos = out
    return sigma


def _sweep(g: Graph, seq: Sequence[int]) -> Ordering:
    """The LBFS+ map: LBFS from the last vertex of the prior ``seq``, ties
    toward prior-rightmost. Raises `OrderingError` unless ``seq`` is a
    permutation of the vertices."""
    return _refine(g, seq[-1] if seq else None, seq)


def lbfs(g: Graph, start: int, tb: TieBreak = MIN_INDEX) -> Ordering:
    """Partition-refinement LBFS from ``start`` with tie-break ``tb``."""
    if not (0 <= start < g.n):
        raise GraphError(f"start vertex out of range: {start}")
    return _refine(g, start, _prior(tb, g.n))


def lbfs_naive(g: Graph, start: int, tb: TieBreak = MIN_INDEX) -> Ordering:
    """Literal label-sequence LBFS; the reference oracle for `lbfs`."""
    if not (0 <= start < g.n):
        raise GraphError(f"start vertex out of range: {start}")
    n = g.n
    prio = _rightmost_priority(_prior(tb, n), n)
    labels: List[List[int]] = [[] for _ in range(n)]
    labels[start] = [n]
    unnumbered = set(range(n))
    adjsets = g.adjsets
    out = []
    for step in range(1, n + 1):
        u = max(unnumbered, key=lambda v: (labels[v], -prio[v]))
        unnumbered.discard(u)
        out.append(u)
        stamp = n - step
        for w in adjsets[u]:
            if w in unnumbered:
                labels[w].append(stamp)
    return Ordering(out)


def lbfs_plus(g: Graph, prior: Ordering) -> Ordering:
    """LBFS started at the prior's last vertex, ties toward prior-rightmost."""
    return _sweep(g, prior.seq)


def lmpn(g: Graph, sigma: Ordering, y: int, z: int) -> Optional[int]:
    """Leftmost (in sigma) private neighbour of y with respect to z."""
    if y == z:
        raise GraphError("lmpn requires y != z")
    zset = g.adjsets[z]
    pos = sigma.pos
    best = None
    best_pos = None
    for w in g.neighbors(y):
        if w == z or w in zset:
            continue
        if best_pos is None or pos[w] < best_pos:
            best = w
            best_pos = pos[w]
    return best


def lbfs_reachable(g: Graph, sigma: Ordering) -> bool:
    """Whether some start + tie-break sequence of generic LBFS yields sigma.

    Greedy simulation: sigma is reachable iff at every step its next
    vertex is tied for the lexicographically largest label.
    """
    n = g.n
    if len(sigma) != n:
        raise OrderingError("ordering does not cover the vertex set")
    if n == 0:
        return True
    labels: List[List[int]] = [[] for _ in range(n)]
    labels[sigma.seq[0]] = [n]
    unnumbered = set(range(n))
    adjsets = g.adjsets
    for step, u in enumerate(sigma.seq, start=1):
        lu = labels[u]
        for v in unnumbered:
            if labels[v] > lu:
                return False
        unnumbered.discard(u)
        stamp = n - step
        for w in adjsets[u]:
            if w in unnumbered:
                labels[w].append(stamp)
    return True


# -- compiled kernel ---------------------------------------------------------


def kernel_backend() -> str:
    """``"c"`` when the compiled kernel loads, else ``"python"``.

    The first call builds the kernel with ``$CC`` (default ``cc``) against
    this interpreter's headers, into a per-user cache directory; later
    calls and processes reuse the build.
    """
    return "c" if _kernel()[0] is not None else "python"
