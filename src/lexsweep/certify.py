"""Certificates over (graph, ordering) pairs.

Each check is total over arbitrary inputs and returns a CheckReport
whose failure witness can be replayed independently. Internally the
checks work in position space with bitmasks: ``nbpos[v]`` holds one bit
per position occupied by a neighbour of v.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .graph import Graph
from .search import Ordering, OrderingError

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class BadTriple:
    """Vertices x, y, z with pos(x) < pos(y) < pos(z), xz an edge, xy not."""

    x: int
    y: int
    z: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class CheckReport:
    verdict: str
    witness: object = None

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def __bool__(self) -> bool:
        return self.ok


def _require_cover(g: Graph, sigma: Ordering) -> None:
    if len(sigma) != g.n:
        raise OrderingError(
            f"ordering covers {len(sigma)} vertices, graph has {g.n}"
        )


def _neighbour_position_masks(g: Graph, sigma: Ordering) -> List[int]:
    pos = sigma.pos
    masks = [0] * g.n
    for v in range(g.n):
        m = 0
        for w in g.neighbors(v):
            m |= 1 << pos[w]
        masks[v] = m
    return masks


def _lowest_bit_index(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def is_umbrella_free(g: Graph, sigma: Ordering) -> CheckReport:
    """No triple x < y < z with xz in E but xy, yz both non-edges.

    Failure carries the lexicographically-first violating triple by
    positions.
    """
    _require_cover(g, sigma)
    n = g.n
    seq = sigma.seq
    nbpos = _neighbour_position_masks(g, sigma)
    for i in range(n):
        x = seq[i]
        # y candidates: later non-neighbours of x, scanned left to right
        ys = ~nbpos[x] & (-1 << (i + 1)) & ((1 << n) - 1)
        if not ys:
            continue
        nx = nbpos[x]
        while ys:
            j = _lowest_bit_index(ys)
            ys &= ys - 1
            y = seq[j]
            zs = nx & ~nbpos[y] & (-1 << (j + 1))
            if zs:
                return CheckReport(FAIL, BadTriple(x, y, seq[_lowest_bit_index(zs)]))
    return CheckReport(PASS)


def _first_unwitnessed_triple(
    g: Graph, sigma: Ordering, adjacent_to_x: bool
) -> Optional[BadTriple]:
    """First bad triple (x, y, z), by positions, with no w left of x that
    is adjacent to y and not to z (and, with ``adjacent_to_x``, also
    adjacent to x)."""
    n = g.n
    seq = sigma.seq
    nbpos = _neighbour_position_masks(g, sigma)
    for i in range(n):
        x = seq[i]
        nx = nbpos[x]
        left = (nx if adjacent_to_x else -1) & ((1 << i) - 1)
        ys = ~nx & (-1 << (i + 1)) & ((1 << n) - 1)
        while ys:
            j = _lowest_bit_index(ys)
            ys &= ys - 1
            y = seq[j]
            ny_left = nbpos[y] & left
            zs = nx & (-1 << (j + 1))
            while zs:
                k = _lowest_bit_index(zs)
                zs &= zs - 1
                z = seq[k]
                if not (ny_left & ~nbpos[z]):
                    return BadTriple(x, y, z)
    return None


def is_lbfs_ordering(g: Graph, sigma: Ordering) -> CheckReport:
    """4-Point Condition: every bad triple (x, y, z) admits a private
    neighbour of y over z strictly left of x."""
    _require_cover(g, sigma)
    bad = _first_unwitnessed_triple(g, sigma, adjacent_to_x=False)
    return CheckReport(PASS) if bad is None else CheckReport(FAIL, bad)


def check_flip_pair(g: Graph, sigma: Ordering, tau: Ordering) -> CheckReport:
    """Every non-edge uv has opposite relative order in sigma and tau."""
    _require_cover(g, sigma)
    _require_cover(g, tau)
    spos = sigma.pos
    tpos = tau.pos
    for u in range(g.n):
        nb = g.adjsets[u]
        for v in range(u + 1, g.n):
            if v in nb:
                continue
            if (spos[u] < spos[v]) == (tpos[u] < tpos[v]):
                return CheckReport(FAIL, (u, v))
    return CheckReport(PASS)


def check_c4_property(g: Graph, sigma: Ordering) -> CheckReport:
    """LBFS C4 property of a cocomparability LBFS ordering.

    Every bad triple (x, y, z) must admit w left of x such that
    {w, x, y, z} induces a C4 with wx, wy, yz in E (wz, xy non-edges).
    Preconditions (umbrella-free, 4-point) are verified; a violation
    yields a not-applicable verdict carrying the precondition witness.
    """
    _require_cover(g, sigma)
    pre = is_umbrella_free(g, sigma)
    if not pre:
        return CheckReport(NOT_APPLICABLE, ("umbrella-free", pre.witness))
    pre = is_lbfs_ordering(g, sigma)
    if not pre:
        return CheckReport(NOT_APPLICABLE, ("lbfs-ordering", pre.witness))
    # w left of x, adjacent to x and y, not to z
    bad = _first_unwitnessed_triple(g, sigma, adjacent_to_x=True)
    return CheckReport(PASS) if bad is None else CheckReport(FAIL, bad)


def replay_bad_triple(
    g: Graph, sigma: Ordering, triple: BadTriple, kind: str
) -> bool:
    """Re-check that a failure witness violates exactly the claimed clause."""
    x, y, z = triple.as_tuple()
    pos = sigma.pos
    if not (pos[x] < pos[y] < pos[z]):
        return False
    if not g.has_edge(x, z) or g.has_edge(x, y):
        return False
    if kind == "umbrella":
        return not g.has_edge(y, z)
    below = [w for w in range(g.n) if pos[w] < pos[x]]
    if kind == "lbfs":
        return not any(g.has_edge(w, y) and not g.has_edge(w, z) for w in below)
    if kind == "c4":
        return not any(
            g.has_edge(w, x) and g.has_edge(w, y) and not g.has_edge(w, z)
            for w in below
        )
    raise ValueError(f"unknown witness kind: {kind}")
