"""Certificates over (graph, ordering) pairs.

Each check is total over arbitrary inputs and returns a CheckReport
whose failure witness can be replayed independently. Internally the
checks work in position space with bitmasks: ``nbpos[v]`` holds one bit
per position occupied by a neighbour of v.

The umbrella, 4-point and C4 checks share one scan, `_first_bad_triple`,
over the bad triples x < y < z (xz in E, xy not in E). Since z is a
neighbour of x right of y, y is only tried at positions before x's last
neighbour.
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


def _first_bad_triple(
    g: Graph, sigma: Ordering, kind: str, nbpos: Optional[List[int]] = None
) -> Optional[BadTriple]:
    """First bad triple (x, y, z), by positions, that violates the clause
    ``kind`` names (as in `replay_bad_triple`): "umbrella", yz is a
    non-edge; "lbfs", no w left of x has wy in E and wz not in E; "c4",
    no such w is also adjacent to x. A caller that scans several kinds
    passes ``nbpos``, the `_neighbour_position_masks` of a covering sigma,
    built once."""
    if nbpos is None:
        _require_cover(g, sigma)
        nbpos = _neighbour_position_masks(g, sigma)
    seq = sigma.seq
    for i in range(g.n):
        nx = nbpos[seq[i]]
        # y: a later non-neighbour of x, before x's last neighbour
        ys = ~nx & (-1 << (i + 1)) & ((1 << nx.bit_length()) - 1)
        left = (nx if kind == "c4" else -1) & ((1 << i) - 1)
        while ys:
            j = _lowest_bit_index(ys)
            ys &= ys - 1
            ny = nbpos[seq[j]]
            zs = nx & (-1 << (j + 1))
            if kind == "umbrella":
                zs &= ~ny
            else:
                # drop each z that a witness w (left of x, adjacent to y,
                # and to x for "c4") is not adjacent to
                ws = ny & left
                while zs and ws & ~nbpos[seq[_lowest_bit_index(zs)]]:
                    zs &= zs - 1
            if zs:
                return BadTriple(seq[i], seq[j], seq[_lowest_bit_index(zs)])
    return None


def _report(bad: Optional[BadTriple]) -> CheckReport:
    return CheckReport(PASS) if bad is None else CheckReport(FAIL, bad)


def is_umbrella_free(g: Graph, sigma: Ordering) -> CheckReport:
    """No triple x < y < z with xz in E but xy, yz both non-edges.

    Failure carries the lexicographically-first violating triple by
    positions.
    """
    return _report(_first_bad_triple(g, sigma, "umbrella"))


def is_lbfs_ordering(g: Graph, sigma: Ordering) -> CheckReport:
    """4-Point Condition: every bad triple (x, y, z) admits a private
    neighbour of y over z strictly left of x."""
    return _report(_first_bad_triple(g, sigma, "lbfs"))


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
    nbpos = _neighbour_position_masks(g, sigma)
    for pre, kind in (("umbrella-free", "umbrella"), ("lbfs-ordering", "lbfs")):
        bad = _first_bad_triple(g, sigma, kind, nbpos)
        if bad is not None:
            return CheckReport(NOT_APPLICABLE, (pre, bad))
    # w left of x, adjacent to x and y, not to z
    return _report(_first_bad_triple(g, sigma, "c4", nbpos))


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
