"""Multi-sweep dynamics: iterate the deterministic LBFS+ map, detect the
terminal cycle, and compute the maximum terminal-cycle length exactly or
by sampling.

The map is evaluated by `SweepEngine`, a memo table over the one
partition-refinement LBFS of `search` (the C kernel whenever it builds).
Orbits revisit orderings, and the orbits of many starts merge, so each
distinct sweep is computed once per engine.

The exact value needs only the LBFS orderings of g as starts, not all n!
permutations: the orbit of any start pi passes through its image f(pi),
which is an LBFS ordering, so pi ends in the terminal cycle of f(pi).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .certify import is_umbrella_free, NOT_APPLICABLE, PASS, FAIL
from .graph import Graph
from .search import (
    MIN_INDEX, Ordering, OrderingError, _refine, _rightmost_priority, lbfs,
)

# lexcycle_exact enumerates at most this many LBFS orderings (8!, so every
# graph with n <= 8 fits)
_EXACT_MAX_ORDERINGS = 40_320


class SizeGuardError(ValueError):
    """Input exceeds the size guard of an exhaustive operation."""


class OrbitBudgetError(RuntimeError):
    """The sweep budget ran out before the orbit repeated."""

    def __init__(self, budget: int, trace: Tuple[Tuple[int, ...], ...]) -> None:
        super().__init__(f"no orbit repeat within {budget} sweeps")
        self.budget = budget
        self.trace = trace


class SweepEngine:
    """The LBFS+ map over raw ordering tuples, memoized per graph.

    ``step(prior)`` equals ``lbfs_plus(g, Ordering(prior)).seq`` and runs
    the same partition refinement, without building an `Ordering`. Every
    computed sweep stays in ``cache``, keyed by its prior tuple. A prior
    that is not a permutation of the vertices raises `OrderingError`.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.cache: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def step(self, prior: Tuple[int, ...]) -> Tuple[int, ...]:
        out = self.cache.get(prior)
        if out is None:
            n = self.g.n
            # len/min/max and the sentinel scan run at C speed; min is
            # checked on its own because a negative entry wraps in prio
            if len(prior) != n or (n and (min(prior) < 0 or max(prior) >= n)):
                raise OrderingError(f"not a permutation of 0..{n - 1}: {prior}")
            prio = _rightmost_priority(prior)
            if -1 in prio:
                raise OrderingError(f"not a permutation of 0..{n - 1}: {prior}")
            out = tuple(_refine(self.g, prior[-1], prio)) if n else ()
            self.cache[prior] = out
        return out


@dataclass(frozen=True)
class OrbitResult:
    preperiod: int
    period: int
    cycle: Tuple[Ordering, ...]
    trace: Tuple[Ordering, ...]


@dataclass(frozen=True)
class LexCycleEstimate:
    value: int
    mode: str  # "exact" | "sampled"
    starts_examined: int
    argmax_start: Optional[Ordering]


def default_sweep_budget(n: int) -> int:
    return 4 * n + 4


def sweep_sequence(g: Graph, pi: Ordering, k: int) -> List[Ordering]:
    """[sigma_0 .. sigma_{k-1}] where sigma_0 is one sweep applied to pi."""
    if k < 1:
        raise ValueError(f"sweep count must be >= 1, got {k}")
    if len(pi) != g.n:
        raise OrderingError("initial ordering does not cover the vertex set")
    eng = SweepEngine(g)
    out = []
    cur = pi.seq
    for _ in range(k):
        cur = eng.step(cur)
        out.append(Ordering(cur))
    return out


def detect_orbit(
    g: Graph,
    pi: Ordering,
    max_sweeps: Optional[int] = None,
    engine: Optional[SweepEngine] = None,
) -> OrbitResult:
    """Follow the orbit of pi under the sweep map to its terminal cycle."""
    if len(pi) != g.n:
        raise OrderingError("initial ordering does not cover the vertex set")
    budget = default_sweep_budget(g.n) if max_sweeps is None else max_sweeps
    if budget < 1:
        raise ValueError(f"sweep budget must be >= 1, got {max_sweeps}")
    eng = engine if engine is not None else SweepEngine(g)
    seen: Dict[Tuple[int, ...], int] = {}
    trace: List[Tuple[int, ...]] = []
    cur = eng.step(pi.seq)
    sweeps = 1
    while True:
        idx = seen.get(cur)
        if idx is not None:
            cycle = tuple(Ordering(t) for t in trace[idx:])
            return OrbitResult(
                preperiod=idx,
                period=len(trace) - idx,
                cycle=cycle,
                trace=tuple(Ordering(t) for t in trace),
            )
        seen[cur] = len(trace)
        trace.append(cur)
        if sweeps >= budget:
            raise OrbitBudgetError(budget, tuple(trace))
        cur = eng.step(cur)
        sweeps += 1


def _terminal_period(
    eng: SweepEngine, start: Tuple[int, ...], memo: Dict[Tuple[int, ...], int]
) -> int:
    path: List[Tuple[int, ...]] = []
    pindex: Dict[Tuple[int, ...], int] = {}
    cur = eng.step(start)
    while cur not in memo and cur not in pindex:
        pindex[cur] = len(path)
        path.append(cur)
        cur = eng.step(cur)
    period = memo[cur] if cur in memo else len(path) - pindex[cur]
    for t in path:
        memo[t] = period
    return period


def _max_period(
    g: Graph, starts: Iterable[Tuple[int, ...]], mode: str
) -> LexCycleEstimate:
    eng = SweepEngine(g)
    memo: Dict[Tuple[int, ...], int] = {}
    best = 0
    argmax: Optional[Tuple[int, ...]] = None
    examined = 0
    for start in starts:
        examined += 1
        period = _terminal_period(eng, start, memo)
        if period > best:
            best = period
            argmax = start
    return LexCycleEstimate(
        value=best,
        mode=mode,
        starts_examined=examined,
        argmax_start=None if argmax is None else Ordering(argmax),
    )


def _lbfs_orderings(g: Graph) -> List[Tuple[int, ...]]:
    """Every LBFS ordering of g, in lexicographic order.

    A depth-first LBFS that branches on every vertex tied for the largest
    label, taking ties in ascending vertex order. Labels are ints: the
    vertex visited at position p sets bit n-1-p in the labels of its
    neighbours, so comparing ints compares label sequences. Every node of
    the search tree has a child, so it has at most n nodes per ordering.
    Raises `SizeGuardError` once there are more than
    ``_EXACT_MAX_ORDERINGS``.
    """
    n = g.n
    if n == 0:
        return [()]
    adj = g.adj
    label = [0] * n
    prefix: List[int] = []
    out: List[Tuple[int, ...]] = []
    # frames [unnumbered vertices, those tied for the top label, next tie];
    # every vertex is tied at the root
    root = list(range(n))
    stack = [[root, root, 0]]
    while stack:
        frame = stack[-1]
        free, ties, i = frame
        bit = 1 << (len(free) - 1)
        if i:  # undo the previous choice of this frame
            for w in adj[prefix.pop()]:
                label[w] -= bit
        if i == len(ties):
            stack.pop()
            continue
        frame[2] = i + 1
        v = ties[i]
        for w in adj[v]:
            label[w] += bit
        prefix.append(v)
        rest = [u for u in free if u != v]
        if len(rest) <= 1:  # the last vertex is forced
            if len(out) == _EXACT_MAX_ORDERINGS:
                raise SizeGuardError(
                    f"lexcycle_exact is guarded at {_EXACT_MAX_ORDERINGS} "
                    f"LBFS orderings (8!); this graph on {n} vertices has "
                    "more; use lexcycle_sampled"
                )
            out.append(tuple(prefix + rest))
            continue
        top = max([label[u] for u in rest])
        stack.append([rest, [u for u in rest if label[u] == top], 0])
    return out


def lexcycle_exact(g: Graph) -> LexCycleEstimate:
    """Maximum terminal-cycle length over all n! initial orderings.

    Only the LBFS orderings of g are walked as starts: any start pi ends in
    the terminal cycle of its image f(pi), which is an LBFS ordering, so
    they reach every terminal cycle. ``starts_examined`` counts them, and
    ``argmax_start`` is the lexicographically first one whose orbit reaches
    a longest cycle. Raises `SizeGuardError` beyond 40 320 (8!) orderings.
    """
    return _max_period(g, _lbfs_orderings(g), "exact")


def lexcycle_sampled(g: Graph, trials: int, seed: int) -> LexCycleEstimate:
    """Lower bound on the exact value from seeded random starts plus the
    n canonical single-sweep starts."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = g.n
    rng = random.Random(seed)
    starts: List[Tuple[int, ...]] = []
    for _ in range(trials):
        perm = list(range(n))
        rng.shuffle(perm)
        starts.append(tuple(perm))
    for v in range(n):
        starts.append(lbfs(g, v, MIN_INDEX).seq)
    return _max_period(g, starts, "sampled")


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the sigma_1 = sigma_3 check from one start ordering."""

    verdict: str  # pass | fail | not-applicable
    sweeps: Optional[Tuple[Ordering, Ordering, Ordering, Ordering]] = None
    diff_pos: Optional[int] = None
    diff_pair: Optional[Tuple[int, int]] = None
    na_witness: object = None

    @property
    def ok(self) -> bool:
        return self.verdict == PASS


def theorem_check(g: Graph, pi: Ordering) -> TheoremReport:
    """Check sigma_1 == sigma_3 for sigma_0 = one sweep applied to pi.

    The hypothesis that pi is a cocomparability (umbrella-free) ordering
    is load-bearing and verified first.
    """
    pre = is_umbrella_free(g, pi)
    if not pre:
        return TheoremReport(NOT_APPLICABLE, na_witness=pre.witness)
    eng = SweepEngine(g)
    s0 = eng.step(pi.seq)
    s1 = eng.step(s0)
    s2 = eng.step(s1)
    s3 = eng.step(s2)
    sweeps = (Ordering(s0), Ordering(s1), Ordering(s2), Ordering(s3))
    if s1 == s3:
        return TheoremReport(PASS, sweeps=sweeps)
    k = next(i for i in range(g.n) if s1[i] != s3[i])
    return TheoremReport(
        FAIL, sweeps=sweeps, diff_pos=k, diff_pair=(s1[k], s3[k])
    )
