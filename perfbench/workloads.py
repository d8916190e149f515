"""The four workloads: their inputs, their operations and the checks on
each operation's output.

A workload makes its raw inputs (edge lists, argument lists) from the seed;
that part is not timed. It then builds its input `Graph` objects, which is
timed as set-up, and hands out one round of operations. The runner repeats
the round and times each operation's `run` alone; `check` runs afterwards,
outside the timing, and returns the problems it found.

The checks compare against `reference` (which does not use lexsweep) or
against properties the theory guarantees; none compares against stored
output.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import reference as ref

# The compiled LBFS kernel takes over at n + m >= this (lexsweep.search).
KERNEL_THRESHOLD = 20_000


@dataclass
class Op:
    """One operation. ``run(state)`` is timed; ``check(state, out)`` is not.

    ``state`` is shared by the operations of one round and holds the
    previous operation's output under ``"last"``. When ``cached`` is set,
    an output equal to one already checked for this operation reuses that
    verdict.
    """

    kind: str
    run: Callable
    check: Callable
    cached: bool = True


@dataclass
class Input:
    """One input graph: ``make()`` is the untimed edge generation,
    ``build(raw)`` the timed construction."""

    make: Callable
    build: Callable


@dataclass
class Workload:
    inputs: List[Input]
    round: Callable  # (built graphs) -> list of Op
    needs_kernel: bool = False
    calibration: str = "interpreter"  # the calibrate.py sample that scales its times


def _adj_of(g) -> List[set]:
    # the benchmark's own copy of a lexsweep graph, for the reference code
    return [set(nb) for nb in g.adj]


# -- theorem-mix ---------------------------------------------------------------

THEOREM_CLASSES = (
    "p2p3bar-free-cocomp", "diamond-free-cocomp", "girth4-cocomp", "interval",
)
THEOREM_PER_CLASS = 200


def _theorem_p_choices(cls: str, n: int):
    if cls == "p2p3bar-free-cocomp":
        return (0.2, 0.3, 0.5, 0.8)
    if cls in ("diamond-free-cocomp", "girth4-cocomp") and n >= 10:
        # gen_rejection's 1000-draw budget runs out often enough at p=0.3
        # and n >= 10 (about one instance in a hundred at n=12) that a run
        # could fail on some seeds and not on others; see CHANGES.md.
        return (0.5, 0.8)
    return (0.3, 0.5, 0.8)


def _brute_tags(adj) -> set:
    cocomp = ref.is_cocomparability(adj)
    p2p3_free = ref.has_induced_p2p3bar(adj) is None
    c4_free = ref.has_induced_c4(adj) is None
    tags = set()
    if cocomp:
        tags.add("cocomparability")
    if p2p3_free:
        tags.add("p2p3bar-free")
    if ref.has_induced_diamond(adj) is None:
        tags.add("diamond-free")
    if ref.has_triangle(adj) is None:
        tags.add("girth-ge-4")
    if cocomp and c4_free:
        tags.add("interval")
    if cocomp and p2p3_free:
        tags.add("theorem-3.1-applicable")
    return tags


_CLASS_TAG = {
    "p2p3bar-free-cocomp": "theorem-3.1-applicable",
    "diamond-free-cocomp": "diamond-free",
    "girth4-cocomp": "girth-ge-4",
    "interval": "interval",
}


def _check_theorem_output(cls, n, p, seed, out) -> List[str]:
    rc, text = out
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except ValueError as exc:
        return problems + [f"output is not JSONL: {exc}"]
    if len(records) != 2 or records[-1].get("record") != "aggregate":
        return problems + [f"expected an instance and an aggregate, got {text[:200]!r}"]
    inst, agg = records
    if (agg.get("pass"), agg.get("fail"), agg.get("error")) != (1, 0, 0):
        problems.append(f"aggregate {agg}")
    if inst.get("verdict") != "pass" or inst.get("verdicts") != ["pass"] * 4:
        problems.append(f"verdicts {inst.get('verdicts')} / {inst.get('verdict')}: "
                        f"{inst.get('detail') or inst.get('failures')}")
    if (inst.get("n"), inst.get("p"), inst.get("seed")) != (n, p, seed):
        problems.append(f"instance parameters {inst.get('n')}, {inst.get('p')}, {inst.get('seed')}")
    if "graph6" not in inst:
        return problems
    gn, edges = ref.graph6_decode(inst["graph6"])
    if gn != n:
        return problems + [f"graph has {gn} vertices, asked for {n}"]
    adj = ref.adjacency(n, edges)
    tags = _brute_tags(adj)
    if _CLASS_TAG[cls] not in tags or "cocomparability" not in tags:
        problems.append(f"graph {inst['graph6']} is not in {cls} (tags {sorted(tags)})")
    if sorted(tags) != inst.get("tags"):
        problems.append(f"tags {inst.get('tags')} != brute force {sorted(tags)}")
    # sigma_1 = sigma_3 from an umbrella-free ordering, by the reference sweep
    start = ref.cocomp_ordering(adj)
    if start is not None and n:
        s = [ref.lbfs_plus(adj, start)]
        for _ in range(3):
            s.append(ref.lbfs_plus(adj, s[-1]))
        if s[1] != s[3]:
            problems.append(f"reference sweeps break sigma1 = sigma3 on {inst['graph6']}")
    return problems


def theorem_mix(seed: int) -> Workload:
    from lexsweep import cli

    # n and p go evenly through their ranges instead of being drawn, so that
    # two seeds differ in the graphs generated, not in the mix of sizes.
    rng = random.Random(seed)
    args = []
    for i in range(THEOREM_PER_CLASS):
        n = 2 + i % 11
        for cls in THEOREM_CLASSES:
            choices = _theorem_p_choices(cls, n)
            p = choices[(i // 11) % len(choices)]
            args.append((cls, n, p, rng.randrange(2**31)))

    def op(cls, n, p, s):
        argv = ["check-theorem", "--class", cls, "--count", "1", "--n", str(n),
                "--p", str(p), "--seed", str(s), "--extra-starts", "3"]

        def run(state):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()

        return Op(cls, run, lambda state, out: _check_theorem_output(cls, n, p, s, out))

    return Workload(inputs=[], round=lambda graphs: [op(*a) for a in args])


# -- lexcycle-exact --------------------------------------------------------------

EXACT_N6 = 120
EXACT_LARGER = ((7, 3), (8, 5))  # (n, graphs per round)


def _theorem_class_graph(n: int, rng: random.Random):
    # rejection by the reference tests: cocomparability and P2+P3-bar-free
    while True:
        p = rng.choice((0.3, 0.5, 0.7))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        adj = ref.adjacency(n, edges)
        if ref.has_induced_p2p3bar(adj) is None and ref.is_cocomparability(adj):
            return edges


def lexcycle_exact(seed: int) -> Workload:
    from lexsweep import Graph, classes, lexcycle

    rng = random.Random(seed)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    specs = []
    for _ in range(EXACT_N6):
        mask = rng.getrandbits(15)
        specs.append((6, [pairs[k] for k in range(15) if (mask >> k) & 1]))
    for n, count in EXACT_LARGER:
        specs.extend((n, _theorem_class_graph(n, rng)) for _ in range(count))
    inputs = [Input(make=lambda spec=spec: spec, build=lambda spec: Graph(*spec))
              for spec in specs]
    p2p3bar = classes.pattern_graph("p2p3bar")
    p2p3bar_edges = list(p2p3bar.edges())

    def pipeline(g, spec):
        adj = ref.adjacency(*spec)

        def run(state):
            fast, witness = classes.is_cocomparability(g)
            oracle = classes.cocomp_oracle(g)
            free, emb = classes.pattern_free(g, "p2p3bar")
            value = lexcycle.lexcycle_exact(g).value if fast and free else None
            return (fast, witness and witness.seq, oracle,
                    free, emb and emb.mapping, value)

        def check(state, out):
            fast, witness, oracle, free, mapping, value = out
            problems = []
            truth = ref.is_cocomparability(adj)
            if fast != truth or oracle != truth:
                problems.append(f"cocomparability: recognizer {fast}, oracle {oracle}, "
                                f"brute force {truth} on {spec}")
            if fast and not ref.umbrella_free(adj, witness):
                problems.append(f"witness {witness} has an umbrella")
            if free != (ref.has_induced_p2p3bar(adj) is None):
                problems.append(f"pattern_free(p2p3bar) = {free} on {spec}")
            if mapping is not None and not ref.is_induced_copy(adj, p2p3bar_edges, mapping):
                problems.append(f"embedding {mapping} is not an induced P2+P3-bar")
            if truth and free and value != 2:
                problems.append(f"lexcycle_exact = {value} on a theorem-class graph {spec}")
            return problems

        return Op("n6", run, check)

    def exact(g, spec):
        def run(state):
            return lexcycle.lexcycle_exact(g).value

        def check(state, value):
            return [] if value == 2 else [f"lexcycle_exact = {value} on {spec}"]

        return Op(f"n{spec[0]}", run, check)

    def round_(graphs):
        return [pipeline(g, spec) if spec[0] == 6 else exact(g, spec)
                for g, spec in zip(graphs, specs)]

    return Workload(inputs=inputs, round=round_)


# -- cocomp-medium -----------------------------------------------------------------

# One operation is one of three kinds, each on graphs of one fixed size: the
# route on an interval graph (theorem_check, is_cocomparability, LBFS+ of its
# witness and check_flip_pair), lexcycle_sampled on a smaller interval graph,
# or is_cocomparability on a poset complement. The poset operations are the
# cheapest and the sampled ones the dearest, so op_p50_ms falls in the
# middle of the route operations.
MEDIUM_ROUTE_N = 250
MEDIUM_ROUTE_GRAPHS = 8
MEDIUM_SAMPLED_N = 80  # lexcycle_sampled(g, 2, seed)
MEDIUM_SAMPLED_GRAPHS = 5
MEDIUM_POSET_N = 120
MEDIUM_POSET_P = 0.015
MEDIUM_POSET_GRAPHS = 3


def _interval_model(n: int, rng: np.random.Generator, mean_len: float):
    """Shuffled-id interval graph: (edges, left-endpoint ordering)."""
    left = rng.uniform(0, n, size=n)
    right = left + rng.uniform(0, 2 * mean_len, size=n)
    u, v, order = ref.interval_edges(left, right)
    perm = rng.permutation(n)
    edges = list(zip(perm[u].tolist(), perm[v].tolist()))
    return edges, tuple(perm[order].tolist())


def _ref_chain(adj, start, k):
    out = [ref.lbfs_plus(adj, start)]
    while len(out) < k:
        out.append(ref.lbfs_plus(adj, out[-1]))
    return out


def _witness_problems(adj, ok, witness, what):
    if not ok:
        return [f"is_cocomparability is false on {what}"]
    if not ref.umbrella_free(adj, witness.seq):
        return ["cocomparability witness has an umbrella"]
    return []


def cocomp_medium(seed: int) -> Workload:
    from lexsweep import Graph, Ordering, certify, classes, lexcycle, search

    rng = np.random.default_rng(seed)
    models = [("route", MEDIUM_ROUTE_N) + _interval_model(MEDIUM_ROUTE_N, rng, MEDIUM_ROUTE_N / 10)
              for _ in range(MEDIUM_ROUTE_GRAPHS)]
    models += [("sampled", MEDIUM_SAMPLED_N)
               + _interval_model(MEDIUM_SAMPLED_N, rng, MEDIUM_SAMPLED_N / 10)
               for _ in range(MEDIUM_SAMPLED_GRAPHS)]
    poset_seeds = [int(rng.integers(2**31)) for _ in range(MEDIUM_POSET_GRAPHS)]
    inputs = [Input(make=lambda m=m: m, build=lambda m: Graph(m[1], m[2])) for m in models]
    inputs += [Input(make=lambda s=s: s,
                     build=lambda s: classes.gen_poset_cocomp(MEDIUM_POSET_N, MEDIUM_POSET_P, s))
               for s in poset_seeds]

    def route_op(g, model):
        adj = _adj_of(g)
        pi = Ordering(model[3])

        def run(state):
            rep = lexcycle.theorem_check(g, pi)
            ok, sigma = classes.is_cocomparability(g)
            tau = search.lbfs_plus(g, sigma) if ok else None
            flip = certify.check_flip_pair(g, sigma, tau).verdict if ok else None
            return (rep.verdict, tuple(s.seq for s in rep.sweeps or ()),
                    ok, sigma, tau, flip)

        def check(state, out):
            verdict, sweeps, ok, sigma, tau, flip = out
            problems = [] if verdict == "pass" else [f"theorem_check verdict {verdict}"]
            if sweeps != tuple(_ref_chain(adj, pi.seq, 4)):
                problems.append("theorem_check sweeps differ from the reference LBFS+")
            elif sweeps[1] != sweeps[3]:
                problems.append("sigma1 != sigma3 on an interval graph")
            problems += _witness_problems(adj, ok, sigma, "an interval graph")
            if problems:
                return problems
            if flip != "pass":
                problems.append(f"check_flip_pair verdict {flip}")
            if tau.seq != ref.lbfs_plus(adj, sigma.seq):
                problems.append("LBFS+ of the witness differs from the reference")
            spos, tpos = sigma.pos, tau.pos
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if v not in adj[u] and (spos[u] < spos[v]) == (tpos[u] < tpos[v]):
                        return problems + [f"non-edge {u}-{v} keeps its order"]
            return problems

        return Op("route", run, check)

    def sampled_op(g, trial_seed):
        def run(state):
            return lexcycle.lexcycle_sampled(g, 2, trial_seed).value

        def check(state, value):
            return [] if value == 2 else [f"lexcycle_sampled = {value} on an interval graph"]

        return Op("lexcycle_sampled", run, check)

    def poset_op(sample):
        g = sample.graph
        adj = _adj_of(g)

        def run(state):
            return classes.is_cocomparability(g)

        def check(state, out):
            problems = _witness_problems(adj, *out, "a poset complement")
            if not ref.umbrella_free(adj, sample.witness_ordering.seq):
                problems.append("the generator's linear extension has an umbrella")
            return problems

        return Op("poset", run, check)

    def round_(graphs):
        ops = []
        for i, (g, model) in enumerate(zip(graphs, models)):
            ops.append(route_op(g, model) if model[0] == "route" else sampled_op(g, seed + i))
        ops.extend(poset_op(sample) for sample in graphs[len(models):])
        return ops

    return Workload(inputs=inputs, round=round_)


# -- sweep-large ---------------------------------------------------------------------

LARGE_N = 200_000
LARGE_M = 2_000_000
LARGE_MEAN_INTERVAL = 10.0  # about LARGE_M edges at one interval start per unit
INTERVAL_SWEEPS = 5  # sigma_0 .. sigma_4; op_p50_ms falls among these
RANDOM_SWEEPS = 2
CHECK_N = 1000  # CHECK_N + CHECK_M reaches the kernel threshold
CHECK_M = KERNEL_THRESHOLD - CHECK_N


def _random_edges(n: int, m: int, rng: np.random.Generator):
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        u = rng.integers(0, n, size=m - keys.size + m // 20 + 16)
        v = rng.integers(0, n, size=u.size)
        k = np.minimum(u, v) * n + np.maximum(u, v)
        keys = np.unique(np.concatenate([keys, k[u != v]]))
    keys = rng.permutation(keys)[:m]
    return list(zip((keys // n).tolist(), (keys % n).tolist()))


def sweep_large(seed: int) -> Workload:
    from lexsweep import Graph, Ordering, search

    rng = np.random.default_rng(seed)
    starts = {}

    def make_random():
        starts["random"] = Ordering(rng.permutation(LARGE_N).tolist())
        return _random_edges(LARGE_N, LARGE_M, rng)

    def make_interval():
        edges, pi = _interval_model(LARGE_N, rng, LARGE_MEAN_INTERVAL)
        starts["interval"] = Ordering(pi)
        return edges

    def make_check():
        starts["check"] = Ordering(rng.permutation(CHECK_N).tolist())
        return _random_edges(CHECK_N, CHECK_M, rng)

    inputs = [Input(make_check, lambda e: Graph(CHECK_N, e)),
              Input(make_interval, lambda e: Graph(LARGE_N, e)),
              Input(make_random, lambda e: Graph(LARGE_N, e))]

    def sweep(kind, g, i):
        first = i == 0

        def run(state):
            prior = starts[kind] if first else state["last"]
            return search.lbfs_plus(g, prior)

        def check(state, sigma):
            seq = sigma.seq
            prior = starts[kind] if first else state["chain"][-1]
            if not first:
                state["chain"].append(sigma)
            else:
                state["chain"] = [sigma]
            if len(seq) != g.n or len(set(seq)) != g.n or min(seq) != 0 or max(seq) != g.n - 1:
                return [f"{kind} sweep {i} is not a permutation of the vertices"]
            if seq[0] != prior.last():
                return [f"{kind} sweep {i} starts at {seq[0]}, not at {prior.last()}"]
            chain = state["chain"]
            if kind == "interval" and i >= 3 and seq != chain[-3].seq:
                return [f"interval chain: sigma{i} != sigma{i - 2}"]
            del chain[:-3]  # keep only what the next checks compare against
            return []

        return Op(kind, run, check, cached=False)

    def check_op(g):
        adj = _adj_of(g)

        def run(state):
            return search.lbfs_plus(g, starts["check"]).seq

        def check(state, seq):
            expect = ref.lbfs_plus(adj, starts["check"].seq)
            return [] if seq == expect else ["LBFS+ differs from the reference"]

        return Op("check", run, check)

    def round_(graphs):
        gc, gi, gr = graphs
        assert gc.n + gc.m >= KERNEL_THRESHOLD
        return ([check_op(gc)]
                + [sweep("interval", gi, i) for i in range(INTERVAL_SWEEPS)]
                + [sweep("random", gr, i) for i in range(RANDOM_SWEEPS)])

    return Workload(inputs=inputs, round=round_, needs_kernel=True, calibration="memory")


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "theorem-mix": theorem_mix,
    "lexcycle-exact": lexcycle_exact,
    "cocomp-medium": cocomp_medium,
    "sweep-large": sweep_large,
}
