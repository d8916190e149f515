from itertools import permutations

import pytest

from lexsweep import (
    Graph,
    GraphError,
    GenerationExhausted,
    classify,
    cocomp_oracle,
    complement,
    find_induced,
    gen_interval,
    gen_poset_cocomp,
    gen_rejection,
    induced_subgraph,
    is_cocomparability,
    is_interval,
    is_umbrella_free,
    k_ladder,
    named,
    pattern_free,
    pattern_graph,
)
import lexsweep.classes as classes

from conftest import all_graphs, complete, cycle, path, random_graph


def oracle_orderings(g: Graph) -> bool:
    """Brute-force cocomparability test: a backtracking search for an
    umbrella-free ordering, with umbrella-prefix pruning."""
    n = g.n
    if n <= 2:
        return True
    masks = [0] * n
    for v in range(n):
        for w in g.neighbors(v):
            masks[v] |= 1 << w
    # before[v]: prefix vertices placed before v that are non-adjacent to v
    before = [0] * n
    prefix_mask = 0
    prefix = []

    def extend() -> bool:
        nonlocal prefix_mask
        if len(prefix) == n:
            return True
        for z in range(n):
            bit = 1 << z
            if prefix_mask & bit:
                continue
            # violation: some y in prefix with yz non-edge whose earlier
            # non-neighbours meet N(z)
            mz = masks[z]
            ok = True
            for y in prefix:
                if (mz >> y) & 1:
                    continue
                if before[y] & mz:
                    ok = False
                    break
            if not ok:
                continue
            before[z] = prefix_mask & ~mz
            prefix.append(z)
            prefix_mask |= bit
            if extend():
                return True
            prefix.pop()
            prefix_mask &= ~bit
        return False

    return extend()


class TestCatalog:
    def test_k_ladder_1_is_c4(self):
        g = k_ladder(1)
        assert g.n == 4 and g.m == 4
        assert set(g.edges()) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_k_ladder_counts(self):
        for k in range(1, 6):
            g = k_ladder(k)
            assert g.n == 2 * k + 2
            assert g.m == 3 + k + 2 * (k - 1)

    def test_k_ladder_nesting(self):
        # dropping the far rung pair leaves the (k-1)-ladder
        for k in range(2, 6):
            g = k_ladder(k)
            sub, _ = induced_subgraph(g, range(2 * k))
            assert sub == k_ladder(k - 1)

    def test_p2p3bar_shape(self):
        g = named("p2p3bar")
        assert g.n == 5 and g.m == 7
        co = complement(g)
        degs = sorted(co.degree(v) for v in range(5))
        assert degs == [1, 1, 1, 1, 2]  # an edge plus a 2-edge path

    def test_p2p3bar_complement_isomorphism(self):
        # brute-force isomorphism against a canonical P2 + P3
        target = Graph(5, [(0, 1), (2, 3), (3, 4)])
        co = complement(named("p2p3bar"))
        assert any(
            all(
                co.has_edge(p[a], p[b]) == target.has_edge(a, b)
                for a in range(5)
                for b in range(a + 1, 5)
            )
            for p in permutations(range(5))
        )

    def test_diamond(self):
        g = named("diamond")
        assert g.n == 4 and g.m == 5 and not g.has_edge(2, 3)

    def test_domino(self):
        g = named("domino")
        assert g.n == 6 and g.m == 7
        c4_a, _ = induced_subgraph(g, {0, 1, 2, 3})
        c4_b, _ = induced_subgraph(g, {2, 3, 4, 5})
        assert c4_a.m == 4 and c4_b.m == 4 and g.has_edge(2, 3)

    def test_parametric(self):
        assert named("path", 4) == path(4)
        assert named("cycle", 5) == cycle(5)
        assert named("complete", 3) == complete(3)

    def test_errors(self):
        with pytest.raises(GraphError):
            named("petersen")
        with pytest.raises(GraphError):
            named("path")
        with pytest.raises(GraphError):
            named("diamond", 3)
        with pytest.raises(GraphError):
            named("k_ladder", 0)


class TestRecognition:
    def test_c4_true(self):
        verdict, witness = is_cocomparability(cycle(4))
        assert verdict and is_umbrella_free(cycle(4), witness).ok

    def test_c5_false(self):
        assert is_cocomparability(cycle(5)) == (False, None)
        assert not cocomp_oracle(cycle(5))

    def test_ladder_true(self):
        assert is_cocomparability(k_ladder(2))[0]
        assert cocomp_oracle(k_ladder(2))

    def test_p2p3bar_true(self):
        assert cocomp_oracle(named("p2p3bar"))

    def test_agrees_with_oracle_random(self, rng):
        for _ in range(250):
            g = random_graph(rng.randrange(0, 10), rng.random(), rng)
            assert is_cocomparability(g)[0] == cocomp_oracle(g)

    def test_oracles_agree_with_each_other(self, rng):
        # the Gamma-forcing oracle against the brute-force ordering search
        graphs = [g for n in range(7) for g in all_graphs(n)]
        graphs += [random_graph(rng.randrange(7, 10), rng.random(), rng) for _ in range(200)]
        verdicts = set()
        for g in graphs:
            verdict = cocomp_oracle(g)
            assert oracle_orderings(g) == verdict, g.adj
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_witness_is_umbrella_free(self, rng):
        for _ in range(100):
            g = random_graph(rng.randrange(1, 10), rng.random(), rng)
            verdict, witness = is_cocomparability(g)
            if verdict:
                assert is_umbrella_free(g, witness).ok

    def test_oracle_has_no_size_guard(self):
        assert cocomp_oracle(Graph(12))  # complement K12 has 66 edges
        for seed in range(3):
            assert cocomp_oracle(gen_poset_cocomp(60, 0.2, seed).graph)
            assert cocomp_oracle(gen_interval(60, seed).graph)
        c5_plus_isolated = Graph(60, cycle(5).edges())
        assert not cocomp_oracle(c5_plus_isolated)


class TestPatterns:
    def test_k4_diamond_free(self):
        assert pattern_free(complete(4), "diamond")[0]

    def test_diamond_detects_itself(self):
        free, emb = pattern_free(named("diamond"), "diamond")
        assert not free and emb.mapping == (0, 1, 2, 3)

    def test_c6_domino_free(self):
        assert pattern_free(cycle(6), "domino")[0]

    def test_domino_not_domino_free(self):
        assert not pattern_free(named("domino"), "domino")[0]

    def test_unknown_pattern(self):
        with pytest.raises(GraphError):
            pattern_free(cycle(4), "pentagon")

    def test_pattern_graphs(self):
        assert pattern_graph("c4") == cycle(4)
        assert pattern_graph("triangle") == complete(3)


class TestClassify:
    def test_c4(self):
        assert classify(cycle(4)) == frozenset(
            {"cocomparability", "diamond-free", "girth-ge-4", "p2p3bar-free",
             "theorem-3.1-applicable"}
        )

    def test_k3(self):
        assert classify(complete(3)) == frozenset(
            {"cocomparability", "interval", "p2p3bar-free", "diamond-free",
             "theorem-3.1-applicable"}
        )

    def test_c5(self):
        assert classify(cycle(5)) == frozenset(
            {"girth-ge-4", "diamond-free", "p2p3bar-free"}
        )

    def test_interval_paths(self):
        assert is_interval(path(5))
        assert not is_interval(cycle(4))


class TestGenerators:
    def test_poset_chain_and_antichain(self):
        assert gen_poset_cocomp(6, 1.0, 3).graph.m == 0
        assert gen_poset_cocomp(6, 0.0, 3).graph.m == 15

    def test_poset_witness_sound(self, rng):
        for t in range(80):
            s = gen_poset_cocomp(rng.randrange(0, 14), rng.random(), seed=t)
            if s.graph.n:
                assert is_umbrella_free(s.graph, s.witness_ordering).ok
            assert cocomp_oracle(s.graph)

    def test_poset_relation_is_valid(self):
        s = gen_poset_cocomp(10, 0.3, 42)
        assert s.poset is not None  # PosetSpec validates in __post_init__

    def test_poset_rejects_reflexive_pair(self):
        with pytest.raises(GraphError, match="irreflexivity"):
            classes.PosetSpec(2, frozenset({(0, 1), (1, 1)}))

    def test_poset_rejects_cycle(self):
        with pytest.raises(GraphError, match="acyclicity"):
            classes.PosetSpec(2, frozenset({(0, 1), (1, 0)}))

    def test_poset_rejects_open_chain(self):
        with pytest.raises(GraphError, match=r"transitivity violated: \(0, 1\), \(1, 2\)"):
            classes.PosetSpec(4, frozenset({(0, 1), (1, 2), (1, 3), (0, 3)}))

    def test_poset_deterministic(self):
        assert gen_poset_cocomp(10, 0.3, 42) == gen_poset_cocomp(10, 0.3, 42)

    def test_interval_model_reproduces_edges(self, rng):
        for t in range(40):
            s = gen_interval(rng.randrange(0, 25), seed=t)
            g = s.graph
            model = s.interval_model
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    lu, hu = model[u]
                    lv, hv = model[v]
                    assert g.has_edge(u, v) == (lu <= hv and lv <= hu)

    def test_interval_samples_are_interval(self):
        for t in range(20):
            s = gen_interval(20, seed=t)
            assert is_interval(s.graph)
            assert pattern_free(s.graph, "c4")[0]
            assert is_umbrella_free(s.graph, s.witness_ordering).ok

    def test_nested_intervals_clique(self):
        # hand model: [0,10],[1,9],[2,8] pairwise intersect
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert g.m == 3  # shape documented; generator covered above

    def test_rejection_theorem_class(self):
        s = gen_rejection(8, 0.5, seed=1, predicate="theorem-3.1-applicable")
        assert "theorem-3.1-applicable" in classify(s.graph)

    def test_rejection_trivial_predicate(self):
        s = gen_rejection(2, 0.7, seed=0, predicate="cocomparability")
        assert s.graph.n == 2

    def test_rejection_girth(self):
        s = gen_rejection(8, 0.5, seed=2, predicate="girth-ge-4", budget=1000)
        assert pattern_free(s.graph, "triangle")[0]

    def test_rejection_exhausted(self):
        # girth >= 4 is unattainable for K_n complements at p=0
        with pytest.raises(GenerationExhausted):
            gen_rejection(6, 0.0, seed=0, predicate="girth-ge-4", budget=5)

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            gen_rejection(5, 0.5, seed=0, predicate="bogus")

    def test_rejection_deterministic(self):
        a = gen_rejection(8, 0.5, seed=9, predicate="p2p3bar-free")
        b = gen_rejection(8, 0.5, seed=9, predicate="p2p3bar-free")
        assert a.graph == b.graph
