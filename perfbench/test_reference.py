"""Tests of the benchmark's reference code, against known cases, against
brute force and against networkx. Run with ``python3 -m pytest perfbench``."""
import random
from itertools import combinations, permutations

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

import reference as ref


def _random_graph(rng, n, p):
    return [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]


def _nx(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def test_lbfs_plus_on_p4():
    adj = ref.adjacency(4, [(0, 1), (1, 2), (2, 3)])
    assert ref.lbfs_plus(adj, (0, 1, 2, 3)) == (3, 2, 1, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_complete_graph_has_period_two_from_every_start(n):
    adj = ref.adjacency(n, combinations(range(n), 2))
    for start in permutations(range(n)):
        s1 = ref.lbfs_plus(adj, start)
        s2 = ref.lbfs_plus(adj, s1)
        assert s1 != s2 and ref.lbfs_plus(adj, s2) == s1


def test_lbfs_plus_gives_lbfs_orderings_with_the_rightmost_tie_break():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 7)
        adj = ref.adjacency(n, _random_graph(rng, n, rng.random()))
        prior = list(range(n))
        rng.shuffle(prior)
        sigma = ref.lbfs_plus(adj, prior)
        assert sorted(sigma) == list(range(n)) and sigma[0] == prior[-1]
        assert ref.is_lbfs_ordering(adj, sigma)
    # with no edges every step is a tie, so the sweep reverses the prior
    assert ref.lbfs_plus(ref.adjacency(4, []), (2, 0, 3, 1)) == (1, 3, 0, 2)


def test_cocomp_ordering_agrees_with_all_orderings():
    rng = random.Random(2)
    for _ in range(400):
        n = rng.randint(1, 6)
        adj = ref.adjacency(n, _random_graph(rng, n, rng.random()))
        exists = any(ref.umbrella_free(adj, o) for o in permutations(range(n)))
        found = ref.cocomp_ordering(adj)
        assert (found is not None) == exists
        if found is not None:
            assert sorted(found) == list(range(n)) and ref.umbrella_free(adj, found)


def test_cocomparability_known_graphs():
    cycle = lambda k: ref.adjacency(k, [(i, (i + 1) % k) for i in range(k)])
    assert ref.is_cocomparability(cycle(4))
    assert not ref.is_cocomparability(cycle(5))
    assert not ref.is_cocomparability(cycle(6))
    # the complement of C6 (the triangular prism) is: C6 is bipartite, so a
    # comparability graph
    c6_bar = [(i, j) for i, j in combinations(range(6), 2) if (j - i) % 6 not in (1, 5)]
    assert ref.is_cocomparability(ref.adjacency(6, c6_bar))
    assert ref.find_umbrella(ref.adjacency(3, [(0, 2)]), (0, 1, 2)) == (0, 1, 2)


def test_cocomp_ordering_on_twelve_vertices_is_quick_and_valid():
    rng = random.Random(3)
    for _ in range(50):
        adj = ref.adjacency(12, _random_graph(rng, 12, rng.choice((0.1, 0.5, 0.9))))
        found = ref.cocomp_ordering(adj)
        if found is not None:
            assert ref.umbrella_free(adj, found)


PATTERNS = {
    "p2p3bar": (5, [(i, j) for i, j in combinations(range(5), 2)
                    if (i, j) not in {(0, 1), (2, 3), (3, 4)}]),
    "diamond": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "c4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
}
TESTS = {
    "p2p3bar": ref.has_induced_p2p3bar,
    "diamond": ref.has_induced_diamond,
    "c4": ref.has_induced_c4,
    "triangle": ref.has_triangle,
}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_pattern_tests_agree_with_networkx(name):
    k, pattern_edges = PATTERNS[name]
    pattern = _nx(k, pattern_edges)
    rng = random.Random(4)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(3, 8)
        edges = _random_graph(rng, n, rng.random())
        adj = ref.adjacency(n, edges)
        # GraphMatcher's subgraph isomorphism is node-induced
        expected = GraphMatcher(_nx(n, edges), pattern).subgraph_is_isomorphic()
        found = TESTS[name](adj)
        assert (found is not None) == expected
        seen[expected] += 1
        if found is not None:
            sub = _nx(n, edges).subgraph(found)
            assert nx.is_isomorphic(sub, pattern)
    assert seen[True] and seen[False]


def test_is_induced_copy():
    k, pattern_edges = PATTERNS["c4"]
    adj = ref.adjacency(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    assert ref.is_induced_copy(adj, pattern_edges, (0, 1, 2, 3))
    assert not ref.is_induced_copy(adj, pattern_edges, (0, 2, 1, 3))
    assert not ref.is_induced_copy(adj, pattern_edges, (0, 1, 2, 2))


def test_interval_edges_match_networkx_and_pairwise():
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 7, 40):
        left = rng.uniform(0, 10, size=n)
        right = left + rng.uniform(0, 3, size=n)
        u, v, order = ref.interval_edges(left, right)
        got = {frozenset(e) for e in zip(u.tolist(), v.tolist())}
        assert len(got) == len(u)
        pairwise = {frozenset((a, b)) for a, b in combinations(range(n), 2)
                    if left[a] <= right[b] and left[b] <= right[a]}
        assert got == pairwise
        index = {(left[i], right[i]): i for i in range(n)}
        h = nx.interval_graph([(left[i], right[i]) for i in range(n)])
        assert {frozenset((index[a], index[b])) for a, b in h.edges()} == got
        assert list(left[order]) == sorted(left)


def test_interval_edges_closed_endpoints():
    u, v, order = ref.interval_edges(np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.0, 3.0]))
    assert {frozenset(e) for e in zip(u.tolist(), v.tolist())} == {frozenset((0, 1))}
    assert order.tolist() == [0, 1, 2]


def test_left_endpoint_ordering_is_umbrella_free():
    rng = np.random.default_rng(6)
    left = rng.uniform(0, 20, size=30)
    u, v, order = ref.interval_edges(left, left + rng.uniform(0, 4, size=30))
    adj = ref.adjacency(30, zip(u.tolist(), v.tolist()))
    assert ref.umbrella_free(adj, order.tolist())


def test_graph6_decode_agrees_with_networkx():
    rng = random.Random(7)
    for n in (0, 1, 2, 5, 12, 30, 62):
        edges = _random_graph(rng, n, 0.4)
        text = nx.to_graph6_bytes(_nx(n, edges), header=False).decode().strip()
        got_n, got = ref.graph6_decode(text)
        assert got_n == n and sorted(got) == sorted(edges)
    with pytest.raises(ValueError):
        ref.graph6_decode("~??~")
