import math
import random
import time
import warnings
from itertools import combinations, permutations

import pytest

from lexsweep import graph
from lexsweep import (
    Graph,
    GraphError,
    PatternTooLargeError,
    complement,
    find_induced,
    from_edge_list,
    girth,
    induced_subgraph,
)

from lexsweep._kernel import _kernel

from conftest import (
    all_graphs, all_pairs, complete, cycle, decode_csr, graph_from_mask, needs_cc, path,
    random_graph,
)


class TestConstruction:
    def test_c4(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.n == 4 and g.m == 4

    def test_empty(self):
        g = from_edge_list(3, [])
        assert g.n == 3 and g.m == 0

    def test_duplicate_collapse(self):
        g = from_edge_list(2, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match=r"\(0, 5\)"):
            from_edge_list(3, [(0, 5)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match=r"self-loop"):
            from_edge_list(3, [(1, 1)])

    def test_negative_n_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_adjacency_symmetric_and_sorted(self, rng):
        g = random_graph(12, 0.4, rng)
        for u in range(g.n):
            assert list(g.neighbors(u)) == sorted(g.neighbors(u))
            for v in g.neighbors(u):
                assert u in g.adjsets[v]
        assert g.m * 2 == sum(g.degree(v) for v in range(g.n))


def fallback_graph(n, edges):
    """Graph(n, edges) built by the pure-Python fallback."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(graph, "_kernel", lambda: (None, "forced off"))
        warnings.simplefilter("ignore", RuntimeWarning)
        return Graph(n, edges)


def assert_csr_is_adj(g):
    # a graph is built with its rows in vertex order: the order section is
    # the identity
    assert type(g._csr) is bytes and decode_csr(g._csr, g.n) == g.adj
    assert list(memoryview(g._csr).cast("i")[g.n + 1:2 * g.n + 1]) == list(range(g.n))


def assert_builds_agree(n, make_edges):
    # make_edges gives a fresh copy of the input, which may be a generator
    g = Graph(n, make_edges())
    want = fallback_graph(n, make_edges())
    assert g == want and g.adj == want.adj and g.m == want.m
    assert all(type(row) is tuple for row in g.adj)
    # every row holds the same int object for a vertex
    ids = {}
    assert all(ids.setdefault(w, w) is w for row in g.adj for w in row)
    # the packed rows are the rows, here and in the graphs built from g
    assert want._csr is None
    assert_csr_is_adj(g)
    assert_csr_is_adj(complement(g))
    for members in (range(0, n, 2), range(1, n)):
        assert_csr_is_adj(induced_subgraph(g, members)[0])


@needs_cc
class TestCBuilder:
    """`Graph.__init__` builds adjacency in the C kernel; the Python loop
    it falls back to must give the same graph and the same errors."""

    def test_kernel_builds(self):
        lib, reason = _kernel()
        assert lib is not None, reason
        adj, csr = lib.graph_adj(4, [(0, 1), (2, 1), (1, 0), [3, 2]])
        assert adj == ((1,), (0, 2), (1, 3), (2,))
        assert adj[0][0] is adj[2][0]
        # offsets 0 1 3 5 6, the identity order, then the rows; the
        # repeated edge is dropped
        assert list(memoryview(csr).cast("i")) == [0, 1, 3, 5, 6, 0, 1, 2, 3,
                                                   1, 0, 2, 1, 3, 2]

    def test_every_labeled_graph_up_to_5(self):
        for n in range(6):
            pairs = all_pairs(n)
            for mask in range(1 << len(pairs)):
                edges = [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1]
                assert_builds_agree(n, lambda: edges)

    def test_random_edge_lists(self, rng):
        for _ in range(250):
            n = rng.randrange(2, 40)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(3 * n))]
            # duplicates, reversed copies and lists as well as tuples
            edges += [e[::-1] for e in rng.sample(edges, len(edges) // 3)]
            edges += rng.sample(edges, len(edges) // 4)
            edges = [list(e) if rng.random() < 0.2 else e for e in edges]
            rng.shuffle(edges)
            assert_builds_agree(n, lambda: edges)

    def test_other_inputs(self):
        np = pytest.importorskip("numpy")
        pairs = [(0, 1), (1, 2), (3, 1), (1, 0)]
        for n, make in [
            (0, lambda: []),
            (0, lambda: ()),
            (6, lambda: []),
            (6, lambda: pairs),
            (6, lambda: iter(pairs)),
            (6, lambda: (e for e in pairs)),
            (6, lambda: tuple(pairs)),
            (6, lambda: set(pairs)),
            (6, lambda: [list(e) for e in pairs]),
            (6, lambda: [(True, 2), (False, True)]),
            (6, lambda: [(np.int64(u), np.int64(v)) for u, v in pairs]),
            (6, lambda: np.array(pairs)),
            (6, lambda: [(0, 1), (np.int32(3), 4), (4, 5)]),
            # ids above 256, which Python does not cache
            (1000, lambda: [(i, (7 * i + 1) % 1000) for i in range(0, 1000, 3)]),
            (np.int64(6), lambda: pairs),
        ]:
            assert_builds_agree(n, make)

    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, [(0, -1)]),
            (3, [(3, 0)]),
            (3, [(0, 2**63)]),
            (3, [(-2**63 - 1, 0)]),
            (3, [(2**100, 1)]),
            (3, [(0, 1), (2, 2)]),
            (3, [(5, 5)]),
            (3, [(0, 1), (1, 1), (0, 3)]),
            (3, [(0, 1), (0, 3), (1, 1)]),
            (3, [(0, 1), (0, 1.0), (0, 3)]),
            (3, [(0, 1), 5]),
            (3, [(0, 1, 2)]),
            (3, [[0, 1, 2]]),
            (3, [(0,)]),
            (3, [("0", 1)]),
            (3, [(5, "a")]),
            (3, [(0, 1.0)]),
            (3, [(0, 5.0)]),
            (3, [(1.0, 1.0)]),
            (-1, []),
            (-1, [(0, 1)]),
            (2.5, []),
        ],
        ids=["negative", "n", "2**63", "-2**63-1", "2**100", "self-loop",
             "out-of-range-loop", "first-bad-wins-loop", "first-bad-wins-range",
             "first-bad-wins-float", "non-pair", "3-tuple", "3-list", "1-tuple",
             "str", "range-before-str", "float", "float-out-of-range",
             "float-loop", "negative-n", "negative-n-with-edges", "float-n"],
    )
    def test_bad_input_raises_the_same_error(self, n, edges):
        with pytest.raises(Exception) as c_build:
            Graph(n, edges)
        with pytest.raises(Exception) as python_build:
            fallback_graph(n, edges)
        assert type(c_build.value) is type(python_build.value)
        assert str(c_build.value) == str(python_build.value)

    def test_reports_the_first_bad_edge(self):
        lib, reason = _kernel()
        assert lib is not None, reason
        assert lib.graph_adj(3, [(0, 1), (0, 3), (1, 1)]) == 1
        assert lib.graph_adj(3, [(0, 1), [1, 2], (2, 2), (0, 3)]) == 2
        assert lib.graph_adj(0, [(0, 0)]) == 0
        # a pair it does not read is left to the Python loop
        assert lib.graph_adj(3, [(0, 1), (0, 1.0), (0, 3)]) is None
        with pytest.raises(TypeError):
            lib.graph_adj(3, ((0, 1),))
        with pytest.raises(ValueError):
            lib.graph_adj(-1, [])
        # the int32 limit, checked before anything is allocated
        with pytest.raises(ValueError, match=r"2\*\*31"):
            lib.graph_adj(2**31, [])

    def test_int32_limit(self):
        # refused at once: neither the kernel nor the Python loop, which
        # would build 2**31 sets, ever starts on it
        t0 = time.perf_counter()
        for n in (2**31, 2**40):
            with pytest.raises(GraphError, match=r"int32.*2\*\*31"):
                Graph(n)
        assert time.perf_counter() - t0 < 0.5


class TestComplement:
    def test_c4_is_2k2(self):
        assert set(complement(cycle(4)).edges()) == {(0, 2), (1, 3)}

    def test_k3_empty(self):
        assert complement(complete(3)).m == 0

    def test_p4_self_complementary(self):
        cp = complement(path(4))
        assert cp.m == 3
        degs = sorted(cp.degree(v) for v in range(4))
        assert degs == [1, 1, 2, 2]

    def test_involution(self, rng):
        for _ in range(50):
            g = random_graph(rng.randrange(0, 10), 0.5, rng)
            assert complement(complement(g)) == g


class TestInducedSubgraph:
    def test_c4_minus_vertex_is_p3(self):
        sub, idmap = induced_subgraph(cycle(4), {0, 1, 2})
        assert idmap == (0, 1, 2)
        assert set(sub.edges()) == {(0, 1), (1, 2)}

    def test_empty_set(self):
        sub, idmap = induced_subgraph(cycle(4), set())
        assert sub.n == 0 and idmap == ()

    def test_k4_subset_is_k3(self):
        sub, _ = induced_subgraph(complete(4), {0, 2, 3})
        assert sub == complete(3)

    def test_full_set_identity(self, rng):
        g = random_graph(8, 0.5, rng)
        sub, idmap = induced_subgraph(g, range(8))
        assert sub == g and idmap == tuple(range(8))

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            induced_subgraph(cycle(4), {0, 9})


def brute_force_find(host, pattern):
    for images in permutations(range(host.n), pattern.n):
        if all(
            pattern.has_edge(a, b) == host.has_edge(images[a], images[b])
            for a, b in combinations(range(pattern.n), 2)
        ):
            return images
    return None


class TestFindInduced:
    def test_p4_in_c5(self):
        emb = find_induced(cycle(5), path(4))
        assert emb is not None and emb.check(cycle(5), path(4))

    def test_no_diamond_in_k4(self):
        diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert find_induced(complete(4), diamond) is None

    def test_pattern_in_itself_identity(self):
        g = cycle(5)
        emb = find_induced(g, g)
        assert emb.mapping == tuple(range(5))

    def test_size_guard(self):
        with pytest.raises(PatternTooLargeError):
            find_induced(complete(12), complete(11))

    def test_soundness_random(self, rng):
        for _ in range(100):
            host = random_graph(rng.randrange(1, 9), 0.5, rng)
            pattern = random_graph(rng.randrange(1, 5), 0.5, rng)
            emb = find_induced(host, pattern)
            if emb is not None:
                assert emb.check(host, pattern)

    def test_completeness_exhaustive_small(self):
        # every host on <= 4 vertices against every pattern on <= 3
        for hn in range(5):
            for host in all_graphs(hn):
                for pn in range(4):
                    for pattern in all_graphs(pn):
                        found = find_induced(host, pattern)
                        expected = brute_force_find(host, pattern)
                        assert (found is None) == (expected is None)

    def test_completeness_random_sample(self, rng):
        # spot-check the n<=6 host / n<=5 pattern regime against brute force
        for _ in range(200):
            host = random_graph(rng.randrange(0, 7), rng.random(), rng)
            pattern = random_graph(rng.randrange(0, 6), rng.random(), rng)
            found = find_induced(host, pattern)
            expected = brute_force_find(host, pattern)
            assert (found is None) == (expected is None)


def brute_force_girth(g):
    best = math.inf
    for k in range(3, g.n + 1):
        for verts in combinations(range(g.n), k):
            for perm in permutations(verts[1:]):
                seq = (verts[0],) + perm
                if all(
                    g.has_edge(seq[i], seq[(i + 1) % k]) for i in range(k)
                ):
                    best = min(best, k)
                    break
            if best == 3:
                return 3
        if best < math.inf:
            return best
    return best


class TestGirth:
    def test_c4(self):
        assert girth(cycle(4)) == 4

    def test_tree(self):
        assert girth(path(6)) == math.inf
        assert girth(Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])) == math.inf

    def test_k4(self):
        assert girth(complete(4)) == 3

    def test_against_cycle_enumeration(self, rng):
        for _ in range(150):
            g = random_graph(rng.randrange(0, 8), rng.random(), rng)
            assert girth(g) == brute_force_girth(g)
