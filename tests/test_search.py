import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import warnings
from array import array
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from lexsweep import (
    Graph,
    GraphError,
    MIN_INDEX,
    Ordering,
    OrderingError,
    PriorRightmost,
    Seeded,
    SweepEngine,
    is_lbfs_ordering,
    lbfs,
    lbfs_naive,
    lbfs_plus,
    lbfs_reachable,
    lmpn,
)
from lexsweep import _kernel, search

from conftest import (
    all_graphs, complete, cycle, decode_csr, needs_cc, path, random_graph,
)


class TestOrdering:
    def test_inverse_maps(self):
        o = Ordering((2, 0, 3, 1))
        assert o.seq == (2, 0, 3, 1)
        assert o.pos == (1, 3, 0, 2)
        assert all(o.seq[o.pos[v]] == v for v in range(4))

    def test_rejects_non_permutation(self):
        with pytest.raises(OrderingError):
            Ordering((0, 0, 1))
        with pytest.raises(OrderingError):
            Ordering((0, 2))

    def test_reverse(self):
        assert Ordering((2, 0, 1)).reverse() == Ordering((1, 0, 2))


class TestLbfsExamples:
    def test_path_forced(self):
        assert lbfs(path(4), 0).seq == (0, 1, 2, 3)

    def test_complete_min_index(self):
        assert lbfs(complete(4), 2).seq == (2, 0, 1, 3)

    def test_c4_hand_simulation(self):
        assert lbfs(cycle(4), 0).seq == (0, 1, 3, 2)

    def test_start_out_of_range(self):
        with pytest.raises(GraphError):
            lbfs(path(3), 3)

    def test_starts_at_start(self, rng):
        for _ in range(50):
            g = random_graph(rng.randrange(1, 20), 0.3, rng)
            s = rng.randrange(g.n)
            assert lbfs(g, s).seq[0] == s


class TestLbfsPlus:
    def test_path_reversal(self):
        assert lbfs_plus(path(4), Ordering((0, 1, 2, 3))).seq == (3, 2, 1, 0)

    def test_complete_reverses_any_prior(self, rng):
        for n in range(2, 7):
            perm = list(range(n))
            rng.shuffle(perm)
            prior = Ordering(perm)
            assert lbfs_plus(complete(n), prior) == prior.reverse()

    def test_c4_hand_simulation(self):
        assert lbfs_plus(cycle(4), Ordering((0, 1, 3, 2))).seq == (2, 3, 1, 0)

    def test_first_vertex_is_prior_last(self, rng):
        for _ in range(50):
            g = random_graph(rng.randrange(1, 20), 0.4, rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            prior = Ordering(perm)
            assert lbfs_plus(g, prior).seq[0] == prior.last()

    def test_rejects_wrong_cover(self):
        with pytest.raises(OrderingError):
            lbfs_plus(path(4), Ordering((0, 1, 2)))
        with pytest.raises(OrderingError):
            lbfs(path(4), 0, PriorRightmost(Ordering((0, 1, 2))))

    def test_ordering_prior_of_wrong_length(self):
        # an Ordering prior is checked only for its length, so one that is
        # a permutation of too many vertices must still be refused
        for prior in (Ordering((0, 1, 2)), Ordering((4, 0, 1, 2, 3))):
            with pytest.raises(OrderingError):
                lbfs_plus(path(4), prior)
            with pytest.raises(OrderingError):
                lbfs(path(4), 0, PriorRightmost(prior))

    def test_empty_graph(self):
        assert lbfs_plus(Graph(0), Ordering(())).seq == ()


def assert_backends_match_oracle(g, s, tb):
    # `lbfs` runs the C kernel wherever it builds, so the Python core is
    # called directly as well
    want = lbfs_naive(g, s, tb)
    assert lbfs(g, s, tb) == want
    core = search._lbfs_core(g.adj, g.n, s, search._prior(tb, g.n))
    assert core == (want.seq, want.pos)


class TestEngineEquivalence:
    def test_exhaustive_small(self):
        # Under PriorRightmost each prior starts at its own last vertex:
        # over all priors that is every start with every tie-break order
        # of the other vertices.
        for n in range(1, 6):
            for g in all_graphs(n):
                for s in range(n):
                    for tb in (MIN_INDEX, Seeded(s)):
                        assert_backends_match_oracle(g, s, tb)
                for perm in permutations(range(n)):
                    prior = Ordering(perm)
                    assert_backends_match_oracle(g, prior.last(), PriorRightmost(prior))

    def test_random_all_tiebreaks(self, rng):
        for t in range(300):
            n = rng.randrange(1, 65)
            g = random_graph(n, rng.random() * 0.3, rng)
            s = rng.randrange(n)
            perm = list(range(n))
            rng.shuffle(perm)
            for tb in (MIN_INDEX, PriorRightmost(Ordering(perm)), Seeded(t)):
                assert_backends_match_oracle(g, s, tb)
            # LBFS+ sweeps of the lexcycle engine take the same path
            plus = lbfs_naive(g, perm[-1], PriorRightmost(Ordering(perm)))
            step = SweepEngine(g).step(tuple(perm))
            assert (step.seq, step.pos) == (plus.seq, plus.pos)

    @needs_cc
    def test_kernel_loads(self):
        assert search.kernel_backend() == "c", search._kernel()[1]

    # a compiler that is missing, and one that exists but cannot build
    @pytest.mark.parametrize(
        "cc", ["no-such-compiler-lexsweep", sys.executable], ids=["missing", "broken"]
    )
    def test_fallback_warns_once(self, rng, monkeypatch, cc):
        # without a working compiler graphs are still built and LBFS still
        # runs, both in pure Python, and the library says so once, with
        # the reason
        monkeypatch.setenv("CC", cc)
        search._kernel.cache_clear()
        search._warn_fallback.cache_clear()
        try:
            assert search.kernel_backend() == "python"
            with pytest.warns(RuntimeWarning, match="pure-Python") as record:
                g = random_graph(20, 0.3, rng)
                for s in range(g.n):
                    assert lbfs(g, s) == lbfs_naive(g, s)
            assert len(record) == 1
            assert search._kernel()[1] in str(record[0].message)
        finally:
            search._kernel.cache_clear()
            search._warn_fallback.cache_clear()

    @needs_cc
    def test_concurrent_builds_leave_one_library(self, tmp_path):
        # worker processes that start together each build into a cache that
        # holds only stale libraries; every one must load a whole library,
        # and the build removes the stale ones of this interpreter's ABI
        soabi = sysconfig.get_config_var("SOABI")
        cache = tmp_path / "lexsweep"
        cache.mkdir()
        stale = [f"lbfs_kernel-{soabi}-0123456789abcdef.so",
                 "lbfs_kernel-0123456789abcdef.so"]
        other = "lbfs_kernel-cpython-399-other-0123456789abcdef.so"
        for name in stale + [other]:
            (cache / name).write_bytes(b"stale")
        src_root = os.path.dirname(os.path.dirname(search.__file__))
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        code = "from lexsweep import search; print(search.kernel_backend())"
        procs = [
            subprocess.Popen([sys.executable, "-c", code], env=env,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(4)
        ]
        outs = [p.communicate(timeout=120)[0].strip() for p in procs]
        assert outs == ["c"] * 4
        left = sorted(f.name for f in cache.iterdir())
        assert other in left and not set(stale) & set(left), left
        built = [name for name in left if name != other]
        assert len(built) == 1, left
        assert built[0].startswith(f"lbfs_kernel-{soabi}-") and built[0].endswith(".so")

    def test_determinism(self, rng):
        g = random_graph(30, 0.2, rng)
        a = lbfs(g, 5, Seeded(99))
        b = lbfs(g, 5, Seeded(99))
        assert a == b


def pack(off, nbrs, order=None):
    """A CSR as `Graph._csr` packs it: int32 offsets, the order section
    (by default the identity), then the rows."""
    if order is None:
        order = list(range(len(off) - 1))
    return array("i", off + order + nbrs).tobytes()


P3 = path(3)._csr
MIN3 = [2, 1, 0]  # ties toward the least id, as a prior


@needs_cc
class TestKernelBoundary:
    """The C refinement takes ``(Graph._csr, start, prior)`` and returns
    ``(seq, pos)``, None for a prior that is not a permutation, or raises;
    it never reads out of bounds."""

    @pytest.mark.parametrize(
        "csr, start, prior, error",
        [
            (P3, 0, [1, 0], ValueError),
            (P3, 0, [3, 2, 1, 0], ValueError),
            (P3, 0, range(3), TypeError),
            (P3, 0, {2: 0, 1: 0, 0: 0}, TypeError),
            (P3, 0, [2, "1", 0], None),
            (P3, 0, [2, 1.0, 0], None),
            (P3, 3, MIN3, ValueError),
            (P3, -1, MIN3, ValueError),
            (P3, 2**70, MIN3, ValueError),
            (P3, "0", MIN3, TypeError),
            (path(0)._csr, 0, [], ValueError),
            (P3[:-4], 0, MIN3, ValueError),
            (P3 + bytes(4), 0, MIN3, ValueError),
            (P3 + bytes(1), 0, MIN3, ValueError),
            (pack([1, 1, 2], [1, 0]), 0, [1, 0], ValueError),
            (pack([0, 3, 2], [1, 0]), 0, [1, 0], ValueError),
            (pack([0, -1, 0], []), 0, [1, 0], ValueError),
            (pack([0, 2, 1, 2], [1, 2]), 0, MIN3, ValueError),
            (pack([0, 1, 3], [1, 0, 5]), 0, [1, 0], ValueError),
            (pack([0, 1, 3], [1, 0, -1]), 0, [1, 0], ValueError),
            (pack([0, 100, 101], [1] * 100 + [0]), 0, [1, 0], ValueError),
            (pack([0, 1, 2], [1, 0], [0, 2]), 0, [1, 0], ValueError),
            (pack([0, 1, 2], [1, 0], [-1, 0]), 0, [1, 0], ValueError),
            (pack([0, 1, 2], [1, 0], [1, 1]), 0, [1, 0], ValueError),
            (pack([0, 1, 2], [1, 0], [0]), 0, [1, 0], ValueError),
            (pack([0, 1, 2], [1, 0], [0, 1, 2]), 0, [1, 0], ValueError),
            (array("i", [0, 1, 3, 4, 1, 0, 2, 1]).tobytes(), 0, MIN3, ValueError),
            (bytearray(P3), 0, MIN3, TypeError),
            (path(3).adj, 0, MIN3, TypeError),
            (list(path(3).adj), 0, MIN3, TypeError),
        ],
        ids=["short-prio", "long-prio", "range-prio", "dict-prio", "str-prio",
             "float-prio", "start-n", "start-negative", "start-huge", "start-str",
             "empty", "csr-short", "csr-long", "csr-ragged", "offset-not-0",
             "row-past-end", "row-negative", "offset-decreasing", "neighbour-n",
             "neighbour-negative", "duplicate-neighbour", "order-n",
             "order-negative", "order-repeated", "order-short", "order-long",
             "no-order", "bytearray-csr", "tuple-adj", "list-adj"],
    )
    def test_malformed_input_raises(self, csr, start, prior, error):
        # error None: a prior entry that is not an int, which the kernel
        # reports by returning None
        lib, reason = search._kernel()
        assert lib is not None, reason
        if error is None:
            assert lib.lbfs_refine(csr, start, prior) is None
        else:
            with pytest.raises(error):
                lib.lbfs_refine(csr, start, prior)

    BAD_PRIORS = [(2, 2, 1), (0, 1, 3), (-1, 0, 1), (0, 1, -1), (0, "1", 2),
                  (0, 1.0, 2), (0, 2**70, 1), (0, 1, None)]

    @pytest.mark.parametrize("prior", BAD_PRIORS)
    def test_prior_not_a_permutation(self, prior, monkeypatch):
        # the kernel says None and does not raise; the sweep, on either
        # backend, raises OrderingError with the prior in its text
        lib, reason = search._kernel()
        assert lib is not None, reason
        assert lib.lbfs_refine(P3, 0, prior) is None
        assert lib.lbfs_refine(P3, 0, list(prior)) is None
        text = re.escape(f"not a permutation of 0..2: {prior}")
        with pytest.raises(OrderingError, match=text):
            SweepEngine(path(3)).step(prior)
        monkeypatch.setattr(search, "_kernel", lambda: (None, "forced off"))
        with warnings.catch_warnings(), pytest.raises(OrderingError, match=text):
            warnings.simplefilter("ignore", RuntimeWarning)
            SweepEngine(path(3)).step(prior)

    def test_returns_a_tuple(self):
        # (seq, pos): the visit order and its inverse
        lib, reason = search._kernel()
        assert lib is not None, reason
        assert lib.lbfs_refine(cycle(4)._csr, 0, [3, 2, 1, 0]) == ((0, 1, 3, 2), (0, 1, 3, 2))
        # ids above 256, which Python does not cache; integer-like priors
        n = 600
        g = path(n)
        for prior in (list(range(n - 1, -1, -1)), tuple(range(n)),
                      [True] + list(range(n - 1, 1, -1)) + [False]):
            seq, pos = lib.lbfs_refine(g._csr, 300, prior)
            assert type(seq) is tuple and type(pos) is tuple
            assert sorted(seq) == list(range(n)) and seq[0] == 300
            assert all(seq[pos[v]] == v for v in range(n))
            # one int object per vertex, shared by the two tuples
            assert all(seq[pos[v]] is pos[seq[v]] for v in range(n))

    def test_reads_the_order_section(self):
        # P3 laid out as 2, 0, 1: internal 0 is vertex 2, its one neighbour
        # vertex 1 is internal 2
        lib, reason = search._kernel()
        assert lib is not None, reason
        csr = pack([0, 1, 2, 4], [2, 2, 0, 1], [2, 0, 1])
        assert decode_csr(csr, 3) == path(3).adj
        assert lib.lbfs_refine(csr, 0, MIN3) == lib.lbfs_refine(P3, 0, MIN3) == (
            (0, 1, 2), (0, 1, 2))
        assert lib.lbfs_refine(csr, 2, [0, 1, 2]) == ((2, 1, 0), (2, 1, 0))
        assert lib.csr_relayout(P3, (2, 0, 1)) == csr
        assert lib.csr_relayout(csr, (0, 1, 2)) == P3

    @pytest.mark.parametrize(
        "csr, seq, error",
        [
            (P3, [0, 1, 2], TypeError),
            (P3, (0, "1", 2), TypeError),
            (P3, (0, 1.0, 2), TypeError),
            (P3, (0, 1), ValueError),
            (P3, (0, 1, 2, 3), ValueError),
            (P3, (0, 1, 1), ValueError),
            (P3, (0, 1, 3), ValueError),
            (P3, (-1, 0, 1), ValueError),
            (P3, (0, 2**70, 1), ValueError),
            (bytearray(P3), (0, 1, 2), TypeError),
            (P3[:-4], (0, 1, 2), ValueError),
            (pack([0, 2, 1, 2], [1, 2]), (0, 1, 2), ValueError),
            (pack([0, 1, 2], [1, 0], [1, 1]), (0, 1), ValueError),
            (pack([0, 1, 2], [1, 5]), (0, 1), ValueError),
            (pack([0, 1, 2], [1, -1]), (0, 1), ValueError),
            (pack([0, 1, 1], [1]), (0, 1), ValueError),
        ],
        ids=["list-seq", "str-entry", "float-entry", "seq-short", "seq-long",
             "seq-repeated", "seq-n", "seq-negative", "seq-huge", "bytearray-csr",
             "csr-short", "offset-decreasing", "order-repeated", "neighbour-n",
             "neighbour-negative", "asymmetric-rows"],
    )
    def test_relayout_malformed_input_raises(self, csr, seq, error):
        lib, reason = search._kernel()
        assert lib is not None, reason
        with pytest.raises(error):
            lib.csr_relayout(csr, seq)

    def test_layout_does_not_change_a_sweep(self, rng):
        # ties go by prior position alone, so no layout of the rows changes
        # a sweep: each graph is laid out in two random orders in turn, and
        # every layout gives the naive LBFS's (seq, pos)
        lib, reason = search._kernel()
        assert lib is not None, reason
        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        graphs += [random_graph(rng.randrange(1, 41), rng.random() * 0.5, rng)
                   for _ in range(200)]
        for g in graphs:
            n = g.n
            csrs = [g._csr]
            for _ in range(2):
                order = list(range(n))
                rng.shuffle(order)
                csrs.append(lib.csr_relayout(csrs[-1], tuple(order)))
                assert decode_csr(csrs[-1], n) == g.adj
            prior = list(range(n))
            rng.shuffle(prior)
            for s in range(n) if n <= 5 else rng.sample(range(n), 3):
                want = lbfs_naive(g, s, PriorRightmost(Ordering(prior)))
                for csr in csrs:
                    assert lib.lbfs_refine(csr, s, prior) == (want.seq, want.pos)

    def test_rows_relaid_once_at_the_first_sweep(self, rng, monkeypatch):
        g = random_graph(30, 0.2, rng)
        built = g._csr
        assert not g._relaid
        # a prior that is not a permutation runs no sweep
        with pytest.raises(OrderingError):
            lbfs_plus(g, Ordering(range(29)))
        assert g._csr is built and not g._relaid
        sigma = lbfs(g, 3, Seeded(1))
        relaid = g._csr
        assert g._relaid and relaid is not built
        # laid out in the order of that sweep, and still the same rows
        assert list(memoryview(relaid).cast("i")[g.n + 1:2 * g.n + 1]) == list(sigma.seq)
        assert decode_csr(relaid, g.n) == g.adj
        engine = SweepEngine(g)
        prior = sigma
        for s in range(g.n):
            assert lbfs(g, s) == lbfs_naive(g, s)
            prior = lbfs_plus(g, prior)
            assert engine.step(prior.seq) == lbfs_plus(g, prior)
        assert g._csr is relaid
        # the pure-Python fallback leaves the rows alone
        h = random_graph(30, 0.2, rng)
        monkeypatch.setattr(search, "_kernel", lambda: (None, "forced off"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            lbfs(h, 0)
        assert not h._relaid

    def test_sweeps_match_the_fallback(self, rng, monkeypatch):
        cases = []
        for _ in range(100):
            g = random_graph(rng.randrange(1, 40), rng.random() * 0.4, rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            cases.append((g, Ordering(perm)))
        cases.append((Graph(0), Ordering(())))

        def sweeps():
            out = []
            for i, (g, p) in enumerate(cases):
                plus = lbfs_plus(g, p)
                step = SweepEngine(g).step(p.seq)
                seeded = lbfs(g, p.last(), Seeded(i)) if g.n else plus
                out.append(((plus.seq, plus.pos), (step.seq, step.pos),
                            (seeded.seq, seeded.pos)))
            return out

        assert search.kernel_backend() == "c"
        kernel = sweeps()
        monkeypatch.setattr(search, "_kernel", lambda: (None, "forced off"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fallback = sweeps()
        assert kernel == fallback
        for (seq, pos), step, _ in kernel:
            assert type(seq) is tuple and type(pos) is tuple and (seq, pos) == step
            # the trusted pos is the one the checked constructor builds
            assert pos == Ordering(seq).pos

    def test_compiles_warning_free(self):
        cc = shutil.which(os.environ.get("CC", "cc"))
        include = sysconfig.get_paths()["include"]
        res = subprocess.run(
            [cc, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-I", include,
             str(_kernel._SOURCE)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr


class TestProperties:
    def test_outputs_pass_four_point_condition(self, rng):
        for _ in range(150):
            g = random_graph(rng.randrange(1, 15), rng.random(), rng)
            s = rng.randrange(g.n)
            sigma = lbfs(g, s)
            assert is_lbfs_ordering(g, sigma).ok

    def test_output_is_permutation_on_disconnected(self, rng):
        g = Graph(6, [(0, 1), (2, 3)])
        sigma = lbfs(g, 4)
        assert sorted(sigma.seq) == list(range(6))
        assert sigma.seq[0] == 4

    def test_reachability_of_engine_outputs(self, rng):
        for _ in range(100):
            g = random_graph(rng.randrange(1, 12), rng.random(), rng)
            sigma = lbfs(g, rng.randrange(g.n), Seeded(rng.randrange(1000)))
            assert lbfs_reachable(g, sigma)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hypothesis_engines_agree(self, data):
        n = data.draw(st.integers(1, 10))
        edges = data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] < e[1]
                ),
                max_size=n * (n - 1) // 2,
            )
        )
        g = Graph(n, edges)
        start = data.draw(st.integers(0, n - 1))
        assert lbfs(g, start) == lbfs_naive(g, start)


class TestLmpn:
    def test_p3(self):
        assert lmpn(path(3), Ordering((0, 1, 2)), 1, 2) == 0

    def test_k3_none(self):
        assert lmpn(complete(3), Ordering((0, 1, 2)), 0, 1) is None

    def test_c4_none(self):
        assert lmpn(cycle(4), Ordering((0, 1, 2, 3)), 1, 3) is None

    def test_requires_distinct(self):
        with pytest.raises(GraphError):
            lmpn(path(3), Ordering((0, 1, 2)), 1, 1)

    def test_leftmost_choice(self):
        # star centered at 3: every leaf is a private neighbour of 3 wrt 4
        g = Graph(5, [(3, 0), (3, 1), (3, 2)])
        sigma = Ordering((2, 0, 1, 3, 4))
        assert lmpn(g, sigma, 3, 4) == 2
