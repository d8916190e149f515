import random
from itertools import permutations

import pytest

from lexsweep import (
    Graph,
    Ordering,
    OrderingError,
    OrbitBudgetError,
    PriorRightmost,
    SizeGuardError,
    SweepEngine,
    detect_orbit,
    gen_interval,
    gen_poset_cocomp,
    is_umbrella_free,
    k_ladder,
    lbfs_naive,
    lbfs_plus,
    lbfs_reachable,
    lexcycle_exact,
    lexcycle_sampled,
    sweep_sequence,
    theorem_check,
)
from lexsweep.lexcycle import _lbfs_orderings

from conftest import all_graphs, complete, cycle, path, random_graph


class TestSweepEngine:
    def test_matches_naive_oracle(self, rng):
        assert SweepEngine(Graph(0)).step(()) == ()
        for t in range(200):
            n = 1 if t == 0 else rng.randrange(1, 20)
            g = random_graph(n, rng.random(), rng)
            eng = SweepEngine(g)
            perm = list(range(g.n))
            rng.shuffle(perm)
            prior = Ordering(perm)
            expect = lbfs_naive(g, prior.last(), PriorRightmost(prior)).seq
            assert eng.step(prior.seq) == expect
            assert eng.cache[prior.seq] == expect

    def test_start_out_of_range(self):
        # the sweep starts at the prior's last entry; the C kernel would
        # index by it unchecked
        with pytest.raises(OrderingError):
            SweepEngine(path(3)).step((0, 1, -1))

    @pytest.mark.parametrize("prior", [(0, 0, 1), (0, 1), (-1, 0, 1), (0, 1, 3)])
    def test_prior_must_be_a_permutation(self, prior):
        # (-1, 0, 1) fills every slot of prio, since prio[-1] is prio[2]
        eng = SweepEngine(path(3))
        with pytest.raises(OrderingError):
            eng.step(prior)
        assert eng.cache == {}


class TestSweepSequence:
    def test_k3(self):
        seqs = [o.seq for o in sweep_sequence(complete(3), Ordering((0, 1, 2)), 3)]
        assert seqs == [(2, 1, 0), (0, 1, 2), (2, 1, 0)]

    def test_k1(self):
        seqs = [o.seq for o in sweep_sequence(Graph(1), Ordering((0,)), 2)]
        assert seqs == [(0,), (0,)]

    def test_p4(self):
        seqs = [o.seq for o in sweep_sequence(path(4), Ordering((0, 1, 2, 3)), 2)]
        assert seqs == [(3, 2, 1, 0), (0, 1, 2, 3)]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            sweep_sequence(path(3), Ordering((0, 1, 2)), 0)


class TestDetectOrbit:
    def test_k3(self):
        res = detect_orbit(complete(3), Ordering((0, 1, 2)))
        assert (res.preperiod, res.period) == (0, 2)
        assert [o.seq for o in res.cycle] == [(2, 1, 0), (0, 1, 2)]

    def test_k1_fixed_point(self):
        assert detect_orbit(Graph(1), Ordering((0,))).period == 1

    def test_p4_period_two(self):
        assert detect_orbit(path(4), Ordering((0, 1, 2, 3))).period == 2

    def test_cycle_closes(self, rng):
        for _ in range(50):
            g = random_graph(rng.randrange(1, 12), rng.random(), rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            res = detect_orbit(g, Ordering(perm))
            assert lbfs_plus(g, res.cycle[-1]) == res.cycle[0]
            assert len(set(o.seq for o in res.cycle)) == res.period

    def test_budget_error_carries_trace(self):
        with pytest.raises(OrbitBudgetError) as exc:
            detect_orbit(cycle(5), Ordering((0, 1, 2, 3, 4)), max_sweeps=1)
        assert len(exc.value.trace) == 1

    def test_period_one_impossible_beyond_singleton(self, rng):
        # sigma_{i+1} starts at sigma_i's last vertex, so n >= 2 forces
        # period >= 2
        for _ in range(60):
            g = random_graph(rng.randrange(2, 10), rng.random(), rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert detect_orbit(g, Ordering(perm)).period >= 2


class TestLexCycleExact:
    def test_k1(self):
        assert lexcycle_exact(Graph(1)).value == 1

    def test_k3(self):
        est = lexcycle_exact(complete(3))
        assert est.value == 2 and est.starts_examined == 6 and est.mode == "exact"

    def test_p4(self):
        assert lexcycle_exact(path(4)).value == 2

    def test_guard(self):
        est = lexcycle_exact(k_ladder(4))  # n = 10
        assert (est.value, est.starts_examined) == (2, 44)
        # every ordering of 8 isolated vertices is an LBFS ordering, and the
        # bound of 8! is inclusive
        assert lexcycle_exact(Graph(8)).starts_examined == 40320
        with pytest.raises(SizeGuardError):
            lexcycle_exact(Graph(9))

    def test_k_ladder_3_walks_its_lbfs_orderings(self):
        est = lexcycle_exact(k_ladder(3))
        assert (est.value, est.starts_examined) == (2, 32)
        assert est.argmax_start == Ordering(range(8))

    def test_sampled_is_lower_bound(self, rng):
        for _ in range(40):
            g = random_graph(rng.randrange(1, 7), rng.random(), rng)
            exact = lexcycle_exact(g).value
            sampled = lexcycle_sampled(g, trials=5, seed=rng.randrange(100)).value
            assert sampled <= exact

    def test_agrees_with_detect_orbit_max(self, rng):
        # the n! route: the longest terminal cycle over every start
        graphs = [g for n in range(6) for g in all_graphs(n)]
        graphs += [random_graph(n, rng.random(), rng) for n in (6, 7) for _ in range(4)]
        for g in graphs:
            eng = SweepEngine(g)
            brute = max(
                detect_orbit(g, Ordering(p), engine=eng).period
                for p in permutations(range(g.n))
            )
            assert lexcycle_exact(g).value == brute, g.adj

    def test_orderings_are_the_image_of_the_sweep_map(self):
        for n in range(6):
            for g in all_graphs(n):
                orderings = _lbfs_orderings(g)
                assert orderings == sorted(set(orderings)), g.adj
                eng = SweepEngine(g)
                image = {eng.step(p) for p in permutations(range(n))}
                assert set(orderings) == image, g.adj
                assert all(lbfs_reachable(g, Ordering(s)) for s in orderings)


class TestLexCycleSampled:
    def test_k5(self):
        assert lexcycle_sampled(complete(5), trials=10, seed=7).value == 2

    def test_k1(self):
        assert lexcycle_sampled(Graph(1), trials=1, seed=0).value == 1

    def test_empty_graph(self):
        est = lexcycle_sampled(Graph(0), trials=1, seed=0)
        assert (est.value, est.argmax_start) == (1, Ordering(()))

    def test_interval_graph_value_two(self):
        sample = gen_interval(30, seed=11)
        assert lexcycle_sampled(sample.graph, trials=50, seed=3).value == 2

    def test_deterministic(self):
        g = cycle(6)
        a = lexcycle_sampled(g, trials=20, seed=5)
        b = lexcycle_sampled(g, trials=20, seed=5)
        assert a == b


class TestTheoremCheck:
    def test_p4_passes(self):
        assert theorem_check(path(4), Ordering((0, 1, 2, 3))).verdict == "pass"

    def test_interval_graph_passes(self):
        sample = gen_interval(25, seed=4)
        rep = theorem_check(sample.graph, sample.witness_ordering)
        assert rep.verdict == "pass"

    def test_c4_passes(self):
        assert theorem_check(cycle(4), Ordering((0, 1, 3, 2))).verdict == "pass"

    def test_not_applicable_with_witness(self):
        rep = theorem_check(path(4), Ordering((1, 3, 0, 2)))
        assert rep.verdict == "not-applicable"
        assert rep.na_witness is not None

    def test_cocomp_sweeps_eventually_umbrella_free(self, rng):
        # within n sweeps of the orbit some ordering is umbrella-free
        for t in range(40):
            sample = gen_poset_cocomp(rng.randrange(1, 15), rng.random(), seed=t)
            g = sample.graph
            perm = list(range(g.n))
            rng.shuffle(perm)
            res = detect_orbit(g, Ordering(perm))
            assert any(
                is_umbrella_free(g, o).ok for o in res.trace[: g.n + 1]
            )
