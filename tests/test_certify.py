from itertools import permutations

import pytest

from lexsweep import (
    BadTriple,
    Graph,
    Ordering,
    OrderingError,
    check_c4_property,
    check_flip_pair,
    is_lbfs_ordering,
    is_umbrella_free,
    lbfs,
    lbfs_plus,
    lbfs_reachable,
    gen_poset_cocomp,
)
from lexsweep.certify import _first_bad_triple, replay_bad_triple

from conftest import all_graphs, complete, cycle, path, random_graph


class TestUmbrellaFree:
    def test_p3_pass(self):
        assert is_umbrella_free(path(3), Ordering((0, 2, 1))).ok

    def test_p4_fail_with_witness(self):
        rep = is_umbrella_free(path(4), Ordering((1, 3, 0, 2)))
        assert rep.verdict == "fail"
        assert replay_bad_triple(path(4), Ordering((1, 3, 0, 2)), rep.witness, "umbrella")

    def test_complete_always_passes(self, rng):
        for n in range(1, 7):
            perm = list(range(n))
            rng.shuffle(perm)
            assert is_umbrella_free(complete(n), Ordering(perm)).ok

    def test_matches_triple_scan(self, rng):
        # each check reports the first triple, by positions, that
        # replay_bad_triple accepts for its kind; check_c4_property first
        # reports its umbrella-free, then its 4-point precondition
        def brute(g, sigma, kind):
            seq = sigma.seq
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    for k in range(j + 1, g.n):
                        t = BadTriple(seq[i], seq[j], seq[k])
                        if replay_bad_triple(g, sigma, t, kind):
                            return t
            return None

        preconditions = (("umbrella-free", "umbrella"), ("lbfs-ordering", "lbfs"))

        def expected(g, sigma, kind):
            if kind == "c4":
                for pre, pre_kind in preconditions:
                    t = brute(g, sigma, pre_kind)
                    if t is not None:
                        return ("not-applicable", (pre, t))
            t = brute(g, sigma, kind)
            return ("pass", None) if t is None else ("fail", t)

        checks = {
            "umbrella": is_umbrella_free,
            "lbfs": is_lbfs_ordering,
            "c4": check_c4_property,
        }
        cases = [
            (g, Ordering(perm))
            for n in range(0, 5)
            for g in all_graphs(n)
            for perm in permutations(range(n))
        ]
        for _ in range(200):
            g = random_graph(rng.randrange(1, 9), rng.random(), rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            # an LBFS ordering too: on a random one the first C4-clause
            # violation is almost always the first 4-point one
            cases += [(g, Ordering(perm)), (g, lbfs(g, rng.randrange(g.n)))]
        seen = set()
        c4_differs = 0
        for g, sigma in cases:
            firsts = {}
            for kind, check in checks.items():
                first = firsts[kind] = brute(g, sigma, kind)
                assert _first_bad_triple(g, sigma, kind) == first
                rep = check(g, sigma)
                assert (rep.verdict, rep.witness) == expected(g, sigma, kind)
                pre = rep.witness[0] if rep.verdict == "not-applicable" else None
                seen.add((kind, first is None, rep.verdict, pre))
            c4_differs += firsts["c4"] != firsts["lbfs"]
        assert c4_differs > 0
        # every branch is reached; the C4 clause fails wherever the 4-point
        # clause does, and here only where a precondition fails (the LBFS
        # C4 property)
        assert seen == {
            ("umbrella", True, "pass", None),
            ("umbrella", False, "fail", None),
            ("lbfs", True, "pass", None),
            ("lbfs", False, "fail", None),
            ("c4", True, "pass", None),
            ("c4", True, "not-applicable", "umbrella-free"),
            ("c4", False, "not-applicable", "umbrella-free"),
            ("c4", False, "not-applicable", "lbfs-ordering"),
        }

    def test_wrong_cover_rejected(self):
        with pytest.raises(OrderingError):
            is_umbrella_free(path(4), Ordering((0, 1, 2)))


class TestLbfsOrdering:
    def test_p4_identity_passes(self):
        assert is_lbfs_ordering(path(4), Ordering((0, 1, 2, 3))).ok

    def test_p4_swap_fails(self):
        rep = is_lbfs_ordering(path(4), Ordering((0, 2, 1, 3)))
        assert rep.verdict == "fail"
        assert rep.witness == BadTriple(0, 2, 1)

    def test_engine_outputs_pass(self, rng):
        for _ in range(300):
            g = random_graph(rng.randrange(1, 14), rng.random(), rng)
            sigma = lbfs(g, rng.randrange(g.n))
            assert is_lbfs_ordering(g, sigma).ok

    def test_agrees_with_reachability_simulator(self):
        # 4-point condition == reachable by some LBFS tie-breaking (n <= 4)
        for n in range(1, 5):
            for g in all_graphs(n):
                for perm in permutations(range(n)):
                    sigma = Ordering(perm)
                    assert is_lbfs_ordering(g, sigma).ok == lbfs_reachable(g, sigma)

    def test_fail_witness_replays(self, rng):
        found = 0
        for _ in range(300):
            g = random_graph(rng.randrange(2, 9), rng.random(), rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            sigma = Ordering(perm)
            rep = is_lbfs_ordering(g, sigma)
            if rep.verdict == "fail":
                found += 1
                assert replay_bad_triple(g, sigma, rep.witness, "lbfs")
        assert found > 20


class TestFlipPair:
    def test_complete_any_pair_passes(self):
        sigma = Ordering((2, 0, 1, 3))
        assert check_flip_pair(complete(4), sigma, sigma.reverse()).ok

    def test_2k2_sweep_flips(self):
        g = Graph(4, [(0, 1), (2, 3)])
        sigma = Ordering((0, 1, 2, 3))
        tau = lbfs_plus(g, sigma)
        assert tau.seq == (3, 2, 1, 0)
        assert check_flip_pair(g, sigma, tau).ok

    def test_unflipped_witness(self):
        g = Graph(4, [(0, 1), (2, 3)])
        rep = check_flip_pair(g, Ordering((0, 1, 2, 3)), Ordering((0, 1, 3, 2)))
        assert rep.verdict == "fail" and rep.witness == (0, 2)


class TestC4Property:
    def test_c4_lbfs_ordering_passes(self):
        g = cycle(4)
        assert check_c4_property(g, lbfs(g, 0)).ok

    def test_k3_vacuous(self):
        assert check_c4_property(complete(3), Ordering((1, 0, 2))).ok

    def test_not_applicable_on_umbrella_violation(self):
        rep = check_c4_property(path(4), Ordering((1, 3, 0, 2)))
        assert rep.verdict == "not-applicable"
        kind, witness = rep.witness
        assert kind == "umbrella-free"
        assert replay_bad_triple(path(4), Ordering((1, 3, 0, 2)), witness, "umbrella")

    def test_theorem_instances_pass(self, rng):
        # LBFS+ of a cocomparability ordering: umbrella-free again (2.4),
        # every non-edge flips (Flipping Lemma), and the C4 property holds
        for t in range(60):
            sample = gen_poset_cocomp(rng.randrange(1, 25), rng.random(), seed=t)
            g = sample.graph
            sigma = sample.witness_ordering
            tau = lbfs_plus(g, sigma)
            assert is_umbrella_free(g, tau).ok
            assert check_flip_pair(g, sigma, tau).ok
            assert check_c4_property(g, tau).ok
