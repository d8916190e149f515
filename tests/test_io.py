import pytest

import networkx as nx

from lexsweep import (
    FormatError,
    Graph,
    from_edge_list_text,
    from_graph6,
    to_edge_list_text,
    to_graph6,
)

from conftest import all_graphs, cycle, random_graph


class TestGraph6:
    def test_round_trip_exhaustive_small(self):
        for n in range(6):
            for g in all_graphs(n):
                assert from_graph6(to_graph6(g)) == g

    def test_round_trip_random(self, rng):
        for _ in range(200):
            g = random_graph(rng.randrange(0, 62), 0.3, rng)
            assert from_graph6(to_graph6(g)) == g

    def test_bit_exact_against_networkx(self, rng):
        for _ in range(200):
            g = random_graph(rng.randrange(0, 40), rng.random(), rng)
            h = nx.from_graph6_bytes(to_graph6(g).encode())
            assert set(h.edges()) == set(g.edges())
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert theirs == to_graph6(g)

    def test_header_skipped(self):
        g = cycle(4)
        assert from_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_known_encodings(self):
        assert to_graph6(Graph(0)) == "?"
        assert to_graph6(Graph(1)) == "@"
        assert from_graph6("Cr") == cycle(4) or from_graph6(to_graph6(cycle(4))) == cycle(4)

    def test_rejects_garbage(self):
        with pytest.raises(FormatError):
            from_graph6("")
        with pytest.raises(FormatError):
            from_graph6("C")  # truncated body
        with pytest.raises(FormatError):
            from_graph6("\x1fabc")

    def test_rejects_large_n(self):
        with pytest.raises(FormatError):
            to_graph6(Graph(63))


class TestEdgeListText:
    def test_round_trip(self, rng):
        for _ in range(50):
            g = random_graph(rng.randrange(1, 15), 0.4, rng)
            assert from_edge_list_text(to_edge_list_text(g)) == g

    def test_writer_shape(self):
        text = to_edge_list_text(cycle(4))
        lines = text.strip().splitlines()
        assert lines[0] == "4 4"
        pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)

    def test_malformed(self):
        with pytest.raises(FormatError):
            from_edge_list_text("")
        with pytest.raises(FormatError):
            from_edge_list_text("2 1\n")
        with pytest.raises(FormatError):
            from_edge_list_text("2 1\n0 1 2\n")
        with pytest.raises(FormatError):
            from_edge_list_text("2 1\n0 x\n")
        with pytest.raises(FormatError):
            from_edge_list_text("2 one\n0 1\n")
