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

    def test_long_form_matches_networkx(self, rng):
        # n >= 63 takes the "~" + 3-byte size prefix; 62 is the last short one
        for n in (62, 63, 100, 300):
            g = random_graph(n, 0.1, rng)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            text = to_graph6(g)
            assert text.startswith("~") == (n >= 63)
            assert text == nx.to_graph6_bytes(h, header=False).decode().strip()
            assert from_graph6(text) == g

    def test_six_byte_size_prefix(self):
        # "~~" and six bytes, as networkx reads it too
        for text in ("~~?????@", "~~?????C]"):
            h = nx.from_graph6_bytes(text.encode())
            g = from_graph6(text)
            assert g.n == h.number_of_nodes() and set(g.edges()) == set(h.edges())

    def test_rejects_truncated_size_prefix(self):
        for text in ("~", "~?", "~??", "~~", "~~?????", "~~~~"):
            with pytest.raises(FormatError, match="truncated graph6 size prefix"):
                from_graph6(text)
        with pytest.raises(FormatError, match="size byte"):
            from_graph6("~?\x1f?")


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
