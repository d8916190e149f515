import os
import random
import shutil
from itertools import combinations

import pytest

from lexsweep import Graph

needs_cc = pytest.mark.skipif(
    shutil.which(os.environ.get("CC", "cc")) is None, reason="no C compiler"
)


def all_pairs(n):
    return list(combinations(range(n), 2))


def graph_from_mask(n, mask):
    pairs = all_pairs(n)
    return Graph(n, [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1])


def all_graphs(n):
    """Every labeled graph on n vertices."""
    total = 1 << (n * (n - 1) // 2)
    for mask in range(total):
        yield graph_from_mask(n, mask)


def random_graph(n, p, rng):
    return Graph(n, [(i, j) for i, j in all_pairs(n) if rng.random() < p])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def path(k):
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k):
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete(k):
    return Graph(k, all_pairs(k))


def decode_csr(csr, n):
    """The rows, in vertex ids, that a packed `Graph._csr` holds, checking
    its layout: offsets that start at 0 and never decrease, an order
    section that is a permutation, and rows sorted in internal ids."""
    words = memoryview(csr).cast("i")
    off, order, nbrs = words[:n + 1], words[n + 1:2 * n + 1], words[2 * n + 1:]
    assert off[0] == 0 and off[n] == len(nbrs)
    assert all(off[q] <= off[q + 1] for q in range(n))
    assert sorted(order) == list(range(n))
    rows = [None] * n
    for q in range(n):
        row = list(nbrs[off[q]:off[q + 1]])
        assert row == sorted(set(row))
        rows[order[q]] = tuple(sorted(order[w] for w in row))
    return tuple(rows)
