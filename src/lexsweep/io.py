"""Serialization: graph6 and plain edge-list text.

graph6 gives n in one byte for n <= 62, else as ``~`` and three bytes
(n <= 258047), else as ``~~`` and six bytes: 6-bit big-endian groups,
each plus 63.
"""
from __future__ import annotations

from typing import List, Tuple

from .graph import Graph, GraphError

GRAPH6_HEADER = ">>graph6<<"


class FormatError(GraphError):
    """Malformed graph6 or edge-list input."""


def to_graph6(g: Graph) -> str:
    n = g.n
    width = 1 if n <= 62 else 3 if n <= 258047 else 6
    bits: List[int] = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = ["~" * (width // 3)]
    out.extend(chr((n >> 6 * k & 63) + 63) for k in range(width - 1, -1, -1))
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def from_graph6(line: str) -> Graph:
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise FormatError("empty graph6 string")
    skip = 2 if s.startswith("~~") else 1 if s.startswith("~") else 0
    width = (1, 3, 6)[skip]
    head, body = s[skip : skip + width], s[skip + width :]
    if len(head) < width:
        raise FormatError(f"truncated graph6 size prefix: {s!r}")
    n = 0
    for ch in head:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise FormatError(f"invalid graph6 size byte: {ch!r}")
        n = n << 6 | val
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(
            f"graph6 body length {len(body)} does not match n={n} (expected {need})"
        )
    bits: List[int] = []
    for ch in body:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise FormatError(f"invalid graph6 character: {ch!r}")
        for shift in range(5, -1, -1):
            bits.append((val >> shift) & 1)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    if any(bits[n * (n - 1) // 2 :]):
        raise FormatError("nonzero padding bits in graph6 body")
    return Graph(n, edges)


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    rows = [r for r in (line.strip() for line in text.splitlines()) if r]
    if not rows:
        raise FormatError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"expected header 'n m', got {rows[0]!r}")
    n, m = _int_pair(head, rows[0])
    if len(rows) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges: List[Tuple[int, int]] = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise FormatError(f"malformed edge line: {row!r}")
        edges.append(_int_pair(parts, row))
    return Graph(n, edges)


def _int_pair(parts: List[str], row: str) -> Tuple[int, int]:
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"non-integer token in line {row!r}") from None
