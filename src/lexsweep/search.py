"""LBFS and tie-breaking.

There is one LBFS engine, an ordered partition refinement (`lbfs`,
linear-time up to tie-break scans). `_refine` runs it as a C port
(`_lbfs_kernel.c`, compiled on first use) whenever that builds, else as
`_lbfs_core`; `lbfs`, `lbfs_plus` and `lexcycle.SweepEngine` all go
through it. `lbfs_naive` is a literal label-list LBFS kept as the
oracle. `lbfs_plus` is the rightmost-in-prior tie-breaking wrapper.

Every tie-break mode reduces to a static priority permutation: within a
set of tied vertices the one with the smallest priority value wins.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import random
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from .graph import Graph, GraphError


class OrderingError(ValueError):
    """A sequence that is not a permutation of the expected vertex set."""


class Ordering:
    """A permutation of 0..n-1, indexable both ways.

    ``seq[i]`` is the vertex at position i (0-based); ``pos[v]`` is the
    position of vertex v. ``seq`` and ``pos`` are mutually inverse.
    """

    __slots__ = ("seq", "pos")

    def __init__(self, seq: Iterable[int]) -> None:
        s = tuple(seq)
        n = len(s)
        pos = [-1] * n
        for i, v in enumerate(s):
            if not (0 <= v < n) or pos[v] != -1:
                raise OrderingError(f"not a permutation of 0..{n - 1}: {s}")
            pos[v] = i
        self.seq = s
        self.pos = tuple(pos)

    def __len__(self) -> int:
        return len(self.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ordering):
            return NotImplemented
        return self.seq == other.seq

    def __hash__(self) -> int:
        return hash(self.seq)

    def __iter__(self):
        return iter(self.seq)

    def last(self) -> int:
        return self.seq[-1]

    def reverse(self) -> "Ordering":
        return Ordering(reversed(self.seq))

    def precedes(self, u: int, v: int) -> bool:
        return self.pos[u] < self.pos[v]

    def __repr__(self) -> str:
        return f"Ordering{self.seq}"


@dataclass(frozen=True)
class MinIndex:
    """Break ties toward the smallest vertex id (library default)."""


@dataclass(frozen=True)
class PriorRightmost:
    """Break ties toward the vertex rightmost in a prior ordering."""

    prior: Ordering


@dataclass(frozen=True)
class Seeded:
    """Break ties by a seeded uniform priority permutation."""

    seed: int


TieBreak = Union[MinIndex, PriorRightmost, Seeded]

MIN_INDEX = MinIndex()


def _priority(tb: TieBreak, n: int) -> List[int]:
    if isinstance(tb, MinIndex):
        return list(range(n))
    if isinstance(tb, PriorRightmost):
        if len(tb.prior) != n:
            raise OrderingError(
                f"prior ordering covers {len(tb.prior)} vertices, graph has {n}"
            )
        return _rightmost_priority(tb.prior.seq)
    if isinstance(tb, Seeded):
        prio = list(range(n))
        random.Random(tb.seed).shuffle(prio)
        return prio
    raise TypeError(f"unknown tie-break: {tb!r}")


def _rightmost_priority(prior: Sequence[int]) -> List[int]:
    # the LBFS+ tie-break: prio[v] = n - 1 - (position of v in prior).
    # Slots of vertices missing from prior stay -1.
    prio = [-1] * len(prior)
    for i, v in enumerate(reversed(prior)):
        prio[v] = i
    return prio


def _lbfs_core(adj: Sequence[Sequence[int]], n: int, start: int, prio: Sequence[int]):
    # Ordered partition refinement over the array `arr`. Numbered vertices
    # occupy arr[:p] in visit order; unnumbered ones occupy arr[p:], tiled
    # by classes in label order. Visiting u splits each class into
    # neighbours-first / non-neighbours.
    arr = list(range(n))
    loc = list(range(n))
    if start != 0:
        arr[0], arr[start] = arr[start], arr[0]
        loc[0], loc[start] = loc[start], loc[0]
    cls = [1] * n
    cls[start] = 0
    # Each split adds a non-empty class and each step empties at most one,
    # so at most n + 1 classes are ever created.
    cstart = [0] * (n + 2)
    cend = [0] * (n + 2)
    moved = [0] * (n + 2)
    cstart[1] = 1
    cend[0] = 1
    cend[1] = n
    nc = 2
    # the last vertex is forced, and visiting it refines nothing
    for p in range(n - 1):
        u = arr[p]
        head = cls[u]
        end = cend[head]
        if end - p > 1:
            # select the minimum-priority vertex of the head class
            bp = prio[u]
            bi = p
            for i in range(p + 1, end):
                v = arr[i]
                if prio[v] < bp:
                    u = v
                    bp = prio[v]
                    bi = i
            if bi != p:
                x = arr[p]
                arr[bi] = x
                loc[x] = bi
                arr[p] = u
                loc[u] = p
        cstart[head] = p + 1
        touched = []
        for w in adj[u]:
            i = loc[w]
            if i <= p:
                continue
            c = cls[w]
            mv = moved[c]
            if not mv:
                touched.append(c)
            j = cstart[c] + mv
            if i != j:
                x = arr[j]
                arr[j] = w
                arr[i] = x
                loc[w] = j
                loc[x] = i
            moved[c] = mv + 1
        for c in touched:
            mv = moved[c]
            moved[c] = 0
            if mv < cend[c] - cstart[c]:
                ns = cstart[c]
                ne = ns + mv
                cstart[nc] = ns
                cend[nc] = ne
                for idx in range(ns, ne):
                    cls[arr[idx]] = nc
                cstart[c] = ne
                nc += 1
    return arr


def _refine(g: Graph, start: int, prio: Sequence[int]) -> List[int]:
    """The one LBFS refinement: the C kernel whenever it loads, else
    `_lbfs_core`. The kernel indexes by ``start`` unchecked."""
    if not (0 <= start < g.n):
        raise GraphError(f"start vertex out of range: {start}")
    kernel, reason = _kernel()
    if kernel is not None:
        return _lbfs_c(kernel, g, start, prio)
    _warn_fallback(reason)
    return _lbfs_core(g.adj, g.n, start, prio)


def lbfs(g: Graph, start: int, tb: TieBreak = MIN_INDEX) -> Ordering:
    """Partition-refinement LBFS from ``start`` with tie-break ``tb``."""
    return Ordering(_refine(g, start, _priority(tb, g.n)))


def lbfs_naive(g: Graph, start: int, tb: TieBreak = MIN_INDEX) -> Ordering:
    """Literal label-sequence LBFS; the reference oracle for `lbfs`."""
    if not (0 <= start < g.n):
        raise GraphError(f"start vertex out of range: {start}")
    n = g.n
    prio = _priority(tb, n)
    labels: List[List[int]] = [[] for _ in range(n)]
    labels[start] = [n]
    unnumbered = set(range(n))
    adjsets = g.adjsets
    out = []
    for step in range(1, n + 1):
        u = max(unnumbered, key=lambda v: (labels[v], -prio[v]))
        unnumbered.discard(u)
        out.append(u)
        stamp = n - step
        for w in adjsets[u]:
            if w in unnumbered:
                labels[w].append(stamp)
    return Ordering(out)


def lbfs_plus(g: Graph, prior: Ordering) -> Ordering:
    """LBFS started at the prior's last vertex, ties toward prior-rightmost."""
    if len(prior) != g.n:
        raise OrderingError(
            f"prior ordering covers {len(prior)} vertices, graph has {g.n}"
        )
    if g.n == 0:
        return Ordering(())
    return lbfs(g, prior.last(), PriorRightmost(prior))


def lmpn(g: Graph, sigma: Ordering, y: int, z: int) -> Optional[int]:
    """Leftmost (in sigma) private neighbour of y with respect to z."""
    if y == z:
        raise GraphError("lmpn requires y != z")
    zset = g.adjsets[z]
    pos = sigma.pos
    best = None
    best_pos = None
    for w in g.neighbors(y):
        if w == z or w in zset:
            continue
        if best_pos is None or pos[w] < best_pos:
            best = w
            best_pos = pos[w]
    return best


def lbfs_reachable(g: Graph, sigma: Ordering) -> bool:
    """Whether some start + tie-break sequence of generic LBFS yields sigma.

    Greedy simulation: sigma is reachable iff at every step its next
    vertex is tied for the lexicographically largest label.
    """
    n = g.n
    if len(sigma) != n:
        raise OrderingError("ordering does not cover the vertex set")
    if n == 0:
        return True
    labels: List[List[int]] = [[] for _ in range(n)]
    labels[sigma.seq[0]] = [n]
    unnumbered = set(range(n))
    adjsets = g.adjsets
    for step, u in enumerate(sigma.seq, start=1):
        lu = labels[u]
        for v in unnumbered:
            if labels[v] > lu:
                return False
        unnumbered.discard(u)
        stamp = n - step
        for w in adjsets[u]:
            if w in unnumbered:
                labels[w].append(stamp)
    return True


# -- compiled kernel ---------------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("_lbfs_kernel.c")


def kernel_backend() -> str:
    """``"c"`` when the compiled refinement kernel loads, else ``"python"``.

    The first call builds the kernel with ``$CC`` (default ``cc``) against
    this interpreter's headers, into a per-user cache directory; later
    calls and processes reuse the build.
    """
    return "c" if _kernel()[0] is not None else "python"


@functools.lru_cache(maxsize=None)
def _kernel():
    """The loaded C kernel as ``(function, None)``, or ``(None, reason)``."""
    cc = os.environ.get("CC", "cc")
    cc_path = shutil.which(cc)
    if cc_path is None:
        return None, f"no C compiler: {cc!r} is not on PATH"
    try:
        lib = ctypes.PyDLL(str(_build_kernel(cc_path)))
    except subprocess.CalledProcessError as exc:
        return None, f"{cc!r} failed to build the C kernel: {exc.stderr.strip()}"
    except OSError as exc:
        return None, f"the C kernel could not be built or loaded: {exc}"
    fn = lib.lbfs_refine
    # prio and out are int64 buffers: array("q") addresses, see _lbfs_c
    fn.argtypes = [ctypes.py_object, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    fn.restype = ctypes.c_int
    return fn, None


def _build_kernel(cc_path: str) -> Path:
    # The kernel reads Python tuples, so it is built against this
    # interpreter's headers. The library name hashes the source, the
    # compiler and the interpreter ABI, so a change to any of them builds
    # afresh. Building to a temporary name and renaming it into place
    # keeps concurrent worker processes from loading a half-written file.
    include = sysconfig.get_paths()["include"]
    parts = [
        _KERNEL_SOURCE.read_bytes(),
        os.path.realpath(cc_path).encode(),
        include.encode(),
        str(sysconfig.get_config_var("SOABI")).encode(),
    ]
    key = hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "lexsweep"
    lib = cache / f"lbfs_kernel-{key}.so"
    if lib.exists():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc_path, "-O2", "-shared", "-fPIC", "-I", include, "-o", tmp,
             str(_KERNEL_SOURCE)],
            check=True, capture_output=True, text=True,
        )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


@functools.lru_cache(maxsize=None)
def _warn_fallback(reason: str) -> None:
    warnings.warn(
        f"LBFS runs on the pure-Python core, not the C kernel: {reason}",
        RuntimeWarning,
        stacklevel=4,
    )


def _lbfs_c(kernel, g: Graph, start: int, prio: Sequence[int]) -> List[int]:
    prio_buf = array("q", prio)
    if len(prio_buf) != g.n:  # the kernel reads n entries
        raise ValueError(f"priority covers {len(prio_buf)} vertices, graph has {g.n}")
    out = array("q", [0]) * g.n
    rc = kernel(g.adj, start, prio_buf.buffer_info()[0], out.buffer_info()[0])
    if rc != 0:
        raise MemoryError(f"C kernel could not allocate its work arrays (n={g.n})")
    return out.tolist()
