"""The compiled kernel: `_lbfs_kernel.c`, built on first use and loaded
with ctypes.

The library holds three functions, which share one packed graph format,
the CSR: a `bytes` object of native int32 words, the row offsets
``off[0..n]``, the order ``ord[0..n-1]`` and then the sorted rows (2m
words). The rows are numbered by internal ids: ``ord[q]`` is the vertex
at internal id q, row q sits at words ``2n + 1 + off[q]`` up to
``2n + 1 + off[q + 1]`` and holds internal ids.

- ``graph_adj(n, edges)``, called by `Graph.__init__` on a list of edges,
  returns ``(adj, csr)``: `Graph.adj` (sorted rows of shared int objects)
  and `Graph._csr`, its order the identity. It returns None at the first
  edge that is not a tuple or list of two ints, and the index of the first
  edge out of range or a self-loop. It raises ValueError unless n < 2**31
  and 2m < 2**31.
- ``lbfs_refine(csr, start, prior)``, called by `search._refine` for every
  LBFS, runs LBFS from ``start`` with ties toward the vertex rightmost in
  ``prior`` (a tuple or list). It returns ``(seq, pos)``, the visit order
  and its inverse, or None when ``prior`` is not a permutation of the
  vertices, and raises on any other malformed input, an order that is not
  a permutation included. Its arguments and results are in vertex ids, so
  the layout never shows. `search._lbfs_core` keeps the same contract on
  ``Graph.adj``, and `search._refine` wraps either pair as a trusted
  `Ordering`.
- ``csr_relayout(csr, seq)``, called by `search._refine` once per graph,
  after its first kernel sweep and with that sweep's ``seq``, returns the
  same rows laid out in the order ``seq``: its order section is ``seq``.

The library is built once per source, compiler and interpreter, as
``lbfs_kernel-<SOABI>-<hash>.so`` in ``$XDG_CACHE_HOME/lexsweep``; a
fresh build removes the libraries it supersedes (see `_build_kernel`),
and loading a built one does no other work. When the library cannot be
built or loaded, each caller runs its pure-Python fallback, which gives
identical output, after `_warn_fallback` has said why, once.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

_SOURCE = Path(__file__).with_name("_lbfs_kernel.c")


@functools.lru_cache(maxsize=None)
def _kernel():
    """The loaded library as ``(lib, None)``, or ``(None, reason)``.

    The first call builds it with ``$CC`` (default ``cc``) against this
    interpreter's headers, into a per-user cache directory; later calls
    and processes reuse the build.
    """
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
    lib.lbfs_refine.argtypes = [ctypes.py_object] * 3
    lib.graph_adj.argtypes = lib.csr_relayout.argtypes = [ctypes.py_object] * 2
    for fn in (lib.lbfs_refine, lib.graph_adj, lib.csr_relayout):
        fn.restype = ctypes.py_object
    return lib, None


def _build_kernel(cc_path: str) -> Path:
    # The kernel reads and returns Python objects, so it is built against
    # this interpreter's headers. The library name carries the interpreter
    # ABI tag and hashes the source, the compiler and the ABI, so a change
    # to any of them builds afresh. Building to a temporary name and
    # renaming it into place keeps concurrent worker processes from loading
    # a half-written file.
    include = sysconfig.get_paths()["include"]
    soabi = sysconfig.get_config_var("SOABI")
    parts = [
        _SOURCE.read_bytes(),
        os.path.realpath(cc_path).encode(),
        include.encode(),
        str(soabi).encode(),
    ]
    key = hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "lexsweep"
    lib = cache / f"lbfs_kernel-{soabi}-{key}.so"
    if lib.exists():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc_path, "-O2", "-shared", "-fPIC", "-I", include, "-o", tmp,
             str(_SOURCE)],
            check=True, capture_output=True, text=True,
        )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # the libraries this build supersedes: older builds for this ABI, and
    # those named before the name carried the ABI tag
    untagged = "lbfs_kernel-" + "[0-9a-f]" * 16 + ".so"
    for old in [*cache.glob(f"lbfs_kernel-{soabi}-*.so"), *cache.glob(untagged)]:
        if old != lib:
            old.unlink(missing_ok=True)  # a concurrent build may have been first
    return lib


@functools.lru_cache(maxsize=None)
def _warn_fallback(reason: str) -> None:
    # stacklevel 3 names the caller of Graph(...), which falls back first
    warnings.warn(
        f"graphs are built and LBFS runs on the pure-Python fallback, "
        f"not the C kernel: {reason}",
        RuntimeWarning,
        stacklevel=3,
    )
