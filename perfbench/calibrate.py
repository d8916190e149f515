"""Machine-speed calibration.

The speed of the machine this benchmark was built on drifts by a quarter
and more for tens of seconds to minutes at a time (other tenants share its
cores and caches), and a slow phase can last a whole run, so no statistic
inside one run removes it. The runner therefore takes calibration samples
between operations and scales each time it reports by
``nominal / (median of the samples nearby)``: the time the operation would
have taken on a machine where one sample takes the nominal time.

There are two kinds of sample, and a workload uses the one that slows down
with the machine the way its own work does:

- ``interpreter``: the benchmark's own reference LBFS+ and induced-pattern
  search on fixed small graphs, for workloads whose time is in lexsweep's
  Python code;
- ``memory``: a numpy gather at random positions of a 16 MB array, for the
  workload whose time is in the compiled kernel walking a large graph.

Neither uses lexsweep, so no change to lexsweep moves them. A sample runs
once untimed and once timed, with the garbage collector off.
"""
from __future__ import annotations

import gc
import random
import statistics
import time

import numpy as np

import reference

# One timed sample on the machine the reference figures come from (see
# README.md); the reported times are times on a machine this fast.
NOMINAL_S = {"interpreter": 0.002, "memory": 0.003}

_rng = random.Random(0)
_ADJ60 = reference.adjacency(60, [(i, j) for i in range(60) for j in range(i + 1, 60)
                                  if _rng.random() < 0.2])
_ADJ12 = reference.adjacency(12, [(i, j) for i in range(12) for j in range(i + 1, 12)
                                  if _rng.random() < 0.5])
_gather = []  # [array, positions], made on first use of the memory sample


def _interpreter() -> None:
    for _ in range(3):
        reference.lbfs_plus(_ADJ60, tuple(range(60)))
        reference.has_induced_p2p3bar(_ADJ12)


def _memory() -> None:
    if not _gather:
        _gather.append(np.random.default_rng(0).integers(0, 1 << 30, size=2_000_000))
        _gather.append(np.random.default_rng(1).integers(0, 2_000_000, size=200_000))
    table, positions = _gather
    table[positions].sum()


_WORK = {"interpreter": _interpreter, "memory": _memory}


def sample(kind: str) -> float:
    work = _WORK[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        work()
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(kind: str, samples) -> float:
    """Factor that turns a time measured next to ``samples`` into a
    nominal-speed time."""
    return NOMINAL_S[kind] / statistics.median(samples)
