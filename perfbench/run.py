"""lexsweep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lexsweep checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``ops_per_s``, ``op_p50_ms``, ``peak_rss_mb``); with ``--trace 1`` they
are the per-layer ones. The exit code is 0 when no operation failed. See
README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BUILD_REPEATS = 3  # builds of each input graph in the untraced run
IMPORT_PROBES = 5
MIN_ROUNDS = 3
CAL_EVERY_S = 0.1  # timed work between two calibration samples
CAL_WINDOW = 3  # an operation is scaled by the median of 2 * CAL_WINDOW + 1 samples
IMPORT_PROBE = (
    "import lexsweep, lexsweep.cli, lexsweep.search as s; print(s.kernel_backend())"
)
FAILURES_SHOWN = 10


def _import_time() -> float:
    """Wall time of a fresh interpreter that imports every lexsweep module
    and loads the compiled kernel (its cache is warm by then)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"importing lexsweep failed: {proc.stderr.strip()}")
    return elapsed


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=60)
    return proc.stdout.strip() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lexsweep").glob("*")):
        if path.suffix in (".py", ".c"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload, repeats: int, probes: int):
    """Build the input graphs ``repeats`` times and keep the last build.

    Returns the graphs and the set-up time: the median time of a fresh
    interpreter's import plus, for each input, the median build time. These
    times are not calibrated: most of an import is process start-up and file
    reads, which the calibration sample does not track.
    """
    imports = [_import_time() for _ in range(probes)]
    builds = 0.0
    graphs = []
    for item in workload.inputs:
        raw = item.make()
        graph = None
        times = []
        for _ in range(repeats):
            graph = None  # free the previous build first
            t0 = time.perf_counter()
            graph = item.build(raw)
            times.append(time.perf_counter() - t0)
        del raw
        graphs.append(graph)
        builds += statistics.median(times)
    return graphs, statistics.median(imports) + builds


class Runner:
    """Runs whole rounds of operations and checks every output."""

    def __init__(self, ops, calibration: str, tracer=None) -> None:
        self.ops = ops
        self.calibration = calibration
        self.tracer = tracer
        self.verdicts = {}  # (op index, output) -> problems, for cached ops
        self.times = [[] for _ in ops]  # per operation, one time per round
        self.cal_index = [[] for _ in ops]  # the calibration sample after each
        self.cal = []  # calibration sample times, in run order
        self.busy = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def round(self) -> None:
        clock = time.perf_counter
        state = {}
        since_cal = 0.0
        for index, op in enumerate(self.ops):
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.op = self.attempted
            out = None
            t0 = clock()
            try:
                out = op.run(state)
                dt = clock() - t0
            except Exception:  # one bad operation must not end the run
                dt = clock() - t0
                problems = ["raised: " + traceback.format_exc(limit=3).strip()]
            else:
                problems = self._check(index, op, state, out)
            state["last"] = out
            self.times[index].append(dt)
            self.cal_index[index].append(len(self.cal))
            self.busy += dt
            since_cal += dt
            if since_cal >= CAL_EVERY_S:
                self.cal.append(calibrate.sample(self.calibration))
                since_cal = 0.0
            if problems:
                self.failed += 1
                if len(self.failures) < FAILURES_SHOWN:
                    self.failures.append(f"{op.kind} #{index}: " + "; ".join(problems))
        self.rounds += 1

    def _check(self, index, op, state, out):
        key = (index, out) if op.cached else None
        if key is not None and key in self.verdicts:
            return self.verdicts[key]
        try:
            problems = op.check(state, out)
        except Exception:
            problems = ["check raised: " + traceback.format_exc(limit=3).strip()]
        if key is not None:
            self.verdicts[key] = problems
        return problems

    def run_for(self, seconds: float) -> None:
        """Whole rounds until at least ``seconds`` of timed work, and at
        least MIN_ROUNDS of them."""
        while self.busy < seconds or self.rounds < MIN_ROUNDS:
            self.round()

    def _times(self, scaled: bool):
        """Per operation, its times; scaled ones are multiplied by the
        calibration factor of their neighbourhood."""
        if not scaled:
            return self.times
        cal = self.cal + [calibrate.sample(self.calibration)]
        factor = [calibrate.scale(self.calibration, cal[max(0, k - CAL_WINDOW): k + CAL_WINDOW + 1])
                  for k in range(len(cal))]
        return [[t * factor[k] for t, k in zip(ts, ks)]
                for ts, ks in zip(self.times, self.cal_index)]

    def op_medians(self, scaled: bool):
        """Each operation's median time over the rounds, so that a burst of
        machine noise in one round does not move it."""
        return [statistics.median(ts) for ts in self._times(scaled)]

    def timed_total(self, scaled: bool) -> float:
        return sum(sum(ts) for ts in self._times(scaled))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lexsweep" / "__init__.py").is_file():
        print(f"perfbench: no lexsweep sources under {SRC}", file=sys.stderr)
        return 2
    # Keep the compiled kernel's build cache inside the checkout.
    os.environ["XDG_CACHE_HOME"] = str(ROOT / ".bench_build" / "cache")
    sys.path.insert(0, str(SRC))
    import lexsweep
    from lexsweep import search
    if Path(lexsweep.__file__).resolve().parent != (SRC / "lexsweep").resolve():
        print(f"perfbench: imported lexsweep from {lexsweep.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import lexsweep.cli  # noqa: F401  (every layer is loaded before tracing)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    backend = search.kernel_backend()  # builds the kernel on first use
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(), "source_digest": _source_digest(),
        "kernel_backend": backend,
    }
    print(json.dumps({"env": env}), flush=True)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if workload.needs_kernel and backend != "c":
        _, reason = search._kernel()
        print(f"perfbench: {args.workload} times the compiled LBFS kernel, but it "
              f"is unavailable ({reason}); refusing to report the pure-Python "
              f"fallback as a slowdown", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()  # so the set-up's graph builds count in graph.build_s
    try:
        if args.trace:
            graphs, setup_time = setup(workload, 1, 1)
        else:
            graphs, setup_time = setup(workload, BUILD_REPEATS, IMPORT_PROBES)
    finally:
        if tracer is not None:
            tracer.uninstall()
    ops = workload.round(graphs)
    runner = Runner(ops, workload.calibration)
    runner.run_for(args.seconds)
    peak_rss = _peak_rss_mb()
    medians = runner.op_medians(scaled=True)
    raw = runner.op_medians(scaled=False)
    record = dict(env, rounds=runner.rounds, ops_per_round=len(ops),
                  setup_s=setup_time, busy_s=runner.busy,
                  calibration=workload.calibration,
                  calibration_median_s=statistics.median(runner.cal or [0.0]),
                  unscaled_ops_per_s=len(raw) / sum(raw),
                  unscaled_op_p50_ms=1000 * statistics.median(raw),
                  per_kind=_per_kind(ops, medians), failures=runner.failures,
                  times=runner.times, cal=runner.cal, cal_index=runner.cal_index)

    if tracer is not None:
        traced = Runner(ops, workload.calibration, tracer)
        traced.verdicts = runner.verdicts
        tracer.install()
        try:
            for _ in range(runner.rounds):
                traced.round()
        finally:
            tracer.uninstall()
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in tracer.metrics().items()}
        overhead = traced.timed_total(scaled=True) - runner.timed_total(scaled=True)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl")
        runner.attempted += traced.attempted
        runner.failed += traced.failed
        record["failures"] += traced.failures
        record["traced_busy_s"] = traced.busy
    else:
        metrics = {
            "setup_s": {"value": setup_time, "unit": "s"},
            "ops_per_s": {"value": len(medians) / sum(medians), "unit": "op/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(medians), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }

    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(dict(record, result=result), indent=1) + "\n")
    for line in record["failures"]:
        print(f"perfbench: failed {line}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if runner.failed == 0 else 1


def _per_kind(ops, medians) -> dict:
    by_kind = {}
    for op, median in zip(ops, medians):
        by_kind.setdefault(op.kind, []).append(median)
    return {kind: {"ops": len(ts), "p50_ms": 1000 * statistics.median(ts),
                   "sum_s": sum(ts)}
            for kind, ts in by_kind.items()}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
