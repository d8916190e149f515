"""Layer tracing from outside lexsweep.

`Tracer.install()` replaces chosen public functions of lexsweep with timing
wrappers, in every lexsweep module namespace that binds them (``cli``,
``classes`` and ``lexcycle`` import functions by name, so patching the
defining module alone would miss their calls), and on the classes for the
two methods it traces. `uninstall()` puts the originals back.

Each call becomes a span (name, parent span, operation, start, end). Spans
stay in memory and are written once, by `write`. Self time, a span's
duration minus the time covered by its child spans, is summed per traced
function as the calls happen.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from typing import Dict, List, Tuple

# traced name -> (module, attribute); "Class.method" attributes are methods
TARGETS: Dict[str, Tuple[str, str]] = {
    "graph.build": ("lexsweep.graph", "Graph.__init__"),
    "graph.find_induced": ("lexsweep.graph", "find_induced"),
    "graph.girth": ("lexsweep.graph", "girth"),
    "graph.complement": ("lexsweep.graph", "complement"),
    "io.to_graph6": ("lexsweep.io", "to_graph6"),
    "io.from_graph6": ("lexsweep.io", "from_graph6"),
    "search.lbfs": ("lexsweep.search", "lbfs"),
    "search.lbfs_plus": ("lexsweep.search", "lbfs_plus"),
    "certify.umbrella": ("lexsweep.certify", "is_umbrella_free"),
    "certify.flip": ("lexsweep.certify", "check_flip_pair"),
    "lexcycle.step": ("lexsweep.lexcycle", "SweepEngine.step"),
    "lexcycle.theorem_check": ("lexsweep.lexcycle", "theorem_check"),
    "lexcycle.exact": ("lexsweep.lexcycle", "lexcycle_exact"),
    "lexcycle.sampled": ("lexsweep.lexcycle", "lexcycle_sampled"),
    "classes.classify": ("lexsweep.classes", "classify"),
    "classes.is_cocomparability": ("lexsweep.classes", "is_cocomparability"),
    "classes.is_interval": ("lexsweep.classes", "is_interval"),
    "classes.pattern_free": ("lexsweep.classes", "pattern_free"),
    "classes.cocomp_oracle": ("lexsweep.classes", "cocomp_oracle"),
    "classes.gen_poset_cocomp": ("lexsweep.classes", "gen_poset_cocomp"),
    "classes.gen_interval": ("lexsweep.classes", "gen_interval"),
    "classes.gen_rejection": ("lexsweep.classes", "gen_rejection"),
    "cli.main": ("lexsweep.cli", "main"),
    "cli.emit": ("lexsweep.cli", "_emit"),
}

# per-layer self-time metric -> the traced names it sums
SELF_TIME = {
    "graph.build_s": ("graph.build",),
    "graph.find_induced_s": ("graph.find_induced",),
    "graph.girth_s": ("graph.girth",),
    "graph.complement_s": ("graph.complement",),
    "io.graph6_s": ("io.to_graph6", "io.from_graph6"),
    "search.lbfs_s": ("search.lbfs", "search.lbfs_plus"),
    "certify.umbrella_s": ("certify.umbrella",),
    "certify.flip_s": ("certify.flip",),
    "lexcycle.step_s": ("lexcycle.step",),
    "lexcycle.theorem_check_s": ("lexcycle.theorem_check",),
    "lexcycle.exact_s": ("lexcycle.exact",),
    "lexcycle.sampled_s": ("lexcycle.sampled",),
    "classes.classify_s": ("classes.classify",),
    "classes.recognize_s": (
        "classes.is_cocomparability", "classes.is_interval", "classes.pattern_free",
    ),
    "classes.oracle_s": ("classes.cocomp_oracle",),
    "classes.generate_s": (
        "classes.gen_poset_cocomp", "classes.gen_interval", "classes.gen_rejection",
    ),
    "cli.instance_s": ("cli.main",),
    "cli.emit_s": ("cli.emit",),
}

CALLS = {
    "graph.build_calls": "graph.build",
    "graph.find_induced_calls": "graph.find_induced",
    "search.lbfs_calls": "search.lbfs",
    "certify.umbrella_calls": "certify.umbrella",
    "lexcycle.step_calls": "lexcycle.step",
    "classes.draws": "classes.gen_poset_cocomp",
    "classes.classify_calls": "classes.classify",
}

# Spans kept for the trace file; later spans still count in the totals.
MAX_SPANS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.self_time: Dict[str, float] = {name: 0.0 for name in TARGETS}
        self.calls: Dict[str, int] = {name: 0 for name in TARGETS}
        self.sweeps_computed = 0
        self.accepted = 0  # gen_rejection calls that returned a sample
        self.rejection_draws = 0  # gen_poset_cocomp calls made by gen_rejection
        self.spans: List[tuple] = []
        self.dropped = 0
        self.op = -1
        self._stack: List[list] = []  # [span id, child time, name] per open span
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        stack = self._stack
        if (name == "classes.gen_poset_cocomp" and stack
                and stack[-1][2] == "classes.gen_rejection"):
            self.rejection_draws += 1
        frame = [self._next_id, 0.0, name]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][1] += dur
        self.self_time[name] += dur - frame[1]
        self.calls[name] += 1
        if len(self.spans) < MAX_SPANS:
            parent = stack[-1][0] if stack else -1
            self.spans.append((frame[0], parent, self.op, name, t0, t1))
        else:
            self.dropped += 1

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        if name == "lexcycle.step":
            @functools.wraps(fn)
            def traced(engine, prior):
                frame = tracer._enter(name)
                before = len(engine.cache)
                t0 = clock()
                try:
                    return fn(engine, prior)
                finally:
                    t1 = clock()
                    tracer.sweeps_computed += len(engine.cache) > before
                    tracer._exit(name, frame, t0, t1)
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, t0, clock())
            if name == "classes.gen_rejection":
                tracer.accepted += 1
            return out
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "lexsweep" or key.startswith("lexsweep.")]
        for name, (modname, attr) in TARGETS.items():
            home = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self.self_time[n] for n in names)
        for metric, name in CALLS.items():
            out[metric] = self.calls[name]
        steps = self.calls["lexcycle.step"]
        out["lexcycle.sweeps_computed"] = self.sweeps_computed
        out["lexcycle.memo_hit_ratio"] = 1 - self.sweeps_computed / steps if steps else 0.0
        draws = self.rejection_draws
        out["classes.accept_ratio"] = self.accepted / draws if draws else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped,
                                 "fields": ["id", "parent", "op", "name", "t0", "t1"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
