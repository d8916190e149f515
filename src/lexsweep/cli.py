"""Command-line surface: generate, lexcycle, check-theorem, certify, recognize.

Reports are line-delimited JSON records (one record per instance, an
aggregate footer last); ``--format plain`` switches to human summaries.
Per-instance seeds are derived as master seed + instance index.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, TextIO

from . import __version__
from .certify import (
    BadTriple,
    check_c4_property,
    check_flip_pair,
    is_lbfs_ordering,
    is_umbrella_free,
)
from .classes import (
    GenerationExhausted,
    TAG_COCOMP,
    TAG_DIAMOND_FREE,
    TAG_GIRTH_GE_4,
    TAG_THEOREM,
    _random_cocomp_starts,
    classify,
    gen_interval,
    gen_rejection,
    is_cocomparability,
    named,
)
from .graph import Graph, GraphError
from .io import FormatError, from_graph6, to_graph6
from .lexcycle import (
    SizeGuardError,
    lexcycle_exact,
    lexcycle_sampled,
    theorem_check,
)
from .search import Ordering, OrderingError

CLASS_CHOICES = (
    "interval",
    "cocomp",
    "p2p3bar-free-cocomp",
    "diamond-free-cocomp",
    "girth4-cocomp",
)

_CLASS_PREDICATE = {
    "cocomp": TAG_COCOMP,
    "p2p3bar-free-cocomp": TAG_THEOREM,
    "diamond-free-cocomp": TAG_DIAMOND_FREE,
    "girth4-cocomp": TAG_GIRTH_GE_4,
}

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_NOT_APPLICABLE = 2


def _emit(record: dict, args, out: TextIO) -> None:
    if args.format == "plain":
        kind = record.get("record", "result")
        body = " ".join(
            f"{k}={record[k]}" for k in sorted(record) if k != "record"
        )
        print(f"[{kind}] {body}", file=out)
    else:
        print(json.dumps(record, sort_keys=True), file=out)


def _read_graphs(args) -> List[Graph]:
    if getattr(args, "input", None):
        with open(args.input) as fh:
            lines = fh.read().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    graphs = []
    for line in lines:
        if line.strip():
            graphs.append(from_graph6(line))
    return graphs


def _parse_ordering(text: str, n: int) -> Ordering:
    try:
        seq = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise OrderingError(f"malformed ordering: {text!r}") from exc
    if len(seq) != n:
        raise OrderingError(f"ordering covers {len(seq)} vertices, graph has {n}")
    return Ordering(seq)


def _witness_lines(sample) -> List[str]:
    if sample.interval_model is not None:
        return [f"{lo:g} {hi:g}" for lo, hi in sample.interval_model]
    return ["ordering " + " ".join(map(str, sample.witness_ordering.seq))]


def _generate_sample(cls: str, n: int, p: float, seed: int, budget: int):
    if cls == "interval":
        return gen_interval(n, seed)
    return gen_rejection(n, p, seed, _CLASS_PREDICATE[cls], budget=budget)


def cmd_generate(args) -> int:
    out = open(args.output, "w") if args.output else sys.stdout
    status = EXIT_PASS
    try:
        if args.named:
            g = named(args.named, args.k)
            print(to_graph6(g), file=out)
            return EXIT_PASS
        for i in range(args.count):
            seed = args.seed + i
            try:
                sample = _generate_sample(
                    args.cls, args.n, args.p, seed, args.budget
                )
            except GenerationExhausted as exc:
                _emit(
                    {
                        "record": "error",
                        "index": i,
                        "error": "generation-exhausted",
                        "detail": str(exc),
                    },
                    args,
                    sys.stderr,
                )
                status = EXIT_FAIL
                continue
            print(to_graph6(sample.graph), file=out)
            if args.output:
                with open(f"{args.output}.{i}.witness", "w") as wf:
                    wf.write("\n".join(_witness_lines(sample)) + "\n")
        return status
    finally:
        if args.output:
            out.close()


def cmd_lexcycle(args) -> int:
    graphs = _read_graphs(args)
    status = EXIT_PASS
    for g in graphs:
        try:
            if args.exact:
                est = lexcycle_exact(g)
            else:
                est = lexcycle_sampled(g, args.trials, args.seed)
        except SizeGuardError as exc:
            _emit(
                {"record": "error", "error": "size-guard", "detail": str(exc)},
                args,
                sys.stderr,
            )
            status = EXIT_NOT_APPLICABLE
            continue
        _emit(
            {
                "record": "lexcycle",
                "graph6": to_graph6(g),
                "n": g.n,
                "mode": est.mode,
                "value": est.value,
                "starts_examined": est.starts_examined,
                "argmax_start": list(est.argmax_start.seq)
                if est.argmax_start is not None
                else None,
            },
            args,
            sys.stdout,
        )
    return status


def _theorem_instance(params) -> dict:
    (cls, n_min, n_max, p_choices, master_seed, index, extra, budget) = params
    seed = master_seed + index
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    p = rng.choice(p_choices)
    record = {"record": "instance", "index": index, "seed": seed, "n": n, "p": p}
    try:
        sample = _generate_sample(cls, n, p, seed, budget)
    except GenerationExhausted as exc:
        record.update(verdict="error", error="generation-exhausted", detail=str(exc))
        return record
    g = sample.graph
    starts = [sample.witness_ordering]
    if extra > 0:
        try:
            starts.extend(_random_cocomp_starts(g, extra, rng))
        except RuntimeError as exc:  # no umbrella-free sweep found
            record.update(
                graph6=to_graph6(g),
                verdict="error",
                error="start-search-exhausted",
                detail=str(exc),
            )
            return record
    verdicts = []
    failures = []
    for pi in starts:
        rep = theorem_check(g, pi)
        verdicts.append(rep.verdict)
        if rep.verdict == "fail":
            failures.append(
                {
                    "pi": list(pi.seq),
                    "sweeps": [list(s.seq) for s in rep.sweeps],
                    "diff_pos": rep.diff_pos,
                    "diff_pair": list(rep.diff_pair),
                }
            )
        elif rep.verdict == "not-applicable":
            failures.append(
                {"pi": list(pi.seq), "na_witness": _witness_json(rep.na_witness)}
            )
    overall = "pass"
    if "fail" in verdicts:
        overall = "fail"
    elif "not-applicable" in verdicts:
        overall = "not-applicable"
    record.update(
        graph6=to_graph6(g),
        tags=sorted(classify(g)),
        starts_checked=len(starts),
        verdicts=verdicts,
        verdict=overall,
    )
    if failures:
        record["failures"] = failures
    return record


def cmd_check_theorem(args) -> int:
    n_min = args.n_min if args.n_min is not None else args.n
    n_max = args.n_max if args.n_max is not None else args.n
    p_choices = tuple(args.p) if args.p else (0.5,)
    params = [
        (
            args.cls,
            n_min,
            n_max,
            p_choices,
            args.seed,
            i,
            args.extra_starts,
            args.budget,
        )
        for i in range(args.count)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_theorem_instance, params))
    else:
        records = [_theorem_instance(p) for p in params]
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        counts = {"pass": 0, "fail": 0, "not-applicable": 0, "error": 0}
        for record in records:
            counts[record["verdict"]] += 1
            _emit(record, args, out)
        _emit(
            {
                "record": "aggregate",
                "version": __version__,
                "count": args.count,
                "pass": counts["pass"],
                "fail": counts["fail"],
                "not_applicable": counts["not-applicable"],
                "error": counts["error"],
                "config": {
                    "class": args.cls,
                    "n_min": n_min,
                    "n_max": n_max,
                    "p": list(p_choices),
                    "seed": args.seed,
                    "extra_starts": args.extra_starts,
                },
            },
            args,
            out,
        )
    finally:
        if args.output:
            out.close()
    return EXIT_PASS if counts["fail"] == 0 and counts["error"] == 0 else EXIT_FAIL


def _witness_json(witness) -> object:
    if isinstance(witness, BadTriple):
        return {"triple": list(witness.as_tuple())}
    if isinstance(witness, tuple):
        return list(
            _witness_json(w) if isinstance(w, (BadTriple, tuple)) else w
            for w in witness
        )
    return witness


def cmd_certify(args) -> int:
    graphs = _read_graphs(args)
    if not graphs:
        raise FormatError("certify needs exactly one input graph")
    g = graphs[0]
    sigma = _parse_ordering(args.ordering, g.n)
    if args.check == "umbrella":
        rep = is_umbrella_free(g, sigma)
    elif args.check == "lbfs":
        rep = is_lbfs_ordering(g, sigma)
    elif args.check == "c4":
        rep = check_c4_property(g, sigma)
    else:  # flip
        if not args.ordering2:
            raise OrderingError("--check flip needs --ordering2")
        tau = _parse_ordering(args.ordering2, g.n)
        rep = check_flip_pair(g, sigma, tau)
    _emit(
        {
            "record": "certify",
            "check": args.check,
            "graph6": to_graph6(g),
            "verdict": rep.verdict,
            "witness": _witness_json(rep.witness),
        },
        args,
        sys.stdout,
    )
    if rep.verdict == "pass":
        return EXIT_PASS
    if rep.verdict == "fail":
        return EXIT_FAIL
    return EXIT_NOT_APPLICABLE


def cmd_recognize(args) -> int:
    for g in _read_graphs(args):
        verdict, witness = is_cocomparability(g)
        _emit(
            {
                "record": "recognize",
                "graph6": to_graph6(g),
                "n": g.n,
                "tags": sorted(classify(g)),
                "cocomp_witness": list(witness.seq) if witness else None,
            },
            args,
            sys.stdout,
        )
    return EXIT_PASS


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    # Built once per process; safe to share because parsing leaves the
    # parser unchanged and no argument has a mutable default.
    parser = argparse.ArgumentParser(
        prog="lexsweep",
        description="Multi-sweep LBFS toolkit: generators, orbit dynamics, "
        "certificates, and cocomparability recognition.",
    )
    parser.add_argument("--format", choices=("jsonl", "plain"), default="jsonl")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit graph6 samples with witnesses")
    g.add_argument("--class", dest="cls", choices=CLASS_CHOICES)
    g.add_argument("--named", choices=("path", "cycle", "complete", "k_ladder",
                                       "p2p3bar", "diamond", "domino"))
    g.add_argument("--k", type=int, default=None)
    g.add_argument("--n", type=int, default=10)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--budget", type=int, default=1000)
    g.add_argument("--output", default=None)
    g.set_defaults(func=cmd_generate)

    l = sub.add_parser("lexcycle", help="terminal-cycle length of input graphs")
    l.add_argument("--input", default=None)
    mode = l.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--sampled", action="store_true")
    l.add_argument("--trials", type=int, default=50)
    l.add_argument("--seed", type=int, default=0)
    l.set_defaults(func=cmd_lexcycle)

    t = sub.add_parser("check-theorem", help="sigma_1 = sigma_3 experiment")
    t.add_argument("--class", dest="cls", choices=CLASS_CHOICES, required=True)
    t.add_argument("--count", type=int, default=100)
    t.add_argument("--n", type=int, default=10)
    t.add_argument("--n-min", type=int, default=None)
    t.add_argument("--n-max", type=int, default=None)
    t.add_argument("--p", type=float, action="append", default=None)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--extra-starts", type=int, default=3)
    t.add_argument("--budget", type=int, default=1000)
    t.add_argument("--jobs", type=int, default=1)
    t.add_argument("--output", default=None)
    t.set_defaults(func=cmd_check_theorem)

    c = sub.add_parser("certify", help="check an ordering against a certificate")
    c.add_argument("--input", default=None)
    c.add_argument("--check", choices=("umbrella", "lbfs", "flip", "c4"),
                   required=True)
    c.add_argument("--ordering", required=True)
    c.add_argument("--ordering2", default=None)
    c.set_defaults(func=cmd_certify)

    r = sub.add_parser("recognize", help="class tags and cocomparability witness")
    r.add_argument("--input", default=None)
    r.set_defaults(func=cmd_recognize)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and bool(args.cls) == bool(args.named):
        parser.error("generate needs exactly one of --class / --named")
    try:
        return args.func(args)
    except (GraphError, OrderingError, FormatError, SizeGuardError) as exc:
        print(
            json.dumps({"record": "error", "error": type(exc).__name__,
                        "detail": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_NOT_APPLICABLE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
