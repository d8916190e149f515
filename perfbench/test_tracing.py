"""Tests of the layer tracer. Run with ``python3 -m pytest perfbench``."""
import lexsweep
from lexsweep import Graph, Ordering, classes, cli, lexcycle

from tracing import Tracer


def _path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_install_patches_every_binding_and_uninstall_restores():
    original = lexcycle.theorem_check
    original_step = lexcycle.SweepEngine.__dict__["step"]
    tracer = Tracer()
    tracer.install()
    try:
        for module in (lexsweep, lexcycle, cli):
            assert module.theorem_check is not original
        assert classes.is_cocomparability is lexsweep.is_cocomparability
        assert lexcycle.SweepEngine.__dict__["step"] is not original_step
    finally:
        tracer.uninstall()
    for module in (lexsweep, lexcycle, cli):
        assert module.theorem_check is original
    assert lexcycle.SweepEngine.__dict__["step"] is original_step


def test_counts_and_self_time():
    g = _path(6)
    tracer = Tracer()
    tracer.install()
    try:
        lexcycle.theorem_check(g, Ordering(range(6)))
        classes.is_cocomparability(g)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    # theorem_check: umbrella check, then four steps, each a fresh sweep
    assert m["lexcycle.step_calls"] >= 4
    assert 1 <= m["lexcycle.sweeps_computed"] <= m["lexcycle.step_calls"]
    assert 0 <= m["lexcycle.memo_hit_ratio"] < 1
    assert m["certify.umbrella_calls"] >= 2
    assert m["search.lbfs_calls"] == 1  # is_cocomparability's first sweep
    assert m["graph.build_calls"] == 0
    roots = [s for s in tracer.spans if s[1] == -1]
    assert [s[3] for s in roots] == ["lexcycle.theorem_check", "classes.is_cocomparability"]
    total = sum(s[5] - s[4] for s in roots)
    self_total = sum(tracer.self_time.values())
    assert abs(total - self_total) < 1e-9 * max(1, len(tracer.spans))


def test_draws_and_accept_ratio_through_the_cli(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        cli.main(["check-theorem", "--class", "p2p3bar-free-cocomp", "--count", "2",
                  "--n", "6", "--seed", "3", "--extra-starts", "1"])
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["classes.draws"] >= 2
    assert 0 < m["classes.accept_ratio"] <= 1
    assert m["classes.accept_ratio"] == 2 / m["classes.draws"]
    assert m["classes.classify_calls"] >= m["classes.draws"]
    assert m["cli.instance_s"] > 0 and m["cli.emit_s"] > 0 and m["io.graph6_s"] > 0
    assert capsys.readouterr().out.count("\n") == 3
