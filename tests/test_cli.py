import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import lexsweep
from lexsweep import Graph, Ordering, from_graph6, theorem_check, to_graph6
import lexsweep.cli as cli
from lexsweep.cli import main

from conftest import complete, cycle, path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestGenerate:
    def test_named_ladder(self, capsys):
        code, out, _ = run(capsys, ["generate", "--named", "k_ladder", "--k", "3"])
        assert code == 0
        g = from_graph6(out.strip())
        assert g.n == 8 and g.m == 10

    def test_named_cycle(self, capsys):
        code, out, _ = run(capsys, ["generate", "--named", "cycle", "--k", "5"])
        assert code == 0 and from_graph6(out.strip()) == cycle(5)

    def test_class_interval_with_witness_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "batch.g6"
        code, _, _ = run(
            capsys,
            ["generate", "--class", "interval", "--n", "8", "--count", "3",
             "--seed", "4", "--output", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        for i in range(3):
            side = tmp_path / f"batch.g6.{i}.witness"
            model = [tuple(map(float, ln.split()))
                     for ln in side.read_text().splitlines()]
            g = from_graph6(lines[i])
            assert len(model) == g.n
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    lu, hu = model[u]
                    lv, hv = model[v]
                    assert g.has_edge(u, v) == (lu <= hv and lv <= hu)

    def test_class_cocomp_witness_is_ordering(self, capsys, tmp_path):
        out_path = tmp_path / "c.g6"
        code, _, _ = run(
            capsys,
            ["generate", "--class", "cocomp", "--n", "7", "--count", "2",
             "--seed", "1", "--output", str(out_path)],
        )
        assert code == 0
        side = (tmp_path / "c.g6.0.witness").read_text().split()
        assert side[0] == "ordering" and len(side) == 8

    def test_exhaustion_reports_error(self, capsys):
        code, out, err = run(
            capsys,
            ["generate", "--class", "girth4-cocomp", "--n", "8", "--p", "0.0",
             "--count", "1", "--budget", "3"],
        )
        assert code == 1
        assert records(err)[0]["error"] == "generation-exhausted"

    def test_needs_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate"])
        capsys.readouterr()


class TestLexcycle:
    def test_exact_k3(self, capsys, tmp_path):
        inp = tmp_path / "g.g6"
        inp.write_text(to_graph6(complete(3)) + "\n")
        code, out, _ = run(
            capsys, ["lexcycle", "--exact", "--input", str(inp)]
        )
        assert code == 0
        rec = records(out)[0]
        assert rec["value"] == 2 and rec["mode"] == "exact"
        assert rec["starts_examined"] == 6

    def test_exact_guard_exits_2(self, capsys, tmp_path):
        inp = tmp_path / "g.g6"
        inp.write_text(to_graph6(Graph(10)) + "\n")
        code, out, err = run(
            capsys, ["lexcycle", "--exact", "--input", str(inp)]
        )
        assert code == 2 and records(err)[0]["error"] == "size-guard"

    def test_sampled_deterministic(self, capsys, tmp_path):
        inp = tmp_path / "g.g6"
        inp.write_text(to_graph6(cycle(6)) + "\n")
        _, out1, _ = run(
            capsys,
            ["lexcycle", "--sampled", "--trials", "8", "--seed", "9",
             "--input", str(inp)],
        )
        _, out2, _ = run(
            capsys,
            ["lexcycle", "--sampled", "--trials", "8", "--seed", "9",
             "--input", str(inp)],
        )
        assert out1 == out2

    def test_plain_format(self, capsys, tmp_path):
        inp = tmp_path / "g.g6"
        inp.write_text(to_graph6(path(4)) + "\n")
        code, out, _ = run(
            capsys,
            ["--format", "plain", "lexcycle", "--exact", "--input", str(inp)],
        )
        assert code == 0 and out.startswith("[lexcycle]") and "value=2" in out


class TestCheckTheorem:
    def test_record_shape_and_aggregate(self, capsys):
        code, out, _ = run(
            capsys,
            ["check-theorem", "--class", "cocomp", "--count", "5", "--n-min",
             "3", "--n-max", "8", "--p", "0.5", "--seed", "7"],
        )
        assert code == 0
        recs = records(out)
        assert len(recs) == 6
        for rec in recs[:-1]:
            assert rec["record"] == "instance"
            assert rec["verdict"] == "pass"
            assert rec["starts_checked"] == 4
            assert len(rec["verdicts"]) == 4
        agg = recs[-1]
        assert agg["record"] == "aggregate"
        assert agg["pass"] == 5 and agg["fail"] == 0
        assert agg["config"]["seed"] == 7

    def test_repeated_calls_do_not_share_arguments(self, capsys):
        # the parser is built once per process; appended --p values must
        # not carry over from one call to the next
        base = ["check-theorem", "--class", "cocomp", "--count", "1", "--n", "4"]
        for ps in (["0.3", "0.4"], ["0.6"]):
            argv = base + [a for p in ps for a in ("--p", p)]
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert records(out)[-1]["config"]["p"] == [float(p) for p in ps]

    def test_failure_record_replays(self, capsys):
        # force replayability check on whatever instances come out
        code, out, _ = run(
            capsys,
            ["check-theorem", "--class", "p2p3bar-free-cocomp", "--count", "4",
             "--n", "6", "--p", "0.8", "--seed", "2"],
        )
        assert code == 0
        for rec in records(out)[:-1]:
            g = from_graph6(rec["graph6"])
            assert "theorem-3.1-applicable" in rec["tags"]
            # replay the witness start and confirm the recorded verdict
            assert theorem_check(g, Ordering(range(g.n))).verdict in (
                "pass", "not-applicable"
            )

    def test_seed_determinism_and_jobs_equivalence(self, capsys):
        argv = ["check-theorem", "--class", "interval", "--count", "6",
                "--n-min", "2", "--n-max", "10", "--seed", "13"]
        _, serial, _ = run(capsys, argv)
        _, again, _ = run(capsys, argv)
        _, parallel, _ = run(capsys, argv + ["--jobs", "2"])
        assert serial == again == parallel

    def test_failed_start_search_is_one_error_record(self, capsys, monkeypatch):
        real = cli._random_cocomp_starts
        calls = []

        def fail_second_call(g, count, rng):
            calls.append(g)
            if len(calls) == 2:
                raise RuntimeError("could not find umbrella-free sweeps")
            return real(g, count, rng)

        monkeypatch.setattr(cli, "_random_cocomp_starts", fail_second_call)
        code, out, _ = run(
            capsys,
            ["check-theorem", "--class", "cocomp", "--count", "3", "--n", "5",
             "--seed", "0"],
        )
        assert code == 1
        recs = records(out)
        assert [r["index"] for r in recs[:-1]] == [0, 1, 2]
        assert [r["verdict"] for r in recs[:-1]] == ["pass", "error", "pass"]
        assert recs[1]["error"] == "start-search-exhausted"
        assert from_graph6(recs[1]["graph6"]) == calls[1]
        assert (recs[-1]["pass"], recs[-1]["error"]) == (2, 1)

    def test_records_are_written_as_they_are_made(self, capsys, monkeypatch):
        real = cli._theorem_instance
        written = []  # lines written before each instance starts

        def spy(*args):
            written.append(capsys.readouterr().out.count("\n"))
            return real(*args)

        monkeypatch.setattr(cli, "_theorem_instance", spy)
        main(["check-theorem", "--class", "interval", "--count", "3", "--n", "5"])
        assert written == [0, 1, 1]

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run(
            capsys,
            ["check-theorem", "--class", "cocomp", "--count", "2", "--n", "5",
             "--seed", "0", "--output", str(out_path)],
        )
        assert code == 0
        assert records(out_path.read_text())[-1]["record"] == "aggregate"


class TestCertify:
    def _input(self, tmp_path, g):
        inp = tmp_path / "g.g6"
        inp.write_text(to_graph6(g) + "\n")
        return str(inp)

    def test_umbrella_pass_exit_0(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["certify", "--check", "umbrella", "--ordering", "0 1 2 3",
             "--input", self._input(tmp_path, path(4))],
        )
        assert code == 0 and records(out)[0]["verdict"] == "pass"

    def test_umbrella_fail_exit_1(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["certify", "--check", "umbrella", "--ordering", "1 3 0 2",
             "--input", self._input(tmp_path, path(4))],
        )
        assert code == 1
        assert records(out)[0]["witness"] == {"triple": [1, 3, 0]}

    def test_c4_not_applicable_exit_2(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["certify", "--check", "c4", "--ordering", "1 3 0 2",
             "--input", self._input(tmp_path, path(4))],
        )
        assert code == 2
        assert records(out)[0]["verdict"] == "not-applicable"

    def test_flip_needs_second_ordering(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["certify", "--check", "flip", "--ordering", "0 1 2 3",
             "--input", self._input(tmp_path, path(4))],
        )
        assert code == 2 and records(err)[0]["error"] == "OrderingError"

    def test_flip_pass(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["certify", "--check", "flip", "--ordering", "0 1 2 3",
             "--ordering2", "3 2 1 0",
             "--input", self._input(tmp_path, path(4))],
        )
        assert code == 0 and records(out)[0]["verdict"] == "pass"

    def test_lbfs_check(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["certify", "--check", "lbfs", "--ordering", "0 2 1 3",
             "--input", self._input(tmp_path, path(4))],
        )
        assert code == 1 and records(out)[0]["witness"] == {"triple": [0, 2, 1]}

    def test_bad_ordering_text(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["certify", "--check", "umbrella", "--ordering", "0 1 banana",
             "--input", self._input(tmp_path, path(3))],
        )
        assert code == 2 and records(err)[0]["error"] == "OrderingError"


class TestRecognize:
    def test_c5_and_c4(self, capsys, tmp_path):
        inp = tmp_path / "g.g6"
        inp.write_text(to_graph6(cycle(5)) + "\n" + to_graph6(cycle(4)) + "\n")
        code, out, _ = run(capsys, ["recognize", "--input", str(inp)])
        assert code == 0
        recs = records(out)
        assert recs[0]["cocomp_witness"] is None
        assert "cocomparability" not in recs[0]["tags"]
        witness = recs[1]["cocomp_witness"]
        assert sorted(witness) == [0, 1, 2, 3]
        assert "theorem-3.1-applicable" in recs[1]["tags"]

    def test_garbage_input(self, capsys, tmp_path):
        inp = tmp_path / "g.g6"
        inp.write_text("\x01\x02 nonsense\n")
        code, _, err = run(capsys, ["recognize", "--input", str(inp)])
        assert code == 2 and records(err)[0]["error"] == "FormatError"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Seeded commands whose records must stay byte-identical: the sha256 of the
# records before the aggregate footer, the footer's (count, pass, fail,
# not_applicable, error) and the exit code. The cocomp run emits one
# failure record.
SEEDED_THEOREM_RUNS = [
    (
        ["--class", "p2p3bar-free-cocomp", "--count", "100", "--n-min", "2",
         "--n-max", "12", "--seed", "0"],
        "c2dbbdce024d5426204a7cbb95e9fa6dd53871849cb961d46f88e5baeaff7581",
        (100, 100, 0, 0, 0),
        0,
    ),
    (
        ["--class", "interval", "--count", "100", "--seed", "0"],
        "154c244b2a6138e5eb79dc6c9e119576098e673231ba51c2e592c2f13fd48659",
        (100, 100, 0, 0, 0),
        0,
    ),
    (
        ["--class", "cocomp", "--count", "50", "--seed", "5", "--extra-starts", "2"],
        "9bf43ab90656b26282cdd72b7a4d074787ab112e92af296183af23ef5fef0235",
        (50, 49, 1, 0, 0),
        1,
    ),
]


class TestSeededOutput:
    @pytest.mark.parametrize(
        "args, digest, counts, exit_code", SEEDED_THEOREM_RUNS,
        ids=["p2p3bar-free-cocomp", "interval", "cocomp"],
    )
    def test_check_theorem_records(self, capsys, args, digest, counts, exit_code):
        bodies = []
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, ["check-theorem", *args, "--jobs", jobs])
            assert code == exit_code
            *body, footer = out.splitlines(keepends=True)
            agg = json.loads(footer)
            assert agg["record"] == "aggregate"
            assert (agg["count"], agg["pass"], agg["fail"], agg["not_applicable"],
                    agg["error"]) == counts
            bodies.append(body)
        assert bodies[0] == bodies[1]
        assert sha256("".join(bodies[0])) == digest

    def test_lexcycle_exact_records(self, capsys, monkeypatch):
        _, graph6, _ = run(capsys, ["generate", "--named", "k_ladder", "--k", "4"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(graph6))
        code, out, _ = run(capsys, ["lexcycle", "--exact"])
        assert code == 0
        assert sha256(out) == (
            "bc0bc287069604d3c9a1dd0480beae5d4926c1498669c6e51b4857e982c91efd"
        )


def test_import_leaves_out_process_pools():
    # concurrent.futures pulls in multiprocessing; only --jobs > 1 needs it
    src_root = os.path.dirname(os.path.dirname(lexsweep.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    code = ("import sys, lexsweep.cli; "
            "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False"]
