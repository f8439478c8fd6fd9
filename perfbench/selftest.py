"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; the failure-accounting test runs the two n = 64 ladder tasks
(about 20 s).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SCRATCH = HERE / "out" / "selftest"


def _workdir(name: str) -> Path:
    d = SCRATCH / name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def _untraced(run_pass, inputs, index=0):
    p = wl.Pass()
    run_pass(inputs, p, index)
    return p


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    # task [0, 10] > a [1, 4] > b [2, 3]; task > c [5, 6]
    for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0),
                                     (2, 1, 2.0, 3.0), (1, 0, 5.0, 6.0)):
        t.name.append(name)
        t.parent.append(parent)
        t.task.append(0)
        t.start.append(start)
        t.end.append(end)
    t.names += ["a", "b"]
    per = t.per_name()
    assert per[tracing.TASK_SPAN] == {"calls": 1, "self_s": 6.0}
    assert per["a"] == {"calls": 2, "self_s": 3.0}
    assert per["b"] == {"calls": 1, "self_s": 1.0}


def test_known_failures_are_counted_and_the_pass_goes_on():
    # denoise at n = 64 raises QuadratureError out of cli.main; solve at
    # n = 64 stalls in the residual polish and exits 1.  The raising task
    # runs first, so a harness that stops at an exception never runs the second.
    inputs = wl.setup_cli_ladder(wl.DATA_SEED, _workdir("failures"), ns=(64,),
                                 commands=("denoise", "solve"))
    p = _untraced(wl.pass_cli_ladder, inputs)
    assert [t.label for t in p.tasks] == ["denoise n=64", "solve n=64"]
    denoise, solve = p.tasks
    assert denoise.failed and denoise.detail.startswith("QuadratureError")
    assert solve.failed and solve.detail.startswith("exit 1: converged=False")
    assert all(t.seconds > 0.0 for t in p.tasks)
    assert p.correct  # the program reported both failures itself


def test_tracing_changes_no_outcome_and_counts_repeat():
    cases = [
        (wl.setup_cli_ladder, wl.pass_cli_ladder, {"ns": (16,)}),
        (wl.setup_certificates, wl.pass_certificates, {"pairs": 2}),
    ]
    for setup, run_pass, kw in cases:
        inputs = setup(3, _workdir(run_pass.__name__), **kw)
        plain = _untraced(run_pass, inputs)
        first = tracing.traced_pass(run_pass, inputs, 1)
        second = tracing.traced_pass(run_pass, inputs, 2)
        assert plain.tasks and plain.correct
        assert first.mismatches(plain) == []
        assert second.mismatches(plain) == []
        calls = [{n: v["calls"] for n, v in tp.tracer.per_name().items()}
                 for tp in (first, second)]
        assert calls[0] == calls[1]
        iterations = [[r.iterations for r in p.solves]
                      for p in (plain, first.run, second.run)]
        assert iterations[0] == iterations[1] == iterations[2]


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    p = wl.Pass()
    p.tasks.append(wl.Task("t", seconds=1.0))
    p.seconds = 1.0
    _, units, _ = bench.end_to_end([p], 0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == units
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


def test_times_are_the_best_over_the_passes():
    passes = []
    for seconds, a, b in ((5.0, 1.0, 4.0), (4.0, 3.0, 2.0), (6.0, 2.0, 3.0)):
        p = wl.Pass()
        p.tasks += [wl.Task("a", seconds=a), wl.Task("b", seconds=b)]
        p.seconds = seconds
        passes.append(p)
    assert sorted(bench.task_times(passes)) == [1.0, 2.0]
    m, _, _ = bench.end_to_end(passes, 0.5)
    assert m["run_s"] == 4.0
    assert m["task_s_p50"] == 1.5
    assert m["task_s_tail"] == 2.0  # the max: fewer than 11 tasks


def test_refuses_to_run_without_the_program():
    bare = _workdir("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    (bare / "perfbench").mkdir()
    for f in HERE.glob("*"):
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certificates",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
