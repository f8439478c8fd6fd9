"""pxlab benchmark: run one workload, or both, from the root of a checkout.

    python3 perfbench/run.py --workload cli_ladder --seed 7 --seconds 50 --trace 0

Workloads: cli_ladder, certificates (see NOTES.md); ``all`` runs the two
in turn, each in a child process of its own, so that each result line and
each ``peak_rss_mb`` is its own.  The program is imported from ``src/`` of
the checkout this file sits in and runs single-threaded in the process of
its workload.  Set-up is timed several times and reported as a median;
then whole passes over the workload's tasks run until the next one would
end after ``--seconds``, at least one.  ``run_s`` is the fastest pass and
each task's time is its best over the passes: other load on a shared
host only ever adds time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one traced
pass, writes its spans to ``perfbench/out/trace-<workload>.npz`` and a
self-time summary beside it, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# no extra threads: set before NumPy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 21
IMPORT_REPEATS = 21
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import numpy, pxlab.cli; "
                "print(time.perf_counter() - t)")


def load_program():
    """Import pxlab from this checkout's src/, or exit with a message (status 1)
    when it is absent or another copy would be imported."""
    if not (SRC / "pxlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'pxlab'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pxlab

    if Path(pxlab.__file__).resolve().parent != SRC / "pxlab":
        sys.exit(f"perfbench: imported pxlab from {pxlab.__file__}, not from {SRC}")


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def time_setup(setup, seed: int, workdir: Path):
    """Median import time (fresh interpreters) plus median input build time."""
    imports = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=120)
        imports.append(float(out.stdout.strip().splitlines()[-1]))
    builds = []
    inputs = None
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = setup(seed, workdir / f"setup{k}")
        builds.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(builds), inputs


def run_passes(run_pass, inputs, seconds: float) -> list:
    """Whole passes until the next one would end after ``seconds``; at least one."""
    from workloads import Pass

    passes = []
    begin = time.perf_counter()
    while True:
        run = Pass()
        t0 = time.perf_counter()
        run_pass(inputs, run, len(passes))
        run.seconds = time.perf_counter() - t0
        passes.append(run)
        if time.perf_counter() - begin + run.seconds > seconds:
            return passes


def tail(times: list) -> tuple:
    """The highest percentile with at least 10 samples above it, or the max
    when there are fewer than 11 samples; returns (value, percentile)."""
    s = sorted(times)
    if len(s) >= 11:
        return s[-11], 100.0 * (len(s) - 10) / len(s)
    return s[-1], 100.0


def task_times(passes) -> list:
    """Each task's best time over the passes.  Other load on a shared host
    only ever adds time, so the best of a few repeats is the steadiest
    estimate of a task's own cost."""
    by_label = {}
    for p in passes:
        for t in p.tasks:
            if t.seconds is not None:
                by_label.setdefault(t.label, []).append(t.seconds)
    return [min(v) for v in by_label.values()]


def end_to_end(passes, setup_s: float) -> tuple:
    times = task_times(passes)
    tail_s, pct = tail(times)
    metrics = {
        "run_s": min(p.seconds for p in passes),
        "task_s_p50": statistics.median(times),
        "task_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"run_s": "s", "task_s_p50": "s", "task_s_tail": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}
    notes = {
        "run_s": f"fastest of {len(passes)} pass(es)",
        "task_s_p50": f"median of {len(times)} tasks, each its best over the passes",
        "task_s_tail": (f"p{pct:.0f} of {len(times)} tasks" if len(times) >= 11 else
                        f"max of {len(times)} tasks, fewer than 11")
                       + ", each its best over the passes",
        "setup_s": f"median of {IMPORT_REPEATS} imports + median of {SETUP_REPEATS} builds",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, units, notes


def run_workload(name: str, seed, seconds: float, trace: bool) -> None:
    """Set up, measure and check one workload; print its metrics and, last,
    its JSON result line."""
    import tracing
    from workloads import WORKLOADS

    setup, run_pass, default_seed = WORKLOADS[name]
    seed = default_seed if seed is None else seed
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        setup_s, inputs = time_setup(setup, seed, workdir)
        passes = run_passes(run_pass, inputs, seconds)
        traced = tracing.traced_pass(run_pass, inputs, len(passes)) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts()
    runs = passes + ([traced.run] if traced else [])
    attempted = sum(len(p.tasks) for p in runs)
    failed = sum(t.failed for p in runs for t in p.tasks)
    correct = all(p.correct for p in runs)

    print(f"pxlab benchmark: workload={name} seed={seed} passes={len(passes)} "
          f"trace={int(trace)}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"  failed_share {failed}/{attempted} = {failed / attempted:.4f} ratio "
          "(failed tasks / attempted tasks)")
    for t in passes[0].tasks:
        if t.failed:
            print(f"  failed task: {t.label}: {t.detail}")
    if traced:
        mismatch = traced.mismatches(passes[0])
        for line in mismatch:
            print(f"  tracing changed an outcome: {line}")
        correct = correct and not mismatch
        metrics, units, notes = traced.metrics(passes, name, facts, OUT)
        print(f"  spans: {traced.span_count} in {traced.trace_path.relative_to(ROOT)}; "
              f"summary in {traced.summary_path.relative_to(ROOT)}")
        for point in traced.tracer.missing:
            print(f"  trace point missing from the program: {point}")
    else:
        metrics, units, notes = end_to_end(passes, setup_s)
    for metric, value in metrics.items():
        note = notes.get(metric, "")
        print(f"  {metric} {value:.6g} {units[metric]}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)


def main(argv=None) -> int:
    workloads = ["cli_ladder", "certificates"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"],
                        help="one workload, or both in turn")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; default: the acceptance suite's")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        for name in workloads:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            code = subprocess.run(cmd).returncode
            if code:
                return code
        return 0
    load_program()
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
