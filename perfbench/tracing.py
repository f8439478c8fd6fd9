"""Span tracing around pxlab's public functions, installed from outside the
package.

Each traced function is replaced, at every name its callers bind, by a
wrapper that records one span per call: name, start, end, parent span and
task id.  Spans live in flat arrays in memory and are written out once, at
the end of the traced pass.  Nothing under ``src/`` is edited; the patches
are undone when the pass ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path

import numpy as np

from pxlab import cli, grid, hypotheses, inequality, operators, path, solver, sources
from workloads import Pass

# (span name, owners whose attribute is replaced, attribute name).  The
# owners are every module or class through which a caller reaches the
# function, so a call is traced whichever binding it goes through.
TRACE_POINTS = [
    ("grid.discrete_gradient", (solver,), "discrete_gradient"),
    ("grid.stencil_adjoint", (solver,), "_centered_diff_adjoint"),
    ("grid.integrate", (grid, solver, path, inequality, hypotheses), "integrate"),
    ("grid.sample_jet", (grid, solver, cli, hypotheses, inequality), "sample_jet"),
    ("operators.a_batch", (operators.OperatorFamily,), "a_batch"),
    ("operators.A_batch", (operators.OperatorFamily,), "A_batch"),
    ("operators.phi", (operators.OperatorFamily,), "phi"),
    ("sources.fbar_vals", (sources.SourceFamily,), "fbar_vals"),
    ("sources.Fbar_vals", (sources.SourceFamily,), "Fbar_vals"),
    ("solver.minimize", (solver, cli), "minimize"),
    ("solver.discrete_energy", (solver,), "discrete_energy"),
    ("solver.discrete_residual", (solver,), "discrete_residual"),
    ("solver.verify_weak_solution", (solver, cli), "verify_weak_solution"),
    ("solver.uniqueness_experiment", (solver, cli), "uniqueness_experiment"),
    ("path.beta_scan", (path, cli), "beta_scan"),
    ("path.energy_J", (path,), "energy_J"),
    ("path.path_jets", (path,), "path_jets"),
    ("inequality.fuzz", (inequality,), "fuzz_scalar_gaps"),
    ("inequality.fuzz", (inequality,), "fuzz_subunit_gaps"),
    ("inequality.integral_gap", (inequality,), "integral_gap"),
    ("inequality.pointwise_gap", (inequality,), "pointwise_gap"),
    ("inequality.pointwise_gap_parts", (inequality,), "pointwise_gap_parts"),
    ("inequality.subunit_power_gaps", (inequality,), "subunit_power_gaps"),
    ("hypotheses.checks", (hypotheses,), "check_limit_monotone"),
    ("hypotheses.checks", (hypotheses,), "check_growth"),
    ("hypotheses.checks", (hypotheses,), "check_monotone_ratio"),
    ("hypotheses.checks", (hypotheses,), "check_coercivity"),
    ("hypotheses.checks", (hypotheses,), "check_source_hypotheses"),
    ("hypotheses.checks", (hypotheses,), "check_exponent"),
    ("cli.main", (cli,), "main"),
]

TASK_SPAN = "bench.task"


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names = [TASK_SPAN]
        self._ids = {TASK_SPAN: 0}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._task = -1
        self._saved = []
        self.missing = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self._task)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_task(self, task_id: int) -> int:
        self._task = task_id
        return self._open(0)

    def end_task(self, span: int) -> None:
        self._close(span)
        self._task = -1

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        """Replace every trace point; :meth:`uninstall` restores them.

        A trace point the program no longer has is skipped and listed in
        ``missing``, so its span name reports 0 calls.
        """
        wrappers = {}
        for name, owners, attr in TRACE_POINTS:
            for owner in owners:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- derived figures -------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def per_name(self) -> dict:
        """Calls and self seconds per span name.

        A span's self time is its duration minus the durations of its
        direct children, which lie inside it on the single thread traced.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        return {n: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# the traced pass and the per-layer metrics derived from its spans
# ---------------------------------------------------------------------------

# span names reported with their call count and their self-time share
COUNTED = [
    "grid.discrete_gradient", "grid.stencil_adjoint", "grid.integrate", "grid.sample_jet",
    "operators.a_batch", "operators.A_batch", "operators.phi",
    "sources.fbar_vals", "sources.Fbar_vals",
    "solver.minimize", "solver.verify_weak_solution",
    "path.beta_scan", "path.energy_J", "path.path_jets",
    "inequality.pointwise_gap", "hypotheses.checks", "cli.main",
]
# span names reported with their self-time share only
SHARED = ["solver.discrete_energy", "solver.discrete_residual",
          "inequality.fuzz", "inequality.integral_gap", TASK_SPAN]
POLISHED = "finished in residual polish"


def per_layer_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {"trace.pass_s": "s", "trace.overhead_s": "s"}
    for n in COUNTED:
        units[f"{n}.calls"] = "count"
        units[f"{n}.self_share"] = "ratio"
    for n in SHARED:
        units[f"{n}.self_share"] = "ratio"
    units.update({
        "solver.iterations": "count", "solver.energy_evals": "count",
        "solver.residual_evals": "count", "solver.accept_ratio": "ratio",
        "solver.polish_share": "ratio", "solver.iters_slope.solve": "1",
        "solver.iters_slope.denoise": "1",
    })
    return units


def iters_slope(ladder, command: str) -> tuple:
    """Least-squares slope of log(iterations) on log(n) over converged runs
    of one command; 0.0 when fewer than two sizes converged."""
    pts = [(n, it) for c, n, conv, it in ladder if c == command and conv and it]
    if len({n for n, _ in pts}) < 2:
        return 0.0, pts
    x = np.log([n for n, _ in pts])
    y = np.log([it for _, it in pts])
    return float(np.polyfit(x, y, 1)[0]), pts


def traced_pass(run_pass, inputs, index: int) -> "TracedPass":
    tracer = Tracer()
    run = Pass(tracer)
    tracer.install()
    try:
        t0 = time.perf_counter()
        run_pass(inputs, run, index)
        run.seconds = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return TracedPass(tracer, run)


class TracedPass:
    def __init__(self, tracer: Tracer, run):
        self.tracer = tracer
        self.run = run
        self.span_count = len(tracer.start)
        self.trace_path = None
        self.summary_path = None

    def mismatches(self, untraced) -> list:
        """Task outcomes that differ from an untraced pass of the same inputs."""
        a = [t.outcome() for t in untraced.tasks]
        b = [t.outcome() for t in self.run.tasks]
        lines = [f"{x} != {y}" for x, y in zip(a, b) if x != y]
        if len(a) != len(b):
            lines.append(f"{len(a)} tasks untraced, {len(b)} traced")
        return lines

    def metrics(self, untraced_passes, workload: str, facts: dict, out: Path):
        per = self.tracer.per_name()
        base = self.run.seconds
        untraced_s = min(p.seconds for p in untraced_passes)  # run_s
        zero = {"calls": 0, "self_s": 0.0}
        m = {"trace.pass_s": base, "trace.overhead_s": base - untraced_s}
        for n in COUNTED:
            m[f"{n}.calls"] = per.get(n, zero)["calls"]
            m[f"{n}.self_share"] = per.get(n, zero)["self_s"] / base
        for n in SHARED:
            m[f"{n}.self_share"] = per.get(n, zero)["self_s"] / base
        solves = self.run.solves
        evals = per.get("solver.discrete_energy", zero)["calls"]
        accepted = sum(len(r.energy_history) - 1 for r in solves)
        polished = sum(r.note == POLISHED for r in solves)
        m["solver.iterations"] = sum(r.iterations for r in solves)
        m["solver.energy_evals"] = evals
        m["solver.residual_evals"] = per.get("solver.discrete_residual", zero)["calls"]
        m["solver.accept_ratio"] = accepted / evals if evals else 0.0
        m["solver.polish_share"] = polished / len(solves) if solves else 0.0
        slopes = {c: iters_slope(self.run.ladder, c) for c in ("solve", "denoise")}
        for c, (slope, _) in slopes.items():
            m[f"solver.iters_slope.{c}"] = slope
        units = per_layer_units()
        notes = {
            "trace.overhead_s": f"traced {base:.4g} s - untraced {untraced_s:.4g} s",
            "solver.accept_ratio": f"{accepted} accepted / {evals} energy evaluations",
            "solver.polish_share": f"{polished} polished / {len(solves)} solves returned",
        }
        for c, (_, pts) in slopes.items():
            notes[f"solver.iters_slope.{c}"] = f"fitted on (n, iterations) {pts}"

        self.trace_path = out / f"trace-{workload}.npz"
        self.summary_path = out / f"trace-{workload}.summary.txt"
        self.tracer.write(self.trace_path)
        self._write_summary(per, base, untraced_s, m, notes, workload, facts)
        return m, units, notes

    def _write_summary(self, per, base, untraced_s, m, notes, workload, facts) -> None:
        lines = [
            f"pxlab trace summary: workload {workload}, {self.span_count} spans "
            f"in {self.trace_path.name}",
            f"traced pass {base:.4f} s; untraced pass {untraced_s:.4f} s (fastest); "
            f"tracing overhead {base - untraced_s:.4f} s = traced - untraced",
            "self share = self seconds / traced pass seconds",
            "trace points missing from the program: "
            + (", ".join(self.tracer.missing) or "none"),
            "machine: " + json.dumps(facts, sort_keys=True),
            "",
            f"{'layer':<12}{'calls':>10}{'self_s':>12}{'share':>9}",
        ]
        layers = {}
        for n, v in per.items():
            agg = layers.setdefault(n.split(".")[0], [0, 0.0])
            agg[0] += v["calls"]
            agg[1] += v["self_s"]
        for layer, (calls, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"{layer:<12}{calls:>10}{self_s:>12.4f}{self_s / base:>9.4f}")
        lines += ["", f"{'span':<34}{'calls':>10}{'self_s':>12}{'share':>9}"]
        for n, v in sorted(per.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"{n:<34}{v['calls']:>10}{v['self_s']:>12.4f}"
                         f"{v['self_s'] / base:>9.4f}")
        lines += ["", "ratios with their bases:"]
        for k, note in notes.items():
            lines.append(f"  {k} = {m[k]:.6g}: {note}")
        self.summary_path.write_text("\n".join(lines) + "\n")
