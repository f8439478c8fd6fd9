"""The benchmark's workloads: inputs built from a seed, and one timed pass.

Every workload is a ``setup(seed, workdir)`` that builds its inputs and a
``run_pass(inputs, run, index)`` that executes its tasks once, recording
each task's time and outcome in ``run`` (a :class:`Pass`).  A task that
raises, does not converge, exits non-zero or fails a check is a failed
task; the pass goes on with the next one.  A task whose output claims
success but fails a check also clears ``Pass.correct``.

NOTES.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pxlab import cli, grid, inequality, operators, path, sources

TOL = 1e-8  # residual tolerance of the acceptance gate and the CLI default


@dataclass
class Task:
    label: str
    seconds: float | None = None  # None: planned but never started
    failed: bool = False
    incorrect: bool = False
    detail: str = "ok"
    iterations: int | None = None

    def fail(self, detail: str) -> None:
        if not self.failed:
            self.detail = detail
        self.failed = True

    def check(self, ok: bool, detail: str) -> None:
        """A failed check on an output the program reported as good."""
        if not ok:
            self.fail(f"check failed: {detail}")
            self.incorrect = True

    def outcome(self) -> tuple:
        return (self.label, self.failed, self.incorrect, self.iterations, self.detail)


class Pass:
    """Task records of one pass over a workload."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.tasks: list[Task] = []
        self.solves = []  # SolveResult of every minimize that returned
        self.ladder = []  # (command, n, converged, iterations) per CLI task
        self.seconds = 0.0

    @property
    def correct(self) -> bool:
        return not any(t.incorrect for t in self.tasks)

    @contextlib.contextmanager
    def task(self, label: str, reraise: bool = False):
        t = Task(label)
        self.tasks.append(t)
        span = self.tracer.begin_task(len(self.tasks) - 1) if self.tracer else None
        t0 = time.perf_counter()
        try:
            yield t
        except Exception as exc:  # a raising task is a failed task, not a stop
            t.fail(f"{type(exc).__name__}: {exc}")
            if reraise:
                raise
        finally:
            t.seconds = time.perf_counter() - t0
            if span is not None:
                self.tracer.end_task(span)

    def not_started(self, label: str, reason: str) -> None:
        t = Task(label)
        t.fail(f"not started: {reason}")
        self.tasks.append(t)


@contextlib.contextmanager
def patched(owner, attr: str, value):
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


# ---------------------------------------------------------------------------
# builders shared by the workloads (the acceptance suite's families)
# ---------------------------------------------------------------------------

def single_phase(g, p, alpha):
    return operators.make_multiphase([operators.exponent_field(g, p)], [1.0], alpha=alpha)


def two_phase(g, alpha=1.5):
    return operators.make_multiphase(
        [operators.exponent_field(g, 2.0), operators.exponent_field(g, 3.0)],
        [1.0, 1.0], alpha=alpha)


def image_op(g, alpha=1.5):
    return operators.make_image_operator(operators.exponent_field(g, 2.0), 0.5, 1.0, alpha)


def power_src(g, alpha):
    return sources.make_power_source(1.0, 0.0, 1.0, 1.0, npoints=g.npoints, alpha=alpha)


def random_positive_jet(rng, g):
    """A random strictly positive catalog jet, drawn as criterion 5 draws it."""
    spec = grid.AnalyticFieldSpec
    kind = rng.integers(0, 4)
    if kind == 0:
        s = spec("constant", {"c": rng.uniform(0.5, 2.0)})
    elif kind == 1:
        s = spec("quadratic-bump", {"base": rng.uniform(0.4, 1.0),
                                    "amp": rng.uniform(0.2, 1.5)})
    elif kind == 2:
        s = spec("exp-linear", {"k": rng.uniform(-1.2, 1.2, size=g.dim),
                                "scale": rng.uniform(0.5, 1.5)})
    else:
        s = spec("noisy-image", {"seed": int(rng.integers(0, 2**31)),
                                 "base": rng.uniform(0.9, 1.5), "amp": rng.uniform(0.2, 0.7)})
    return grid.sample_jet(s, g)


# ---------------------------------------------------------------------------
# cli_ladder: the user's path through `pxlab solve` and `pxlab denoise`
# ---------------------------------------------------------------------------

LADDER_NS = (16, 32, 64)
LADDER_COMMANDS = ("solve", "denoise")
LADDER_INITS = {"solve": 0.2, "denoise": 0.9}  # the criterion-7 starts
DATA_SEED = 7  # the synthetic image of criterion 7 and the README config


# the config of the README's command-line section
README_CONFIG = {
    "grid": {"dim": 2, "n": 32, "extent": 1.0},
    "operator": {"kind": "multiphase", "exponents": [2.0, 3.0], "weights": [1.0, 1.0]},
    "source": {"kind": "fidelity", "mu": 1.0, "g": "synthetic"},
    "alpha": 1.5,
    "solver": {"tol": TOL, "max_iters": 50000, "step": 1.0},
    "seeds": {"main": DATA_SEED},
    "output": {"dir": "out"},
    "fields": {"w1": {"name": "quadratic-bump", "params": {"base": 1.0, "amp": 1.0}},
               "w2": {"name": "exp-linear", "params": {"k": 0.8}}},
    "inits": [0.2, 0.9],
    "denoise": {"input": "synthetic", "n": 32, "mu": 1.0, "eps": 0.5, "delta": 1.0,
                "p": 2.0},
}


def ladder_config(command: str, n: int) -> dict:
    """The README config at size n, started at the command's criterion-7 start."""
    cfg = copy.deepcopy(README_CONFIG)
    cfg["grid"]["n"] = n
    cfg["denoise"]["n"] = n
    if command == "solve":
        cfg["init"] = LADDER_INITS[command]
    else:
        cfg["denoise"]["init"] = LADDER_INITS[command]
    return cfg


def write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2))
    return path


def run_cli(command: str, cfg_path: Path, outdir: Path, seed: int) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([command, "--config", str(cfg_path), "--output", str(outdir),
                         "--seed", str(seed)])


def setup_cli_ladder(seed: int, workdir: Path, ns=LADDER_NS,
                     commands=LADDER_COMMANDS) -> dict:
    tasks = [(command, n, write_config(workdir / "configs" / f"{command}{n}.json",
                                       ladder_config(command, n)))
             for n in ns for command in commands]
    return {"tasks": tasks, "seed": seed, "workdir": workdir}


def _check_cli_outputs(t: Task, command: str, n: int, code: int, outdir: Path) -> dict:
    report_path = outdir / f"{command}_report.json"
    if code == 2 or not report_path.exists():
        t.check(False, f"exit {code} without a {command} report")
        return {}
    rep = json.loads(report_path.read_text())
    res = rep["results"]
    t.iterations = res.get("iterations")
    t.check(rep["passed"] == (code == 0), f"exit {code} but passed={rep['passed']}")
    if code != 0:
        t.fail(f"exit {code}: converged={res.get('converged')}, "
               f"residual {res.get('residual_norm', float('nan')):.3g}")
        return res
    if command == "path-scan":  # 41 default thetas and a header
        rows = (outdir / "path_scan.csv").read_text().count("\n")
        t.check(rows == 42, f"path_scan.csv has {rows} lines")
        return res
    t.check(res["converged"] and res["residual_norm"] <= TOL,
            f"residual {res['residual_norm']:.3g}")
    if command == "solve":
        rows = (outdir / "solution.csv").read_text().count("\n")
        t.check(rows == n * n + 1, f"solution.csv has {rows} lines")
        t.check(res["weak_form_defect"]["passed"], "weak-form defect")
        artifact = outdir / "solution.pgm" if res["in_unit_box"] else None
    else:
        artifact = outdir / "denoised.pgm"
    if artifact is not None:
        size = artifact.stat().st_size if artifact.exists() else 0
        t.check(size == len(f"P5\n{n} {n}\n255\n") + n * n, f"{artifact.name} has {size} bytes")
    return res


def pass_cli_ladder(inp: dict, run: Pass, index: int) -> None:
    pass_dir = inp["workdir"] / f"pass{index}"
    inner = cli.minimize

    def observed(c):
        r = inner(c)
        run.solves.append(r)
        return r

    with patched(cli, "minimize", observed):
        for command, n, cfg_path in inp["tasks"]:
            outdir = pass_dir / f"{command}{n}"
            with run.task(f"{command} n={n}") as t:
                code = run_cli(command, cfg_path, outdir, inp["seed"])
                res = _check_cli_outputs(t, command, n, code, outdir)
                run.ladder.append((command, n, res.get("converged"), res.get("iterations")))
    shutil.rmtree(pass_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# certificates: acceptance criteria 5, 1, 3 and 9 and the README path scan
# (no solver, no stencil)
# ---------------------------------------------------------------------------

CERT_DEFAULT_SEED = 5  # criterion 5's seed, which also draws the jet pairs
CERT_PAIRS = 20
CERT_SCAN_GRIDS = ((1, 32), (2, 16))  # (dim, n) of criterion 5's two scan grids
# The jet pairs stay criterion 5's on every seed, as the criterion defines
# them; other draws can fail its derivative cross-check (NOTES.md).  The
# seeds of criteria 1, 3 and 9 are the acceptance suite's shifted by
# seed - 5, so the default seed reproduces them.
CRITERION_SEEDS = {"1": 20260101, "3": 3, "9": 9}


def setup_certificates(seed: int, workdir: Path, pairs: int = CERT_PAIRS) -> dict:
    scans = []
    for dim, n in CERT_SCAN_GRIDS:
        g = grid.build_grid(dim, n, 1.0)
        legs = [(single_phase(g, 2.0, 2.0), power_src(g, 2.0), 2.0, False),
                (image_op(g, 1.5), power_src(g, 1.5), 1.5, True)]
        scans.append((f"{dim}d{n}", g, legs))
    c3_grids = [grid.build_grid(1, 48, 1.0), grid.build_grid(2, 7, 1.0)]
    c3 = [(g, (single_phase(g, 2.0, 1.5), two_phase(g), image_op(g))) for g in c3_grids]
    shift = seed - CERT_DEFAULT_SEED
    return {"jet_seed": CERT_DEFAULT_SEED, "pairs": pairs, "scans": scans, "c3": c3,
            "crit_seeds": {k: (v + shift) % 2**32 for k, v in CRITERION_SEEDS.items()},
            "seed": seed, "workdir": workdir,
            "readme": write_config(workdir / "configs" / "readme.json", README_CONFIG)}


def _scan_task(t: Task, scan, strict: bool) -> None:
    t.check(scan.min_beta_prime_step >= -1e-10,
            f"beta' decreases by {scan.min_beta_prime_step:.3g}")
    t.check(scan.fd_max_rel_err <= 1e-6, f"fd error {scan.fd_max_rel_err:.3g}")
    on_unit = (scan.thetas >= 0.0) & (scan.thetas <= 1.0)
    gap = float(scan.cor64_gap[on_unit].min())
    t.check(gap >= -1e-10, f"convexity gap {gap:.3g}")
    if strict:
        t.check(scan.strict_gap_ok is True, "strict gap not certified")


def _criterion_3(t: Task, c3, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for pair in range(100):
        g, fams = c3[pair % 2]
        w1 = random_positive_jet(rng, g)
        w2 = random_positive_jet(rng, g)
        for fam in fams:
            r = fam.r_order
            res = inequality.integral_gap(fam, r, w1, w2, g)
            t.check(res.gap >= -1e-10 * (1.0 + abs(res.lhs)), f"integral gap {res.gap:.3g}")
            scalar_part, cauchy = inequality.pointwise_gap_parts(fam, r, w1, w2)
            total = grid.integrate(scalar_part + cauchy, g)
            t.check(abs(res.gap - total) <= 1e-10 * max(1.0, abs(res.lhs)),
                    "split does not sum to the integral gap")
            if pair % 10 == 0:  # third route: per-point flux dot products
                per_point = np.array([
                    inequality.pointwise_gap(fam, r, k, w1.values[k], w1.grads[k],
                                             w2.values[k], w2.grads[k])
                    for k in range(g.npoints)])
                t.check(bool(np.all(per_point >= -1e-12 * np.maximum(1.0, np.abs(per_point)))),
                        "negative pointwise gap")
                t.check(abs(res.gap - grid.integrate(per_point, g))
                        <= 1e-10 * max(1.0, abs(res.lhs)), "pointwise sum differs")


def _criterion_9(t: Task, seed: int) -> None:
    rep = inequality.fuzz_subunit_gaps(100_000, seed=seed)
    t.check(rep["min_gap1"] >= -1e-12 and rep["min_gap2"] >= -1e-12, "subunit fuzz gap")
    rng = np.random.default_rng(seed)
    gaps = inequality.subunit_power_gaps
    for _ in range(200):
        a = float(rng.uniform(0.0, 100.0))
        b = float(rng.uniform(0.0, 100.0))
        at_one = gaps(a, b, 1.0)
        t.check(at_one["gap1"] == 0.0 and at_one["gap2"] == 0.0, "gap at r = 1")
        r = float(rng.uniform(0.05, 1.0))
        t.check(gaps(a, a, r)["gap1"] == 0.0, "gap at a = b")
        edge = gaps(a, 0.0, r)
        t.check(abs(edge["gap1"]) <= 1e-15 and abs(edge["gap2"]) <= 1e-15, "gap at b = 0")


def pass_certificates(inp: dict, run: Pass, index: int) -> None:
    for gname, g, legs in inp["scans"]:
        rng = np.random.default_rng(inp["jet_seed"])
        for pair in range(inp["pairs"]):
            w1 = random_positive_jet(rng, g)
            w2 = random_positive_jet(rng, g)
            if np.max(np.abs(w1.values - w2.values)) == 0.0:
                continue
            for fam, src, alpha, strict in legs:
                with run.task(f"beta_scan {gname} pair={pair} alpha={alpha}") as t:
                    scan = path.beta_scan(path.make_path(w1, w2, alpha), fam, src, g)
                    _scan_task(t, scan, strict)
    seeds = inp["crit_seeds"]
    with run.task("criterion 1 scalar fuzz") as t:
        rep = inequality.fuzz_scalar_gaps(100_000, seed=seeds["1"])
        t.check(rep["min_scaled_gap"] >= -1e-12, f"scaled gap {rep['min_scaled_gap']:.3g}")
    with run.task("criterion 3 integral inequality") as t:
        _criterion_3(t, inp["c3"], seeds["3"])
    with run.task("criterion 9 subunit powers") as t:
        _criterion_9(t, seeds["9"])
    outdir = inp["workdir"] / f"pass{index}" / "path-scan"
    with run.task("path-scan README 2d32") as t:
        code = run_cli("path-scan", inp["readme"], outdir, inp["seed"])
        _check_cli_outputs(t, "path-scan", 32, code, outdir)
    shutil.rmtree(outdir.parent, ignore_errors=True)


WORKLOADS = {
    "cli_ladder": (setup_cli_ladder, pass_cli_ladder, DATA_SEED),
    "certificates": (setup_certificates, pass_certificates, CERT_DEFAULT_SEED),
}
