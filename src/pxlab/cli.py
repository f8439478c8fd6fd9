"""Command-line laboratory: JSON-configured runs with JSON/CSV/PGM artifacts.

The JSON config is the single source of truth; flags only pick the config
file and override seed and output directory.  Every run writes a
self-describing report containing the fully resolved config, so identical
configs and seeds reproduce byte-identical reports apart from the
timestamp field.  Exit codes: 0 all asserted checks pass, 1 a check
failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import hypotheses as hyp
from . import inequality as ineq
from .grid import AnalyticFieldSpec, Grid, build_grid, sample_jet
from .operators import (ExponentField, OperatorFamily, check_homogeneity, exponent_field,
                        make_image_operator, make_multiphase)
from .path import beta_scan, make_path
from .solver import (SolveConfig, minimize, synthetic_image, uniqueness_experiment,
                     verify_weak_solution)
from .sources import (SourceFamily, make_fidelity_source, make_power_source,
                      make_zero_source)


class ConfigError(ValueError):
    pass


@dataclass
class Image:
    """Grayscale image with pixel values in [0, 1] (8-bit gray / 255)."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.width < 3 or self.height < 3:
            raise ValueError("image dimensions must be at least 3x3")
        if self.values.shape != (self.height, self.width):
            raise ValueError("pixel array shape must be (height, width)")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")


def read_pgm(path) -> Image:
    """Read a binary PGM (magic P5, maxval 255)."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError("unsupported PGM variant: need binary P5")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("malformed PGM header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}: need 255")
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ValueError("PGM raster truncated")
    vals = np.frombuffer(raster, dtype=np.uint8).astype(float).reshape(height, width)
    return Image(width=width, height=height, values=vals / 255.0)


def write_pgm(img: Image, path) -> None:
    """Write a binary PGM with the canonical header; inverse of read_pgm."""
    raster = np.rint(img.values * 255.0).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode()
    Path(path).write_bytes(header + raster.tobytes())


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    """The config's object ``name``, empty when absent."""
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name} must be an object, got {sec!r}")
    return sec


def _build_grid(cfg: dict) -> Grid:
    g = _section(cfg, "grid")
    try:
        grid = build_grid(int(g.get("dim", 1)), g.get("n", 32), g.get("extent", 1.0))
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad grid spec: {e}") from e
    # reports carry the fully resolved config
    cfg["grid"] = {"dim": grid.dim, "n": list(grid.n), "extent": list(grid.extent)}
    return grid


def _exponent(grid: Grid, spec) -> ExponentField:
    if isinstance(spec, (int, float)):
        return exponent_field(grid, float(spec))
    if isinstance(spec, dict):
        kind = spec.get("kind")
        try:
            if kind == "constant":
                return exponent_field(grid, float(spec["value"]))
            if kind == "ramp":
                lo, hi = float(spec["from"]), float(spec["to"])
                x = grid.quad_points[:, 0] / grid.extent[0]
                return exponent_field(grid, lo + (hi - lo) * x)
        except (KeyError, TypeError) as e:
            raise ConfigError(f"bad exponent spec: {spec!r}") from e
    raise ConfigError(f"bad exponent spec: {spec!r}")


def _build_operator(cfg: dict, grid: Grid) -> OperatorFamily:
    op = _section(cfg, "operator")
    alpha = cfg["alpha"]
    kind = op.get("kind")
    d0 = op.get("d0")
    d0t = op.get("d0_tilde")
    try:
        if kind == "single":
            p = _exponent(grid, op.get("p", 2.0))
            return make_multiphase([p], [float(op.get("weight", 1.0))],
                                   alpha=alpha, d0=d0, d0_tilde=d0t)
        if kind == "multiphase":
            ps = [_exponent(grid, s) for s in op["exponents"]]
            ws = [float(w) for w in op["weights"]]
            return make_multiphase(ps, ws, alpha=alpha, d0=d0, d0_tilde=d0t)
        if kind == "image":
            p = _exponent(grid, op.get("p", 2.0))
            return make_image_operator(p, float(op.get("eps", 0.5)),
                                       float(op.get("delta", 1.0)), alpha)
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad operator spec: {e}") from e
    raise ConfigError(f"operator kind must be single, multiphase, or image, got {kind!r}")


def _build_source(cfg: dict, grid: Grid) -> SourceFamily:
    src = _section(cfg, "source")
    alpha = cfg["alpha"]
    kind = src.get("kind")
    try:
        if kind == "power":
            return make_power_source(src.get("r1", 1.0), src.get("r2", 0.0),
                                     src.get("q1", 1.0), src.get("q2", 1.0),
                                     npoints=grid.npoints, alpha=alpha)
        if kind == "fidelity":
            g_spec = src.get("g", 0.5)
            if isinstance(g_spec, (int, float)):
                g_data = np.full(grid.npoints, float(g_spec))
            elif g_spec == "synthetic":
                if grid.dim != 2 or grid.n[0] != grid.n[1]:
                    raise ConfigError("synthetic data needs a square 2D grid")
                g_data = synthetic_image(grid.n[0], seed=int(src.get("g_seed", 7)))
            else:
                raise ConfigError(f"bad fidelity data spec: {g_spec!r}")
            return make_fidelity_source(g_data.ravel(), float(src.get("mu", 1.0)), alpha)
        if kind == "zero":
            return make_zero_source(grid.npoints, alpha=alpha)
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad source spec: {e}") from e
    raise ConfigError(f"source kind must be power, fidelity, or zero, got {kind!r}")


def _build_problem(cfg: dict) -> tuple:
    """The grid, operator family and source a config describes."""
    grid = _build_grid(cfg)
    return grid, _build_operator(cfg, grid), _build_source(cfg, grid)


def _field_spec(d: dict) -> AnalyticFieldSpec:
    if not isinstance(d, dict) or "name" not in d:
        raise ConfigError(f"bad field spec: {d!r}")
    return AnalyticFieldSpec(d["name"], d.get("params", {}))


def _solver_config(cfg: dict, fam, src, grid, init) -> SolveConfig:
    s = _section(cfg, "solver")
    try:
        scfg = SolveConfig(
            fam=fam, src=src, grid=grid, init=init,
            residual_tol=float(s.get("tol", 1e-8)),
            max_iters=int(s.get("max_iters", 50_000)),
        )
    except ValueError as e:
        raise ConfigError(f"bad solver spec: {e}") from e
    cfg["solver"] = {"tol": scfg.residual_tol, "max_iters": scfg.max_iters}
    return scfg


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _write_report(outdir: Path, command: str, config: dict, results: dict,
                  passed: bool) -> Path:
    report = {
        "command": command,
        "config": config,
        "results": results,
        "passed": bool(passed),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{command}_report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_hypotheses(cfg: dict, outdir: Path, seed: int) -> int:
    grid, fam, src = _build_problem(cfg)
    rep, ok = hyp.gate(fam, src, grid, seed)
    homog = check_homogeneity(fam, seed=seed)
    results = {
        "hypotheses": rep.to_jsonable(),
        "homogeneity": _jsonable(vars(homog) | {"agree": homog.agree}),
        "flags": {"strict_ratio": fam.strict_flag, "homogeneous": fam.homogeneous_flag,
                  "strict_source_ratio": src.strict13_flag},
    }
    ok = ok and homog.agree
    _write_report(outdir, "check-hypotheses", cfg, results, ok)
    return 0 if ok else 1


def cmd_inequality(cfg: dict, outdir: Path, seed: int) -> int:
    try:
        trials = int(cfg.get("trials", 100_000))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad trials: {e}") from e
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    scalar = ineq.fuzz_scalar_gaps(trials, seed)
    subunit = ineq.fuzz_subunit_gaps(trials, seed)
    ok = (scalar["min_scaled_gap"] >= -1e-12
          and subunit["min_gap1"] >= -1e-12 and subunit["min_gap2"] >= -1e-12)
    _write_report(outdir, "inequality", cfg,
                  {"scalar": _jsonable(scalar), "subunit": _jsonable(subunit)}, ok)
    return 0 if ok else 1


def cmd_path_scan(cfg: dict, outdir: Path, seed: int) -> int:
    grid, fam, src = _build_problem(cfg)
    fields = _section(cfg, "fields")
    try:
        w1 = sample_jet(_field_spec(fields.get("w1")), grid)
        w2 = sample_jet(_field_spec(fields.get("w2")), grid)
        ctx = make_path(w1, w2, cfg["alpha"])
        scan = beta_scan(ctx, fam, src, grid)
    except (KeyError, ValueError) as e:
        raise ConfigError(str(e)) from e
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "path_scan.csv",
               ["theta", "beta", "beta_prime", "cor64_gap"],
               ((float(a), float(b), float(c), float(d)) for a, b, c, d in scan.csv_rows()))
    on_unit = (scan.thetas >= 0.0) & (scan.thetas <= 1.0)
    ok = (scan.min_beta_prime_step >= -1e-10
          and scan.fd_max_rel_err <= 1e-6
          and float(scan.cor64_gap[on_unit].min()) >= -1e-10
          and (scan.strict_gap_ok is not False))
    results = {
        "M": ctx.M, "theta0": ctx.theta0,
        "min_beta_prime_step": scan.min_beta_prime_step,
        "fd_max_rel_err": scan.fd_max_rel_err,
        "cor64_min_gap_on_unit": float(scan.cor64_gap[on_unit].min()),
        "strict_gap_ok": scan.strict_gap_ok,
        "csv": "path_scan.csv",
    }
    _write_report(outdir, "path-scan", cfg, _jsonable(results), ok)
    return 0 if ok else 1


def _solve_pipeline(cfg: dict, seed: int):
    grid, fam, src = _build_problem(cfg)
    gate, gate_ok = hyp.gate(fam, src, grid, seed)
    init = cfg.get("init", 0.5)
    if isinstance(init, (int, float)):
        init = float(init)
    elif isinstance(init, dict):
        try:
            init = sample_jet(_field_spec(init), grid).values
        except ValueError as e:
            raise ConfigError(f"bad init field spec: {e}") from e
    else:
        raise ConfigError("init must be a number or a field spec")
    scfg = _solver_config(cfg, fam, src, grid, init)
    return grid, fam, src, scfg, gate, gate_ok


def _solve_results(gate, gate_ok: bool, result) -> dict:
    """The report entries that solve and denoise share."""
    return {
        "gate": gate.to_jsonable(),
        "gate_ok": gate_ok,
        "converged": result.converged,
        "note": result.note,
        "iterations": result.iterations,
        "hvps": result.hvps,
        "residual_norm": result.residual_norm,
        "ess_inf": result.ess_inf,
        "in_unit_box": result.in_unit_box,
    }


def cmd_solve(cfg: dict, outdir: Path, seed: int) -> int:
    grid, fam, src, scfg, gate, gate_ok = _solve_pipeline(cfg, seed)
    result = minimize(scfg)
    ver = verify_weak_solution(fam, src, result.U, grid, seed=seed,
                               residual_tol=scfg.residual_tol)
    outdir.mkdir(parents=True, exist_ok=True)
    U = result.U.values
    if grid.dim == 1:
        rows = ((int(i), float(grid.quad_points[i, 0]), float(U.ravel()[i]))
                for i in range(grid.npoints))
        _write_csv(outdir / "solution.csv", ["i", "x", "value"], rows)
    else:
        rows = ((int(i), int(j), float(grid.quad_points[i * grid.n[1] + j, 0]),
                 float(grid.quad_points[i * grid.n[1] + j, 1]), float(U[i, j]))
                for i in range(grid.n[0]) for j in range(grid.n[1]))
        _write_csv(outdir / "solution.csv", ["i", "j", "x1", "x2", "value"], rows)
        if result.in_unit_box:
            img = Image(width=grid.n[1], height=grid.n[0], values=U)
            write_pgm(img, outdir / "solution.pgm")
    results = _solve_results(gate, gate_ok, result) | {
        "energy": result.energy,
        "strongly_positive": result.strongly_positive,
        "weak_form_defect": ver,
        "csv": "solution.csv",
    }
    ok = gate_ok and result.converged and ver["passed"]
    _write_report(outdir, "solve", cfg, _jsonable(results), ok)
    return 0 if ok else 1


def cmd_uniqueness(cfg: dict, outdir: Path, seed: int) -> int:
    try:
        inits = [float(v) for v in cfg.get("inits", [0.2, 0.9])]
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad inits: {e}") from e
    if not all(0.0 < v <= 1.0 for v in inits):
        raise ConfigError(f"inits must lie in (0, 1], got {inits}")
    grid, fam, src, scfg, gate, gate_ok = _solve_pipeline(cfg, seed)
    report = uniqueness_experiment(scfg, inits)
    ok = gate_ok and report.get("uniqueness_ok", True)
    results = {"gate_ok": gate_ok, "experiment": _jsonable(report)}
    _write_report(outdir, "uniqueness", cfg, results, ok)
    return 0 if ok else 1


def cmd_denoise(cfg: dict, outdir: Path, seed: int) -> int:
    d = _section(cfg, "denoise")
    inp = d.get("input", "synthetic")
    try:
        if inp == "synthetic":
            n = int(d.get("n", 32))
            img = Image(width=n, height=n,
                        values=synthetic_image(n, seed=int(d.get("g_seed", 7))))
        else:
            img = read_pgm(inp)
        grid = build_grid(2, (img.height, img.width), (1.0, img.width / img.height))
        p = _exponent(grid, d.get("p", 2.0))
        fam = make_image_operator(p, float(d.get("eps", 0.5)), float(d.get("delta", 1.0)),
                                  cfg["alpha"])
        src = make_fidelity_source(img.values.ravel(), float(d.get("mu", 1.0)), cfg["alpha"])
    except (OSError, ValueError) as e:
        raise ConfigError(str(e)) from e
    gate, gate_ok = hyp.gate(fam, src, grid, seed)
    init = d.get("init", 0.5)
    if init == "input":
        init = np.clip(img.values, 1e-3, 1.0).ravel()
    elif isinstance(init, (int, float)):
        init = float(init)
    else:
        raise ConfigError("denoise init must be a number or \"input\"")
    scfg = _solver_config(cfg, fam, src, grid, init)
    result = minimize(scfg)
    U = result.U.values
    outdir.mkdir(parents=True, exist_ok=True)
    out_ok = result.converged and result.in_unit_box
    if out_ok:
        write_pgm(Image(width=img.width, height=img.height, values=U),
                  outdir / "denoised.pgm")
    results = _solve_results(gate, gate_ok, result) | {
        "tv_input": _total_variation(img.values, grid),
        "tv_output": _total_variation(U, grid),
        "output": "denoised.pgm" if out_ok else None,
    }
    ok = gate_ok and out_ok
    _write_report(outdir, "denoise", cfg, _jsonable(results), ok)
    return 0 if ok else 1


def _total_variation(vals: np.ndarray, grid: Grid) -> float:
    tv = 0.0
    for axis in range(vals.ndim):
        d = np.abs(np.diff(vals, axis=axis))
        tv += float(d.sum()) * float(np.prod(grid.h))
    return tv


def cmd_fixtures(cfg: dict, outdir: Path, seed: int) -> int:
    name = cfg.get("name", "ex51")
    try:
        n = int(cfg.get("n", 64))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad n: {e}") from e
    try:
        grid = build_grid(1, n, 2.0)
        report = ineq.fixture_counterexample(name, grid)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    _write_report(outdir, "fixtures", cfg, _jsonable(report), report["passed"])
    return 0 if report["passed"] else 1


COMMANDS = {
    "check-hypotheses": cmd_check_hypotheses,
    "inequality": cmd_inequality,
    "path-scan": cmd_path_scan,
    "solve": cmd_solve,
    "uniqueness": cmd_uniqueness,
    "denoise": cmd_denoise,
    "fixtures": cmd_fixtures,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pxlab",
        description="numerical laboratory for quasilinear Neumann problems "
                    "with variable p(x) growth")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--output", default=None, help="override the output directory")
        if name == "inequality":
            p.add_argument("--trials", type=int, default=None)
        if name == "fixtures":
            p.add_argument("--name", default=None, choices=["ex51", "ex52"])
            p.add_argument("--n", type=int, default=None)
    args = parser.parse_args(argv)

    outdir = Path(args.output or ".")
    try:
        cfg = load_config(args.config) if args.config else {}
        if args.output is None:
            out = cfg.get("output", {})
            if not isinstance(out, dict) or not isinstance(out.get("dir", "."), str):
                raise ConfigError(f"output must be an object with a string dir, got {out!r}")
            outdir = Path(out.get("dir", "."))
        if args.command == "inequality" and args.trials is not None:
            cfg["trials"] = args.trials
        if args.command == "fixtures":
            if args.name is not None:
                cfg["name"] = args.name
            if args.n is not None:
                cfg["n"] = args.n
        seeds = cfg.setdefault("seeds", {})
        if not isinstance(seeds, dict):
            raise ConfigError(f"seeds must be an object, got {seeds!r}")
        if args.seed is not None:
            seeds["main"] = args.seed
        try:
            seed = seeds["main"] = int(seeds.get("main", 0))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad seeds.main: {e}") from e
        try:
            cfg["alpha"] = float(cfg.get("alpha", 1.5))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad alpha: {e}") from e
        code = COMMANDS[args.command](cfg, outdir, seed)
    except ConfigError as e:
        err = {"error": str(e), "command": args.command}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "error.json").write_text(json.dumps(err, indent=2, sort_keys=True) + "\n")
        except OSError:
            pass
        return 2
    print(f"{args.command}: {'ok' if code == 0 else 'FAILED'} "
          f"(report in {outdir})")
    return code


if __name__ == "__main__":
    sys.exit(main())
