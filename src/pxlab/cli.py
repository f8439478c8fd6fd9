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
import math
import sys
from pathlib import Path

import numpy as np

from . import hypotheses as hyp
from . import inequality as ineq
from .grid import AnalyticFieldSpec, Grid, JetField, build_grid, row_blocks, sample_jet
from .operators import (ExponentField, OperatorFamily, check_homogeneity, exponent_field,
                        make_image_operator, make_multiphase)
from .path import beta_scan, make_path
from .solver import (SolveConfig, minimize, synthetic_image, uniqueness_experiment,
                     verify_weak_solution)
from .sources import (SourceFamily, make_fidelity_source, make_power_source,
                      make_zero_source)


class ConfigError(ValueError):
    pass


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (magic P5, maxval 255) as a (height, width) array
    of gray levels / 255 in [0, 1]."""
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
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width) / 255.0


def write_pgm(values: np.ndarray, path) -> None:
    """Write a (height, width) array as a binary PGM with the canonical
    header; inverse of read_pgm.  A value outside [0, 1] (or NaN) would
    wrap around in the 8-bit raster and raises ValueError."""
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError("pixel values must lie in [0, 1]")
    raster = np.rint(values * 255.0).astype(np.uint8)
    height, width = values.shape
    header = f"P5\n{width} {height}\n255\n".encode()
    Path(path).write_bytes(header + raster.tobytes())


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

def _finite_number(text: str) -> float:
    """A JSON number or constant as a float; NaN, Infinity and literals
    that overflow a double are configuration errors."""
    value = float(text)
    if not math.isfinite(value):
        shown = text if len(text) <= 32 else f"{text[:16]}... ({len(text)} characters)"
        raise ConfigError(f"config numbers must be finite, got {shown}")
    return value


def _finite_int(text: str) -> int:
    """A JSON integer literal as an int; one that overflows a double is a
    configuration error, which also keeps int() within its digit limit."""
    _finite_number(text)
    return int(text)


def load_config(path) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f, parse_float=_finite_number, parse_constant=_finite_number,
                            parse_int=_finite_int)
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
    except (KeyError, TypeError, ValueError) as e:
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
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad source spec: {e}") from e
    raise ConfigError(f"source kind must be power, fidelity, or zero, got {kind!r}")


def _build_problem(cfg: dict) -> tuple:
    """The grid, operator family and source a config describes."""
    grid = _build_grid(cfg)
    return grid, _build_operator(cfg, grid), _build_source(cfg, grid)


def _field_jet(d, grid: Grid) -> JetField:
    """The jet on the grid of the catalog field that the field spec ``d``
    (an object with a name and an optional params object) names."""
    if not isinstance(d, dict) or "name" not in d:
        raise ConfigError(f"bad field spec: {d!r}")
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"field params must be an object, got {params!r}")
    try:
        return sample_jet(AnalyticFieldSpec(d["name"], params), grid)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad field spec {d!r}: {e!r}") from e


def _solver_config(cfg: dict, fam, src, grid, init) -> SolveConfig:
    s = _section(cfg, "solver")
    try:
        scfg = SolveConfig(
            fam=fam, src=src, grid=grid, init=init,
            residual_tol=float(s.get("tol", 1e-8)),
            max_iters=int(s.get("max_iters", 50_000)),
        )
    except (TypeError, ValueError) as e:
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
    # NumPy scalars and arrays go through tolist(); np.float64 is a float
    text = json.dumps(report, indent=2, sort_keys=True, default=lambda o: o.tolist())
    path.write_text(text + "\n")
    return path


def _write_csv(path: Path, header, template: str, columns) -> None:
    """One line per index of the equal-length arrays in ``columns``,
    formatted by the %-template ``template`` (``%d`` for ints, ``%.17g``
    for floats, which round-trips every double, ``%s`` for strings); one
    ``%`` formats a block of lines, so memory stays bounded."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for blk in row_blocks(columns[0].size, len(columns)):
            # Python ints, floats and strings, row after row
            rows = np.empty((blk.stop - blk.start, len(columns)), dtype=object)
            for k, c in enumerate(columns):
                rows[:, k] = c[blk]
            f.write(template * rows.shape[0] % tuple(rows.ravel().tolist()))


def _write_solution_csv(path: Path, grid: Grid, U: np.ndarray) -> None:
    """solution.csv: per node its index per axis, its coordinates and its value.
    Each axis's coordinates are formatted once, not once per node."""
    x = grid.quad_points
    if grid.dim == 1:
        header, index, axes = ["i", "x", "value"], (np.arange(grid.npoints),), (x[:, 0],)
    else:
        # quadrature points run row-major over (i, j)
        header = ["i", "j", "x1", "x2", "value"]
        index = np.divmod(np.arange(grid.npoints), grid.n[1])
        axes = (x[::grid.n[1], 0], x[:grid.n[1], 1])
    labels = [np.array(["%.17g" % v for v in a.tolist()], dtype=object)[i]
              for a, i in zip(axes, index)]
    _write_csv(path, header, "%d," * grid.dim + "%s," * grid.dim + "%.17g\n",
               (*index, *labels, U.ravel()))


# ---------------------------------------------------------------------------
# subcommands: each returns its results and whether every asserted check
# passed; main writes them as <command>_report.json
# ---------------------------------------------------------------------------

def cmd_check_hypotheses(cfg: dict, outdir: Path, seed: int) -> tuple:
    grid, fam, src = _build_problem(cfg)
    rep, ok = hyp.gate(fam, src, grid, seed)
    homog = check_homogeneity(fam, seed=seed)
    return {
        "hypotheses": rep.to_jsonable(),
        "homogeneity": homog,
        "flags": {"strict_ratio": fam.strict_flag, "homogeneous": fam.homogeneous_flag,
                  "strict_source_ratio": src.strict13_flag},
    }, ok and homog["agree"]


def cmd_inequality(cfg: dict, outdir: Path, seed: int) -> tuple:
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
    return {"scalar": scalar, "subunit": subunit}, ok


def cmd_path_scan(cfg: dict, outdir: Path, seed: int) -> tuple:
    grid, fam, src = _build_problem(cfg)
    fields = _section(cfg, "fields")
    w1 = _field_jet(fields.get("w1"), grid)
    w2 = _field_jet(fields.get("w2"), grid)
    try:
        ctx = make_path(w1, w2, cfg["alpha"])
        scan = beta_scan(ctx, fam, src, grid)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "path_scan.csv", ["theta", "beta", "beta_prime", "cor64_gap"],
               "%.17g,%.17g,%.17g,%.17g\n",
               (scan.thetas, scan.beta, scan.beta_prime, scan.cor64_gap))
    on_unit = (scan.thetas >= 0.0) & (scan.thetas <= 1.0)
    cor64_min = float(scan.cor64_gap[on_unit].min())
    ok = (scan.min_beta_prime_step >= -1e-10 and scan.fd_max_rel_err <= 1e-6
          and cor64_min >= -1e-10 and scan.strict_gap_ok is not False)
    return {
        "M": ctx.M, "theta0": ctx.theta0,
        "min_beta_prime_step": scan.min_beta_prime_step,
        "fd_max_rel_err": scan.fd_max_rel_err,
        "cor64_min_gap_on_unit": cor64_min,
        "strict_gap_ok": scan.strict_gap_ok,
        "csv": "path_scan.csv",
    }, ok


def _solve_pipeline(cfg: dict, seed: int):
    grid, fam, src = _build_problem(cfg)
    gate, gate_ok = hyp.gate(fam, src, grid, seed)
    init = cfg.get("init", 0.5)
    if isinstance(init, (int, float)):
        init = float(init)
    elif isinstance(init, dict):
        init = _field_jet(init, grid).values
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
        "residual_floor": result.residual_floor,
        "ess_inf": result.ess_inf,
        "in_unit_box": result.in_unit_box,
    }


def cmd_solve(cfg: dict, outdir: Path, seed: int) -> tuple:
    grid, fam, src, scfg, gate, gate_ok = _solve_pipeline(cfg, seed)
    result = minimize(scfg)
    ver = verify_weak_solution(fam, src, result.U, grid, seed=seed,
                               residual_tol=scfg.residual_tol)
    outdir.mkdir(parents=True, exist_ok=True)
    U = result.U
    _write_solution_csv(outdir / "solution.csv", grid, U)
    if grid.dim == 2 and result.in_unit_box:
        # in_unit_box admits rounding just outside [0, 1]; pixels may not
        write_pgm(np.clip(U, 0.0, 1.0), outdir / "solution.pgm")
    return _solve_results(gate, gate_ok, result) | {
        "energy": result.energy,
        "strongly_positive": result.strongly_positive,
        "weak_form_defect": ver,
        "csv": "solution.csv",
    }, gate_ok and result.converged and ver["passed"]


def cmd_uniqueness(cfg: dict, outdir: Path, seed: int) -> tuple:
    try:
        inits = [float(v) for v in cfg.get("inits", [0.2, 0.9])]
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad inits: {e}") from e
    if len(inits) < 2:
        raise ConfigError(f"uniqueness compares at least two inits, got {inits}")
    if not all(0.0 < v <= 1.0 for v in inits):
        raise ConfigError(f"inits must lie in (0, 1], got {inits}")
    grid, fam, src, scfg, gate, gate_ok = _solve_pipeline(cfg, seed)
    report = uniqueness_experiment(scfg, inits)
    ok = gate_ok and report.get("uniqueness_ok", True)
    return {"gate_ok": gate_ok, "experiment": report}, ok


def cmd_denoise(cfg: dict, outdir: Path, seed: int) -> tuple:
    d = _section(cfg, "denoise")
    inp = d.get("input", "synthetic")
    try:
        if inp == "synthetic":
            img = synthetic_image(int(d.get("n", 32)), seed=int(d.get("g_seed", 7)))
        else:
            img = read_pgm(inp)
        grid = build_grid(2, img.shape, (1.0, img.shape[1] / img.shape[0]))
        p = _exponent(grid, d.get("p", 2.0))
        fam = make_image_operator(p, float(d.get("eps", 0.5)), float(d.get("delta", 1.0)),
                                  cfg["alpha"])
        src = make_fidelity_source(img.ravel(), float(d.get("mu", 1.0)), cfg["alpha"])
    except (OSError, TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    gate, gate_ok = hyp.gate(fam, src, grid, seed)
    init = d.get("init", 0.5)
    if init == "input":
        init = np.clip(img, 1e-3, 1.0)
    elif isinstance(init, (int, float)):
        init = float(init)
    else:
        raise ConfigError("denoise init must be a number or \"input\"")
    scfg = _solver_config(cfg, fam, src, grid, init)
    result = minimize(scfg)
    U = result.U
    outdir.mkdir(parents=True, exist_ok=True)
    out_ok = result.converged and result.in_unit_box
    if out_ok:
        # in_unit_box admits rounding just outside [0, 1]; pixels may not
        write_pgm(np.clip(U, 0.0, 1.0), outdir / "denoised.pgm")
    return _solve_results(gate, gate_ok, result) | {
        "tv_input": _total_variation(img, grid),
        "tv_output": _total_variation(U, grid),
        "output": "denoised.pgm" if out_ok else None,
    }, gate_ok and out_ok


def _total_variation(vals: np.ndarray, grid: Grid) -> float:
    """Anisotropic discrete total variation: per axis, the sum of |jumps|
    across cell faces times the face area, the other axes' spacings."""
    tv = 0.0
    for axis in range(vals.ndim):
        d = np.abs(np.diff(vals, axis=axis))
        tv += float(d.sum()) * float(np.prod(np.delete(grid.h, axis)))
    return tv


def cmd_fixtures(cfg: dict, outdir: Path, seed: int) -> tuple:
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
    return report, report["passed"]


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
        results, ok = COMMANDS[args.command](cfg, outdir, seed)
    except ConfigError as e:
        err = {"error": str(e), "command": args.command}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "error.json").write_text(json.dumps(err, indent=2, sort_keys=True) + "\n")
        except OSError:
            pass
        return 2
    _write_report(outdir, args.command, cfg, results, ok)
    print(f"{args.command}: {'ok' if ok else 'FAILED'} (report in {outdir})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
