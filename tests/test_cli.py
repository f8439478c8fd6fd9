import json
import math
import re

import numpy as np
import pytest

from pxlab import build_grid, synthetic_image
from pxlab.cli import (_total_variation, _write_csv, _write_report, _write_solution_csv, main,
                       read_pgm, write_pgm)

from util import ref_write_csv


def _write_cfg(tmp_path, name, cfg):
    """Writes cfg as JSON; a string is written as it stands (raw JSON text)."""
    p = tmp_path / name
    p.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return str(p)


# ---------------------------------------------------------------------------
# PGM round trips
# ---------------------------------------------------------------------------

def test_pgm_gray_values(tmp_path):
    path = tmp_path / "g.pgm"
    write_pgm(np.full((3, 3), 128 / 255.0), path)
    back = read_pgm(path)
    assert back.shape == (3, 3)
    assert np.allclose(back, 128 / 255.0)
    assert back[0, 0] == pytest.approx(0.50196, abs=1e-5)


def test_pgm_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (5, 7)) / 255.0
    p1 = tmp_path / "a.pgm"
    p2 = tmp_path / "b.pgm"
    write_pgm(img, p1)
    assert p1.read_bytes().startswith(b"P5\n7 5\n255\n")
    write_pgm(read_pgm(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_header_comments(tmp_path):
    raster = bytes(range(9))
    (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n3 3\n255\n" + raster)
    img = read_pgm(tmp_path / "c.pgm")
    assert img[0, 1] == pytest.approx(1 / 255.0)


def test_pgm_rejects_variants(tmp_path):
    (tmp_path / "ascii.pgm").write_bytes(b"P2\n3 3\n255\n0 0 0 0 0 0 0 0 0\n")
    with pytest.raises(ValueError):
        read_pgm(tmp_path / "ascii.pgm")
    (tmp_path / "deep.pgm").write_bytes(b"P5\n3 3\n65535\n" + bytes(18))
    with pytest.raises(ValueError):
        read_pgm(tmp_path / "deep.pgm")
    (tmp_path / "short.pgm").write_bytes(b"P5\n3 3\n255\n" + bytes(4))
    with pytest.raises(ValueError):
        read_pgm(tmp_path / "short.pgm")


def test_image_validation(tmp_path):
    # a value outside [0, 1] would wrap around in the 8-bit raster
    for bad in (1.5, -0.01, math.nan):
        vals = np.full((3, 3), 0.5)
        vals[1, 2] = bad
        with pytest.raises(ValueError, match="pixel values"):
            write_pgm(vals, tmp_path / "bad.pgm")
    assert not (tmp_path / "bad.pgm").exists()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_inequality_command(tmp_path):
    out = tmp_path / "out"
    code = main(["inequality", "--trials", "5000", "--seed", "7",
                 "--output", str(out)])
    assert code == 0
    rep = json.loads((out / "inequality_report.json").read_text())
    assert rep["passed"]
    assert rep["results"]["scalar"]["min_scaled_gap"] >= -1e-12


def test_fixtures_command(tmp_path):
    out = tmp_path / "out"
    code = main(["fixtures", "--name", "ex51", "--n", "64", "--output", str(out)])
    assert code == 0
    rep = json.loads((out / "fixtures_report.json").read_text())
    assert rep["results"]["ratio_attains_one_and_two"]
    assert rep["results"]["ratio_min"] == 1.0
    assert rep["results"]["ratio_max"] == 2.0


def test_config_error_exit_code(tmp_path):
    code = main(["solve", "--config", str(tmp_path / "missing.json"),
                 "--output", str(tmp_path / "out")])
    assert code == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert "error" in err


def test_bad_operator_kind_is_config_error(tmp_path):
    cfg = _write_cfg(tmp_path, "bad.json", {
        "grid": {"dim": 1, "n": 8},
        "operator": {"kind": "tensor"},
        "source": {"kind": "zero"},
    })
    assert main(["check-hypotheses", "--config", cfg,
                 "--output", str(tmp_path / "out")]) == 2


_SMALL = {"grid": {"dim": 1, "n": 8}, "operator": {"kind": "single", "p": 2.0},
          "source": {"kind": "power"}}
_FIELDS = {"w1": {"name": "constant", "params": {"c": 1.0}},
           "w2": {"name": "exp-linear", "params": {"k": 0.8}}}

# command and config of each bad configuration; "bad.pgm" has a truncated
# header and "small.pgm" is 2 pixels wide
BAD_CONFIGS = {
    "denoise-p-below-one": ("denoise", {"denoise": {"n": 8, "p": 0.9}}),
    "denoise-ramp-without-to": (
        "denoise", {"denoise": {"n": 8, "p": {"kind": "ramp", "from": 1.8}}}),
    "denoise-image-too-small": ("denoise", {"denoise": {"n": 2}}),
    "denoise-missing-pgm": ("denoise", {"denoise": {"input": "missing.pgm"}}),
    "denoise-malformed-pgm": ("denoise", {"denoise": {"input": "bad.pgm"}}),
    "denoise-pgm-too-small": ("denoise", {"denoise": {"input": "small.pgm"}}),
    "denoise-input-a-number": ("denoise", {"denoise": {"input": 5}}),
    "denoise-n-a-list": ("denoise", {"denoise": {"n": [1]}}),
    "denoise-mu-a-list": ("denoise", {"denoise": {"mu": [1]}}),
    "uniqueness-init-outside-unit": ("uniqueness", _SMALL | {"inits": [0.2, 1.5]}),
    # fewer than two limits leave nothing to compare
    "uniqueness-no-inits": ("uniqueness", _SMALL | {"inits": []}),
    "uniqueness-one-init": ("uniqueness", _SMALL | {"inits": [0.5]}),
    "inequality-zero-trials": ("inequality", {"trials": 0}),
    "path-scan-unknown-field": (
        "path-scan", _SMALL | {"fields": _FIELDS | {"w1": {"name": "no-such-field"}}}),
    "path-scan-params-not-an-object": (
        "path-scan", _SMALL | {"fields": _FIELDS | {"w1": {"name": "constant", "params": 5}}}),
    "solve-init-field-missing-param": ("solve", _SMALL | {"init": {"name": "constant"}}),
    "solve-init-field-param-a-list": (
        "solve", _SMALL | {"init": {"name": "constant", "params": {"c": [1, 2]}}}),
    "solve-init-params-not-an-object": (
        "solve", _SMALL | {"init": {"name": "constant", "params": 5}}),
    "config-not-an-object": ("check-hypotheses", [_SMALL]),
    "seeds-not-an-object": ("check-hypotheses", _SMALL | {"seeds": 5}),
    "output-not-an-object": ("check-hypotheses", _SMALL | {"output": "out"}),
    "alpha-not-a-number": ("check-hypotheses", _SMALL | {"alpha": "x"}),
    "operator-negative-d0": (
        "check-hypotheses", _SMALL | {"operator": {"kind": "single", "p": 2.0, "d0": -1}}),
    "grid-not-an-object": ("check-hypotheses", _SMALL | {"grid": 5}),
    "operator-not-an-object": ("check-hypotheses", _SMALL | {"operator": "x"}),
    "source-not-an-object": ("check-hypotheses", _SMALL | {"source": 7}),
    "solver-not-an-object": ("solve", _SMALL | {"solver": []}),
    "fields-not-an-object": ("path-scan", _SMALL | {"fields": 3}),
    "denoise-not-an-object": ("denoise", {"denoise": 3}),
    "fixtures-n-not-a-number": ("fixtures", {"n": "x"}),
    "operator-d0-a-list": (
        "solve", _SMALL | {"operator": {"kind": "single", "p": 2.0, "d0": [1]}}),
    "operator-exponents-not-a-list": (
        "solve", _SMALL | {"operator": {"kind": "multiphase", "exponents": 5,
                                        "weights": [1]}}),
    "source-mu-a-list": ("solve", _SMALL | {"source": {"kind": "fidelity", "mu": [1]}}),
    "solver-tol-a-list": ("solve", _SMALL | {"solver": {"tol": [1]}}),
    # json.dumps writes NaN and Infinity, which json.load accepts by default
    "source-mu-nan": ("solve", _SMALL | {"source": {"kind": "fidelity", "mu": math.nan}}),
    "source-r1-nan": ("solve", _SMALL | {"source": {"kind": "power", "r1": math.nan}}),
    "denoise-eps-nan": ("denoise", {"denoise": {"n": 8, "eps": math.nan}}),
    "grid-extent-nan": ("solve", _SMALL | {"grid": {"dim": 1, "n": 8, "extent": math.nan}}),
    "operator-weight-nan": (
        "solve", _SMALL | {"operator": {"kind": "single", "p": 2.0, "weight": math.nan}}),
    "solver-max-iters-infinity": ("solve", _SMALL | {"solver": {"max_iters": math.inf}}),
    # integer literals that overflow a double, the second also past the
    # digit limit of int(), which json.dumps cannot write
    "source-mu-overflows-a-double": (
        "check-hypotheses", _SMALL | {"source": {"kind": "fidelity", "mu": 10**400}}),
    # its panel table could not be tiled within the budget
    "huge-delta": ("denoise", {"denoise": {"n": 8, "delta": 1e300}}),
    "grid-n-past-the-int-digit-limit": (
        "check-hypotheses", '{"grid": {"dim": 1, "n": 1' + "0" * 5000 + "}}"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_with_error_json(tmp_path, monkeypatch, case):
    command, cfg = BAD_CONFIGS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.pgm").write_bytes(b"P5\n3 3\n")
    (tmp_path / "small.pgm").write_bytes(b"P5\n2 3\n255\n" + bytes(6))
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    # --output would skip reading a bad "output"; its error.json lands in the cwd
    bad_output = case == "output-not-an-object"
    flags = [] if bad_output else ["--output", "out"]
    assert main([command, "--config", path] + flags) == 2
    err = json.loads((tmp_path / ("." if bad_output else "out") / "error.json").read_text())
    assert err["command"] == command and err["error"]


def test_error_json_goes_to_the_configured_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, "bad.json", _SMALL | {
        "operator": {"kind": "tensor"}, "output": {"dir": "reports"}})
    assert main(["check-hypotheses", "--config", cfg]) == 2
    assert json.loads((tmp_path / "reports" / "error.json").read_text())["error"]
    assert not (tmp_path / "error.json").exists()


def test_check_hypotheses_command(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "grid": {"dim": 1, "n": 16},
        "operator": {"kind": "multiphase", "exponents": [2.0, 3.0],
                      "weights": [1.0, 1.0]},
        "source": {"kind": "power", "r1": 1.0, "q1": 1.0},
        "alpha": 1.5,
        "seeds": {"main": 3},
    })
    out = tmp_path / "out"
    assert main(["check-hypotheses", "--config", cfg, "--output", str(out)]) == 0
    rep = json.loads((out / "check-hypotheses_report.json").read_text())
    checks = rep["results"]["hypotheses"]["checks"]
    assert checks["H4"]["status"] == "pass"
    assert checks["H7'"]["status"] == "pass"
    assert rep["results"]["homogeneity"]["agree"] is True


def test_path_scan_command_csv_format(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "grid": {"dim": 1, "n": 24},
        "operator": {"kind": "image", "p": 2.0, "eps": 0.5, "delta": 1.0},
        "source": {"kind": "power", "r1": 1.0, "q1": 1.0},
        "alpha": 1.5,
        "fields": {
            "w1": {"name": "quadratic-bump", "params": {"base": 1.0, "amp": 1.0}},
            "w2": {"name": "exp-linear", "params": {"k": 0.8}},
        },
    })
    out = tmp_path / "out"
    assert main(["path-scan", "--config", cfg, "--output", str(out)]) == 0
    text = (out / "path_scan.csv").read_text()
    lines = text.split("\n")
    assert lines[0] == "theta,beta,beta_prime,cor64_gap"
    assert len(lines) == 43  # header + 41 rows + trailing newline
    assert "\r" not in text
    for field in lines[1].split(","):
        float(field)


def test_solve_command_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "grid": {"dim": 2, "n": 8},
        "operator": {"kind": "single", "p": 2.0},
        "source": {"kind": "fidelity", "mu": 1.0, "g": 0.5},
        "alpha": 1.5,
        "init": 0.3,
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output", str(out)]) == 0
    rep = json.loads((out / "solve_report.json").read_text())
    assert rep["results"]["converged"] and rep["results"]["note"] == ""
    assert rep["results"]["weak_form_defect"]["passed"]
    assert rep["results"]["hvps"] >= rep["results"]["iterations"] >= 1
    assert (out / "solution.csv").exists()
    img = read_pgm(out / "solution.pgm")
    assert img.shape == (8, 8)
    assert abs(img[0, 0] - 0.5) < 0.01


def test_unconverged_solve_reports_why_it_stopped(tmp_path):
    # single-phase p = 1.2 stalls (the flux Jacobian is unbounded at zero
    # gradient); the report alone must say why the solve ended
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "grid": {"dim": 2, "n": 12},
        "operator": {"kind": "single", "p": 1.2},
        "source": {"kind": "fidelity", "mu": 1.0, "g": "synthetic"},
        "alpha": 1.1,
        "init": 0.2,
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output", str(out)]) == 1
    res = json.loads((out / "solve_report.json").read_text())["results"]
    assert not res["converged"] and res["note"]
    assert res["residual_floor"] > 1e-8 and "rounding floor" in res["note"]


def test_solve_accepts_field_spec_init(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "grid": {"dim": 1, "n": 16},
        "operator": {"kind": "single", "p": 2.0},
        "source": {"kind": "fidelity", "mu": 1.0, "g": 0.5},
        "alpha": 1.5,
        "init": {"name": "quadratic-bump", "params": {"base": 0.3, "amp": 0.2}},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output", str(out)]) == 0
    rep = json.loads((out / "solve_report.json").read_text())
    assert rep["results"]["converged"]


def test_solve_ignores_the_retired_step_key(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "grid": {"dim": 1, "n": 16},
        "operator": {"kind": "single", "p": 2.0},
        "source": {"kind": "fidelity", "mu": 1.0, "g": 0.5},
        "alpha": 1.5,
        "init": 0.3,
        "solver": {"tol": 1e-9, "max_iters": 30, "step": 0.25},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output", str(out)]) == 0
    rep = json.loads((out / "solve_report.json").read_text())
    assert rep["config"]["solver"] == {"tol": 1e-9, "max_iters": 30}


def test_uniqueness_command(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "grid": {"dim": 2, "n": 8},
        "operator": {"kind": "multiphase", "exponents": [2.0, 3.0],
                      "weights": [1.0, 1.0]},
        "source": {"kind": "fidelity", "mu": 1.0, "g": "synthetic"},
        "alpha": 1.5,
        "inits": [0.2, 0.9],
    })
    out = tmp_path / "out"
    assert main(["uniqueness", "--config", cfg, "--output", str(out)]) == 0
    rep = json.loads((out / "uniqueness_report.json").read_text())
    exp = rep["results"]["experiment"]
    assert exp["uniqueness_ok"]
    assert exp["max_pairwise_sup"] <= 1e-6


def test_denoise_command(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "denoise": {"input": "synthetic", "n": 12, "mu": 2.0,
                     "eps": 0.5, "delta": 1.0, "p": 2.0},
        "alpha": 1.5,
    })
    out = tmp_path / "out"
    assert main(["denoise", "--config", cfg, "--output", str(out)]) == 0
    rep = json.loads((out / "denoise_report.json").read_text())
    assert rep["results"]["converged"]
    assert rep["results"]["in_unit_box"]
    assert "tv_input" in rep["results"] and "tv_output" in rep["results"]
    assert rep["results"]["hvps"] >= rep["results"]["iterations"] >= 1
    img = read_pgm(out / "denoised.pgm")
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_denoise_non_square_image(tmp_path):
    rng = np.random.default_rng(0)
    vals = np.clip(0.5 + 0.2 * rng.standard_normal((8, 12)), 0.05, 0.95)
    src = tmp_path / "in.pgm"
    write_pgm(vals, src)
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "denoise": {"input": str(src), "mu": 2.0, "eps": 0.5, "delta": 1.0, "p": 2.0},
        "alpha": 1.5,
    })
    out = tmp_path / "out"
    assert main(["denoise", "--config", cfg, "--output", str(out)]) == 0
    res = read_pgm(out / "denoised.pgm")
    assert res.shape == (8, 12)


def test_denoise_constant_input_is_fixed_point(tmp_path):
    n = 8
    src = tmp_path / "in.pgm"
    write_pgm(np.full((n, n), 128 / 255.0), src)
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "denoise": {"input": str(src), "mu": 1.0, "eps": 0.5, "delta": 1.0,
                     "p": 2.0, "init": 0.3},
        "alpha": 1.5,
    })
    out = tmp_path / "out"
    assert main(["denoise", "--config", cfg, "--output", str(out)]) == 0
    res = read_pgm(out / "denoised.pgm")
    assert np.allclose(res, 128 / 255.0, atol=1e-6)


def test_denoise_can_start_from_the_input_image(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "denoise": {"input": "synthetic", "n": 10, "mu": 2.0, "eps": 0.5,
                     "delta": 1.0, "p": 2.0, "init": "input"},
        "alpha": 1.5,
    })
    out = tmp_path / "out"
    assert main(["denoise", "--config", cfg, "--output", str(out)]) == 0
    rep = json.loads((out / "denoise_report.json").read_text())
    assert rep["results"]["converged"]


def test_denoise_writes_a_state_rounded_just_below_zero(tmp_path):
    # half black, half white at mu = 1e6 from the input: the solve converges
    # to a state about 1e-18 below 0 in places, which in_unit_box admits;
    # the PGM writer clips it instead of raising
    vals = np.zeros((16, 16))
    vals[8:] = 1.0
    src = tmp_path / "halves.pgm"
    write_pgm(vals, src)
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "denoise": {"input": str(src), "mu": 1e6, "init": "input"}, "alpha": 1.5})
    out = tmp_path / "out"
    code = main(["denoise", "--config", cfg, "--output", str(out)])
    rep = json.loads((out / "denoise_report.json").read_text())
    assert rep["results"]["converged"] and rep["results"]["in_unit_box"]
    assert rep["results"]["output"] == "denoised.pgm"
    assert code == 0
    assert np.array_equal(read_pgm(out / "denoised.pgm"), vals)


def test_csv_floats_roundtrip_exactly(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "grid": {"dim": 1, "n": 16},
        "operator": {"kind": "single", "p": 2.0},
        "source": {"kind": "fidelity", "mu": 1.0, "g": 0.37},
        "alpha": 1.5,
        "init": 0.6,
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output", str(out)]) == 0
    rep = json.loads((out / "solve_report.json").read_text())
    lines = (out / "solution.csv").read_text().strip().split("\n")
    # 17 significant digits reproduce the solved nodal values bit for bit
    vals = np.array([float(line.split(",")[2]) for line in lines[1:]])
    probe = abs(float(rep["results"]["energy"]))
    assert vals.shape == (16,)
    assert np.allclose(vals, vals[0])  # constant fixed point
    assert float(f"{probe:.17g}") == probe


def test_reports_reproducible_apart_from_timestamp(tmp_path):
    # the path-scan and denoise reports go through the image primitive
    image = {"kind": "image", "p": 2.0, "eps": 0.5, "delta": 1.0}
    runs = {
        "inequality": {"trials": 4000, "seeds": {"main": 5}},
        "path-scan": {"grid": {"dim": 2, "n": 8}, "operator": image,
                      "source": {"kind": "power", "r1": 1.0, "q1": 1.0},
                      "alpha": 1.5, "seeds": {"main": 5},
                      "fields": {"w1": {"name": "quadratic-bump",
                                        "params": {"base": 1.0, "amp": 1.0}},
                                 "w2": {"name": "exp-linear", "params": {"k": 0.8}}}},
        "denoise": {"denoise": {"input": "synthetic", "n": 12, "mu": 2.0},
                    "alpha": 1.5, "seeds": {"main": 5}},
    }
    scrub = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', s)
    for command, config in runs.items():
        cfg = _write_cfg(tmp_path, f"{command}.json", config)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / command / name
            assert main([command, "--config", cfg, "--output", str(out)]) == 0
            outs.append((out / f"{command}_report.json").read_text())
        assert scrub(outs[0]) == scrub(outs[1])
        assert json.loads(outs[0])["config"]["seeds"]["main"] == 5


_FIDELITY = _SMALL | {"source": {"kind": "fidelity", "g": 0.5}}

_TWO_PHASE = {"operator": {"kind": "multiphase", "exponents": [2.0, 3.0], "weights": [1.0, 1.0]},
              "source": {"kind": "fidelity", "g": 0.3}, "alpha": 1.5}

_P300 = {"grid": {"dim": 1, "n": 8}, "operator": {"kind": "single", "p": 300.0},
         "source": {"kind": "fidelity", "g": 0.5}, "init": 0.3}

# command, config and exit code of a tiny run of every command, and of runs
# that fail a check: two out of iterations, two whose profile overflows on
# the gate's ladder (Phi = s^299 past s = 10.7; check-hypotheses also
# samples the homogeneity past the double range), two whose source weight
# (fidelity mu or power r1 = 1e300) overflows the solver's products, and two
# boxes whose weak-form test functions are scaled to the box while the
# gate's H8 trial fields overflow
REPORT_RUNS = {
    "check-hypotheses": ("check-hypotheses", _SMALL, 0),
    "inequality": ("inequality", {"trials": 200}, 0),
    "path-scan": ("path-scan", _SMALL | {"fields": _FIELDS}, 0),
    "solve": ("solve", _FIDELITY | {"init": 0.3}, 0),
    "solve-out-of-iterations": (
        "solve", _FIDELITY | {"init": 0.3, "solver": {"max_iters": 0}}, 1),
    "uniqueness": ("uniqueness", _FIDELITY, 0),
    "denoise": ("denoise", {"denoise": {"n": 6}}, 0),
    "denoise-out-of-iterations": ("denoise", {"denoise": {"n": 6},
                                              "solver": {"max_iters": 0}}, 1),
    "fixtures": ("fixtures", {"n": 16}, 0),
    "solve-p300": ("solve", _P300, 1),
    "check-hypotheses-p300": ("check-hypotheses", _P300, 1),
    "solve-huge-mu": ("solve", _TWO_PHASE | {
        "grid": {"dim": 2, "n": 16}, "source": {"kind": "fidelity", "g": 0.3, "mu": 1e300}}, 1),
    "solve-huge-r1": ("solve", _TWO_PHASE | {
        "grid": {"dim": 2, "n": 16}, "source": {"kind": "power", "r1": 1e300}}, 1),
    "solve-thin-box": ("solve", _TWO_PHASE | {"grid": {"dim": 2, "n": [3, 40],
                                                       "extent": [1e-3, 1e3]}}, 1),
    "solve-huge-box": ("solve", _TWO_PHASE | {"grid": {"dim": 1, "n": 8, "extent": 1e300}}, 1),
}


@pytest.mark.filterwarnings("error")  # overflow is reported, never printed
@pytest.mark.parametrize("case", sorted(REPORT_RUNS))
def test_every_command_writes_one_report_that_matches_its_exit_code(tmp_path, case):
    command, config, expected = REPORT_RUNS[case]
    out = tmp_path / "out"
    code = main([command, "--config", _write_cfg(tmp_path, "cfg.json", config),
                 "--output", str(out)])
    assert code == expected
    assert [p.name for p in out.glob("*.json")] == [f"{command}_report.json"]
    # strict JSON: no NaN or Infinity anywhere in the report
    rep = json.loads((out / f"{command}_report.json").read_text(), parse_constant=_reject_constant)
    assert rep["command"] == command and rep["passed"] == (code == 0)


# image profiles whose growth constant b cannot be located: the ratio it
# bounds decays too slowly
GROWTH_LIMITS = {
    "p-near-alpha": {"alpha": 1.005, "denoise": {"p": 1.01}},
    "huge-eps": {"denoise": {"eps": 1e300}},
}


@pytest.mark.parametrize("case", sorted(GROWTH_LIMITS))
def test_unlocated_growth_constant_leaves_h6_not_checked(tmp_path, case):
    # the gate fails on it and the run still solves and writes its report
    out = tmp_path / "out"
    code = main(["denoise", "--config", _write_cfg(tmp_path, "cfg.json", GROWTH_LIMITS[case]),
                 "--output", str(out)])
    assert code == 1
    assert [p.name for p in out.glob("*.json")] == ["denoise_report.json"]
    # strict JSON: no NaN or Infinity anywhere in the report
    res = json.loads((out / "denoise_report.json").read_text(),
                     parse_constant=_reject_constant)["results"]
    h6 = res["gate"]["checks"]["H6"]
    assert h6["status"] == "not-checked" and "decays too slowly" in h6["note"]
    assert not res["gate_ok"] and res["converged"]
    if case == "huge-eps":  # eps^alpha overflows: c2 = inf would pass H8-alpha vacuously
        h8 = res["gate"]["checks"]["H8-alpha"]
        assert h8["status"] == "not-checked" and "not finite" in h8["note"]


def _reject_constant(name):
    raise ValueError(f"report holds {name}")


# boxes whose trial fields overflow (100, 300) or whose cell volume is not a
# normal float (1e-300 underflows, 1e300 overflows), two-phase [2, 3] on 16x16
HOSTILE_BOXES = {100.0: 1, 300.0: 1, 1e-300: 2, 1e300: 2}


@pytest.mark.parametrize("extent", sorted(HOSTILE_BOXES))
def test_hostile_box_leaves_h8_not_checked_or_is_rejected(tmp_path, extent):
    cfg = {"grid": {"dim": 2, "n": 16, "extent": extent},
           "operator": {"kind": "multiphase", "exponents": [2.0, 3.0], "weights": [1.0, 1.0]},
           "source": {"kind": "fidelity", "g": 0.3}, "alpha": 1.5,
           "solver": {"max_iters": 500}}
    out = tmp_path / "out"
    code = main(["solve", "--config", _write_cfg(tmp_path, "cfg.json", cfg), "--output", str(out)])
    assert code == HOSTILE_BOXES[extent]
    if code == 2:
        err = json.loads((out / "error.json").read_text(), parse_constant=_reject_constant)
        assert "cell volume" in err["error"]
        return
    assert [p.name for p in out.glob("*.json")] == ["solve_report.json"]
    # strict JSON: no NaN or Infinity anywhere in the report
    res = json.loads((out / "solve_report.json").read_text(),
                     parse_constant=_reject_constant)["results"]
    h8 = res["gate"]["checks"]["H8-pX"]
    assert h8["status"] == "not-checked" and "trial field 2 (exp-linear)" in h8["note"]
    assert not res["gate_ok"]


def test_denoise_large_mu_tracks_input(tmp_path):
    # dominant fidelity pins the output to the data on smooth inputs
    n = 12
    x = (np.arange(n) + 0.5) / n
    smooth = 0.5 + 0.1 * np.cos(2 * np.pi * x)[:, None] * np.cos(2 * np.pi * x)[None, :]
    src = tmp_path / "smooth.pgm"
    write_pgm(smooth, src)
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "denoise": {"input": str(src), "mu": 1000.0,
                     "eps": 0.5, "delta": 1.0, "p": 2.0},
        "alpha": 1.5,
    })
    out = tmp_path / "out"
    assert main(["denoise", "--config", cfg, "--output", str(out)]) == 0
    res = read_pgm(out / "denoised.pgm")
    diff = np.max(np.abs(res - read_pgm(src)))
    assert diff <= 0.01


def test_denoise_checkerboard_smoothing_reported(tmp_path):
    n = 12
    board = np.indices((n, n)).sum(axis=0) % 2 * 0.6 + 0.2
    src = tmp_path / "board.pgm"
    write_pgm(board, src)
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "denoise": {"input": str(src), "mu": 5.0, "eps": 0.5, "delta": 1.0,
                     "p": 2.0},
        "alpha": 1.5,
    })
    out = tmp_path / "out"
    assert main(["denoise", "--config", cfg, "--output", str(out)]) == 0
    rep = json.loads((out / "denoise_report.json").read_text())
    # smoothing is qualitative: the report carries both numbers
    assert rep["results"]["tv_output"] < rep["results"]["tv_input"]


def test_config_number_overflowing_a_double_is_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"grid": {"dim": 1, "n": 8, "extent": 1e400}}')
    assert main(["check-hypotheses", "--config", str(path),
                 "--output", str(tmp_path / "out")]) == 2
    assert "finite" in json.loads((tmp_path / "out" / "error.json").read_text())["error"]


def test_report_writes_numpy_values_as_their_python_values(tmp_path):
    grid = [[0.1, -2.0, 5e-324], [1e300, 0.0, 3.0]]
    plain = {"flag": True, "off": False, "count": 2**53 + 1, "x": 0.1 + 0.2,
             "nan": math.nan, "half": 0.5, "third": 0.3333333432674408, "grid": grid,
             "nested": [{"k": -7, "t": [True, 1e-310]}]}
    numpy = {"flag": np.bool_(True), "off": np.bool_(False), "count": np.int64(2**53 + 1),
             "x": np.float64(0.1 + 0.2), "nan": np.float64(math.nan),
             "half": np.float32(0.5), "third": np.float32(1.0 / 3.0), "grid": np.array(grid),
             "nested": [{"k": np.int64(-7), "t": (np.bool_(True), np.float64(1e-310))}]}
    written = []
    for name, results in (("plain", plain), ("numpy", numpy)):
        path = _write_report(tmp_path / name, "solve", {"seed": 1}, results, True)
        written.append(re.sub(rb'"timestamp": "[^"]*"', b"", path.read_bytes()))
    assert written[0] == written[1]


def test_csv_writer_matches_the_fstring_reference(tmp_path):
    ints = np.array([0, 7, -3, 123456789, 2**53 + 1])
    floats = np.array([-0.0, 5e-324, 1e300, 0.1 + 0.2, 1.0 / 3.0])
    more = np.array([2.0 / 3.0, -1.7976931348623157e308, 1e-310, 12.0, np.pi])
    path = tmp_path / "rows.csv"
    _write_csv(path, ["i", "a", "b"], "%d,%.17g,%.17g\n", (ints, floats, more))
    reference = "i,a,b\n" + "".join(
        ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in zip(ints.tolist(), floats.tolist(), more.tolist()))
    assert path.read_bytes() == reference.encode()


# 1-D, square and non-square 2-D grids; 90 x 80 nodes span two blocks of rows
SOLUTION_GRIDS = {"1d": (1, 40, 1.0), "square": (2, 16, 1.0),
                  "non-square": (2, [12, 20], [1.0, 1.7]), "block-edge": (2, [90, 80], 1.0)}


@pytest.mark.parametrize("case", sorted(SOLUTION_GRIDS))
def test_solution_csv_matches_the_per_row_writer(tmp_path, case):
    grid = build_grid(*SOLUTION_GRIDS[case])
    U = np.random.default_rng(grid.npoints).uniform(-1.0, 2.0, grid.n)
    U.flat[:5] = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 1.0 / 3.0]
    _write_solution_csv(tmp_path / "got.csv", grid, U)
    x, flat = grid.quad_points, U.ravel()
    if grid.dim == 1:
        ref_write_csv(tmp_path / "want.csv", ["i", "x", "value"], "%d,%.17g,%.17g\n",
                      (np.arange(grid.npoints), x[:, 0], flat))
    else:
        i, j = np.divmod(np.arange(grid.npoints), grid.n[1])
        ref_write_csv(tmp_path / "want.csv", ["i", "j", "x1", "x2", "value"],
                      "%d,%d,%.17g,%.17g,%.17g\n", (i, j, x[:, 0], x[:, 1], flat))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_total_variation_of_the_first_coordinate(n):
    # u = x1 jumps by h across each of the (n - 1) n faces normal to x1, of area h
    grid = build_grid(2, n, 1.0)
    u = grid.quad_points[:, 0].reshape(n, n)
    assert _total_variation(u, grid) == pytest.approx((n - 1) / n, rel=1e-12)


def test_total_variation_is_resolution_independent():
    tv = [_total_variation(synthetic_image(n, seed=7), build_grid(2, n, 1.0))
          for n in (64, 128)]
    assert abs(tv[1] - tv[0]) < 0.1 * tv[0]
