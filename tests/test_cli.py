import json
import re

import numpy as np
import pytest

from pxlab.cli import Image, main, read_pgm, write_pgm


def _write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# ---------------------------------------------------------------------------
# PGM round trips
# ---------------------------------------------------------------------------

def test_pgm_gray_values(tmp_path):
    img = Image(width=3, height=3, values=np.full((3, 3), 128 / 255.0))
    path = tmp_path / "g.pgm"
    write_pgm(img, path)
    back = read_pgm(path)
    assert back.width == back.height == 3
    assert np.allclose(back.values, 128 / 255.0)
    assert back.values[0, 0] == pytest.approx(0.50196, abs=1e-5)


def test_pgm_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    img = Image(width=7, height=5, values=rng.integers(0, 256, (5, 7)) / 255.0)
    p1 = tmp_path / "a.pgm"
    p2 = tmp_path / "b.pgm"
    write_pgm(img, p1)
    write_pgm(read_pgm(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_header_comments(tmp_path):
    raster = bytes(range(9))
    (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n3 3\n255\n" + raster)
    img = read_pgm(tmp_path / "c.pgm")
    assert img.values[0, 1] == pytest.approx(1 / 255.0)


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


def test_image_validation():
    with pytest.raises(ValueError):
        Image(width=2, height=3, values=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Image(width=3, height=3, values=np.full((3, 3), 1.5))


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

# command and config of each bad configuration; "bad.pgm" has a truncated header
BAD_CONFIGS = {
    "denoise-p-below-one": ("denoise", {"denoise": {"n": 8, "p": 0.9}}),
    "denoise-ramp-without-to": (
        "denoise", {"denoise": {"n": 8, "p": {"kind": "ramp", "from": 1.8}}}),
    "denoise-image-too-small": ("denoise", {"denoise": {"n": 2}}),
    "denoise-missing-pgm": ("denoise", {"denoise": {"input": "missing.pgm"}}),
    "denoise-malformed-pgm": ("denoise", {"denoise": {"input": "bad.pgm"}}),
    "uniqueness-init-outside-unit": ("uniqueness", _SMALL | {"inits": [0.2, 1.5]}),
    "inequality-zero-trials": ("inequality", {"trials": 0}),
    "path-scan-unknown-field": (
        "path-scan", _SMALL | {"fields": _FIELDS | {"w1": {"name": "no-such-field"}}}),
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
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_with_error_json(tmp_path, monkeypatch, case):
    command, cfg = BAD_CONFIGS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.pgm").write_bytes(b"P5\n3 3\n")
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
    assert img.width == img.height == 8
    assert abs(img.values[0, 0] - 0.5) < 0.01


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
    assert img.values.min() >= 0.0 and img.values.max() <= 1.0


def test_denoise_non_square_image(tmp_path):
    rng = np.random.default_rng(0)
    vals = np.clip(0.5 + 0.2 * rng.standard_normal((8, 12)), 0.05, 0.95)
    src = tmp_path / "in.pgm"
    write_pgm(Image(width=12, height=8, values=vals), src)
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "denoise": {"input": str(src), "mu": 2.0, "eps": 0.5, "delta": 1.0, "p": 2.0},
        "alpha": 1.5,
    })
    out = tmp_path / "out"
    assert main(["denoise", "--config", cfg, "--output", str(out)]) == 0
    res = read_pgm(out / "denoised.pgm")
    assert (res.width, res.height) == (12, 8)


def test_denoise_constant_input_is_fixed_point(tmp_path):
    n = 8
    src = tmp_path / "in.pgm"
    write_pgm(Image(width=n, height=n, values=np.full((n, n), 128 / 255.0)), src)
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "denoise": {"input": str(src), "mu": 1.0, "eps": 0.5, "delta": 1.0,
                     "p": 2.0, "init": 0.3},
        "alpha": 1.5,
    })
    out = tmp_path / "out"
    assert main(["denoise", "--config", cfg, "--output", str(out)]) == 0
    res = read_pgm(out / "denoised.pgm")
    assert np.allclose(res.values, 128 / 255.0, atol=1e-6)


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


def test_denoise_large_mu_tracks_input(tmp_path):
    # dominant fidelity pins the output to the data on smooth inputs
    n = 12
    x = (np.arange(n) + 0.5) / n
    smooth = 0.5 + 0.1 * np.cos(2 * np.pi * x)[:, None] * np.cos(2 * np.pi * x)[None, :]
    src = tmp_path / "smooth.pgm"
    write_pgm(Image(width=n, height=n, values=smooth), src)
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "denoise": {"input": str(src), "mu": 1000.0,
                     "eps": 0.5, "delta": 1.0, "p": 2.0},
        "alpha": 1.5,
    })
    out = tmp_path / "out"
    assert main(["denoise", "--config", cfg, "--output", str(out)]) == 0
    res = read_pgm(out / "denoised.pgm")
    diff = np.max(np.abs(res.values - read_pgm(src).values))
    assert diff <= 0.01


def test_denoise_checkerboard_smoothing_reported(tmp_path):
    n = 12
    board = np.indices((n, n)).sum(axis=0) % 2 * 0.6 + 0.2
    src = tmp_path / "board.pgm"
    write_pgm(Image(width=n, height=n, values=board), src)
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
