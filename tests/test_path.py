import tracemalloc

import numpy as np
import pytest

import pxlab.grid
import pxlab.path
from pxlab import (JetField, alpha_root_jet, beta_scan, build_grid, default_thetas,
                   energy_J, integrate, jet_linear, make_path, path_jets)
from pxlab.path import FD_STEP

from util import fidelity_src, grid_1d, image_op, power_src, random_positive_jet, \
    single_phase, two_phase


def _const_jet(n, c):
    return JetField(np.full(n, float(c)), np.zeros((n, 1)))


def test_make_path_examples():
    ctx = make_path(_const_jet(16, 1.0), _const_jet(16, 2.0), 2.0)
    assert ctx.M == 2.0 and ctx.theta0 == 0.5
    ctx4 = make_path(_const_jet(16, 1.0), _const_jet(16, 4.0), 2.0)
    assert ctx4.M == 4.0 and ctx4.theta0 == pytest.approx(1.0 / 6.0)
    same = make_path(_const_jet(16, 1.3), _const_jet(16, 1.3), 1.5)
    assert same.M == 1.0 and same.theta0 == np.inf


def test_make_path_validation():
    w = _const_jet(16, 1.0)
    with pytest.raises(ValueError):
        make_path(_const_jet(16, 0.0), w, 1.5)
    with pytest.raises(ValueError):
        make_path(w, _const_jet(16, 1e7), 1.5)  # sampled ratio cap
    with pytest.raises(ValueError):
        make_path(w, w, 2.5)
    with pytest.raises(ValueError):
        make_path(w, w, 1.0)


def test_path_jets_endpoints_and_gamma():
    grid = grid_1d(16)
    rng = np.random.default_rng(0)
    w1 = random_positive_jet(rng, grid)
    w2 = random_positive_jet(rng, grid)
    ctx = make_path(w1, w2, 1.5)
    at1, _ = path_jets(ctx, 1.0)
    assert np.allclose(at1.values, w1.values, rtol=1e-14)
    assert np.allclose(at1.grads, w1.grads, rtol=1e-14)
    at0, _ = path_jets(ctx, 0.0)
    assert np.allclose(at0.values, w2.values, rtol=1e-14)

    ctx2 = make_path(_const_jet(16, 1.0), _const_jet(16, 2.0), 2.0)
    w_half, gamma = path_jets(ctx2, 0.5)
    assert np.allclose(w_half.values, 1.5)
    assert np.allclose(gamma.values, -0.5 / np.sqrt(1.5), rtol=1e-14)

    with pytest.raises(ValueError):
        path_jets(ctx2, 1.6)  # outside (-0.5, 1.5)


def test_gamma_gradient_matches_value_differences():
    errs = []
    for n in (64, 128):
        grid = grid_1d(n)
        rng = np.random.default_rng(1)
        w1 = random_positive_jet(rng, grid)
        w2 = random_positive_jet(rng, grid)
        ctx = make_path(w1, w2, 1.5)
        _, gamma = path_jets(ctx, 0.3)
        h = grid.h[0]
        fd = (gamma.values[2:] - gamma.values[:-2]) / (2 * h)
        errs.append(np.max(np.abs(fd - gamma.grads[1:-1, 0])))
    assert errs[1] <= errs[0] / 3.0


def test_segment_bounds_hold_across_thetas():
    grid = grid_1d(48)
    rng = np.random.default_rng(2)
    for _ in range(10):
        w1 = random_positive_jet(rng, grid)
        w2 = random_positive_jet(rng, grid)
        ctx = make_path(w1, w2, 1.5)
        vmin = np.minimum(w1.values, w2.values)
        vmax = np.maximum(w1.values, w2.values)
        for theta in default_thetas(ctx):
            w_t, _ = path_jets(ctx, theta)  # internal bound checks must not fire
            assert np.all(w_t.values >= 0.5 * vmin * (1 - 1e-12))
            assert np.all(w_t.values <= 1.5 * vmax * (1 + 1e-12))
            for w in (w1, w2):
                ratio = w.values / w_t.values
                assert ratio.min() >= 2.0 / (3.0 * ctx.M) * (1 - 1e-12)
                assert ratio.max() <= 2.0 * ctx.M * (1 + 1e-12)


def test_positive_closure_under_scaling_and_sums():
    grid = grid_1d(32)
    rng = np.random.default_rng(3)
    for _ in range(20):
        w1 = random_positive_jet(rng, grid)
        w2 = random_positive_jet(rng, grid)
        theta = float(rng.uniform(0.1, 5.0))
        for w in (jet_linear(theta, w1, 0.0, w2), jet_linear(1.0, w1, 1.0, w2)):
            assert w.values.min() > 0.0
            alpha_root_jet(w, 1.5)  # the jet validates that it is finite
    with pytest.raises(ValueError):
        alpha_root_jet(_const_jet(32, -1.0), 1.5)


def test_energy_J_examples():
    grid = grid_1d(16)
    fam = single_phase(grid, 2.0, alpha=2.0)
    src = power_src(grid.npoints, r1=1.0, q1=1.0, alpha=2.0)
    ones = _const_jet(16, 1.0)
    assert energy_J(fam, src, ones, grid) == pytest.approx(0.5, rel=1e-13)
    zero = power_src(grid.npoints, r1=0.0, q1=1.0, alpha=2.0)
    assert energy_J(fam, zero, ones, grid) == 0.0
    # zero-gradient fields see no operator contribution at all
    other = two_phase(grid, alpha=1.5)
    src15 = power_src(grid.npoints, r1=1.0, q1=1.0, alpha=1.5)
    c = _const_jet(16, 0.7)
    assert energy_J(single_phase(grid, 2.0, alpha=1.5), src15, c, grid) == \
        pytest.approx(energy_J(other, src15, c, grid), rel=1e-13)


def test_beta_scan_constant_segment():
    grid = grid_1d(24)
    rng = np.random.default_rng(4)
    w = random_positive_jet(rng, grid)
    fam = single_phase(grid, 2.0, alpha=2.0)
    src = power_src(grid.npoints, r1=1.0, q1=1.0, alpha=2.0)
    ctx = make_path(w, w, 2.0)
    scan = beta_scan(ctx, fam, src, grid)
    assert np.max(np.abs(scan.beta_prime)) <= 1e-12
    assert scan.beta.max() - scan.beta.min() <= 1e-13


def test_beta_scan_endpoints_match_energy():
    grid = grid_1d(24)
    rng = np.random.default_rng(5)
    w1 = random_positive_jet(rng, grid)
    w2 = random_positive_jet(rng, grid)
    fam = two_phase(grid, alpha=1.5)
    src = power_src(grid.npoints, r1=1.0, q1=1.0, alpha=1.5)
    ctx = make_path(w1, w2, 1.5)
    scan = beta_scan(ctx, fam, src, grid)
    assert scan.beta_at_1 == pytest.approx(energy_J(fam, src, w1, grid), rel=1e-13)
    assert scan.beta_at_0 == pytest.approx(energy_J(fam, src, w2, grid), rel=1e-13)


def test_beta_scan_convexity_smooth_leg():
    grid = grid_1d(32)
    rng = np.random.default_rng(6)
    w1 = random_positive_jet(rng, grid)
    w2 = random_positive_jet(rng, grid)
    fam = single_phase(grid, 2.0, alpha=2.0)
    src = power_src(grid.npoints, r1=1.0, q1=1.0, alpha=2.0)
    scan = beta_scan(make_path(w1, w2, 2.0), fam, src, grid)
    assert scan.min_beta_prime_step >= -1e-10
    assert scan.fd_max_rel_err <= 1e-6
    on_unit = (scan.thetas >= 0) & (scan.thetas <= 1)
    assert scan.cor64_gap[on_unit].min() >= -1e-10
    assert scan.strict_gap_ok is None  # the alpha = 2 source is not strict


def test_beta_scan_strict_leg():
    grid = grid_1d(32)
    rng = np.random.default_rng(7)
    w1 = random_positive_jet(rng, grid)
    w2 = random_positive_jet(rng, grid)
    fam = image_op(grid, alpha=1.5)
    src = power_src(grid.npoints, r1=1.0, q1=1.0, alpha=1.5)
    assert src.strict13_flag
    scan = beta_scan(make_path(w1, w2, 1.5), fam, src, grid)
    assert scan.min_beta_prime_step >= -1e-10
    assert scan.fd_max_rel_err <= 1e-6
    assert scan.strict_gap_ok is True


def test_beta_scan_2d_with_variable_exponent():
    from pxlab import build_grid, exponent_field, make_image_operator

    grid = build_grid(2, 7, 1.0)
    rng = np.random.default_rng(8)
    w1 = random_positive_jet(rng, grid)
    w2 = random_positive_jet(rng, grid)
    p = exponent_field(grid, 1.8 + 0.4 * grid.quad_points[:, 0])
    fam = make_image_operator(p, 0.5, 1.0, 1.5)
    src = power_src(grid.npoints, r1=1.0, q1=1.0, alpha=1.5)
    scan = beta_scan(make_path(w1, w2, 1.5), fam, src, grid)
    assert scan.min_beta_prime_step >= -1e-10
    assert scan.fd_max_rel_err <= 1e-6
    on_unit = (scan.thetas >= 0) & (scan.thetas <= 1)
    assert scan.cor64_gap[on_unit].min() >= -1e-10


def test_beta_scan_validation():
    grid = grid_1d(16)
    w1 = _const_jet(16, 1.0)
    w2 = _const_jet(16, 2.0)
    src = power_src(grid.npoints, r1=1.0, q1=1.0, alpha=1.5)
    ctx = make_path(w1, w2, 1.5)
    with pytest.raises(ValueError):
        beta_scan(ctx, single_phase(grid, 2.0, alpha=2.0), src, grid)
    fam = single_phase(grid, 2.0, alpha=1.5)
    with pytest.raises(ValueError):
        beta_scan(ctx, fam, power_src(grid.npoints, alpha=2.0), grid)
    # J and beta' share one alpha-root jet, so the alphas must agree exactly
    with pytest.raises(ValueError, match="source alpha must match the path alpha"):
        beta_scan(ctx, fam, power_src(grid.npoints, alpha=1.5 + 1e-13), grid)


def test_default_thetas_inside_interval():
    ctx = make_path(_const_jet(8, 1.0), _const_jet(8, 2.0), 1.5)
    ts = default_thetas(ctx)
    assert ts.size == 41
    assert ts[0] > ctx.theta_lo and ts[-1] < ctx.theta_hi
    wide = make_path(_const_jet(8, 1.0), _const_jet(8, 1.0), 1.5)
    ts2 = default_thetas(wide)
    assert ts2[0] == pytest.approx(-0.45) and ts2[-1] == pytest.approx(1.45)


def _per_theta_scan(ctx, fam, src, grid):
    """beta, beta' and the finite-difference error composed from one-row
    path_jets/energy_J calls, one theta at a time."""
    def beta_at(t):
        return energy_J(fam, src, path_jets(ctx, t)[0], grid)

    def beta_prime_at(t):
        w_t, gamma = path_jets(ctx, t)
        u = alpha_root_jet(w_t, ctx.alpha)
        flux = fam.a_batch(u.grads)
        return integrate(np.sum(flux * gamma.grads, axis=1), grid) \
            - integrate(src.fbar_vals(u.values) * gamma.values, grid)

    thetas = default_thetas(ctx)
    beta = np.array([beta_at(t) for t in thetas])
    bprime = np.array([beta_prime_at(t) for t in thetas])
    fd_err = 0.0
    for k, t in enumerate(thetas):
        h = min(FD_STEP, 0.25 * (t - ctx.theta_lo), 0.25 * (ctx.theta_hi - t))
        if k == 0:
            fd = (-3.0 * beta[0] + 4.0 * beta_at(t + h) - beta_at(t + 2 * h)) / (2 * h)
        elif k == thetas.size - 1:
            fd = (3.0 * beta[-1] - 4.0 * beta_at(t - h) + beta_at(t - 2 * h)) / (2 * h)
        else:
            fd = (beta_at(t + h) - beta_at(t - h)) / (2 * h)
        fd_err = max(fd_err, abs(fd - bprime[k]) / (1.0 + abs(bprime[k])))
    beta0, beta1 = beta_at(0.0), beta_at(1.0)
    return {"thetas": thetas, "beta": beta, "beta_prime": bprime,
            "beta_at_0": beta0, "beta_at_1": beta1,
            "cor64_gap": thetas * beta1 + (1.0 - thetas) * beta0 - beta,
            "min_beta_prime_step": float(np.diff(bprime).min()),
            "fd_max_rel_err": float(fd_err)}


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
def test_batched_scan_matches_per_theta_composition(dim, n):
    grid = build_grid(dim, n, 1.0)
    rng = np.random.default_rng(9)
    w1 = random_positive_jet(rng, grid)
    w2 = random_positive_jet(rng, grid)
    ctx = make_path(w1, w2, 1.5)
    data = np.clip(0.5 + 0.4 * np.sin(5.0 * grid.quad_points[:, 0]), 0.0, 1.0)
    for fam in (single_phase(grid, 2.0, alpha=1.5), two_phase(grid, alpha=1.5),
                image_op(grid, alpha=1.5)):
        for src in (power_src(grid.npoints, r1=1.0, q1=1.0, alpha=1.5),
                    fidelity_src(grid.npoints, g=data, mu=2.0)):
            scan = beta_scan(ctx, fam, src, grid)
            for name, want in _per_theta_scan(ctx, fam, src, grid).items():
                got = getattr(scan, name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def test_stacked_path_jets_errors():
    ctx = make_path(_const_jet(16, 1.0), _const_jet(16, 2.0), 2.0)
    w, gamma = path_jets(ctx, np.array([0.2, 0.5, 0.8]))
    assert w.values.shape == (3, 16) and gamma.grads.shape == (3, 16, 1)
    with pytest.raises(ValueError, match="theta=1.6"):
        path_jets(ctx, np.array([0.2, 1.6, 0.8]))
    with pytest.raises(ValueError, match="theta=nan"):
        path_jets(ctx, np.array([0.2, np.nan]))
    # fields altered after make_path break the bounds the context certified
    ctx.w1.values[3] = 50.0
    with pytest.raises(RuntimeError, match="ratio bound"):
        path_jets(ctx, np.array([0.2, 0.5, 0.8]))
    with pytest.raises(RuntimeError, match="segment bound"):
        path_jets(ctx, np.array([0.5, -0.4]))


@pytest.mark.parametrize("make_fam", [image_op, two_phase])
def test_scan_memory_stays_bounded_by_the_block_cap(make_fam):
    grid = build_grid(2, 32, 1.0)
    rng = np.random.default_rng(10)
    ctx = make_path(random_positive_jet(rng, grid), random_positive_jet(rng, grid), 1.5)
    fam = make_fam(grid, alpha=1.5)
    src = power_src(grid.npoints, r1=1.0, q1=1.0, alpha=1.5)
    tracemalloc.start()
    try:
        beta_scan(ctx, fam, src, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in one block, the 125 stacked rows of 1024 points take 20-120 MB
    assert peak < 16e6


def test_scan_does_not_depend_on_the_block_size(monkeypatch):
    grid = build_grid(2, 8, 1.0)
    rng = np.random.default_rng(12)
    ctx = make_path(random_positive_jet(rng, grid), random_positive_jet(rng, grid), 1.5)
    fam = image_op(grid, alpha=1.5)
    src = power_src(grid.npoints, r1=1.0, q1=1.0, alpha=1.5)
    whole = vars(beta_scan(ctx, fam, src, grid))
    # one row per block, 7 rows (a block straddles the 41 scan rows and the
    # rows after them), and all 125 rows in one block
    for block in (1, 7, 7 * grid.npoints + 5, 125 * grid.npoints):
        monkeypatch.setattr(pxlab.grid, "BLOCK_ELEMENTS", block)
        scan = vars(beta_scan(ctx, fam, src, grid))
        for name, want in whole.items():
            got = np.asarray(scan[name]).tobytes()
            assert got == np.asarray(want).tobytes(), (block, name)


@pytest.mark.parametrize("rows_per_block", [125, 7])
def test_scan_roots_once_per_block_and_takes_gamma_at_scan_rows_only(monkeypatch,
                                                                     rows_per_block):
    grid = build_grid(2, 16, 1.0)
    rng = np.random.default_rng(13)
    ctx = make_path(random_positive_jet(rng, grid), random_positive_jet(rng, grid), 1.5)
    monkeypatch.setattr(pxlab.grid, "BLOCK_ELEMENTS", rows_per_block * grid.npoints)
    roots, gamma_rows = [], []
    root, gamma = pxlab.path.alpha_root_jet, pxlab.path._gamma

    def counted_root(w, alpha):
        roots.append(w.values.shape[0])
        return root(w, alpha)

    def counted_gamma(ctx, v, grads):
        gamma_rows.append(v.shape[0])
        return gamma(ctx, v, grads)

    monkeypatch.setattr(pxlab.path, "alpha_root_jet", counted_root)
    monkeypatch.setattr(pxlab.path, "_gamma", counted_gamma)
    beta_scan(ctx, image_op(grid, alpha=1.5),
              power_src(grid.npoints, r1=1.0, q1=1.0, alpha=1.5), grid)
    blocks = [b.stop - b.start for b in pxlab.grid.row_blocks(125, grid.npoints)]
    assert roots == blocks  # one alpha-root jet per block, for J and beta'
    assert sum(gamma_rows) == 41  # gamma at the scan rows, not their neighbours
