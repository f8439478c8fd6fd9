import dataclasses
import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pxlab import (SolveConfig, build_grid, discrete_energy,
                   discrete_gradient, discrete_hessian, discrete_residual,
                   integrate, minimize, residual_norm, synthetic_image,
                   uniqueness_experiment, verify_weak_solution)
from pxlab import solver
from pxlab.grid import dot_components, stencil_adjoint

from util import fidelity_src, grid_1d, grid_2d, image_op, power_src, ref_magnitudes, \
    single_phase, two_phase, zero_src


def test_energy_constant_states():
    grid = grid_1d(16)
    fam = single_phase(grid, 2.0)
    src = power_src(grid.npoints, r1=1.0, q1=1.0)
    assert discrete_energy(fam, src, np.ones(16), grid) == \
        pytest.approx(0.5, rel=1e-13)
    assert discrete_energy(fam, src, np.zeros(16), grid) == 0.0


def test_energy_affine_quadratic():
    grid = grid_1d(16)
    fam = single_phase(grid, 2.0)
    src = zero_src(grid.npoints)
    slope = 0.8
    U = slope * grid.quad_points[:, 0]
    h = grid.h[0]
    # interior cells carry the exact quadratic density, boundary cells half slope
    expected = 0.5 * slope**2 * h * (16 - 2) + 2 * 0.5 * (slope / 2) ** 2 * h
    assert discrete_energy(fam, src, U, grid) == pytest.approx(expected, rel=1e-13)


def test_residual_zero_at_constant_states():
    grid = grid_2d(6)
    fam = two_phase(grid)
    fid = fidelity_src(grid.npoints, g=0.5, mu=1.0)
    res = discrete_residual(fam, fid, np.full(grid.n, 0.5), grid)
    assert np.all(res == 0.0)
    zero = zero_src(grid.npoints)
    res2 = discrete_residual(fam, zero, np.full(grid.n, 0.3), grid)
    assert np.all(res2 == 0.0)


def test_stencil_adjointness():
    rng = np.random.default_rng(0)
    for grid in (build_grid(1, 3, 1.5), grid_1d(17), grid_2d(6),
                 build_grid(2, (6, 9), (1.2, 2.7))):
        u = rng.standard_normal(grid.npoints)
        F = rng.standard_normal((grid.npoints, grid.dim))
        lhs = np.sum(discrete_gradient(u, grid) * F)
        rhs = u @ stencil_adjoint(F, grid)
        assert lhs == pytest.approx(rhs, rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("op_name", ["two", "image"])
def test_residual_pairing_is_the_weak_form_pairing(dim, op_name):
    # verify_weak_solution computes the weak-form pairing as residual . phi
    grid = grid_1d(24) if dim == 1 else build_grid(2, (7, 9), (1.0, 1.4))
    fam = two_phase(grid) if op_name == "two" else image_op(grid)
    rng = np.random.default_rng(8)
    for src in (fidelity_src(grid.npoints, g=0.4, mu=1.3), power_src(grid.npoints)):
        for _ in range(4):
            U = rng.uniform(0.05, 1.2, grid.n)
            phi = rng.standard_normal(grid.npoints)
            flux = fam.a_batch(discrete_gradient(U, grid))
            t1 = integrate(np.sum(flux * discrete_gradient(phi, grid), axis=1), grid)
            t2 = integrate(src.fbar_vals(U.ravel()) * phi, grid)
            pairing = discrete_residual(fam, src, U, grid) @ phi
            assert abs(pairing - (t1 - t2)) <= 1e-12 * (abs(t1) + abs(t2))


@pytest.mark.parametrize("op_name", ["single", "two", "image"])
@pytest.mark.parametrize("src_name", ["power", "fidelity", "zero"])
def test_residual_is_energy_gradient(op_name, src_name):
    grid = grid_2d(6)
    fam = {"single": single_phase(grid, 2.0),
           "two": two_phase(grid),
           "image": image_op(grid)}[op_name]
    src = {"power": power_src(grid.npoints),
           "fidelity": fidelity_src(grid.npoints, g=0.4, mu=1.2),
           "zero": zero_src(grid.npoints)}[src_name]
    rng = np.random.default_rng(1)
    U0 = rng.uniform(0.2, 0.8, grid.npoints)
    res = discrete_residual(fam, src, U0, grid)
    h = 1e-5
    for _ in range(5):
        d = rng.standard_normal(grid.npoints)
        d /= np.linalg.norm(d)
        ep = discrete_energy(fam, src, U0 + h * d, grid)
        em = discrete_energy(fam, src, U0 - h * d, grid)
        fd = (ep - em) / (2 * h)
        an = float(res @ d)
        assert abs(fd - an) <= 1e-6 * max(1e-12, abs(an))


def test_residual_rejects_non_finite_components():
    grid = grid_2d(6)
    fam = two_phase(grid)
    fam._phi = lambda s, idx: np.full(s.shape, np.nan)
    U0 = np.random.default_rng(2).uniform(0.2, 0.8, grid.npoints)
    with pytest.raises(ValueError, match="non-finite"):
        discrete_residual(fam, fidelity_src(grid.npoints), U0, grid)


def test_minimize_constant_fidelity():
    grid = grid_2d(8)
    fam = two_phase(grid)
    fid = fidelity_src(grid.npoints, g=0.5, mu=1.0)
    res = minimize(SolveConfig(fam, fid, grid, init=0.2))
    assert res.converged and res.residual_floor is None
    assert np.allclose(res.U, 0.5, atol=1e-6)
    assert res.in_unit_box


def test_minimize_immediate_convergence():
    grid = grid_1d(16)
    fam = single_phase(grid, 2.0)
    res = minimize(SolveConfig(fam, zero_src(grid.npoints), grid, init=0.3))
    assert res.converged and res.iterations == 0
    assert res.residual_norm == 0.0


def test_minimize_power_decay_to_zero():
    grid = grid_1d(16)
    fam = single_phase(grid, 2.0)
    src = power_src(grid.npoints, r1=1.0, q1=1.0)
    res = minimize(SolveConfig(fam, src, grid, init=0.5))
    assert res.converged
    assert np.all(np.abs(res.U) <= 1e-6)
    assert not res.strongly_positive
    assert all(np.diff(res.energy_history) <= 0.0)


def test_minimize_energy_history_monotone():
    grid = grid_2d(8)
    fam = image_op(grid)
    fid = fidelity_src(grid.npoints, g=synthetic_image(8, seed=3).ravel(), mu=1.0)
    res = minimize(SolveConfig(fam, fid, grid, init=0.4))
    assert res.converged
    assert all(np.diff(res.energy_history) <= 0.0)
    assert res.residual_norm <= 1e-8


def test_minimize_quadratic_energy_takes_one_newton_step():
    # p = 2 with a fidelity source inside [0, 1]: the energy is quadratic,
    # so one energy-certified Newton step lands on the minimizer
    grid = grid_1d(16)
    fam = single_phase(grid, 2.0)
    fid = fidelity_src(grid.npoints, g=0.5, mu=1.0)
    res = minimize(SolveConfig(fam, fid, grid, init=0.2))
    assert res.converged and res.iterations == 1
    assert np.allclose(res.U, 0.5, atol=1e-6)
    assert len(res.energy_history) == 2
    assert all(np.diff(res.energy_history) <= 0.0)


def test_minimize_deterministic():
    grid = grid_2d(8)
    fam = two_phase(grid)
    fid = fidelity_src(grid.npoints, g=synthetic_image(8, seed=4).ravel(), mu=1.0)
    cfg = SolveConfig(fam, fid, grid, init=0.3)
    a = minimize(cfg)
    b = minimize(cfg)
    assert a.iterations == b.iterations
    assert np.array_equal(a.U, b.U)


def test_minimize_takes_a_flat_or_node_shaped_init():
    grid = grid_2d(8)
    fid = fidelity_src(grid.npoints, g=synthetic_image(8, seed=4).ravel(), mu=1.0)
    init = 0.2 + 0.5 * synthetic_image(8, seed=9)
    flat, shaped = (minimize(SolveConfig(two_phase(grid), fid, grid, init=v))
                    for v in (init.ravel(), init))
    assert flat.converged and flat.iterations == shaped.iterations
    assert flat.U.shape == shaped.U.shape == grid.n
    assert flat.U.tobytes() == shaped.U.tobytes()


def test_refinement_keeps_constant_solution():
    vals = []
    for n in (8, 16):
        grid = grid_1d(n)
        fam = single_phase(grid, 2.0)
        fid = fidelity_src(grid.npoints, g=0.37, mu=1.0)
        res = minimize(SolveConfig(fam, fid, grid, init=0.6, residual_tol=1e-12))
        assert res.converged
        u = res.U
        assert u.max() - u.min() <= 1e-12
        vals.append(float(u.mean()))
    assert abs(vals[0] - vals[1]) <= 1e-10


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_gradient_magnitudes_match_the_linalg_norm_bit_for_bit(cols):
    # signed zeros, subnormals and overflowing squares among ordinary values
    rng = np.random.default_rng(cols)
    xi = rng.normal(size=(600, cols)) * 10.0 ** rng.integers(-170, 170, (600, cols))
    xi[::5] = -0.0
    xi[1::7, 0] = 0.0
    xi[2::11, -1] = 5e-324
    xi[3::13, 0] = -1e300
    with np.errstate(over="ignore"):
        got = np.sqrt(dot_components(xi, xi))
        want = ref_magnitudes(xi)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("dim", [1, 2])
def test_solver_magnitudes_and_energy_match_the_linalg_norm_bit_for_bit(dim):
    grid = grid_1d(40) if dim == 1 else grid_2d(12)
    u = np.random.default_rng(dim).uniform(0.0, 1.0, grid.npoints)
    u[::3] = -0.0  # flat stretches give zero and signed-zero differences
    u[1::9] = 0.0
    state = solver._State(u, grid)
    ref = ref_magnitudes(discrete_gradient(u, grid))
    assert np.array_equal(state.s.view(np.uint64), ref.view(np.uint64))
    fam, src = image_op(grid), fidelity_src(grid.npoints)
    want = integrate(fam.A_batch(ref), grid) - integrate(src.Fbar_vals(u), grid)
    assert discrete_energy(fam, src, u, grid) == want


def test_residual_norm_helper():
    grid = grid_1d(8)
    fam = single_phase(grid, 2.0)
    src = power_src(grid.npoints)
    res = discrete_residual(fam, src, np.full(8, 0.5), grid)
    assert residual_norm(res, grid) == pytest.approx(
        np.max(np.abs(res)) / grid.quad_weights[0])


def test_solver_config_validation():
    grid = grid_1d(8)
    fam = single_phase(grid, 2.0)
    src = zero_src(grid.npoints)
    with pytest.raises(ValueError):
        SolveConfig(fam, src, grid, init=0.5, residual_tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(fam, src, grid, init=0.5, max_iters=-1)
    with pytest.raises(ValueError):
        minimize(SolveConfig(fam, src, grid, init=np.full(8, np.nan)))
    with pytest.raises(ValueError):
        minimize(SolveConfig(fam, src, grid, init=np.ones(5)))


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_solver_config_rejects_a_non_finite_tolerance(tol):
    # a NaN tolerance fails every comparison, an infinite one meets the
    # first; neither describes a solve
    grid = grid_1d(16)
    with pytest.raises(ValueError, match="positive and finite"):
        SolveConfig(single_phase(grid, 2.0), zero_src(grid.npoints), grid, init=0.5,
                    residual_tol=tol)


def test_reported_residual_norm_is_the_residual_norm_of_the_result():
    grid = grid_2d(8)
    for fam in (two_phase(grid), image_op(grid)):
        fid = fidelity_src(grid.npoints, g=synthetic_image(8, seed=3).ravel(), mu=1.0)
        for max_iters in (2, 50):
            res = minimize(SolveConfig(fam, fid, grid, init=0.3, max_iters=max_iters))
            assert res.residual_norm == residual_norm(
                discrete_residual(fam, fid, res.U, grid), grid)


def _ops_and_sources(grid):
    ops = {"single": single_phase(grid, 2.0), "two": two_phase(grid),
           "image": image_op(grid)}
    srcs = {"power": power_src(grid.npoints),
            "fidelity": fidelity_src(grid.npoints, g=0.4, mu=1.2),
            "zero": zero_src(grid.npoints)}
    return ops, srcs


@pytest.mark.parametrize("op_name", ["single", "two", "image"])
@pytest.mark.parametrize("src_name", ["power", "fidelity", "zero"])
def test_hessian_is_residual_derivative(op_name, src_name):
    grid = grid_2d(6)
    ops, srcs = _ops_and_sources(grid)
    fam, src = ops[op_name], srcs[src_name]
    rng = np.random.default_rng(2)
    U0 = rng.uniform(0.2, 0.8, grid.npoints)
    hvp, _ = discrete_hessian(fam, src, U0, grid)
    h = 1e-5
    for _ in range(5):
        d = rng.standard_normal(grid.npoints)
        d /= np.linalg.norm(d)
        rp = discrete_residual(fam, src, U0 + h * d, grid)
        rm = discrete_residual(fam, src, U0 - h * d, grid)
        fd = (rp - rm) / (2 * h)
        an = hvp(d)
        assert np.max(np.abs(fd - an)) <= 1e-6 * np.max(np.abs(an))


def test_hessian_is_symmetric():
    grid = grid_2d(7)
    ops, srcs = _ops_and_sources(grid)
    rng = np.random.default_rng(3)
    for fam in ops.values():
        for src in srcs.values():
            # values outside [0, 1] reach the extension's +-gamma branches
            U = rng.uniform(-0.3, 1.3, grid.n)
            hvp, _ = discrete_hessian(fam, src, U, grid)
            for _ in range(3):
                v = rng.standard_normal(grid.npoints)
                w = rng.standard_normal(grid.npoints)
                a, b = float(v @ hvp(w)), float(w @ hvp(v))
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@pytest.mark.parametrize("dim,n,extent", [(1, 16, 1.0), (2, (7, 12), (1.0, 2.5))])
def test_preconditioner_inverts_a_constant_coefficient_hessian(dim, n, extent):
    # p = 2 with a fidelity source inside [0, 1]: J = I and fbar' = -mu, so
    # H = w D^T D + w mu is exactly the preconditioner M
    grid = build_grid(dim, n, extent)
    fam = single_phase(grid, 2.0)
    fid = fidelity_src(grid.npoints, g=0.4, mu=1.3)
    rng = np.random.default_rng(5)
    U = rng.uniform(0.2, 0.8, grid.n)
    hvp, precond = discrete_hessian(fam, fid, U, grid)
    for _ in range(3):
        v = rng.standard_normal(grid.npoints)
        assert np.max(np.abs(precond(hvp(v)) - v)) <= 1e-12 * np.max(np.abs(v))


def test_preconditioner_is_symmetric_positive_definite():
    grid = build_grid(2, (7, 9), (1.0, 1.5))
    ops, srcs = _ops_and_sources(grid)
    rng = np.random.default_rng(6)
    for fam in ops.values():
        for src in srcs.values():
            # values outside [0, 1] make the source diagonal negative
            U = rng.uniform(-0.3, 1.3, grid.n)
            _, precond = discrete_hessian(fam, src, U, grid)
            for _ in range(3):
                x = rng.standard_normal(grid.npoints)
                y = rng.standard_normal(grid.npoints)
                a, b = float(x @ precond(y)), float(y @ precond(x))
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))
                assert float(x @ precond(x)) > 0.0


def _readme_problem(command, n):
    """The README's two-phase solve (from 0.2) or image denoise (from 0.9)."""
    grid = build_grid(2, n, 1.0)
    fid = fidelity_src(grid.npoints, g=synthetic_image(n, seed=7).ravel(), mu=1.0)
    if command == "solve":
        return SolveConfig(two_phase(grid), fid, grid, init=0.2)
    return SolveConfig(image_op(grid), fid, grid, init=0.9)


def test_hvp_count_is_the_number_of_hessian_products(monkeypatch):
    calls = []
    builder = solver._hessian

    def counting(*args):
        hvp, precond = builder(*args)

        def counted(v):
            calls.append(v)
            return hvp(v)

        return counted, precond

    monkeypatch.setattr(solver, "_hessian", counting)
    res = minimize(_readme_problem("denoise", 12))
    assert res.converged and res.iterations > 0
    assert res.hvps == len(calls)


def _counted(monkeypatch, owner, name, log, record=lambda *args: None):
    """Replace owner.name by a wrapper that appends record(*args) to log."""
    fn = getattr(owner, name)

    def counting(*args):
        log.append(record(*args))
        return fn(*args)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("halvings", [solver.MAX_HALVINGS, 0])
def test_one_stencil_gradient_per_state_and_per_hvp(monkeypatch, halvings):
    # every evaluation at a state shares its stencil gradient: one for the
    # start, one per line-search trial (each calls Fbar_diff once), one per
    # Hessian-vector product, and one for the rounding floor of a solve
    # that does not converge (no halvings allowed: the line search fails)
    monkeypatch.setattr(solver, "MAX_HALVINGS", halvings)
    cfg = _readme_problem("denoise", 16)
    grads, trials, psi_mins = [], [], []
    _counted(monkeypatch, solver, "discrete_gradient", grads)
    _counted(monkeypatch, cfg.src, "Fbar_diff", trials)
    _counted(monkeypatch, cfg.fam, "psi", psi_mins, lambda s: float(np.min(s)))
    res = minimize(cfg)
    assert res.converged == (halvings > 0) and res.hvps > 0
    assert len(grads) == 1 + len(trials) + res.hvps + (0 if res.converged else 1)
    if res.converged:
        # psi runs once per accepted state, for its residual; the Hessian
        # reuses it unless a magnitude lies below the floor, which here
        # only the constant start has
        assert res.iterations == 7 and len(trials) > res.iterations
        assert psi_mins[:2] == [0.0, solver.HESSIAN_FLOOR]
        assert len(psi_mins) == 2 + res.iterations
        assert min(psi_mins[2:]) > solver.HESSIAN_FLOOR


@pytest.mark.parametrize("command", ["solve", "denoise"])
def test_hvps_per_newton_step_do_not_grow_with_the_grid(command):
    per_step = {}
    for n in (16, 32, 64):
        res = minimize(_readme_problem(command, n))
        assert res.converged and res.residual_norm <= 1e-8
        per_step[n] = res.hvps / res.iterations
    assert per_step[64] <= 1.5 * per_step[16], per_step


# README solve and denoise problems: Newton steps, HVPs and the SHA-256 of
# the returned state's bytes
README_GOLDEN = [
    ("solve", 16, 3, 6, "5532979a7f12835dcafabab17092695861ad27a2fb6029c24c031401f347394d"),
    ("solve", 32, 3, 6, "9d8103a9e8284a8a2efa9db55554b97cbfa506fa89b6f54ce6b87ff71827fef7"),
    ("solve", 64, 3, 6, "d172382594b3ea1346cea8a88aad8117e2cd0ee3eaaff25e0f35bea8da4efa7a"),
    ("denoise", 16, 7, 34, "f54525d1cc5fe48c0d88b580b76d4014139c270e2aa272f177820071d36803e8"),
    ("denoise", 32, 8, 43, "20e658fee8538b3f7defff7aa3938b5b41e708ab0b32f9e75dba739edff40f02"),
    ("denoise", 64, 9, 52, "d5759baf95b27f414b15bddc93d89e1f5b695359523e01a31e1015759fb3ff61"),
]


@pytest.mark.parametrize("command,n,iterations,hvps,digest", README_GOLDEN,
                         ids=[f"{c}-{n}" for c, n, *_ in README_GOLDEN])
def test_readme_problems_keep_their_iterates(command, n, iterations, hvps, digest):
    res = minimize(_readme_problem(command, n))
    assert res.converged
    assert (res.iterations, res.hvps) == (iterations, hvps)
    assert hashlib.sha256(res.U.tobytes()).hexdigest() == digest


def _p15_problem(n, seed):
    """Single phase p = 1.5 toward the synthetic image of the given seed, from 0.2."""
    grid = build_grid(2, n, 1.0)
    fam = single_phase(grid, 1.5, alpha=1.1)
    fid = fidelity_src(grid.npoints, g=synthetic_image(n, seed=seed).ravel(), mu=1.0,
                       alpha=1.1)
    return SolveConfig(fam, fid, grid, init=0.2)


@pytest.mark.parametrize("n,seed", [(48, 7), (64, 7), (96, 7), (96, 3), (128, 3)])
def test_single_phase_p15_image_fidelity_converges(n, seed):
    # p = 1.5 makes the flux Jacobian unbounded at zero gradient; these
    # solves toward the synthetic image stalled once the energy could no
    # longer resolve a step as a difference of two energies near 0.125
    res = minimize(_p15_problem(n, seed))
    assert res.converged and res.residual_norm <= 1e-8, res.note
    assert all(np.diff(res.energy_history) <= 0.0)


# solves whose iterates once depended on the BLAS thread count or kernel:
# the largest p = 1.5 verdict, and the README denoise whose HVPs went
# through BLAS and whose inputs (synthetic image, series coefficients) did
THREAD_PROBES = {"p15-128-3": lambda: _p15_problem(128, 3),
                 "denoise-64": lambda: _readme_problem("denoise", 64)}


def _thread_probe_lines():
    """One line per probe: its name, whether it converged and the SHA-256 of U."""
    lines = []
    for name, problem in THREAD_PROBES.items():
        res = minimize(problem())
        lines.append(f"{name} {res.converged} {hashlib.sha256(res.U.tobytes()).hexdigest()}")
    return "\n".join(lines)


def test_iterates_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS reads its thread count and kernel when NumPy loads, so each
    # setting gets a child process of its own; on x86-64 one child runs the
    # oldest kernel, Prescott, which has no FMA
    here = Path(__file__).resolve().parent
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import test_solver; "
            "print(test_solver._thread_probe_lines())")
    settings = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "4"}]
    if platform.machine() in ("x86_64", "AMD64"):
        settings.append({"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Prescott"})
    procs = [subprocess.Popen([sys.executable, "-c", code, str(here.parent / "src"), str(here)],
                              env=os.environ | setting, stdout=subprocess.PIPE, text=True)
             for setting in settings]
    try:
        outs = [p.communicate(timeout=300)[0] for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [0] * len(procs)
    words = outs[0].split()  # name, converged and digest of each probe
    assert words[0::3] == list(THREAD_PROBES) and words[1::3] == ["True"] * len(THREAD_PROBES)
    assert outs[1:] == outs[:1] * (len(outs) - 1)


def test_newton_steps_do_not_grow_with_the_grid():
    for n in (8, 16, 32):
        grid = build_grid(2, n, 1.0)
        fam = two_phase(grid)
        fid = fidelity_src(grid.npoints, g=synthetic_image(n, seed=7).ravel(), mu=1.0)
        for init in (0.2, 0.9):
            res = minimize(SolveConfig(fam, fid, grid, init=init))
            assert res.converged and res.residual_norm <= 1e-8
            assert res.iterations <= 12, (n, init, res.iterations)


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_hostile_exponents_end_with_a_verdict(p):
    # below p = 2 the flux Jacobian is unbounded at zero gradient; the solve
    # must still end quickly with a finite state and either converge or say why
    grid = grid_2d(12)
    fam = single_phase(grid, p, alpha=1.1)
    fid = fidelity_src(grid.npoints, g=synthetic_image(12, seed=7).ravel(), mu=1.0,
                       alpha=1.1)
    t0 = time.perf_counter()
    res = minimize(SolveConfig(fam, fid, grid, init=0.2))
    assert time.perf_counter() - t0 < 10.0
    assert np.all(np.isfinite(res.U))
    assert res.converged or (res.note and res.residual_norm > 1e-8)
    # the energy rises, if at all, by no more than the rounding scale under
    # which the line search's approximate-Wolfe fallback judges a step
    U = res.U.ravel()
    A_U = fam.A_batch(np.linalg.norm(discrete_gradient(U, grid), axis=1))
    rounding = solver.ENERGY_ROUNDING * (integrate(np.abs(A_U), grid)
                                         + integrate(np.abs(fid.Fbar_vals(U)), grid))
    assert all(np.diff(res.energy_history) <= rounding)
    if p == 1.2:
        # rounding U by one ulp alone moves the residual past the tolerance
        assert not res.converged and res.residual_floor > 1e-8
        assert "below the rounding floor" in res.note


def test_exhausted_line_search_ends_the_solve(monkeypatch):
    monkeypatch.setattr(solver, "MAX_HALVINGS", 0)
    res = minimize(_readme_problem("denoise", 8))
    assert not res.converged and res.iterations == 0
    assert res.note.startswith("line search failed")
    assert 0.0 <= res.residual_floor < res.residual_norm
    assert np.all(res.U == 0.9)


def test_descent_into_the_concave_extension_is_stopped():
    # f(x, s) = -s has its zero at s = 0, where the extended energy has an
    # inflection: below 0 it is unbounded.  A Newton step that overshoots
    # below 0 must end the solve at the band edge, not run off until the
    # image primitive can no longer be integrated.
    grid = grid_1d(16)
    src = power_src(grid.npoints, r1=1.0, q1=1.0)
    init = 0.5 + 0.3 * np.cos(3.0 * grid.quad_points[:, 0])
    for fam in (image_op(grid), two_phase(grid)):
        res = minimize(SolveConfig(fam, src, grid, init=init))
        assert not res.converged and "band" in res.note
        assert res.U.min() >= -1.0 and res.U.max() <= 2.0
        assert all(np.diff(res.energy_history) <= 0.0)


def test_weak_form_defect_bounded_by_residual_norm():
    # duality: the normalized defect of ANY state is at most its residual norm
    grid = grid_2d(7)
    fam = image_op(grid)
    fid = fidelity_src(grid.npoints, g=0.4, mu=1.3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        U = rng.uniform(0.1, 0.9, grid.n)
        rn = residual_norm(discrete_residual(fam, fid, U, grid), grid)
        rep = verify_weak_solution(fam, fid, U, grid, seed=4)
        assert rep["max_normalized_defect"] <= rn * (1.0 + 1e-10)


def test_verify_weak_solution():
    grid = grid_2d(8)
    fam = two_phase(grid)
    fid = fidelity_src(grid.npoints, g=0.5, mu=1.0)
    res = minimize(SolveConfig(fam, fid, grid, init=0.2))
    rep = verify_weak_solution(fam, fid, res.U, grid, seed=2)
    assert rep["passed"]
    # an exact constant solution has identically vanishing defect
    exact = verify_weak_solution(fam, fid, np.full(grid.n, 0.5), grid)
    assert exact["max_normalized_defect"] <= 1e-13
    off = res.U + 0.1
    rep_off = verify_weak_solution(fam, fid, off, grid, seed=2)
    assert not rep_off["passed"]


def test_uniqueness_experiment_fidelity():
    grid = grid_2d(8)
    fam = two_phase(grid)
    fid = fidelity_src(grid.npoints, g=synthetic_image(8, seed=5).ravel(), mu=1.0)
    cfg = SolveConfig(fam, fid, grid, init=0.2)
    rep = uniqueness_experiment(cfg, [0.2, 0.9])
    assert rep["uniqueness_asserted"] and rep["uniqueness_ok"]
    assert rep["max_pairwise_sup"] <= 1e-6
    # one limit leaves nothing to compare
    with pytest.raises(ValueError, match="at least two"):
        uniqueness_experiment(cfg, [0.4])


def test_uniqueness_diagnostic_branch():
    grid = grid_1d(16)
    # flat ratio order and non-strict source: no assertion, diagnostics instead
    fam = single_phase(grid, 2.0, alpha=2.0)
    src = power_src(grid.npoints, r1=1.0, q1=1.0, alpha=2.0)
    assert not (fam.strict_flag or src.strict13_flag)
    cfg = SolveConfig(fam, src, grid, init=0.5)
    rep = uniqueness_experiment(cfg, [0.5, 0.8])
    assert not rep["uniqueness_asserted"]
    assert "scaling_diagnostic" in rep
    assert set(rep["scaling_diagnostic"]) == {
        "lambda_hat", "phi_scaling_residual", "f_scaling_residual"}


def test_uniqueness_experiment_validation():
    grid = grid_1d(16)
    fam = single_phase(grid, 2.0, alpha=1.5)
    fid = fidelity_src(grid.npoints, g=0.5, mu=1.0, alpha=1.5)
    cfg = SolveConfig(fam, fid, grid, init=0.5)
    with pytest.raises(ValueError):
        uniqueness_experiment(cfg, [0.0, 0.5])
    for inits in ([], [0.5]):
        with pytest.raises(ValueError, match="at least two"):
            uniqueness_experiment(cfg, inits)
    with pytest.raises(ValueError):
        uniqueness_experiment(dataclasses.replace(
            cfg, src=fidelity_src(grid.npoints, g=0.5, mu=1.0, alpha=1.8)), [0.5, 0.8])


def test_uniqueness_experiment_reports_divergence():
    grid = grid_2d(8)
    fam = two_phase(grid)
    fid = fidelity_src(grid.npoints, g=synthetic_image(8, seed=6).ravel(), mu=1.0)
    starved = SolveConfig(fam, fid, grid, init=0.2, max_iters=2)
    with pytest.raises(RuntimeError):
        uniqueness_experiment(starved, [0.2, 0.9])


def test_synthetic_image_range_and_determinism():
    img = synthetic_image(16, seed=7)
    assert img.shape == (16, 16)
    assert img.min() > 0.0 and img.max() < 1.0
    assert np.array_equal(img, synthetic_image(16, seed=7))
