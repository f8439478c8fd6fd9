"""Discrete energy on nodal grid functions and its minimization.

The energy is the quadrature of A(x, .) at the stencil gradients minus the
quadrature of the extended primitive Fbar at the nodal values; its exact
gradient (assembled through the adjoint stencil) is the discrete residual,
and its Hessian is

    H = D^T diag(w J(D U)) D - diag(w fbar'(U)),
    J(xi) = psi(s) I + (Phi'(s) - psi(s)) xi xi^T / s^2,   s = |xi|,

with D the stencil gradient, D^T its adjoint and w the quadrature weights.
Minimization is a matrix-free truncated Newton-CG method (inexact Newton
with Eisenstat-Walker forcing terms): preconditioned conjugate gradients
on H, applied only through Hessian-vector products, give each step, and
an Armijo line search on energy differences (approximate Wolfe where they
reach rounding level) globalizes it, with no BLAS call in any step.  The
preconditioner M = c D^T D + m freezes H's coefficients at their means
once per Newton step; the DCT-II diagonalizes D^T D exactly
(:func:`grid.stencil_symbol`), so M^{-1} costs O(N log N) and the CG work
per Newton step does not grow with the grid where the coefficients vary
mildly.

No projection onto [0, 1] is performed: the extension Fbar penalizes
exterior values, and the result reports any violation instead of hiding it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .grid import (AnalyticFieldSpec, Grid, dct, discrete_gradient, dot_components, idct,
                   integrate, row_blocks, sample_values, stencil_adjoint, stencil_symbol)
from .operators import OperatorFamily
from .sources import SourceFamily

STRONG_POSITIVITY_FLOOR = 1e-6
WEAK_FORM_TESTS = 20  # test functions per weak-form check

# Floor on gradient magnitudes and nodal values where the Hessian model
# evaluates psi, Phi' and fbar'; they are unbounded at 0 for exponents
# below 2 (profiles) and below 1 (power sources).  Only the model sees
# the floor: every step is certified by the exact energy or residual.
HESSIAN_FLOOR = 1e-8
CG_MAX_ITERS = 400
ETA_MAX = 0.1  # loosest relative residual a CG solve stops at
SUFFICIENT_DECREASE = 1e-4  # Armijo constant of the energy line search
MAX_HALVINGS = 40
FLOOR_SEED = 0  # signs of the perturbation that measures the rounding floor
# A solve whose best residual has not halved within this many Newton
# steps has stalled.
STALL_STEPS = 20
# Steps never carry a node further out of this band around [0, 1].
# Solutions lie in [0, 1], and far outside it the concave extension makes
# the energy unbounded below: an unguarded descent runs off to states
# whose primitive cannot even be integrated.
STATE_BAND = (-1.0, 2.0)
# The line search's approximate-Wolfe fallback (Hager and Zhang, SIAM J.
# Optim. 16, 2005, section 4), for energy changes rounding can decide
ENERGY_ROUNDING, WOLFE_DELTA, WOLFE_SIGMA = 1e-14, 0.1, 0.9


@dataclass
class SolveConfig:
    fam: OperatorFamily
    src: SourceFamily
    grid: Grid
    init: object  # nodal array (flat or node-shaped), or constant
    residual_tol: float = 1e-8
    max_iters: int = 50_000  # cap on Newton steps

    def __post_init__(self):
        if not 0.0 < self.residual_tol < np.inf:
            raise ValueError(f"residual_tol must be positive and finite: {self.residual_tol}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass
class SolveResult:
    """Outcome of :func:`minimize`.

    ``U`` has the grid's node shape.  ``iterations`` counts Newton steps
    and ``hvps`` the Hessian-vector products their conjugate-gradient
    solves spent; ``energy`` is :func:`discrete_energy` of ``U``;
    ``energy_history`` holds the start energy, then adds the energy change
    of each step the line search accepted: nonincreasing, but for rises
    within the rounding scale of its approximate-Wolfe fallback.  ``converged``
    means ``residual_norm`` meets the tolerance, and nothing else.  An
    unconverged solve says why it stopped in ``note`` and carries
    ``residual_floor``, the residual sup norm that a 1-ulp rounding of
    ``U`` alone produces (None when converged); when the tolerance lies
    below that floor the note says so.
    """

    U: np.ndarray
    energy: float
    residual_norm: float
    iterations: int
    hvps: int
    ess_inf: float
    converged: bool
    in_unit_box: bool
    note: str = ""
    residual_floor: float | None = None
    energy_history: list = field(default_factory=list, repr=False)

    @property
    def strongly_positive(self) -> bool:
        return self.ess_inf > STRONG_POSITIVITY_FLOOR


def discrete_energy(fam: OperatorFamily, src: SourceFamily, U, grid: Grid) -> float:
    """Quadrature of A at stencil gradients minus quadrature of Fbar at nodes."""
    xi = discrete_gradient(U, grid)
    grad_norms = np.sqrt(dot_components(xi, xi))
    grad_term = integrate(fam.A_batch(grad_norms), grid)
    source_term = integrate(src.Fbar_vals(np.ravel(U)), grid)
    return grad_term - source_term


class _State:
    """Nodal values ``u`` (flat) with their stencil gradient ``xi`` = D u and
    its magnitudes ``s``, evaluated once for every use at u.  The residual
    stores ``psi`` = psi(s) on the state for the Hessian to reuse."""

    def __init__(self, u, grid: Grid):
        self.u = u
        self.xi = discrete_gradient(u, grid)
        self.s = np.sqrt(dot_components(self.xi, self.xi))
        self.psi = None


def discrete_residual(fam: OperatorFamily, src: SourceFamily, U, grid: Grid) -> np.ndarray:
    """Exact gradient of the discrete energy with respect to the nodal values,
    as a flat vector over the nodes in C order.

    Component k is the directional derivative along the nodal indicator of
    node k; the flux part is assembled through the adjoint of the centered
    stencil, so the reflected-ghost Neumann treatment needs no boundary
    flux term.  Raises ValueError when a component is not finite.
    """
    return _residual(fam, src, _State(np.ravel(U), grid), grid)


def _residual(fam: OperatorFamily, src: SourceFamily, st: _State, grid: Grid) -> np.ndarray:
    """:func:`discrete_residual` at an evaluated state, storing psi(|D u|) on it."""
    st.psi = fam.psi(st.s)
    flux = st.psi[:, None] * st.xi
    flux *= grid.quad_weights[:, None]
    res = stencil_adjoint(flux, grid)
    res -= grid.quad_weights * src.fbar_vals(st.u)
    if not np.all(np.isfinite(res)):
        raise ValueError("discrete residual contains non-finite values")
    return res


def discrete_hessian(fam: OperatorFamily, src: SourceFamily, U, grid: Grid):
    """The Hessian of the discrete energy at U and its preconditioner, as
    the pair of maps (v -> H v, r -> M^{-1} r).

    H = D^T diag(w J(D U)) D - diag(w fbar'(U)) is the exact derivative of
    :func:`discrete_residual` wherever the gradient magnitudes and the
    nodal values stay off the floor ``HESSIAN_FLOOR`` (and off the kinks
    of Phi' and fbar'); it is symmetric by construction, and applied
    elementwise from the dim (dim + 1) / 2 distinct components of w J.

    M = c D^T D + m freezes H's coefficients at their means: c is the mean
    of w trace(J) / dim and m the mean of the source diagonal
    -w fbar'(U), floored at sqrt(eps) times the largest eigenvalue of
    c D^T D so that M stays positive definite when the source vanishes or
    the concave extension makes the diagonal negative.  The DCT-II
    diagonalizes D^T D (:func:`grid.stencil_symbol`), so M^{-1} costs two
    transforms.  Vectors are flat arrays over the grid's nodes, and U is
    flat or node-shaped.
    """
    return _hessian(fam, src, _State(np.ravel(U), grid), stencil_symbol(grid), grid)


def _hessian(fam: OperatorFamily, src: SourceFamily, st: _State, symbol, grid: Grid):
    """:func:`discrete_hessian` at an evaluated state, given the stencil
    symbol; psi(|D u|) stored on the state is reused when no magnitude
    lies below the floor."""
    xi, s = st.xi, st.s
    if st.psi is not None and s.min() >= HESSIAN_FLOOR:
        sf, psi = s, st.psi
    else:
        sf = np.maximum(s, HESSIAN_FLOOR)
        psi = fam.psi(sf)
    e = np.divide(xi.T, s, out=np.zeros((grid.dim, grid.npoints)), where=s > 0.0)
    b = fam.phi_prime(sf) - psi
    jac = {}  # j_kl = w (psi delta_kl + b e_k e_l), each pair k <= l computed once
    for k in range(grid.dim):
        for l in range(k, grid.dim):
            jac[k, l] = jac[l, k] = (b * e[k] * e[l] + (psi if k == l else 0.0)) * grid.quad_weights
    u = st.u
    u_f = np.where((u >= 0.0) & (u < HESSIAN_FLOOR), HESSIAN_FLOOR, u)
    diag = -grid.quad_weights * src.fbar_prime_vals(u_f)

    def apply(v):
        dv = discrete_gradient(v, grid).T.copy()
        flux = np.empty_like(dv)
        for k in range(grid.dim):
            flux[k] = sum((jac[k, l] * dv[l] for l in range(1, grid.dim)), jac[k, 0] * dv[0])
        return stencil_adjoint(flux.T, grid) + diag * v.ravel()

    c = float(np.mean(sum(jac[k, k] for k in range(grid.dim)))) / grid.dim
    # mean(diag) is H's exact curvature along the constants (D 1 = 0); the
    # floor caps M's condition number at 1/sqrt(eps)
    m = max(float(np.mean(diag)), np.sqrt(np.finfo(float).eps) * c * float(symbol.max()))
    eig = c * symbol + m

    def precond(r):
        return idct(dct(r.reshape(grid.n)) / eig).ravel()

    return apply, precond


def residual_norm(res, grid: Grid) -> float:
    """Sup norm of the residual against the quadrature measure (|res_k| / w_k),
    which keeps the tolerance meaningful across grid refinements."""
    return float(np.max(np.abs(np.ravel(res)) / grid.quad_weights))


def _dot(a, b) -> float:
    """a . b by NumPy's pairwise sum, the solver's one reduction: no BLAS
    call, so its bits do not depend on the BLAS thread count."""
    return float(np.add.reduce(a * b))


def _truncated_cg(hvp, precond, g, eta):
    """Preconditioned conjugate gradients on H d = -g from d = 0.

    Stops once the (unpreconditioned) residual is at most eta |g|, and at
    the first direction of nonpositive curvature, returning the iterate so
    far, which is a descent direction; when that happens on the first
    direction, returns the preconditioned steepest-descent direction
    scaled by its absolute curvature.  Returns the direction and the
    number of Hessian-vector products spent.
    """
    d = np.zeros_like(g)
    r = -g
    p = precond(r)
    rz = _dot(r, p)
    stop = eta * eta * _dot(r, r)
    for k in range(CG_MAX_ITERS):
        Hp = hvp(p)
        curv = _dot(p, Hp)
        if curv <= 0.0:
            if k == 0:
                return (p * (rz / -curv) if curv < 0.0 else p), 1
            return d, k + 1
        a = rz / curv
        d += a * p
        r = r - a * Hp
        if _dot(r, r) <= stop:
            return d, k + 1
        z = precond(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return d, CG_MAX_ITERS


def minimize(cfg: SolveConfig) -> SolveResult:
    """Truncated Newton-CG on the discrete energy.

    Each Newton step solves H d = -g by preconditioned conjugate gradients
    (see :func:`discrete_hessian`) to the Eisenstat-Walker relative
    tolerance eta = 0.9 (|g_k| / |g_{k-1}|)^2 (their choice 2, capped at
    ETA_MAX), stopping at negative curvature, which the concave extension
    of Fbar outside [0, 1] can produce.  No step moves a node further out
    of STATE_BAND.  One Armijo line search (halving the step) accepts it:
    the energy change from U to V = U + t d is taken as a difference,
    the quadrature of A(|D V|) - A(|D U|) minus that of
    :meth:`SourceFamily.Fbar_diff`, not as a difference of two energies,
    so it resolves steps far below the rounding of |E|.  Where Armijo fails
    but dE <= ENERGY_ROUNDING (int |A(U)| + int |Fbar(U)|), the trial is
    accepted when WOLFE_SIGMA g.d <= g(V).d <= (2 WOLFE_DELTA - 1) g.d, and
    g(V) is the next residual.  The solve stops
    when the residual sup norm meets the tolerance (``converged``), or
    with ``converged`` False and a ``note`` saying why: the line search
    failed, the residual did not halve within STALL_STEPS Newton steps,
    the step left the band, or ``max_iters`` Newton steps were spent.  An
    unconverged solve also measures its rounding floor (see
    :func:`_rounding_floor`), and the note says when the tolerance lies
    below it.  Deterministic: identical configs produce identical iterates.

    Each state is evaluated once: a line-search trial computes its stencil
    gradient D V and magnitudes |D V| (for A), and the accepted trial's
    gradient, magnitudes and psi(|D V|) serve its residual and the next
    Hessian (which evaluates psi again, at the floored magnitudes, only
    when one lies below ``HESSIAN_FLOOR``).  The stencil symbol of the
    preconditioner is computed once per solve.
    """
    grid = cfg.grid
    if np.isscalar(cfg.init):
        U = np.full(grid.npoints, float(cfg.init))
    else:
        U = np.asarray(cfg.init, dtype=float).ravel().copy()
    if U.shape != (grid.npoints,):
        raise ValueError("initial state does not match the grid")
    if not np.all(np.isfinite(U)):
        raise ValueError("initial state contains non-finite values")

    fam, src = cfg.fam, cfg.src
    symbol = stencil_symbol(grid)
    # discrete_energy(u), given A at u's stencil gradients
    energy = lambda A_u, u: integrate(A_u, grid) - integrate(src.Fbar_vals(u), grid)

    state = _State(U, grid)
    A_U = fam.A_batch(state.s)  # A at the stencil gradients of the current state
    E = energy(A_U, U)
    history = [E]
    g = _residual(fam, src, state, grid)
    rnorm = residual_norm(g, grid)
    best, best_at = rnorm, 0
    gnorm_prev = None
    note = ""
    iterations = hvps = 0

    while rnorm > cfg.residual_tol:
        if iterations >= cfg.max_iters:
            note = "iteration budget exhausted"
            break
        if iterations - best_at >= STALL_STEPS:
            note = f"residual stopped improving (no halving in {STALL_STEPS} Newton steps)"
            break
        gnorm = float(np.sqrt(_dot(g, g)))
        eta = ETA_MAX if gnorm_prev is None else min(ETA_MAX, 0.9 * (gnorm / gnorm_prev) ** 2)
        # no need to solve the linear model beyond half the tolerance
        eta = max(eta, 0.5 * cfg.residual_tol * float(grid.quad_weights.min()) / gnorm)
        hvp, precond = _hessian(fam, src, state, symbol, grid)
        d, spent = _truncated_cg(hvp, precond, g, eta)
        hvps += spent
        if not np.all(np.isfinite(d)):
            note = "Newton direction is not finite"
            break
        t_max = _band_limit(U, d)
        if t_max == 0.0:
            note = f"the Newton step leaves the band {STATE_BAND}"
            break
        d *= t_max
        slope = _dot(g, d)
        t, rounding = 1.0, None
        for _ in range(MAX_HALVINGS):
            trial = _State(U + t * d, grid)
            A_V = fam.A_batch(trial.s)
            dE = integrate(A_V - A_U, grid) - integrate(src.Fbar_diff(U, trial.u), grid)
            g_V = None
            if dE <= SUFFICIENT_DECREASE * t * slope:
                break
            if rounding is None:
                rounding = ENERGY_ROUNDING * (integrate(np.abs(A_U), grid)
                                              + integrate(np.abs(src.Fbar_vals(U)), grid))
            if dE <= rounding:
                g_V = _residual(fam, src, trial, grid)
                if WOLFE_SIGMA * slope <= _dot(g_V, d) <= (2.0 * WOLFE_DELTA - 1.0) * slope:
                    break
            t *= 0.5
        else:
            note = "line search failed"
            break
        state, U, A_U = trial, trial.u, A_V
        E += dE
        history.append(E)
        iterations += 1
        gnorm_prev = gnorm
        g = _residual(fam, src, state, grid) if g_V is None else g_V
        rnorm = residual_norm(g, grid)
        if rnorm <= 0.5 * best:
            best, best_at = rnorm, iterations

    converged = rnorm <= cfg.residual_tol
    floor = None
    if not converged:
        floor = _rounding_floor(fam, src, U, g, grid)
        if cfg.residual_tol < floor:
            note += (f"; tolerance {cfg.residual_tol:g} is below the rounding floor"
                     f" {floor:.2g}")
    lo, hi = float(U.min()), float(U.max())
    return SolveResult(
        U=U.reshape(grid.n),
        energy=energy(A_U, U),
        residual_norm=rnorm,
        iterations=iterations,
        hvps=hvps,
        ess_inf=lo,
        converged=converged,
        in_unit_box=(lo >= -1e-12 and hi <= 1.0 + 1e-12),
        note=note,
        residual_floor=floor,
        energy_history=history,
    )


def _rounding_floor(fam: OperatorFamily, src: SourceFamily, U, g, grid: Grid) -> float:
    """The residual sup norm that rounding U alone can produce: the norm of
    resid(U + sigma spacing(U)) - g, with resid the discrete residual,
    g = resid(U) and sigma random signs from a fixed seed, i.e. the residual
    change under a 1-ulp perturbation of every node.  Random rather than
    alternating signs: an odd-even pattern lies in the centered stencil's
    kernel and would hide the flux part."""
    sigma = np.random.default_rng(FLOOR_SEED).choice((-1.0, 1.0), size=U.shape)
    return residual_norm(discrete_residual(fam, src, U + sigma * np.spacing(U), grid) - g, grid)


def _band_limit(U, d):
    """The largest t <= 1 for which U + t d moves no node further out of
    STATE_BAND (0 when a node outside it would move further out)."""
    lo, hi = STATE_BAND
    room = np.full(U.shape, np.inf)
    down, up = d < 0.0, d > 0.0
    room[down] = (U[down] - lo) / -d[down]
    room[up] = (hi - U[up]) / d[up]
    return float(min(1.0, max(room.min(), 0.0)))


def verify_weak_solution(fam: OperatorFamily, src: SourceFamily, U, grid: Grid,
                         seed: int = 0, residual_tol: float = 1e-8) -> dict:
    """Weak-form defect against nodal interpolants of smooth test functions.

    For each of WEAK_FORM_TESTS test functions phi the defect is
        | int a(x, grad U) . grad_h(I phi) - int fbar(x, U) (I phi) |
    with the same stencil and quadrature as the solver, normalized by the
    discrete L1 norm of I phi.  That pairing is the discrete residual
    dotted with the nodal values of I phi, which is how it is computed.
    By duality the normalized defect of any state is bounded by its
    residual sup norm, so a converged solve passes at 10x the residual
    tolerance.
    """
    res = discrete_residual(fam, src, U, grid)
    rng = np.random.default_rng(seed)
    defects = []
    # the L1 norms of a block of test functions in one stacked integrate
    for blk in row_blocks(WEAK_FORM_TESTS, grid.npoints):
        phis = np.array([_random_test_function(rng, grid, k) for k in range(blk.start, blk.stop)])
        norms = integrate(np.abs(phis), grid)
        defects += [abs(_dot(res, phi)) / max(norm, 1e-300) for phi, norm in zip(phis, norms)]
    worst = float(max(defects))
    return {
        "max_normalized_defect": worst,
        "tol": 10.0 * residual_tol,
        "passed": worst <= 10.0 * residual_tol,
        "n_tests": WEAK_FORM_TESTS,
        "seed": seed,
    }


def _random_test_function(rng, grid: Grid, k: int) -> np.ndarray:
    # slopes and rates per unit of each axis's extent, as the noisy image's
    # frequencies, so that no box overflows a test function
    kind = k % 4
    if kind == 0:
        spec = AnalyticFieldSpec("constant", {"c": rng.uniform(0.5, 2.0)})
    elif kind == 1:
        spec = AnalyticFieldSpec("affine", {
            "a0": rng.uniform(0.5, 1.5),
            "a1": rng.uniform(-1.0, 1.0, size=grid.dim) / np.asarray(grid.extent)})
    elif kind == 2:
        spec = AnalyticFieldSpec("exp-linear", {
            "k": rng.uniform(-1.5, 1.5, size=grid.dim) / np.asarray(grid.extent)})
    else:
        spec = AnalyticFieldSpec("noisy-image", {
            "seed": int(rng.integers(0, 2**31)), "base": 1.0, "amp": 0.5})
    return sample_values(spec, grid)


def uniqueness_experiment(cfg: SolveConfig, inits) -> dict:
    """Solve from several initial states and compare the limits pairwise.

    When the source or the operator certifies strictness and every limit is
    strongly positive, all pairwise sup distances must collapse below 10x
    the residual tolerance; otherwise the report carries the scaling
    diagnostic triple (ratio fit, profile-scaling residual, source-scaling
    residual) for the worst pair.
    """
    if abs(cfg.fam.r_order - cfg.src.alpha) > 1e-12:
        raise ValueError("operator ratio order must be certified at r = alpha")
    inits = list(inits)
    if len(inits) < 2:
        raise ValueError("the experiment compares at least two initial states")
    for v in inits:
        if np.min(v) <= 0.0 or np.max(v) > 1.0:
            raise ValueError("initial states must lie strictly inside (0, 1]")
    results = [minimize(dataclasses.replace(cfg, init=v)) for v in inits]
    for r in results:
        if not r.converged:
            raise RuntimeError(f"a solve diverged: {r.note}, residual {r.residual_norm}")

    n = len(results)
    pairwise = {}
    worst = (0.0, None)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.max(np.abs(results[i].U - results[j].U)))
            pairwise[f"{i}-{j}"] = d
            if d >= worst[0]:
                worst = (d, (i, j))
    max_pairwise = worst[0]

    strong_all = all(r.strongly_positive for r in results)
    strict = cfg.src.strict13_flag or cfg.fam.strict_flag
    report = {
        "n_solves": n,
        "pairwise_sup": pairwise,
        "max_pairwise_sup": max_pairwise,
        "ess_infs": [r.ess_inf for r in results],
        "residuals": [r.residual_norm for r in results],
        "iterations": [r.iterations for r in results],
        "strongly_positive_all": strong_all,
        "strictness_certified": strict,
    }
    if strict and strong_all:
        report["uniqueness_asserted"] = True
        report["uniqueness_ok"] = max_pairwise <= 10.0 * cfg.residual_tol
    else:
        report["uniqueness_asserted"] = False
        i, j = worst[1]
        report["scaling_diagnostic"] = _scaling_diagnostic(cfg, results[i], results[j])
    return report


def _scaling_diagnostic(cfg: SolveConfig, ri: SolveResult, rj: SolveResult) -> dict:
    """Scaling triple for a pair of distinct limits: U_j ~ lambda U_i with the
    profile and the source scaling like lambda^(alpha-1)."""
    ui, uj = ri.U.ravel(), rj.U.ravel()
    mask = ui > STRONG_POSITIVITY_FLOOR
    lam = float(np.mean(uj[mask] / ui[mask])) if np.any(mask) else float("nan")
    alpha = cfg.src.alpha
    xi = discrete_gradient(ri.U, cfg.grid)
    norms = np.sqrt(dot_components(xi, xi))
    phi_resid = float(np.max(np.abs(
        cfg.fam.phi(lam * norms) - lam ** (alpha - 1.0) * cfg.fam.phi(norms))))
    f_resid = float(np.max(np.abs(
        cfg.src.fbar_vals(lam * ui) - lam ** (alpha - 1.0) * cfg.src.fbar_vals(ui))))
    return {"lambda_hat": lam, "phi_scaling_residual": phi_resid,
            "f_scaling_residual": f_resid}


def synthetic_image(n: int = 32, seed: int = 7) -> np.ndarray:
    """Deterministic smooth synthetic image with values inside (0, 1)."""
    from .grid import build_grid

    grid = build_grid(2, n, 1.0)
    spec = AnalyticFieldSpec("noisy-image", {"seed": seed, "base": 0.5, "amp": 0.3})
    return sample_values(spec, grid).reshape(n, n)
