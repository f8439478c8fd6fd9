"""Hidden convexity along segments w_theta = theta w1 + (1-theta) w2.

Although the energy is nonconvex in U, the reparameterized functional
J(w) = energy(w^(1/alpha)) is convex along straight segments between
positive fields with bounded ratios.  This module carries the segment
bounds, the derivative field gamma_theta, and the scan of
beta(theta) = J(w_theta) together with its derivative and convexity
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (Grid, JetField, alpha_root_jet, dot_components, integrate, jet_linear,
                   row_blocks, scale_components)
from .operators import OperatorFamily
from .sources import SourceFamily

RATIO_CAP = 1e6
BOUND_SLACK = 1e-12
FD_STEP = 1e-4  # two steps stay inside default_thetas' 1e-3 margin


@dataclass(frozen=True)
class PathContext:
    """Segment data for two positive jet fields with bounded ratios.

    M is the sampled maximum of both ratio fields and theta0 = 1/(2(M-1))
    (infinite for identical fields); the admissible parameter interval is
    the open (-theta0, 1 + theta0).  M is a sampled stand-in for the
    essential supremum.
    """

    w1: JetField = field(repr=False)
    w2: JetField = field(repr=False)
    alpha: float = 0.0
    M: float = 1.0
    theta0: float = np.inf

    @property
    def theta_lo(self) -> float:
        return -self.theta0

    @property
    def theta_hi(self) -> float:
        return 1.0 + self.theta0


@dataclass
class BetaScan:
    thetas: np.ndarray
    beta: np.ndarray
    beta_prime: np.ndarray
    beta_at_0: float
    beta_at_1: float
    cor64_gap: np.ndarray
    min_beta_prime_step: float
    fd_max_rel_err: float
    strict_gap_ok: bool | None


def make_path(w1: JetField, w2: JetField, alpha: float) -> PathContext:
    """Build the segment context; rejects nonpositive fields and sampled
    ratio maxima above 1e6 (a blow-up signals fields vanishing somewhere)."""
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    v1, v2 = w1.values, w2.values
    if v1.min() <= 0.0 or v2.min() <= 0.0:
        raise ValueError("fields must be positive at every quadrature point")
    M = float(max(np.max(v1 / v2), np.max(v2 / v1)))
    if M > RATIO_CAP:
        raise ValueError(f"sampled ratio bound {M} exceeds the cap {RATIO_CAP}")
    theta0 = np.inf if M <= 1.0 else 1.0 / (2.0 * (M - 1.0))
    return PathContext(w1=w1, w2=w2, alpha=float(alpha), M=M, theta0=theta0)


def path_jets(ctx: PathContext, theta) -> tuple:
    """The segment jet w_theta and the derivative field gamma_theta.

    gamma_theta = (1/alpha) (w1 - w2) / w_theta^((alpha-1)/alpha) with the
    product/chain-rule gradient.  The segment bounds
    min(w1,w2)/2 <= w_theta <= 3 max(w1,w2)/2 and
    2/(3M) <= w1/w_theta, w2/w_theta <= 2M are verified on every call.
    A scalar theta gives fields of shape (npoints,); an array of shape
    (rows,) gives one stacked row per theta.
    """
    w_theta = _segment_jet(ctx, theta)
    return w_theta, _gamma(ctx, w_theta.values, w_theta.grads)


def _segment_jet(ctx: PathContext, theta) -> JetField:
    """w_theta, with the checks of :func:`path_jets`."""
    theta = np.asarray(theta, dtype=float)
    outside = ~((ctx.theta_lo < theta) & (theta < ctx.theta_hi))
    if np.any(outside):
        bad = theta.ravel()[np.argmax(outside.ravel())]
        raise ValueError(f"theta={bad} outside ({ctx.theta_lo}, {ctx.theta_hi})")
    w_theta = jet_linear(theta, ctx.w1, 1.0 - theta, ctx.w2)
    v = w_theta.values
    vmin = np.minimum(ctx.w1.values, ctx.w2.values)
    vmax = np.maximum(ctx.w1.values, ctx.w2.values)
    if np.any(v < 0.5 * vmin * (1.0 - BOUND_SLACK)) \
            or np.any(v > 1.5 * vmax * (1.0 + BOUND_SLACK)):
        raise RuntimeError("segment bound violated; fields are inconsistent")
    for w in (ctx.w1.values, ctx.w2.values):
        ratio = w / v
        if ratio.min() < 2.0 / (3.0 * ctx.M) * (1.0 - BOUND_SLACK) \
                or ratio.max() > 2.0 * ctx.M * (1.0 + BOUND_SLACK):
            raise RuntimeError("ratio bound violated; fields are inconsistent")
    return w_theta


def _gamma(ctx: PathContext, v, grads) -> JetField:
    """gamma_theta from the values v and gradients of w_theta, row by row."""
    alpha = ctx.alpha
    diff_v = ctx.w1.values - ctx.w2.values
    gamma_v = (1.0 / alpha) * diff_v / v ** ((alpha - 1.0) / alpha)
    gamma_g = scale_components(grads, (1.0 / alpha) * (1.0 / alpha - 1.0)
                               * (diff_v / v ** (2.0 - 1.0 / alpha)))
    gamma_g += scale_components((1.0 / alpha) * (ctx.w1.grads - ctx.w2.grads),
                                v ** (1.0 - 1.0 / alpha), np.divide)
    return JetField(gamma_v, gamma_g)


def energy_J(fam: OperatorFamily, src: SourceFamily, w: JetField, grid: Grid):
    """J(w): the energy of the alpha-root field u = w^(1/alpha); one value
    per row for a stacked w."""
    return _root_energy(fam, src, alpha_root_jet(w, src.alpha), grid)


def _root_energy(fam: OperatorFamily, src: SourceFamily, u: JetField, grid: Grid):
    """J from the alpha-root field u itself."""
    grad_term = integrate(fam.A_batch(u.grad_norms()), grid)
    source_term = integrate(src.Fbar_vals(u.values), grid)
    return grad_term - source_term


def default_thetas(ctx: PathContext) -> np.ndarray:
    """The 41 scan thetas: evenly spaced over [-0.45, 1.45] cut to 1e-3
    inside the admissible interval."""
    lo = max(ctx.theta_lo + 1e-3, -0.45)
    hi = min(ctx.theta_hi - 1e-3, 1.45)
    return np.linspace(lo, hi, 41)


def beta_scan(ctx: PathContext, fam: OperatorFamily, src: SourceFamily,
              grid: Grid) -> BetaScan:
    """Scan beta(theta) = J(w_theta) and its derivative along the segment,
    at the thetas of :func:`default_thetas`.

    The derivative uses the directional form
        beta'(theta) = int a(x, grad u_theta) . grad gamma_theta
                     - int fbar(x, u_theta) gamma_theta
    with u_theta = w_theta^(1/alpha), and is cross-validated against
    centered differences of beta with step FD_STEP (one-sided at the scan
    endpoints).
    Secant gaps for the convex-combination inequality are emitted for
    every theta; on [0, 1] they are the convexity certificate.
    """
    if abs(fam.r_order - ctx.alpha) > 1e-12:
        raise ValueError("operator ratio order must be certified at r = alpha")
    if src.alpha != ctx.alpha:  # J and beta' share one alpha-root jet
        raise ValueError("source alpha must match the path alpha")
    thetas = default_thetas(ctx)

    # the thetas at which beta is evaluated: the scan, two finite-difference
    # neighbours per scan theta (one-sided at the scan ends), then 0 and 1
    n, h = thetas.size, FD_STEP
    near = []
    for k, t in enumerate(thetas):
        near += [t + h, t + 2 * h] if k == 0 else \
            [t - h, t - 2 * h] if k == n - 1 else [t + h, t - h]
    rows = np.concatenate([thetas, near, [0.0, 1.0]])

    # stacked rows in blocks of at most grid.BLOCK_ELEMENTS points; every
    # step is elementwise or a per-row sum, so no value depends on its block
    values = np.empty(rows.size)
    bprime = np.empty(n)
    for blk in row_blocks(rows.size, grid.npoints):
        lo = blk.start
        w_t = _segment_jet(ctx, rows[blk])
        u = alpha_root_jet(w_t, ctx.alpha)
        values[blk] = _root_energy(fam, src, u, grid)
        if lo < n:  # beta' (and so gamma) at the scan rows of this block
            m = min(n, blk.stop) - lo
            gamma = _gamma(ctx, w_t.values[:m], w_t.grads[:m])
            flux = fam.a_batch(u.grads[:m])
            bprime[lo:lo + m] = integrate(dot_components(flux, gamma.grads), grid) \
                - integrate(src.fbar_vals(u.values[:m]) * gamma.values, grid)
    beta, beta_near = values[:n], values[n:3 * n].reshape(n, 2)
    beta0, beta1 = float(values[-2]), float(values[-1])

    fd_err = 0.0
    for k in range(n):
        b1, b2 = beta_near[k]
        if k == 0:
            fd = (-3.0 * beta[0] + 4.0 * b1 - b2) / (2 * h)
        elif k == n - 1:
            fd = (3.0 * beta[-1] - 4.0 * b1 + b2) / (2 * h)
        else:
            fd = (b1 - b2) / (2 * h)
        fd_err = max(fd_err, abs(fd - bprime[k]) / (1.0 + abs(bprime[k])))

    cor_gap = thetas * beta1 + (1.0 - thetas) * beta0 - beta

    strict_ok = None
    differ = float(np.max(np.abs(ctx.w1.values - ctx.w2.values))) > 0.0
    if src.strict13_flag and differ:
        interior = (thetas > 0.0) & (thetas < 1.0)
        strict_ok = bool(np.all(cor_gap[interior] > 0.0))

    return BetaScan(
        thetas=thetas,
        beta=beta,
        beta_prime=bprime,
        beta_at_0=beta0,
        beta_at_1=beta1,
        cor64_gap=cor_gap,
        min_beta_prime_step=float(np.diff(bprime).min()),
        fd_max_rel_err=float(fd_err),
        strict_gap_ok=strict_ok,
    )
