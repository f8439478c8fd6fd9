"""Isotropic operator families a(x, xi) = Psi(x, |xi|) xi.

Two built-in families:

* multi-phase sums  Phi(x, s) = sum_k w_k(x) s^(p_k(x) - 1)  with closed-form
  energy density, and
* the image-processing profile  Phi(x, s) = s^(p(x)-1) ln^delta(1+s)  below a
  threshold eps and  eps^(p(x)-alpha) s^(alpha-1) ln^delta(1+s)  above it,
  whose primitive has no elementary closed form.  It is evaluated to a few
  ulp by a power series summed by Horner's rule next to s = 0, and by
  Gauss-Legendre panels in ln s from a prefix-sum table everywhere else.

A family is a :class:`grid.PointFamily`, which defines the batch
convention of every evaluation.  All evaluations are pure; a family is
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, PointFamily, dot_components, per_point, row_blocks, scale_components


@dataclass(frozen=True)
class ExponentField:
    """Sampled variable exponent p(x) with cached extremes."""

    values: np.ndarray = field(repr=False)
    p_minus: float = field(init=False)
    p_plus: float = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "p_minus", float(vals.min()))
        object.__setattr__(self, "p_plus", float(vals.max()))
        if not np.all(np.isfinite(vals)):
            raise ValueError("exponent field contains non-finite values")
        if self.p_minus <= 1.0:
            raise ValueError(f"need p- > 1, got p- = {self.p_minus}")

    def meets_embedding_bound(self, dim: int) -> bool:
        """Whether p- >= 2N/(N+2); recorded as a flag, never enforced."""
        return self.p_minus >= 2.0 * dim / (dim + 2.0)


def exponent_field(grid: Grid, spec) -> ExponentField:
    """Build an exponent field on the grid's quadrature points from a
    constant or an array of one value per point."""
    return ExponentField(values=per_point(spec, grid.npoints, "exponent field"))


class OperatorFamily(PointFamily):
    """The triple (Psi, Phi, A) of an isotropic flux, sampled per quadrature
    point; every evaluation is a batch as :class:`grid.PointFamily` defines.

    Attributes
    ----------
    r_order : float
        Order r for which the profile ratio Phi(x, s)/s^(r-1) is certified
        monotone (strictly when ``strict_flag``).
    strict_flag : bool
        Whether the ratio at ``r_order`` is strictly increasing.
    homogeneous_flag : bool
        Whether Phi(x, .) is (p(x)-1)-homogeneous.
    exponent : ExponentField
        The family exponent p(x); for multi-phase sums the pointwise max.
    params : tuple of ndarray
        The per-point parameter arrays: Phi, its derivative and A depend on
        the point only through the tuple of their values there.
    """

    def __init__(self, r_order, strict_flag, homogeneous_flag, exponent, params):
        super().__init__(exponent.values.shape[0], params)
        self.r_order = float(r_order)
        self.strict_flag = bool(strict_flag)
        self.homogeneous_flag = bool(homogeneous_flag)
        self.exponent = exponent

    # -- radial profile ------------------------------------------------

    def phi(self, s, points=None):
        """Phi(x_i, s_i) for per-point magnitudes s (s >= 0)."""
        s, idx = self._align(s, points)
        return self._phi(s, idx)

    def psi(self, s, points=None):
        """Psi(x, s) = Phi(x, s)/s with the removable zero at s = 0."""
        s, idx = self._align(s, points)
        return np.divide(self._phi(s, idx), s, out=np.zeros(s.shape), where=s > 0.0)

    def phi_prime(self, s, points=None):
        """The s-derivative of Phi(x_i, s) at per-point magnitudes s > 0.

        Unbounded as s -> 0 where the profile grows slower than linearly
        (exponents below 2); callers that need a finite value floor s.
        """
        s, idx = self._align(s, points)
        return self._dphi(s, idx)

    # -- flux and primitive ---------------------------------------------

    def a_batch(self, grads: np.ndarray) -> np.ndarray:
        """Flux a(x, grad) at every point; grads has shape (..., npoints, dim)."""
        return scale_components(grads, self.psi(np.sqrt(dot_components(grads, grads))))

    def A_batch(self, t, points=None) -> np.ndarray:
        """A(x_i, t_i) for per-point upper limits t (finite, t >= 0)."""
        t, idx = self._align(t, points)
        if not np.all(np.isfinite(t) & (t >= 0.0)):
            raise ValueError("the primitive is defined for finite t >= 0")
        return self._A(t, idx)

    # -- subclass hooks --------------------------------------------------

    def _phi(self, s, idx):
        raise NotImplementedError

    def _dphi(self, s, idx):
        raise NotImplementedError

    def _A(self, t, idx):
        raise NotImplementedError


class MultiphaseFamily(OperatorFamily):
    """Weighted power sums; ``d0``, ``d0_tilde`` are the caller-supplied
    coercivity constants, None when not supplied."""

    def __init__(self, exponents, weights, alpha, p_lower, d0, d0_tilde):
        super().__init__(
            r_order=alpha,
            strict_flag=alpha < p_lower,
            homogeneous_flag=(len(exponents) == 1),
            exponent=ExponentField(np.max([p.values for p in exponents], axis=0)),
            params=[p.values for p in exponents] + list(weights),
        )
        self.exponents = tuple(exponents)
        self.weights = tuple(weights)
        self.d0 = d0
        self.d0_tilde = d0_tilde

    def _phi(self, s, idx):
        out = np.zeros_like(s)
        for p, w in zip(self.exponents, self.weights):
            out += w[idx] * s ** (p.values[idx] - 1.0)
        return out

    def _dphi(self, s, idx):
        out = np.zeros_like(s)
        for p, w in zip(self.exponents, self.weights):
            pk = p.values[idx]
            out += w[idx] * (pk - 1.0) * s ** (pk - 2.0)
        return out

    def _A(self, t, idx):
        out = np.zeros_like(t)
        for p, w in zip(self.exponents, self.weights):
            pk = p.values[idx]
            out += w[idx] * t**pk / pk
        return out


class ImageFamily(OperatorFamily):
    def __init__(self, p, eps, delta, alpha):
        # eps, delta and alpha are shared by every point
        super().__init__(r_order=alpha, strict_flag=True, homogeneous_flag=False,
                         exponent=p, params=(p.values,))
        self.p = p
        self.eps = float(eps)
        self.delta = float(delta)
        self.alpha = float(alpha)
        # Near 0 the primitive is a power series in s: g(s) = ln(1+s)/s is
        # analytic on |s| < 1, and the coefficients b_k of g^delta depend on
        # delta only.  The series alternates; summing it only up to
        # tau0 <= 1/delta keeps its condition number below e.
        self._tau0 = _series_cutoff(self.delta)
        ln_ratio = (-1.0) ** np.arange(_SERIES_TERMS) / np.arange(1.0, _SERIES_TERMS + 1)
        self._series = _series_power(ln_ratio, self.delta).reshape(-1, _HORNER_ORDER, 1)
        # per distinct p, the series over [0, min(eps, tau0)] and the factor
        # eps^(p - alpha) of the part above eps, values of p alone (sorted
        # and deduplicated by hand: a bare np.unique imports numpy.ma)
        ps = np.sort(p.values)
        self._p_distinct = ps[np.append(True, ps[1:] != ps[:-1])]
        cap = np.full_like(self._p_distinct, min(self.eps, self._tau0))
        self._series_top = self._series_sum(cap, self._p_distinct)
        self._tail_scale = self.eps ** (self._p_distinct - self.alpha)
        # each point's index among the distinct p, and its factor for Phi
        # and its derivative
        self._point_u = np.searchsorted(self._p_distinct, p.values)
        self._point_scale = self._tail_scale[self._point_u]

    def _phi(self, s, idx):
        p = self.p.values[idx]
        logs = np.log1p(s) ** self.delta
        low = s ** (p - 1.0) * logs
        high = self._point_scale[idx] * s ** (self.alpha - 1.0) * logs
        return np.where(s <= self.eps, low, high)

    def _dphi(self, s, idx):
        # the branches' derivatives differ at s = eps: Phi is only Lipschitz there
        p = self.p.values[idx]
        logs = np.log1p(s) ** self.delta
        dlogs = self.delta * np.log1p(s) ** (self.delta - 1.0) / (1.0 + s)
        low = (p - 1.0) * s ** (p - 2.0) * logs + s ** (p - 1.0) * dlogs
        high = self._point_scale[idx] * (
            (self.alpha - 1.0) * s ** (self.alpha - 2.0) * logs
            + s ** (self.alpha - 1.0) * dlogs)
        return np.where(s <= self.eps, low, high)

    def _A(self, t, idx):
        # Each integral depends only on its limit and its exponent's index u,
        # so the limits are sorted, the first pair of each run of equal
        # adjacent (t, u) is integrated, and the values are scattered back.
        # Every step below is elementwise, a reduction over one row's own
        # terms or a lookup of a value of p alone or of a panel table entry,
        # so each value depends only on its own (t, u), whatever the batch.
        eps, delta, tau0 = self.eps, self.delta, self._tau0
        order = np.argsort(t, axis=None)
        ts = t.ravel()[order]
        us = np.broadcast_to(self._point_u[idx], t.shape).ravel()[order]
        first = np.empty(ts.size, dtype=bool)
        first[:1] = True
        np.not_equal(ts[1:], ts[:-1], out=first[1:])
        first[1:] |= us[1:] != us[:-1]
        ts, us = ts[first], us[first]
        # [0, min(t, eps, tau0)] by the series, looked up from min(eps, tau0) on
        vals = self._series_top[us]
        low = ts < min(eps, tau0)
        vals[low] = self._series_sum(ts[low], self._p_distinct[us[low]])
        # the rest of the low branch, [tau0, min(t, eps)]
        if eps > tau0:
            vals += _log_panels(tau0, eps, ts, self._p_distinct, us, delta)
        # above eps the x-dependence factors out of the integral
        vals += self._tail_scale[us] * _log_panels(eps, math.inf, ts, np.array([self.alpha]), 0, delta)
        out = np.empty(order.size)
        out[order] = vals[np.cumsum(first) - 1]
        return out.reshape(t.shape)

    def _series_sum(self, tau, p):
        # s^(p-1) ln^delta(1+s) = s^(p-1+delta) g(s)^delta over [0, tau_i],
        # integrated termwise as tau^(p+delta) sum_k b_k tau^k / (p + delta + k)
        # and summed by Horner's rule of order L = _HORNER_ORDER (Knuth, TAOCP
        # vol. 2, 4.6.4): lane j holds the terms k = j mod L by Horner in
        # tau^L, then Horner in tau joins the lanes; a block of rows at a time
        b = self._series
        k = np.arange(b.size, dtype=float).reshape(b.shape)
        if self._p_distinct.size == 1:
            # the coefficients b_k / (p + delta + k) depend on p alone: with
            # one exponent each is divided once, an (L, 1) column that
            # broadcasts over the (L, rows) lanes
            fixed = b / (self._p_distinct + self.delta + k)
            coef = lambda g, blk, out: fixed[g]
        else:
            c = p + self.delta
            coef = lambda g, blk, out: np.divide(b[g], np.add(c[blk], k[g], out=out), out=out)
        sums = np.empty_like(tau)
        for blk in row_blocks(tau.size, _HORNER_ORDER):
            tb = tau[blk]
            y = tb ** _HORNER_ORDER
            # the lane steps allocate nothing: a fresh (L, rows) array per
            # step, past the allocator's mmap threshold, cost more than its
            # arithmetic
            lanes, scratch = np.empty((2, _HORNER_ORDER, tb.size))
            lanes[...] = coef(-1, blk, scratch)
            for g in range(b.shape[0] - 2, -1, -1):
                lanes *= y
                lanes += coef(g, blk, scratch)
            # the lanes by Horner in tau, as polyval(tb, lanes, tensor=False)
            acc = lanes[-1] + tb * 0
            for g in range(_HORNER_ORDER - 2, -1, -1):
                acc = lanes[g] + acc * tb
            sums[blk] = acc
        # tau^p tau^delta: rounding p + delta would cost |ln tau| ulps
        return tau**p * tau**self.delta * sums


def make_multiphase(exponents, weights, alpha: float | None = None,
                    d0: float | None = None, d0_tilde: float | None = None) -> OperatorFamily:
    """Weighted sum of p_k(x)-power profiles, Phi(x, s) = sum_k w_k(x) s^(p_k(x)-1).

    Parameters
    ----------
    exponents : sequence of ExponentField
        One exponent per phase, all sampled on the same points.
    weights : sequence
        Per-phase weights, scalars or per-point arrays; all strictly positive.
    alpha : float, optional
        Certified ratio order; must satisfy 1 < alpha <= min_k,x p_k(x).
        The ratio is strictly increasing exactly when alpha is below that
        minimum.  Defaults to the midpoint of (1, min p).
    d0, d0_tilde : float, optional
        Caller-supplied coercivity constants, finite and nonnegative, stored
        on the family for the validators; by default the checks fall back to
        (min w / p+, 0).
    """
    exponents = list(exponents)
    if not exponents:
        raise ValueError("need at least one phase")
    warr = [per_point(w, exponents[0].values.shape[0], "weight") for w in weights]
    if any(w.min() <= 0.0 for w in warr):
        raise ValueError("weights must be bounded below by a positive constant")
    if len(warr) != len(exponents):
        raise ValueError("one weight per exponent required")
    p_lower = min(p.p_minus for p in exponents)
    if alpha is None:
        alpha = 0.5 * (1.0 + p_lower)
    alpha = float(alpha)
    if not 1.0 < alpha <= p_lower:
        raise ValueError(f"alpha must lie in (1, {p_lower}], got {alpha}")
    consts = [None if c is None else float(c) for c in (d0, d0_tilde)]
    if any(c is not None and not 0.0 <= c < math.inf for c in consts):
        raise ValueError(f"d0 and d0_tilde must be finite and nonnegative, got {d0}, {d0_tilde}")
    return MultiphaseFamily(exponents, warr, alpha, p_lower, *consts)


def make_image_operator(p: ExponentField, eps: float, delta: float,
                        alpha: float) -> OperatorFamily:
    """Image-processing profile with threshold eps and log exponent delta.

    Rejects a delta (or an exponent) for which one exponent's table of
    Gauss-Legendre panels could exceed PANEL_BUDGET panels.  The bound:
    ``_log_panels`` tables the whole panels of width
    H_q = min(1, 8/(q + delta)) from ln lo up to the largest limit.  Above
    eps, q = alpha, lo = eps and a finite limit has ln t <= ln(DBL_MAX)
    (709.78), so the table holds at most
    (ln(DBL_MAX) - ln eps) max(1, (alpha + delta)/8) panels.  Where
    eps > tau0 = min(1/2, 1/delta) the low branch tables [tau0, eps] per
    exponent, at most ln(eps/tau0) max(1, (p+ + delta)/8) panels.  At
    eps = 1/2 and alpha = 3/2 the budget admits delta up to about 11 800.
    """
    if not (0.0 < eps < math.inf and 0.0 < delta < math.inf):
        raise ValueError(f"eps and delta must be positive and finite, got {eps}, {delta}")
    if not 1.0 < alpha < p.p_minus:
        raise ValueError(f"need p- > alpha > 1, got alpha={alpha}, p-={p.p_minus}")
    panels = (math.log(np.finfo(float).max) - math.log(eps)) * max(1.0, (alpha + delta) / 8.0)
    tau0 = _series_cutoff(delta)
    if eps > tau0:
        panels = max(panels, math.log(eps / tau0) * max(1.0, (p.p_plus + delta) / 8.0))
    if panels > PANEL_BUDGET:
        raise ValueError(f"the image primitive at delta = {delta}, p+ = {p.p_plus} needs up to"
                         f" {panels:.3g} quadrature panels per exponent, more than"
                         f" {PANEL_BUDGET}")
    return ImageFamily(p, eps, delta, alpha)


# ---------------------------------------------------------------------------
# fixed-cost quadrature for the image primitive
# ---------------------------------------------------------------------------

# 60 terms reach 2^-56 relative on [0, tau0] for every delta (at most 56 needed,
# at delta = 2 and tau0 = 1/2), summed by Horner's rule in 10 lanes of 6
_SERIES_TERMS = 60
_HORNER_ORDER = 10
# the 12-point Gauss-Legendre rule mapped to [0, 1]: the bits of 0.5 (x + 1)
# and 0.5 w for (x, w) = numpy.polynomial.legendre.leggauss(12), written out
# so that importing the package does not load numpy.polynomial
_GL_NODES = np.array([
    0.009219682876640378, 0.0479413718147626, 0.11504866290284765, 0.20634102285669126,
    0.31608425050090994, 0.43738329574426554, 0.5626167042557344, 0.6839157494990901,
    0.7936589771433087, 0.8849513370971523, 0.9520586281852375, 0.9907803171233596])
_GL_WEIGHTS = np.array([
    0.023587668193255706, 0.05346966299765953, 0.08003916427167321, 0.10158371336153287,
    0.1167462682691773, 0.12457352290670134, 0.12457352290670134, 0.1167462682691773,
    0.10158371336153287, 0.08003916427167321, 0.05346966299765953, 0.023587668193255706])
# the most whole panels one exponent's table may hold: 8 MiB of prefix sums
PANEL_BUDGET = 2 ** 20


def _series_cutoff(delta: float) -> float:
    """tau0: the series is summed over [0, min(t, tau0)] only."""
    return min(0.5, 1.0 / delta)


def _series_power(a: np.ndarray, delta: float) -> np.ndarray:
    """Coefficients of (sum_k a_k s^k)^delta for a_0 = 1, by J.C.P. Miller's
    recurrence  n b_n = sum_{k=1..n} ((delta + 1) k - n) a_k b_{n-k}."""
    b = np.zeros_like(a)
    b[0] = 1.0
    for n in range(1, a.size):
        k = np.arange(1, n + 1)
        b[n] = np.add.reduce(((delta + 1.0) * k - n) * a[1:n + 1] * b[n - 1::-1]) / n
    return b


def _log_panels(lo: float, hi: float, t, qs, u, delta: float) -> np.ndarray:
    """Integral of s^(q_i-1) ln^delta(1+s) over [lo, min(t_i, hi)] for each row i,
    where q_i = qs[u_i] for an index array u shaped like t, or one index u.

    In v = ln s this is the integral of e^(q v) ln^delta(1 + e^v) over
    [a, b_i], a = ln lo and b_i = ln clip(t_i, lo, hi).  The integrand is
    analytic in the strip |Im v| < pi, so the 12-point Gauss-Legendre rule
    on panels of width <= H_q = min(1, 8/(q + delta)) is accurate to
    rounding.  The prefix sums of whole panels [a + j H_q, a + (j+1) H_q]
    form a table per exponent, and row i adds the entry of its
    J_i = floor((b_i - a) / H_q) whole panels and one panel over
    [a + J_i H_q, b_i].  A panel and a prefix sum depend only on (q, j), so
    a row's value does not depend on the other rows.  Rows with t_i <= lo
    give 0.
    """
    if not np.any(t > lo):
        return np.zeros(np.shape(t))
    a = math.log(lo)
    b = np.log(np.clip(t, lo, hi))
    out = np.zeros_like(b)
    live = np.flatnonzero(b > a)
    b = b[live]
    u = u[live] if np.ndim(u) else u
    width = np.minimum(1.0, 8.0 / (qs + delta))
    # each exponent's table runs to the longest live row; the panel ends
    # a + j H are rounded alike in the table and the rows, so that the
    # panels tile [a, b_i] with neither gap nor overlap
    full = np.zeros(qs.size, dtype=np.intp)
    full[u] = np.floor((b.max(initial=a) - a) / width[u])
    owner = np.repeat(np.arange(qs.size), full)
    j = np.arange(owner.size) - np.repeat(np.cumsum(full) - full, full)
    w = width[owner]
    start = a + j * w
    table = np.zeros((qs.size, full.max() + 1))
    table[owner, j + 1] = _gl_panels(start, (a + (j + 1) * w) - start, qs[owner], delta)
    np.cumsum(table, axis=1, out=table)
    J = np.floor((b - a) / width[u])
    start = a + J * width[u]
    b -= start  # the width of each row's last panel
    out[live] = table[u, J.astype(np.intp)] + _gl_panels(
        start, b, np.broadcast_to(qs[u], b.shape), delta)
    return out


def _gl_panels(start, width, q, delta: float) -> np.ndarray:
    """The 12-point Gauss-Legendre rule for the integral of e^(q_i v)
    ln^delta(1 + e^v) over [start_i, start_i + width_i], for each panel i,
    a block of panels at a time so that memory stays bounded.  Nodes run
    along the first axis, so every step loops over panels, and a panel's
    terms are summed as ``np.add.reduceat`` sums them:
    x0 + ((((x1 + x2) + (x3 + x4)) + ((x5 + x6) + (x7 + x8))) + x9 + x10 + x11)."""
    out = np.empty_like(start)
    for blk in row_blocks(start.size, _GL_NODES.size):
        # v = start + width node and f = e^(q v) ln^delta(1 + e^v) w, in place
        v = _GL_NODES[:, None] * width[blk]
        v += start[blk]
        f = q[blk] * v
        np.exp(f, out=f)
        np.exp(v, out=v)
        np.log1p(v, out=v)
        v **= delta
        f *= v
        f *= _GL_WEIGHTS[:, None]
        x = f[1:9:2] + f[2:9:2]  # x1 + x2, x3 + x4, x5 + x6, x7 + x8
        out[blk] = width[blk] * (f[0] + ((x[0] + x[1]) + (x[2] + x[3]) + f[9] + f[10] + f[11]))
    return out


# ---------------------------------------------------------------------------
# homogeneity equivalence
# ---------------------------------------------------------------------------

HOMOGENEITY_SAMPLES = 200
HOMOGENEITY_TOL = 1e-8  # largest relative violation a homogeneous scaling shows


def check_homogeneity(fam: OperatorFamily, seed: int = 0) -> dict:
    """Test A(x, t xi) = |t|^p(x) A(x, xi) and Phi(x, t s) = |t|^(p(x)-1) Phi(x, s).

    Both sides are sampled at HOMOGENEITY_SAMPLES random (point, t, s, |xi|)
    draws.  The dict returned holds the flags ``is_A_homog`` and
    ``is_Phi_homog`` (largest relative violation at most HOMOGENEITY_TOL),
    ``max_violation_A``, ``max_violation_Phi``, ``samples``, ``seed`` and
    ``agree``: the flags must agree for every family (the scalings are
    equivalent).
    """
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, fam.npoints, size=HOMOGENEITY_SAMPLES)
    t = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=HOMOGENEITY_SAMPLES))
    t *= rng.choice([-1.0, 1.0], size=HOMOGENEITY_SAMPLES)
    s = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=HOMOGENEITY_SAMPLES))
    xin = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=HOMOGENEITY_SAMPLES))
    p = fam.exponent.values[idx]

    lhs = fam.phi(np.abs(t) * s, points=idx)
    rhs = np.abs(t) ** (p - 1.0) * fam.phi(s, points=idx)
    viol_phi = float(np.max(np.abs(lhs - rhs) / (np.maximum(np.abs(lhs), np.abs(rhs)) + 1e-9)))

    lhs_A = fam.A_batch(np.abs(t) * xin, points=idx)
    rhs_A = np.abs(t) ** p * fam.A_batch(xin, points=idx)
    viol_A = float(np.max(np.abs(lhs_A - rhs_A) / (np.maximum(np.abs(lhs_A), np.abs(rhs_A)) + 1e-9)))

    is_A_homog, is_Phi_homog = viol_A <= HOMOGENEITY_TOL, viol_phi <= HOMOGENEITY_TOL
    return {"is_A_homog": is_A_homog, "is_Phi_homog": is_Phi_homog,
            "max_violation_A": viol_A, "max_violation_Phi": viol_phi,
            "samples": HOMOGENEITY_SAMPLES, "seed": seed, "agree": is_A_homog == is_Phi_homog}


# ---------------------------------------------------------------------------
# growth and coercivity constants for the image profile
# ---------------------------------------------------------------------------

def image_growth_constant(fam: ImageFamily) -> dict:
    """Constant b with Phi(x, s) <= b s^(p(x)-1) for the image profile.

    Above the threshold the profile equals s^(p(x)-1) R(s)^delta with
    R(s) = ln(1+s) / (s/eps)^((p(x)-alpha)/delta), a ratio that rises from
    ln(1+eps), peaks once, and decays to zero.  Using the smallest exponent
    p- gives the dominating ratio.  The routine doubles past the peak, finds
    by bisection the point eps~ where the decaying branch drops below 1,
    takes C = the golden-section maximum of R on [eps, eps~], and returns
    b = max(C^delta, ln^delta(1+eps)).
    """
    if not isinstance(fam, ImageFamily):
        raise ValueError("growth constant applies to the image family")
    eps, delta, alpha = fam.eps, fam.delta, fam.alpha
    q = (fam.p.p_minus - alpha) / delta

    def log_ratio(u):
        # u = ln(tau); overflow-safe for very slowly decaying ratios
        tau = math.exp(u)
        return math.log(math.log1p(tau)) - q * (u - math.log(eps))

    u = math.log(2.0 * eps)
    for _ in range(1100):
        if u > 700.0:
            raise RuntimeError("ratio decays too slowly to locate the unit crossing")
        if log_ratio(u) <= 0.0 and log_ratio(u) <= log_ratio(u - math.log(2.0)):
            break
        u += math.log(2.0)
    else:
        raise RuntimeError("ratio failed to decay below 1")
    if log_ratio(u - math.log(2.0)) > 0.0:
        lo, hi = u - math.log(2.0), u
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if log_ratio(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        u_tilde = hi
    else:
        u_tilde = u
    u0 = math.log(eps)
    peak = _golden_max(log_ratio, u0, u_tilde)
    C = max(1.0, math.exp(peak), math.exp(log_ratio(u0)), math.exp(log_ratio(u_tilde)))
    b = max(C**delta, math.log1p(eps) ** delta)
    return {"b": b, "C": C, "eps_tilde": math.exp(u_tilde), "q": q}


def image_coercivity_constants(fam: ImageFamily, volume: float) -> tuple:
    """Constants (c1, c2) with  integral of A(x, |grad v|)  >=  c1 |grad v|_alpha^alpha - c2.

    Pointwise, for t >= eps,
        A(x, t) >= eps^(p(x)-alpha) * (eps/(1+eps))^delta * (t^alpha - eps^alpha)/alpha
    via ln(1+s) >= s/(1+s) >= eps/(1+eps) on [eps, t]; for t < eps use A >= 0.
    Both cases give A(x, t) >= c1 t^alpha - c1 eps^alpha, and integrating over
    the box of the given volume yields c2 = c1 eps^alpha volume (inf when
    eps^alpha overflows).
    """
    if not isinstance(fam, ImageFamily):
        raise ValueError("coercivity constants apply to the image family")
    eps, delta, alpha = fam.eps, fam.delta, fam.alpha
    kmin = float(np.min(eps ** (fam.p.values - alpha)))
    c1 = kmin * (eps / (1.0 + eps)) ** delta / alpha
    try:
        c2 = c1 * eps**alpha * float(volume)
    except OverflowError:  # eps^alpha exceeds every double: only c2 = inf holds
        c2 = math.inf
    return c1, c2


def _golden_max(f, lo: float, hi: float, iters: int = 200) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < 1e-14 * max(1.0, abs(a)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(fc, fd)
