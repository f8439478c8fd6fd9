"""Isotropic operator families a(x, xi) = Psi(x, |xi|) xi.

Two built-in families:

* multi-phase sums  Phi(x, s) = sum_k w_k(x) s^(p_k(x) - 1)  with closed-form
  energy density, and
* the image-processing profile  Phi(x, s) = s^(p(x)-1) ln^delta(1+s)  below a
  threshold eps and  eps^(p(x)-alpha) s^(alpha-1) ln^delta(1+s)  above it,
  whose primitive has no elementary closed form.  It is evaluated by a
  fixed-cost rule: a power series integrated termwise next to s = 0 and
  Gauss-Legendre panels in ln s everywhere else, accurate to a few ulp.

All evaluations are pure; a family is immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid


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
    constant, an array, or a callable on the points."""
    npts = grid.npoints
    if callable(spec):
        vals = np.asarray(spec(grid.quad_points), dtype=float)
    elif np.isscalar(spec):
        vals = np.full(npts, float(spec))
    else:
        vals = np.asarray(spec, dtype=float)
    if vals.shape != (npts,):
        raise ValueError(f"exponent field needs shape ({npts},), got {vals.shape}")
    return ExponentField(values=vals)


class OperatorFamily:
    """The triple (Psi, Phi, A) of an isotropic flux, sampled per quadrature point.

    Every evaluation is a batch: per-point values s (or t) paired with
    point indices ``points`` (all points in order when omitted, which also
    takes stacked rows of shape (..., npoints)).

    Attributes
    ----------
    npoints : int
        Number of quadrature points, the length of the exponent field.
    r_order : float
        Order r for which the profile ratio Phi(x, s)/s^(r-1) is certified
        monotone (strictly when ``strict_flag``).
    strict_flag : bool
        Whether the ratio at ``r_order`` is strictly increasing.
    homogeneous_flag : bool
        Whether Phi(x, .) is (p(x)-1)-homogeneous.
    exponent : ExponentField
        The family exponent p(x); for multi-phase sums the pointwise max.
    """

    def __init__(self, r_order, strict_flag, homogeneous_flag, exponent):
        self.npoints = exponent.values.shape[0]
        self.r_order = float(r_order)
        self.strict_flag = bool(strict_flag)
        self.homogeneous_flag = bool(homogeneous_flag)
        self.exponent = exponent

    def _align(self, s, points):
        s = np.asarray(s, dtype=float)
        idx = np.arange(self.npoints) if points is None else np.asarray(points)
        return np.broadcast_arrays(s, idx)

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
        norms = np.sqrt(np.sum(grads * grads, axis=-1))
        return self.psi(norms)[..., None] * grads

    def A_eval(self, point: int, t: float) -> float:
        if t < 0.0:
            raise ValueError("the primitive is defined for t >= 0")
        return float(self.A_batch(np.asarray([float(t)]),
                                  points=np.asarray([point]))[0])

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
        super().__init__(r_order=alpha, strict_flag=True, homogeneous_flag=False,
                         exponent=p)
        self.p = p
        self.eps = float(eps)
        self.delta = float(delta)
        self.alpha = float(alpha)
        # Near 0 the primitive is a power series in s: g(s) = ln(1+s)/s is
        # analytic on |s| < 1, and the coefficients b_k of g^delta depend on
        # delta only.  The series alternates; summing it only up to
        # tau0 <= 1/delta keeps its condition number below e.
        self._tau0 = min(0.5, 1.0 / self.delta)
        ln_ratio = (-1.0) ** np.arange(_SERIES_TERMS) / np.arange(1.0, _SERIES_TERMS + 1)
        self._series = _series_power(ln_ratio, self.delta)

    def _phi(self, s, idx):
        p = self.p.values[idx]
        logs = np.log1p(s) ** self.delta
        low = s ** (p - 1.0) * logs
        high = self.eps ** (p - self.alpha) * s ** (self.alpha - 1.0) * logs
        return np.where(s <= self.eps, low, high)

    def _dphi(self, s, idx):
        # the branches' derivatives differ at s = eps: Phi is only Lipschitz there
        p = self.p.values[idx]
        logs = np.log1p(s) ** self.delta
        dlogs = self.delta * np.log1p(s) ** (self.delta - 1.0) / (1.0 + s)
        low = (p - 1.0) * s ** (p - 2.0) * logs + s ** (p - 1.0) * dlogs
        high = self.eps ** (p - self.alpha) * (
            (self.alpha - 1.0) * s ** (self.alpha - 2.0) * logs
            + s ** (self.alpha - 1.0) * dlogs)
        return np.where(s <= self.eps, low, high)

    def _A(self, t, idx):
        # Each integral depends only on its limit and its exponent, so every
        # distinct (t, p) pair is integrated once and scattered back; the
        # pairs are complex keys t + ip, which np.unique sorts faster than rows.
        keys, inverse = np.unique(t.ravel() + 1j * self.p.values[idx].ravel(),
                                  return_inverse=True)
        vals = self._A_pairs(np.ascontiguousarray(keys.real),
                             np.ascontiguousarray(keys.imag))
        return vals[inverse.ravel()].reshape(t.shape)

    def _A_pairs(self, t, p):
        # Every step below is elementwise or a reduction over one row's own
        # terms, so each value depends only on its own (t, p), whatever the batch.
        eps, delta, tau0 = self.eps, self.delta, self._tau0
        # [0, tau]: s^(p-1) ln^delta(1+s) = s^(p-1+delta) g(s)^delta, integrated
        # termwise as tau^c sum_k b_k tau^k / (c + k) with c = p + delta
        tau = np.minimum(t, min(eps, tau0))
        c = p + delta
        k = np.arange(self._series.size)
        out = tau**c * np.sum(self._series * tau[:, None] ** k / (c[:, None] + k), axis=1)
        # the rest of the low branch, [tau0, min(t, eps)]
        if eps > tau0:
            out += _log_panels(math.log(tau0), np.log(np.clip(t, tau0, eps)), p, delta)
        # above eps the x-dependence factors out of the integral
        tail = _log_panels(math.log(eps), np.log(np.maximum(t, eps)),
                           np.full_like(t, self.alpha), delta)
        return out + eps ** (p - self.alpha) * tail


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
    npts = exponents[0].values.shape[0]
    warr = []
    for w in weights:
        w = np.full(npts, float(w)) if np.isscalar(w) else np.asarray(w, dtype=float)
        if w.shape != (npts,):
            raise ValueError("weights must match the exponent sampling")
        if w.min() <= 0.0:
            raise ValueError("weights must be bounded below by a positive constant")
        warr.append(w)
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
    """Image-processing profile with threshold eps and log exponent delta."""
    if eps <= 0.0 or delta <= 0.0:
        raise ValueError("eps and delta must be positive")
    if not 1.0 < alpha < p.p_minus:
        raise ValueError(f"need p- > alpha > 1, got alpha={alpha}, p-={p.p_minus}")
    return ImageFamily(p, eps, delta, alpha)


# ---------------------------------------------------------------------------
# fixed-cost quadrature for the image primitive
# ---------------------------------------------------------------------------

# 60 terms reach 2^-56 relative on [0, tau0] for every delta (at most 56 needed,
# at delta = 2 and tau0 = 1/2)
_SERIES_TERMS = 60
# the 12-point Gauss-Legendre rule mapped to [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W


def _series_power(a: np.ndarray, delta: float) -> np.ndarray:
    """Coefficients of (sum_k a_k s^k)^delta for a_0 = 1, by J.C.P. Miller's
    recurrence  n b_n = sum_{k=1..n} ((delta + 1) k - n) a_k b_{n-k}."""
    b = np.zeros_like(a)
    b[0] = 1.0
    for n in range(1, a.size):
        k = np.arange(1, n + 1)
        b[n] = np.dot(((delta + 1.0) * k - n) * a[1:n + 1], b[n - 1::-1]) / n
    return b


def _log_panels(a: float, b, q, delta: float) -> np.ndarray:
    """Integral of e^(q_i v) ln^delta(1 + e^v) over [a, b_i] for each row i.

    This is the integral of s^(q-1) ln^delta(1+s) over [e^a, e^b] in v = ln s.
    The integrand is analytic in the strip |Im v| < pi, so the 12-point
    Gauss-Legendre rule on equal panels of width <= min(1, 8/(q + delta)),
    anchored at a, is accurate to rounding.  Each row gets its own panel
    count and its panels are summed by themselves (no padding to the
    longest row), so a row's value and its memory do not depend on the
    other rows.  Rows with b_i <= a give 0.
    """
    out = np.zeros_like(b)
    m = np.ceil((b - a) * np.maximum(1.0, (q + delta) / 8.0)).astype(np.intp)
    live = np.flatnonzero(m > 0)
    if live.size == 0:
        return out
    m, q = m[live], q[live]
    h = (b[live] - a) / m
    starts = np.cumsum(m) - m
    row = np.repeat(np.arange(live.size), m)      # the row of every panel
    j = np.arange(row.size) - starts[row]         # its index within the row
    v = a + h[row, None] * (j[:, None] + _GL_NODES)
    f = np.exp(q[row, None] * v) * np.log1p(np.exp(v)) ** delta
    out[live] = h * np.add.reduceat((f * _GL_WEIGHTS).ravel(), _GL_NODES.size * starts)
    return out


# ---------------------------------------------------------------------------
# homogeneity equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneityReport:
    is_A_homog: bool
    is_Phi_homog: bool
    max_violation_A: float
    max_violation_Phi: float
    samples: int
    seed: int

    @property
    def agree(self) -> bool:
        return self.is_A_homog == self.is_Phi_homog


def check_homogeneity(fam: OperatorFamily, samples: int = 200,
                      seed: int = 0, tol: float = 1e-8) -> HomogeneityReport:
    """Test A(x, t xi) = |t|^p(x) A(x, xi) and Phi(x, t s) = |t|^(p(x)-1) Phi(x, s).

    Both sides are sampled at random (point, t, s, |xi|) draws; the two flags
    must agree for every family (the scalings are equivalent).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, fam.npoints, size=samples)
    t = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=samples))
    t *= rng.choice([-1.0, 1.0], size=samples)
    s = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=samples))
    xin = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=samples))
    p = fam.exponent.values[idx]

    lhs = fam.phi(np.abs(t) * s, points=idx)
    rhs = np.abs(t) ** (p - 1.0) * fam.phi(s, points=idx)
    viol_phi = float(np.max(np.abs(lhs - rhs) / (np.maximum(np.abs(lhs), np.abs(rhs)) + 1e-9)))

    lhs_A = fam.A_batch(np.abs(t) * xin, points=idx)
    rhs_A = np.abs(t) ** p * fam.A_batch(xin, points=idx)
    viol_A = float(np.max(np.abs(lhs_A - rhs_A) / (np.maximum(np.abs(lhs_A), np.abs(rhs_A)) + 1e-9)))

    return HomogeneityReport(
        is_A_homog=viol_A <= tol,
        is_Phi_homog=viol_phi <= tol,
        max_violation_A=viol_A,
        max_violation_Phi=viol_phi,
        samples=samples,
        seed=seed,
    )


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
    the box of the given volume yields c2 = c1 eps^alpha volume.
    """
    if not isinstance(fam, ImageFamily):
        raise ValueError("coercivity constants apply to the image family")
    eps, delta, alpha = fam.eps, fam.delta, fam.alpha
    kmin = float(np.min(eps ** (fam.p.values - alpha)))
    c1 = kmin * (eps / (1.0 + eps)) ** delta / alpha
    c2 = c1 * eps**alpha * float(volume)
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
