"""Isotropic operator families a(x, xi) = Psi(x, |xi|) xi.

Two built-in families:

* multi-phase sums  Phi(x, s) = sum_k w_k(x) s^(p_k(x) - 1)  with closed-form
  energy density, and
* the image-processing profile  Phi(x, s) = s^(p(x)-1) ln^delta(1+s)  below a
  threshold eps and  eps^(p(x)-alpha) s^(alpha-1) ln^delta(1+s)  above it,
  whose primitive has no elementary closed form and is integrated by
  adaptive Simpson quadrature.

All evaluations are pure; a family is immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within the depth budget."""


@dataclass(frozen=True)
class ExponentField:
    """Sampled variable exponent p(x) with cached extremes."""

    values: np.ndarray = field(repr=False)
    p_minus: float = 0.0
    p_plus: float = 0.0

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


def exponent_field(grid_or_n, spec) -> ExponentField:
    """Build an exponent field from a constant, array, or callable on points."""
    if isinstance(grid_or_n, Grid):
        npts, pts = grid_or_n.npoints, grid_or_n.quad_points
    else:
        npts, pts = int(grid_or_n), None
    if callable(spec):
        if pts is None:
            raise ValueError("callable exponent spec needs a Grid")
        vals = np.asarray(spec(pts), dtype=float)
    elif np.isscalar(spec):
        vals = np.full(npts, float(spec))
    else:
        vals = np.asarray(spec, dtype=float)
    if vals.shape != (npts,):
        raise ValueError(f"exponent field needs shape ({npts},), got {vals.shape}")
    return ExponentField(values=vals)


class OperatorFamily:
    """The triple (Psi, Phi, A) of an isotropic flux, sampled per quadrature point.

    Attributes
    ----------
    kind : str
        "multiphase" or "image".
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

    def __init__(self, kind, npoints, r_order, strict_flag, homogeneous_flag,
                 exponent, params):
        self.kind = kind
        self.npoints = int(npoints)
        self.r_order = float(r_order)
        self.strict_flag = bool(strict_flag)
        self.homogeneous_flag = bool(homogeneous_flag)
        self.exponent = exponent
        self.params = dict(params)

    # -- radial profile ------------------------------------------------

    def phi(self, s, points=None):
        """Phi(x_i, s_i) for per-point magnitudes s (s >= 0)."""
        s = np.asarray(s, dtype=float)
        idx = np.arange(self.npoints) if points is None else np.asarray(points)
        s, idx = np.broadcast_arrays(s, idx)
        return self._phi(s, idx)

    def phi_at(self, point: int, s: float) -> float:
        return float(self._phi(np.asarray([float(s)]), np.asarray([point]))[0])

    def phi_profile(self, point: int):
        """The scalar profile s -> Phi(x, s) frozen at one quadrature point."""
        return lambda s: self.phi_at(point, s)

    def psi(self, s, points=None):
        """Psi(x, s) = Phi(x, s)/s with the removable zero at s = 0."""
        s = np.asarray(s, dtype=float)
        idx = np.arange(self.npoints) if points is None else np.asarray(points)
        s, idx = np.broadcast_arrays(s, idx)
        out = np.zeros(s.shape)
        pos = s > 0.0
        if np.any(pos):
            out[pos] = self._phi(s[pos], idx[pos]) / s[pos]
        return out

    def phi_prime(self, s, points=None):
        """The s-derivative of Phi(x_i, s) at per-point magnitudes s > 0.

        Unbounded as s -> 0 where the profile grows slower than linearly
        (exponents below 2); callers that need a finite value floor s.
        """
        s = np.asarray(s, dtype=float)
        idx = np.arange(self.npoints) if points is None else np.asarray(points)
        s, idx = np.broadcast_arrays(s, idx)
        return self._dphi(s, idx)

    # -- flux and primitive ---------------------------------------------

    def a_eval(self, point: int, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        norm = float(np.sqrt(np.sum(xi * xi)))
        if norm == 0.0:
            return np.zeros_like(xi)
        return (self.phi_at(point, norm) / norm) * xi

    def a_batch(self, grads: np.ndarray) -> np.ndarray:
        """Flux a(x, grad) at every point; grads has shape (npoints, dim)."""
        norms = np.sqrt(np.sum(grads * grads, axis=1))
        return self.psi(norms)[:, None] * grads

    def A_eval(self, point: int, t: float, tol: float = 1e-10) -> float:
        if t < 0.0:
            raise ValueError("the primitive is defined for t >= 0")
        return float(self.A_batch(np.asarray([float(t)]),
                                  points=np.asarray([point]), tol=tol)[0])

    def A_batch(self, t, points=None, tol: float = 1e-12) -> np.ndarray:
        """A(x_i, t_i) for per-point upper limits t (t >= 0)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("the primitive is defined for t >= 0")
        idx = np.arange(self.npoints) if points is None else np.asarray(points)
        t, idx = np.broadcast_arrays(t, idx)
        return self._A(t, idx, tol)

    # -- subclass hooks --------------------------------------------------

    def _phi(self, s, idx):
        raise NotImplementedError

    def _dphi(self, s, idx):
        raise NotImplementedError

    def _A(self, t, idx, tol):
        raise NotImplementedError


class MultiphaseFamily(OperatorFamily):
    def __init__(self, exponents, weights, alpha, p_lower):
        ell = len(exponents)
        super().__init__(
            kind="multiphase",
            npoints=exponents[0].values.shape[0],
            r_order=alpha,
            strict_flag=alpha < p_lower,
            homogeneous_flag=(ell == 1),
            exponent=ExponentField(np.max([p.values for p in exponents], axis=0)),
            params={"ell": ell, "alpha": alpha, "p_lower": p_lower},
        )
        self.exponents = tuple(exponents)
        self.weights = tuple(weights)

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

    def _A(self, t, idx, tol):
        out = np.zeros_like(t)
        for p, w in zip(self.exponents, self.weights):
            pk = p.values[idx]
            out += w[idx] * t**pk / pk
        return out


class ImageFamily(OperatorFamily):
    def __init__(self, p, eps, delta, alpha):
        super().__init__(
            kind="image",
            npoints=p.values.shape[0],
            r_order=alpha,
            strict_flag=True,
            homogeneous_flag=False,
            exponent=p,
            params={"eps": eps, "delta": delta, "alpha": alpha},
        )
        self.p = p
        self.eps = float(eps)
        self.delta = float(delta)
        self.alpha = float(alpha)

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

    def _A(self, t, idx, tol):
        # Each integral depends only on its limit and its exponent, so every
        # distinct (t, p) pair is integrated once and scattered back; the
        # pairs are complex keys t + ip, which np.unique sorts faster than rows.
        keys, inverse = np.unique(t.ravel() + 1j * self.p.values[idx].ravel(),
                                  return_inverse=True)
        vals = self._A_pairs(np.ascontiguousarray(keys.real),
                             np.ascontiguousarray(keys.imag), tol)
        return vals[inverse.ravel()].reshape(t.shape)

    def _A_pairs(self, t, p, tol):
        out = np.zeros_like(t)
        # below the threshold: integrate s^(p-1) ln^delta(1+s) on [0, min(t, eps)]
        lo_hi = np.minimum(t, self.eps)
        def f_low(s, rows):
            return s ** (p[rows] - 1.0) * np.log1p(s) ** self.delta
        out += _adaptive_simpson_batch(f_low, np.zeros_like(t), lo_hi, tol)
        # above: the x-dependence factors out of the integral
        mask = t > self.eps
        if np.any(mask):
            def f_high(s, rows):
                return s ** (self.alpha - 1.0) * np.log1p(s) ** self.delta
            tail = np.zeros_like(t)
            tail[mask] = _adaptive_simpson_batch(
                f_high, np.full(int(mask.sum()), self.eps), t[mask], tol)
            out += np.where(mask, self.eps ** (p - self.alpha) * tail, 0.0)
        return out


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
        Caller-supplied coercivity constants, stored in ``params`` for the
        validators; by default the checks fall back to (min w / p+, 0).
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
    fam = MultiphaseFamily(exponents, warr, alpha, p_lower)
    if d0 is not None:
        fam.params["d0"] = float(d0)
    if d0_tilde is not None:
        fam.params["d0_tilde"] = float(d0_tilde)
    return fam


def make_image_operator(p: ExponentField, eps: float, delta: float,
                        alpha: float) -> OperatorFamily:
    """Image-processing profile with threshold eps and log exponent delta."""
    if eps <= 0.0 or delta <= 0.0:
        raise ValueError("eps and delta must be positive")
    if not 1.0 < alpha < p.p_minus:
        raise ValueError(f"need p- > alpha > 1, got alpha={alpha}, p-={p.p_minus}")
    return ImageFamily(p, eps, delta, alpha)


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature, vectorized over a batch of integrals
# ---------------------------------------------------------------------------

def _adaptive_simpson_batch(f, a, b, tol, max_depth: int = 48) -> np.ndarray:
    """Integrate f over each [a_i, b_i] to absolute tolerance tol per integral.

    ``f(s, rows)`` must evaluate the integrand vectorized; ``rows`` holds the
    index of the integral each abscissa belongs to (for per-integral
    parameters).  Intervals are bisected until the standard Richardson
    estimate meets the (halved per split) tolerance.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros_like(a)
    rows = np.flatnonzero(b > a)
    if rows.size == 0:
        return out
    A, B = a[rows], b[rows]
    M = 0.5 * (A + B)
    FA, FM, FB = f(A, rows), f(M, rows), f(B, rows)
    S = (B - A) / 6.0 * (FA + 4.0 * FM + FB)
    TOL = np.full(rows.size, float(tol))
    for _ in range(max_depth):
        M = 0.5 * (A + B)
        LM = 0.5 * (A + M)
        RM = 0.5 * (M + B)
        FLM = f(LM, rows)
        FRM = f(RM, rows)
        SL = (M - A) / 6.0 * (FA + 4.0 * FLM + FM)
        SR = (B - M) / 6.0 * (FM + 4.0 * FRM + FB)
        ERR = SL + SR - S
        done = np.abs(ERR) <= 15.0 * TOL
        if np.any(done):
            np.add.at(out, rows[done], (SL + SR + ERR / 15.0)[done])
        live = ~done
        if not np.any(live):
            return out
        # stack left and right halves of every unconverged interval
        rows = np.concatenate([rows[live], rows[live]])
        A, B = (np.concatenate([A[live], M[live]]),
                np.concatenate([M[live], B[live]]))
        FA, FM, FB = (np.concatenate([FA[live], FM[live]]),
                      np.concatenate([FLM[live], FRM[live]]),
                      np.concatenate([FM[live], FB[live]]))
        S = np.concatenate([SL[live], SR[live]])
        TOL = np.concatenate([0.5 * TOL[live], 0.5 * TOL[live]])
    raise QuadratureError("adaptive Simpson exceeded the subdivision budget")


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

    lhs_A = fam.A_batch(np.abs(t) * xin, points=idx, tol=1e-13)
    rhs_A = np.abs(t) ** p * fam.A_batch(xin, points=idx, tol=1e-13)
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
    if fam.kind != "image":
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
    if fam.kind != "image":
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
