"""Source families f(x, s) on [0, 1] and their globally Lipschitz extension.

The extension (fbar, Fbar) prolongs a source beyond [0, 1] so that the
unconstrained energy minimization is equivalent to the box-constrained
problem: fbar decays linearly with slope gamma outside the unit interval
and Fbar is its C^1 antiderivative with Fbar(x, 0) = 0.  A source is a
:class:`grid.PointFamily`, which defines the batch convention of every
evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import PointFamily, per_point


class SourceFamily(PointFamily):
    """Per-quadrature-point source f(x, s) with primitive and extension.

    Attributes
    ----------
    gamma : float
        Lipschitz constant of f(x, .) on [0, 1].
    lambda0 : float
        lambda0 = gamma + 1, which makes s -> f(x, s) + lambda0 s strictly
        increasing.
    alpha : float
        Root order used by the concavity-type ratio checks, in (1, 2].
    strict13_flag : bool
        Whether the ratio f(x, s^(1/alpha)) / s^((alpha-1)/alpha) is claimed
        strictly decreasing; requires alpha < 2.
    params : tuple of ndarray
        The per-point parameter arrays: f, F, their extensions and f' depend
        on the point only through the tuple of their values there.
    """

    def __init__(self, npoints, gamma, alpha, strict13_flag, params=()):
        if gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if not 1.0 < alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
        if strict13_flag and alpha >= 2.0:
            raise ValueError("a strict ratio claim requires alpha < 2")
        super().__init__(npoints, params)
        self.gamma = float(gamma)
        self.lambda0 = self.gamma + 1.0
        self.alpha = float(alpha)
        self.strict13_flag = bool(strict13_flag)
        # the extension's constants f(x, 0), f(x, 1) and F(x, 1), per point;
        # a subclass sets its own attributes before calling this
        idx = np.arange(self.npoints)
        zero, one = np.zeros(self.npoints), np.ones(self.npoints)
        self._f0, self._f1 = self._f(zero, idx), self._f(one, idx)
        self._F1 = self._F(one, idx)

    # -- on [0, 1] --------------------------------------------------------

    def f_vals(self, s, points=None):
        s, idx = self._align(s, points)
        return self._f(s, idx)

    # -- extension to the real line ---------------------------------------

    def fbar_vals(self, s, points=None):
        s, idx = self._align(s, points)
        mid = np.clip(s, 0.0, 1.0)
        below = self._f0[idx] + self.gamma * s
        above = self._f1[idx] - self.gamma * (s - 1.0)
        return np.where(s < 0.0, below, np.where(s <= 1.0, self._f(mid, idx), above))

    def Fbar_vals(self, s, points=None):
        s, idx = self._align(s, points)
        mid = np.clip(s, 0.0, 1.0)
        below = self._f0[idx] * s + 0.5 * self.gamma * s * s
        above = self._F1[idx] + self._f1[idx] * (s - 1.0) - 0.5 * self.gamma * (s - 1.0) ** 2
        return np.where(s < 0.0, below, np.where(s <= 1.0, self._F(mid, idx), above))

    def Fbar_diff(self, u, v):
        """Fbar(v) - Fbar(u) per point, as the integral of fbar over [u, v]
        split at the kinks 0 and 1, each piece in a closed form whose
        rounding error is relative to that piece, not to Fbar(u) or Fbar(v)
        as a difference of :meth:`Fbar_vals` would be."""
        u, v, idx = np.broadcast_arrays(np.asarray(u, dtype=float),
                                        np.asarray(v, dtype=float), np.arange(self.npoints))
        a, b = np.minimum(u, 0.0), np.minimum(v, 0.0)
        below = (b - a) * (self._f0[idx] + 0.5 * self.gamma * (a + b))
        a, b = np.maximum(u, 1.0) - 1.0, np.maximum(v, 1.0) - 1.0
        above = (b - a) * (self._f1[idx] - 0.5 * self.gamma * (a + b))
        return below + self._F_diff(np.clip(u, 0.0, 1.0), np.clip(v, 0.0, 1.0), idx) + above

    def fbar_prime_vals(self, s, points=None):
        """The s-derivative of fbar: f' on [0, 1], +gamma below, -gamma above.

        Unbounded at s = 0 for power terms with exponent below 1; callers
        that need a finite value floor s.
        """
        s, idx = self._align(s, points)
        inner = self._df(np.clip(s, 0.0, 1.0), idx)
        return np.where(s < 0.0, self.gamma, np.where(s <= 1.0, inner, -self.gamma))

    def _f(self, s, idx):
        raise NotImplementedError

    def _F(self, s, idx):
        raise NotImplementedError

    def _df(self, s, idx):
        raise NotImplementedError

    def _F_diff(self, a, b, idx):
        """F(b) - F(a) for a, b in [0, 1], without cancellation."""
        raise NotImplementedError


class PowerSource(SourceFamily):
    """f(x, s) = -r1(x) s^q1(x) - r2(x) s^q2(x) with nonnegative coefficients."""

    def __init__(self, r1, r2, q1, q2, alpha):
        npts = r1.shape[0]
        gamma = float(r1.max() * q1.max() + r2.max() * q2.max())
        if gamma == 0.0:
            gamma = 1.0  # any positive constant bounds the zero source
        strict = bool(alpha < 2.0 and np.min(r1 + r2) > 0.0)
        self.r1, self.r2, self.q1, self.q2 = r1, r2, q1, q2
        super().__init__(npoints=npts, gamma=gamma, alpha=alpha, strict13_flag=strict,
                         params=(r1, r2, q1, q2))

    def _f(self, s, idx):
        return -self.r1[idx] * s ** self.q1[idx] - self.r2[idx] * s ** self.q2[idx]

    def _df(self, s, idx):
        q1, q2 = self.q1[idx], self.q2[idx]
        return (-self.r1[idx] * q1 * s ** (q1 - 1.0)
                - self.r2[idx] * q2 * s ** (q2 - 1.0))

    def _F(self, s, idx):
        q1, q2 = self.q1[idx], self.q2[idx]
        return (-self.r1[idx] * s ** (q1 + 1.0) / (q1 + 1.0)
                - self.r2[idx] * s ** (q2 + 1.0) / (q2 + 1.0))

    def _F_diff(self, a, b, idx):
        e1, e2 = self.q1[idx] + 1.0, self.q2[idx] + 1.0
        return (-self.r1[idx] * _power_diff(a, b, e1) / e1
                - self.r2[idx] * _power_diff(a, b, e2) / e2)


def _power_diff(a, b, e):
    """b^e - a^e for a, b >= 0 as -sign(b - a) m^e expm1(e log1p(-|b - a| / m)),
    accurate to a few ulp of the result however close a and b are.  The
    base m is the larger endpoint, so expm1 stays in [-1, 0] and cannot
    overflow where the smaller one is tiny."""
    m = np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.expm1(e * np.log1p(-np.abs(b - a) / m))
    return np.where(m > 0.0, -np.sign(b - a) * m ** e * rel, 0.0)


class FidelitySource(SourceFamily):
    """Data-fidelity source f(x, s) = mu (g(x) - s) pulling toward g."""

    def __init__(self, g, mu, alpha):
        self.g = g
        self.mu = float(mu)
        # mu is shared by every point
        super().__init__(npoints=g.shape[0], gamma=float(mu), alpha=alpha,
                         strict13_flag=True, params=(g,))

    def gate_points(self) -> np.ndarray:
        """The first point holding min g and the first holding max g.

        Every value a source check reads at a rung is affine in g (f, fbar,
        Fbar and the ratios built from them), so each check's worst step
        over the data lies at g_min or g_max; see :mod:`pxlab.hypotheses`.
        A subclass must keep f affine in g or override this method;
        ``PointFamily.gate_points`` gives the first point of each distinct g.
        """
        # deduplicated by hand: np.unique imports numpy.ma, about 1 MB of RSS
        ends = np.sort([np.argmin(self.g), np.argmax(self.g)])
        return ends[:1] if ends[0] == ends[1] else ends

    def _f(self, s, idx):
        return self.mu * (self.g[idx] - s)

    def _df(self, s, idx):
        return np.full(s.shape, -self.mu)

    def _F(self, s, idx):
        return self.mu * (self.g[idx] * s - 0.5 * s * s)

    def _F_diff(self, a, b, idx):
        return self.mu * (b - a) * (self.g[idx] - 0.5 * (a + b))


def make_power_source(r1, r2, q1, q2, npoints: int | None = None,
                      alpha: float = 1.5) -> SourceFamily:
    """Negative power-law source with the closed-form Lipschitz bound.

    gamma is the product bound max(r1) max(q1) + max(r2) max(q2) and
    lambda0 = gamma + 1.  Coefficients r may vanish; exponents q must be >= 1.
    """
    coeffs = {"r1": r1, "r2": r2, "q1": q1, "q2": q2}
    if npoints is None:
        if min(np.ndim(v) for v in coeffs.values()) == 0:
            raise ValueError("npoints required with scalar coefficients")
        npoints = np.shape(r1)[0]
    r1, r2, q1, q2 = (per_point(v, npoints, name) for name, v in coeffs.items())
    if r1.min() < 0.0 or r2.min() < 0.0:
        raise ValueError("coefficients r1, r2 must be nonnegative")
    if q1.min() < 1.0 or q2.min() < 1.0:
        raise ValueError("exponents q1, q2 must be at least 1")
    return PowerSource(r1, r2, q1, q2, float(alpha))


def make_fidelity_source(g, mu: float, alpha: float) -> SourceFamily:
    """Fidelity source toward data g in [0, 1]; gamma = mu, lambda0 = mu + 1.

    The strict ratio flag is set for alpha in (1, 2); callers should confirm
    it through the hypothesis validators before relying on it.
    """
    g = np.asarray(g, dtype=float).ravel()
    if not np.all((g >= 0.0) & (g <= 1.0)):
        raise ValueError("data g must take values in [0, 1]")
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    return FidelitySource(g, mu, alpha)


def make_zero_source(npoints: int, alpha: float = 1.5) -> SourceFamily:
    """The zero source; gamma = 1 is a valid (if slack) Lipschitz bound."""
    z = np.zeros(npoints)
    o = np.ones(npoints)
    return PowerSource(z, z, o, o, float(alpha))
