"""Cross-term inequality machinery: the scalar inequality with its equality
classification, its pointwise and integral forms, quotient/ratio-power jets,
the kinked counterexample fixtures and the subunit power inequalities.

The scalar inequality compares, for a profile phi with increasing ratio
phi(t)/t^(r-1),

    [1 + (r-1)(a/b)^r] phi(c) c + [1 + (r-1)(b/a)^r] phi(d) d
        >=  r (a/b)^(r-1) phi(c) d + r (b/a)^(r-1) phi(d) c ,

and its equality cases drive the uniqueness experiments.  Substituting
a = w2(x), b = w1(x), c = |grad w1|, d = |grad w2| and applying the
Cauchy-Schwarz step grad w1 . grad w2 <= |grad w1| |grad w2| yields the
pointwise cross-term inequality, whose quadrature sum is the integral form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (AnalyticFieldSpec, Grid, JetField, dot_components, integrate,
                   sample_jet, scale_components)
from .operators import OperatorFamily

NO_EQUALITY = "no-equality"
CD_ZERO = "c-d-zero"
R1_FLAT = "r1-equal-or-flat"
AC_BD_FLAT = "ac-eq-bd-with-flat-ratio"
STRICT_FORCED = "strict-forced-c-eq-d-a-eq-b"

CLASS_TOL = 1e-10


@dataclass(frozen=True)
class ScalarIneqCase:
    a: float
    b: float
    c: float
    d: float
    r: float
    lhs: float
    rhs: float
    gap: float
    equality_class: str


@dataclass
class IntegralGap:
    lhs: float
    rhs: float
    gap: float


def scalar_gap(phi, r: float, a: float, b: float, c: float, d: float) -> ScalarIneqCase:
    """Evaluate the scalar inequality and classify its equality case.

    ``phi`` maps [0, inf) to [0, inf) with phi(0) = 0; the caller asserts
    that phi(t)/t^(r-1) is increasing (checked upstream by the hypothesis
    validators).  Classification tolerance is 1e-10 relative to the
    left-hand side.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if c < 0.0 or d < 0.0:
        raise ValueError("c and d must be nonnegative")
    if r < 1.0:
        raise ValueError("r must be at least 1")
    if abs(phi(0.0)) > 1e-300:
        raise ValueError("phi(0) must vanish")
    pc, pd = float(phi(c)), float(phi(d))
    lhs, rhs = _sides(r, a, b, pc, pd, c, d)
    gap = lhs - rhs
    cls = _classify(a, b, c, d, r, pc, pd, lhs, gap)
    return ScalarIneqCase(a, b, c, d, r, lhs, rhs, gap, cls)


def _sides(r, a, b, pc, pd, c, d):
    """The two sides of the scalar inequality, with pc = phi(c) and
    pd = phi(d); scalars or arrays."""
    lhs = (1.0 + (r - 1.0) * (a / b) ** r) * pc * c \
        + (1.0 + (r - 1.0) * (b / a) ** r) * pd * d
    rhs = r * (a / b) ** (r - 1.0) * pc * d + r * (b / a) ** (r - 1.0) * pd * c
    return lhs, rhs


def _classify(a, b, c, d, r, pc, pd, lhs, gap) -> str:
    tol = CLASS_TOL * max(1.0, abs(lhs))
    if abs(gap) > tol:
        return NO_EQUALITY
    if abs(pc * c) <= tol and abs(pd * d) <= tol:
        return CD_ZERO
    if r == 1.0:
        return R1_FLAT
    ac, bd = a * c, b * d
    if abs(ac - bd) <= CLASS_TOL * max(1.0, ac, bd):
        close = lambda u, v: abs(u - v) <= CLASS_TOL * max(1.0, u, v)
        if close(c, d) and close(a, b):
            return STRICT_FORCED
        return AC_BD_FLAT
    return NO_EQUALITY


def fuzz_scalar_gaps(trials: int, seed: int) -> dict:
    """Seeded random sweep of the scalar inequality over power and
    image-type profiles; reports the minimum gap scaled by max(1, lhs)."""
    rng = np.random.default_rng(seed)
    n_pow = trials // 2
    n_img = trials - n_pow

    r1 = rng.uniform(1.0, 4.0, n_pow)
    q = r1 - 1.0 + rng.uniform(0.1, 3.0, n_pow)
    phi_c1, phi_d1, a1, b1, c1, d1 = _draw_operands(rng, n_pow, lambda s: s**q)

    p = rng.uniform(1.6, 4.0, n_img)
    alpha = 1.05 + rng.uniform(0.0, 1.0, n_img) * (np.minimum(2.0, p - 0.05) - 1.05)
    r2 = 1.0 + rng.uniform(0.0, 1.0, n_img) * (alpha - 1.0)
    epsv = np.exp(rng.uniform(np.log(0.3), np.log(2.0), n_img))
    delta = rng.uniform(0.5, 2.0, n_img)

    def phi_img(s):
        logs = np.log1p(s) ** delta
        return np.where(s <= epsv,
                        s ** (p - 1.0) * logs,
                        epsv ** (p - alpha) * s ** (alpha - 1.0) * logs)

    phi_c2, phi_d2, a2, b2, c2, d2 = _draw_operands(rng, n_img, phi_img)

    r = np.concatenate([r1, r2])
    a = np.concatenate([a1, a2])
    b = np.concatenate([b1, b2])
    c = np.concatenate([c1, c2])
    d = np.concatenate([d1, d2])
    pc = np.concatenate([phi_c1, phi_c2])
    pd = np.concatenate([phi_d1, phi_d2])

    lhs, rhs = _sides(r, a, b, pc, pd, c, d)
    scaled = (lhs - rhs) / np.maximum(1.0, np.abs(lhs))
    k = int(np.argmin(scaled))
    return {
        "trials": trials,
        "seed": seed,
        "min_scaled_gap": float(scaled[k]),
        "min_gap": float((lhs - rhs)[k]),
        "argmin": {"r": float(r[k]), "a": float(a[k]), "b": float(b[k]),
                   "c": float(c[k]), "d": float(d[k])},
    }


def _draw_operands(rng, n, phi):
    a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    c = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    d = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    c[rng.random(n) < 0.1] = 0.0
    d[rng.random(n) < 0.1] = 0.0
    return phi(c), phi(d), a, b, c, d


# ---------------------------------------------------------------------------
# pointwise and integral forms
# ---------------------------------------------------------------------------

def pointwise_gap(fam: OperatorFamily, r: float, point: int,
                  w1: float, g1, w2: float, g2) -> float:
    """Cross-term defect at one point, Cauchy step included: the difference
    a(x, grad w1) . grad(w1 - w2^r/w1^(r-1)) - a(x, grad w2) . grad(w1^r/w2^(r-1) - w2)."""
    if w1 <= 0.0 or w2 <= 0.0:
        raise ValueError("w1 and w2 must be positive")
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    t21 = w2 / w1
    t12 = w1 / w2
    grad21 = r * t21 ** (r - 1.0) * g2 - (r - 1.0) * t21**r * g1
    grad12 = r * t12 ** (r - 1.0) * g1 - (r - 1.0) * t12**r * g2
    psi1, psi2 = fam.psi(np.sqrt([np.sum(g1 * g1), np.sum(g2 * g2)]),
                         points=[point, point])
    return float(np.add.reduce(psi1 * g1 * (g1 - grad21))
                 - np.add.reduce(psi2 * g2 * (grad12 - g2)))


def pointwise_gap_parts(fam: OperatorFamily, r: float,
                        w1: JetField, w2: JetField) -> tuple:
    """Per-point split of the cross-term defect into the scalar-inequality gap
    and the nonnegative Cauchy surplus; their sum equals the pointwise defect."""
    v1, v2 = w1.values, w2.values
    if v1.min() <= 0.0 or v2.min() <= 0.0:
        raise ValueError("fields must be positive at every point")
    c = w1.grad_norms()
    d = w2.grad_norms()
    dot = dot_components(w1.grads, w2.grads)
    phi1 = fam.phi(c)
    phi2 = fam.phi(d)
    lhs, mid = _sides(r, v2, v1, phi1, phi2, c, d)
    t21 = v2 / v1
    t12 = v1 / v2
    psi1 = np.divide(phi1, c, out=np.zeros_like(c), where=c > 0.0)
    psi2 = np.divide(phi2, d, out=np.zeros_like(d), where=d > 0.0)
    cauchy = r * (t21 ** (r - 1.0) * psi1 + t12 ** (r - 1.0) * psi2) * (c * d - dot)
    return lhs - mid, cauchy


def integral_gap(fam: OperatorFamily, r: float, w1: JetField, w2: JetField,
                 grid: Grid) -> IntegralGap:
    """Quadrature of the two cross terms over the grid."""
    if w1.values.min() <= 0.0 or w2.values.min() <= 0.0:
        raise ValueError("fields must be positive at every quadrature point")
    rp21 = ratio_power_jet(w1, w2, r)
    rp12 = ratio_power_jet(w2, w1, r)
    a1 = fam.a_batch(w1.grads)
    a2 = fam.a_batch(w2.grads)
    lhs_i = dot_components(a1, w1.grads - rp21.grads)
    rhs_i = dot_components(a2, rp12.grads - w2.grads)
    lhs = integrate(lhs_i, grid)
    rhs = integrate(rhs_i, grid)
    return IntegralGap(lhs=lhs, rhs=rhs, gap=lhs - rhs)


def ratio_power_jet(w1: JetField, w2: JetField, r: float) -> JetField:
    """Jet of w2^r / w1^(r-1) for positive fields with finite ratios."""
    v1, v2 = w1.values, w2.values
    if v1.min() <= 0.0 or v2.min() <= 0.0:
        raise ValueError("fields must be positive at every point")
    t = v2 / v1
    vals = v2**r / v1 ** (r - 1.0)
    grads = scale_components(w2.grads, r * t ** (r - 1.0)) \
        - scale_components(w1.grads, (r - 1.0) * t**r)
    return JetField(vals, grads)


def quotient_jet(w1: JetField, w2: JetField) -> JetField:
    """Jet of w2 / w1 for a positive denominator field."""
    v1, v2 = w1.values, w2.values
    if v1.min() <= 0.0:
        raise ValueError("the denominator field must be positive")
    vals = v2 / v1
    grads = scale_components(scale_components(w2.grads, v1) - scale_components(w1.grads, v2),
                             v1**2, np.divide)
    return JetField(vals, grads)


def fixture_counterexample(which: str, grid: Grid) -> dict:
    """The kinked pair on (-1, 1) whose pointwise log-derivatives agree while
    the ratio jumps between 1 and 2, showing why the quotient rule needs the
    locally integrable-log-derivative hypothesis."""
    if which not in ("ex51", "ex52"):
        raise ValueError("which must be 'ex51' or 'ex52'")
    name = "ex51-pair" if which == "ex51" else "ex52-pair"
    w1 = sample_jet(AnalyticFieldSpec(name, {"member": 1}), grid)
    w2 = sample_jet(AnalyticFieldSpec(name, {"member": 2}), grid)
    ld1 = w1.grads[:, 0] / w1.values
    ld2 = w2.grads[:, 0] / w2.values
    ratio = w2.values / w1.values
    q = quotient_jet(w1, w2)
    attains_one = bool(np.any(np.isclose(ratio, 1.0, atol=1e-12)))
    attains_two = bool(np.any(np.isclose(ratio, 2.0, atol=1e-12)))
    report = {
        "which": which,
        "n": int(grid.npoints),
        "log_derivative_max_diff": float(np.max(np.abs(ld1 - ld2))),
        "ratio_min": float(ratio.min()),
        "ratio_max": float(ratio.max()),
        "ratio_attains_one_and_two": attains_one and attains_two,
        "quotient_grad_max": float(np.max(np.abs(q.grads))),
        "ratio_constant": bool(np.max(ratio) - np.min(ratio) < 1e-12),
    }
    if which == "ex52":
        t = np.abs(grid.quad_points[:, 0] - grid.extent[0] / 2.0)
        edge = t > t.max() - 1e-12
        report["boundary_cell_max_value"] = float(np.max(w1.values[edge]))
    report["passed"] = (
        report["log_derivative_max_diff"] <= 1e-12
        and report["ratio_attains_one_and_two"]
        and report["quotient_grad_max"] <= 1e-12
        and not report["ratio_constant"]
    )
    return report


# ---------------------------------------------------------------------------
# subunit power inequalities
# ---------------------------------------------------------------------------

def subunit_power_gaps(a: float, b: float, r: float) -> dict:
    """Gaps of |a^r - b^r| <= |a - b|^r and (a+b)^r <= a^r + b^r for r in [0, 1].

    Powers follow the numpy convention 0**0 = 1.
    """
    if a < 0.0 or b < 0.0:
        raise ValueError("a and b must be nonnegative")
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    ar, br = float(np.float64(a) ** r), float(np.float64(b) ** r)
    gap1 = float(np.float64(abs(a - b)) ** r) - abs(ar - br)
    gap2 = ar + br - float(np.float64(a + b) ** r)
    return {"gap1": gap1, "gap2": gap2}


def fuzz_subunit_gaps(trials: int, seed: int) -> dict:
    """Seeded random sweep of the subunit power inequalities."""
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), trials))
    b = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), trials))
    a[rng.random(trials) < 0.05] = 0.0
    same = rng.random(trials) < 0.05
    b[same] = a[same]
    r = rng.uniform(0.0, 1.0, trials)
    r[rng.random(trials) < 0.05] = 1.0
    r[rng.random(trials) < 0.05] = 0.0
    gap1 = np.abs(a - b) ** r - np.abs(a**r - b**r)
    gap2 = a**r + b**r - (a + b) ** r
    return {
        "trials": trials,
        "seed": seed,
        "min_gap1": float(gap1.min()),
        "min_gap2": float(gap2.min()),
    }
