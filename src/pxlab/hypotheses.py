"""Falsification-style validators for the operator and source hypotheses.

Every experiment runs these first.  Checks are numeric, sampled, and
deterministic under a seed; almost-everywhere statements are tested at
every quadrature point of the supplied sampling.  A failing check always
carries a witness.  These are falsification checks, not proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import AnalyticFieldSpec, Grid, integrate, sample_jet
from .operators import (ExponentField, ImageFamily, OperatorFamily,
                        image_coercivity_constants, image_growth_constant)
from .sources import SourceFamily

SAMPLED_X_NOTE = "almost-everywhere claims are checked at every sampled x"

# Strictness margin, relative to the local magnitude of the compared values.
# An absolute margin would misclassify profiles that vanish superlinearly
# near s = 0, where genuine strict increments are far below 1e-12.
STRICT_MARGIN = 1e-12
DECAY_BOUND = 1e-8
# Ladder for the source extension.  Inside [0, 1] fbar = f, which H12 and
# H13 sample densely; this short ladder crosses the kinks at s = 0 and 1 and
# reaches -3 and 4.
EXTENSION_LADDER = np.concatenate([np.linspace(-3.0, 0.0, 5), [0.25, 0.5, 0.75],
                                   np.linspace(1.0, 4.0, 5)])


@dataclass
class CheckResult:
    status: str  # "pass" | "fail" | "not-checked"
    worst: float = 0.0
    witness: tuple | None = None
    note: str = ""

    def to_jsonable(self) -> dict:
        return {
            "status": self.status,
            "worst": self.worst,
            "witness": list(self.witness) if self.witness is not None else None,
            "note": self.note,
        }


@dataclass
class HypothesisReport:
    checks: dict = field(default_factory=dict)
    samples: int = 0
    seed: int = 0
    note: str = SAMPLED_X_NOTE

    def passed(self, *names) -> bool:
        names = names or tuple(self.checks)
        return all(self.checks[n].status == "pass" for n in names)

    def merge(self, other: "HypothesisReport") -> "HypothesisReport":
        merged = dict(self.checks)
        merged.update(other.checks)
        return HypothesisReport(checks=merged, samples=self.samples, seed=self.seed)

    def to_jsonable(self) -> dict:
        return {
            "note": self.note,
            "samples": self.samples,
            "seed": self.seed,
            "checks": {k: v.to_jsonable() for k, v in self.checks.items()},
        }


def _log_ladder(rng, samples, lo=1e-6, hi=1e3):
    return np.sort(np.exp(rng.uniform(np.log(lo), np.log(hi), size=samples)))


def _ladder_matrix(fam_or_src, values, ladder):
    """Evaluate a per-point map on a shared s-ladder; returns (npoints, len(ladder))."""
    npts = fam_or_src.npoints
    pts = np.repeat(np.arange(npts), ladder.size)
    s = np.tile(ladder, npts)
    return values(s, pts).reshape(npts, ladder.size)


def _ladder_check(mat, ladder, *, decreasing: bool, strict: bool,
                  scale=None) -> CheckResult:
    """Classify rows sampled along an increasing ladder as monotone or not.

    Consecutive steps are compared against a margin of STRICT_MARGIN times
    the larger magnitude of the two values (of ``scale`` when given, for rows
    that are differences of larger terms).  Leading axes of ``mat`` are rows;
    the witness names the last row axis and the failing pair of the ladder.
    ``worst`` is the smallest step of an increasing check and the largest
    of a decreasing one.  A row set that is monotone within the margin but
    not strictly beyond it carries the note "non-strict", pass or fail.
    """
    steps = np.diff(mat, axis=-1)
    worst = float(steps.max() if decreasing else steps.min())
    if decreasing:
        np.negative(steps, out=steps)
    scale = np.abs(mat) if scale is None else scale
    margins = np.maximum(scale[..., :-1], scale[..., 1:])
    margins *= STRICT_MARGIN
    strict_ok = bool(np.all(steps > margins))
    loose_ok = strict_ok or bool(np.all(steps >= -margins))
    note = "non-strict" if loose_ok and not strict_ok else ""
    if strict_ok if strict else loose_ok:
        return CheckResult("pass", worst, None, note=note)
    slack = steps - margins if strict else steps + margins
    idx = np.unravel_index(np.argmin(slack), slack.shape)
    j = idx[-1]
    return CheckResult("fail", worst, (int(idx[-2]), float(ladder[j]), float(ladder[j + 1])),
                       note=note)


def check_limit_monotone(fam: OperatorFamily, samples: int = 64,
                         seed: int = 0) -> HypothesisReport:
    """H4 (profile vanishes at 0) and H5 (profile strictly increasing)."""
    rng = np.random.default_rng(seed)
    rep = HypothesisReport(samples=samples, seed=seed)

    decay = _ladder_matrix(fam, fam.phi, 2.0 ** -np.arange(1, 41, dtype=float))
    final = decay[:, -1]
    worst = float(final.max())
    if worst < DECAY_BOUND:
        rep.checks["H4"] = CheckResult("pass", worst, None,
                                       note="limit tested along s = 2^-k, k <= 40")
    else:
        i = int(np.argmax(final))
        rep.checks["H4"] = CheckResult("fail", worst, (i, 2.0**-40))

    ladder = _log_ladder(rng, samples)
    mat = _ladder_matrix(fam, fam.phi, ladder)
    rep.checks["H5"] = _ladder_check(mat, ladder, decreasing=False, strict=True)
    return rep


def check_growth(fam: OperatorFamily, a_bound, b_bound: float,
                 samples: int = 64, seed: int = 0) -> HypothesisReport:
    """H6: Phi(x, s) <= a(x) + b s^(p(x)-1) on a ladder reaching s = 1e3."""
    if b_bound < 0.0:
        raise ValueError("b_bound must be nonnegative")
    a_arr = np.full(fam.npoints, float(a_bound)) if np.isscalar(a_bound) \
        else np.asarray(a_bound, dtype=float)
    if a_arr.min() < 0.0:
        raise ValueError("a_bound must be nonnegative")
    rng = np.random.default_rng(seed)
    ladder = _log_ladder(rng, samples)
    phi = _ladder_matrix(fam, fam.phi, ladder)
    p = fam.exponent.values[:, None]
    bound = a_arr[:, None] + b_bound * ladder[None, :] ** (p - 1.0)
    viol = (phi - bound) / np.maximum(1.0, bound)
    worst = float(viol.max())
    rep = HypothesisReport(samples=samples, seed=seed)
    if worst <= STRICT_MARGIN:
        rep.checks["H6"] = CheckResult("pass", worst, None)
    else:
        i, j = np.unravel_index(np.argmax(viol), viol.shape)
        rep.checks["H6"] = CheckResult("fail", worst, (int(i), float(ladder[j])))
    return rep


def check_monotone_ratio(fam: OperatorFamily, r: float, strict: bool,
                         samples: int = 64, seed: int = 0) -> HypothesisReport:
    """H7 / H7': monotonicity of s -> Phi(x, s)/s^(r-1) on log ladders."""
    if r < 1.0:
        raise ValueError("r must be at least 1")
    rng = np.random.default_rng(seed)
    ladder = _log_ladder(rng, samples)
    mat = _ladder_matrix(fam, fam.phi, ladder) / ladder[None, :] ** (r - 1.0)
    rep = HypothesisReport(samples=samples, seed=seed)
    name = "H7'" if strict else "H7"
    rep.checks[name] = _ladder_check(mat, ladder, decreasing=False, strict=strict)
    return rep


def check_coercivity(fam: OperatorFamily, mode: str, trial_fields, grid: Grid,
                     d0: float = 0.0, d0_tilde: float = 0.0,
                     c1: float = 0.0, c2: float = 0.0) -> HypothesisReport:
    """H8-style energy lower bounds over a set of trial jet fields.

    Mode "pX" tests  integral A(x, |grad v|) >= d0 |grad v|_p(x) - d0_tilde;
    mode "alpha" replaces the exponent by the family's certified order.
    """
    if mode not in ("pX", "alpha"):
        raise ValueError("mode must be 'pX' or 'alpha'")
    if min(d0, d0_tilde, c1, c2) < 0.0:
        raise ValueError("constants must be nonnegative")
    trial_fields = list(trial_fields)
    worst = np.inf
    witness = None
    for k, v in enumerate(trial_fields):
        norms = v.grad_norms()
        lhs = integrate(fam.A_batch(norms), grid)
        if mode == "pX":
            rhs = d0 * integrate(norms ** fam.exponent.values, grid) - d0_tilde
        else:
            rhs = c1 * integrate(norms ** fam.r_order, grid) - c2
        margin = (lhs - rhs) / (1.0 + abs(lhs))
        if margin < worst:
            worst = float(margin)
            witness = (k,)
    name = "H8-pX" if mode == "pX" else "H8-alpha"
    rep = HypothesisReport(samples=len(trial_fields), seed=0)
    if worst >= -1e-10:
        rep.checks[name] = CheckResult("pass", worst, None)
    else:
        rep.checks[name] = CheckResult("fail", worst, witness)
    return rep


def check_source_hypotheses(src: SourceFamily, samples: int = 64,
                            seed: int = 0) -> HypothesisReport:
    """H11 (signs at 0 and 1), H12 (shifted monotonicity, Lipschitz), H13/H13',
    and the same structure for the extension (fbar, Fbar) beyond [0, 1].

    The extension checks run on EXTENSION_LADDER: ext-lipschitz (fbar
    gamma-Lipschitz on [-3, 4]), ext-monotone (fbar + lambda0 s strictly
    increasing on [-3, 4]), and on its positive rungs s = t^(1/alpha),
    ext-convex (t -> -Fbar(t^(1/alpha)) convex) and ext-ratio
    (fbar(t^(1/alpha)) / t^((alpha-1)/alpha) nonincreasing).
    """
    rng = np.random.default_rng(seed)
    rep = HypothesisReport(samples=samples, seed=seed)
    npts = src.npoints

    f0 = src.f_vals(np.zeros(npts))
    f1 = src.f_vals(np.ones(npts))
    worst = float(max(-f0.min(), f1.max()))
    if f0.min() >= -STRICT_MARGIN and f1.max() <= STRICT_MARGIN:
        rep.checks["H11"] = CheckResult("pass", worst, None)
    else:
        i = int(np.argmax(np.maximum(-f0, f1)))
        rep.checks["H11"] = CheckResult("fail", worst, (i, 0.0 if -f0[i] > f1[i] else 1.0))

    ladder = np.sort(rng.uniform(0.0, 1.0, size=samples))
    shifted = _ladder_matrix(src, src.f_vals, ladder) + src.lambda0 * ladder[None, :]
    rep.checks["H12-monotone"] = _ladder_check(shifted, ladder, decreasing=False,
                                               strict=True)

    s1 = rng.uniform(0.0, 1.0, size=samples * npts)
    s2 = rng.uniform(0.0, 1.0, size=samples * npts)
    pts = np.tile(np.arange(npts), samples)
    lip = np.abs(src.f_vals(s1, pts) - src.f_vals(s2, pts)) - src.gamma * np.abs(s1 - s2)
    worst = float(lip.max())
    if worst <= STRICT_MARGIN:
        rep.checks["H12-lipschitz"] = CheckResult("pass", worst, None)
    else:
        i = int(np.argmax(lip))
        rep.checks["H12-lipschitz"] = CheckResult("fail", worst,
                                                  (int(pts[i]), float(s1[i]), float(s2[i])))

    s_lad = _log_ladder(rng, samples, lo=1e-6, hi=1.0)
    ratio = _ladder_matrix(src, src.f_vals, s_lad ** (1.0 / src.alpha)) \
        / s_lad[None, :] ** ((src.alpha - 1.0) / src.alpha)
    rep.checks["H13"] = _ladder_check(ratio, s_lad, decreasing=True, strict=False)
    rep.checks["H13'"] = _ladder_check(ratio, s_lad, decreasing=True, strict=True)

    # the extension the solver's energy is built from; inside [0, 1] it is f
    s = EXTENSION_LADDER
    fbar = _ladder_matrix(src, src.fbar_vals, s)
    gs = src.gamma * s
    # |fbar step| <= gamma |s step|: fbar + gamma s and gamma s - fbar nondecreasing.
    # These rows cancel to constants off [0, 1], so margins scale with the terms.
    rep.checks["ext-lipschitz"] = _ladder_check(
        np.stack([fbar + gs, gs - fbar]), s, decreasing=False, strict=False,
        scale=np.abs(fbar) + np.abs(gs))
    rep.checks["ext-monotone"] = _ladder_check(fbar + src.lambda0 * s, s,
                                               decreasing=False, strict=True)
    # the root-order maps of t = s^alpha on the positive rungs, crossing t = 1;
    # t -> -Fbar(t^(1/alpha)) is convex when its chord slopes are nondecreasing
    pos = s > 0.0
    root = s[pos]
    t = root ** src.alpha
    slopes = np.diff(-_ladder_matrix(src, src.Fbar_vals, root), axis=1) / np.diff(t)
    rep.checks["ext-convex"] = _ladder_check(slopes, 0.5 * (t[:-1] + t[1:]),
                                             decreasing=False, strict=False)
    ratio = fbar[:, pos] / root ** (src.alpha - 1.0)
    rep.checks["ext-ratio"] = _ladder_check(ratio, t, decreasing=True, strict=False)
    return rep


def check_exponent(p: ExponentField, dim: int) -> HypothesisReport:
    """H2 bookkeeping: bounds are enforced, regularity cannot be sampled."""
    rep = HypothesisReport(samples=p.values.shape[0], seed=0)
    rep.checks["H2-bounds"] = CheckResult("pass", 0.0, None,
                                          note=f"p- = {p.p_minus}, p+ = {p.p_plus}")
    flag = p.meets_embedding_bound(dim)
    rep.checks["H2-embedding"] = CheckResult(
        "pass" if flag else "fail",
        2.0 * dim / (dim + 2.0) - p.p_minus, None,
        note="informational flag p- >= 2N/(N+2), never enforced")
    rep.checks["H2-log-holder"] = CheckResult(
        "not-checked", 0.0, None,
        note="regularity of a numerically supplied exponent is not machine-checkable")
    return rep


def default_trial_fields(grid: Grid, seed: int = 0):
    """Trial jets for coercivity checks, including a steep field."""
    slope = np.zeros(grid.dim)
    slope[0] = 1.0
    steep = slope * 100.0
    specs = [
        AnalyticFieldSpec("constant", {"c": 1.0}),
        AnalyticFieldSpec("affine", {"a0": 1.0, "a1": slope}),
        AnalyticFieldSpec("exp-linear", {"k": np.full(grid.dim, 1.5)}),
        AnalyticFieldSpec("noisy-image", {"seed": seed, "base": 1.0, "amp": 0.5}),
        AnalyticFieldSpec("affine", {"a0": 1.0, "a1": steep}),
    ]
    return [sample_jet(s, grid) for s in specs]


def gate(fam: OperatorFamily, src: SourceFamily, grid: Grid, seed: int) -> tuple:
    """Run every validator a family and source claim; returns (report, ok).

    ok needs every operator and source check to pass, H13' only under a
    strict source-ratio claim.  The image profile's H8-pX probe (expected
    to fail) and the H2 exponent entries are reported but do not gate.
    """
    fields = default_trial_fields(grid, seed=seed)
    informational = [check_exponent(fam.exponent, grid.dim)]
    if isinstance(fam, ImageFamily):
        b = image_growth_constant(fam)["b"]
        growth = check_growth(fam, 0.0, b, seed=seed)
        growth.checks["H6"].note = f"fitted b = {b}"
        c1, c2 = image_coercivity_constants(fam, grid.volume)
        coer = check_coercivity(fam, "alpha", fields, grid, c1=c1, c2=c2)
        probe = check_coercivity(fam, "pX", fields, grid, d0=1.0, d0_tilde=0.0)
        probe.checks["H8-pX"].note = "expected to fail: the profile grows at the alpha rate"
        informational.append(probe)
    else:
        wsum = sum(float(np.max(w)) for w in fam.weights)
        growth = check_growth(fam, wsum, wsum, seed=seed)
        omega = min(float(np.min(w)) for w in fam.weights)
        d0 = omega / fam.exponent.p_plus if fam.d0 is None else fam.d0
        d0t = 0.0 if fam.d0_tilde is None else fam.d0_tilde
        coer = check_coercivity(fam, "pX", fields, grid, d0=d0, d0_tilde=d0t)
    rep = check_limit_monotone(fam, seed=seed)
    for part in (growth, check_monotone_ratio(fam, fam.r_order, fam.strict_flag, seed=seed),
                 coer, check_source_hypotheses(src, seed=seed)):
        rep = rep.merge(part)
    ok = rep.passed(*(n for n in rep.checks if n != "H13'" or src.strict13_flag))
    for part in informational:
        rep = rep.merge(part)
    return rep, ok
