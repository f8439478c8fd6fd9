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
from .operators import (ImageFamily, OperatorFamily, image_coercivity_constants,
                        image_growth_constant)
from .sources import SourceFamily

SAMPLED_X_NOTE = "almost-everywhere claims are checked at every sampled x"

# Strictness margin, relative to the local magnitude of the compared values.
# An absolute margin would misclassify profiles that vanish superlinearly
# near s = 0, where genuine strict increments are far below 1e-12.
STRICT_MARGIN = 1e-12
# H4 passes when Phi < DECAY_BOUND at every point at s = DECAY_RUNG
DECAY_BOUND = 1e-8
DECAY_RUNG = 2.0 ** -40
# rungs of every seeded ladder
SAMPLES = 64
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
    seed: int = 0
    # names of the reported entries that do not gate ``ok``; not serialized
    informational: set = field(default_factory=set)

    def passed(self, *names) -> bool:
        names = names or tuple(self.checks)
        return all(self.checks[n].status == "pass" for n in names)

    @property
    def ok(self) -> bool:
        """Whether every entry passes that is not informational."""
        return self.passed(*(n for n in self.checks if n not in self.informational))

    def merge(self, other: "HypothesisReport") -> "HypothesisReport":
        """Both reports' entries: this report's gating ones, then every entry
        of ``other``, then this report's informational ones."""
        own = self.checks.items()
        merged = {n: c for n, c in own if n not in self.informational}
        merged.update(other.checks)
        merged.update((n, c) for n, c in own if n in self.informational)
        return HypothesisReport(checks=merged, seed=self.seed,
                                informational=self.informational | other.informational)

    def to_jsonable(self) -> dict:
        return {
            "note": SAMPLED_X_NOTE,
            "samples": SAMPLES,
            "seed": self.seed,
            "checks": {k: v.to_jsonable() for k, v in self.checks.items()},
        }


def _log_ladder(rng, lo=1e-6, hi=1e3):
    return np.sort(np.exp(rng.uniform(np.log(lo), np.log(hi), size=SAMPLES)))


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


def _trial_fields(grid: Grid, seed: int):
    """Trial jets for the H8 energy bounds, including a steep field."""
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


def check_operator_hypotheses(fam: OperatorFamily, grid: Grid,
                              seed: int = 0) -> HypothesisReport:
    """H4-H8 on the profile Phi and the energy A a family claims, and H2.

    H4 (Phi vanishes at 0) is tested at s = DECAY_RUNG.  H5 (Phi strictly
    increasing), H6 (Phi <= a + b s^(p(x)-1)) and H7 / H7' (Phi/s^(r-1)
    nondecreasing at r = ``r_order``, strictly under ``strict_flag``) read
    one seeded log ladder of SAMPLES rungs on [1e-6, 1e3].  H8 bounds the
    energy of the trial fields from below.  The constants are the family's:

    * multi-phase: a = b = sum_k max w_k, and H8-pX with the supplied
      ``d0``/``d0_tilde``, else (min w / p+, 0);
    * image: a = 0 and b from ``image_growth_constant``, H8-alpha with
      ``image_coercivity_constants``, and the H8-pX probe with d0 = 1,
      d0_tilde = 0, which the profile is expected to fail.

    Every entry gates ``ok`` except the H2 exponent entries and the image
    H8-pX probe, which are informational.
    """
    image = isinstance(fam, ImageFamily)
    if image:
        a, b = 0.0, image_growth_constant(fam)["b"]
        h8, order = "H8-alpha", fam.r_order
        c, c_tilde = image_coercivity_constants(fam, grid.volume)
    else:
        a = b = sum(float(np.max(w)) for w in fam.weights)
        h8, order = "H8-pX", fam.exponent.values
        omega = min(float(np.min(w)) for w in fam.weights)
        c = omega / fam.exponent.p_plus if fam.d0 is None else fam.d0
        c_tilde = 0.0 if fam.d0_tilde is None else fam.d0_tilde
    rng = np.random.default_rng(seed)
    rep = HypothesisReport(seed=seed)

    final = fam.phi(np.full(fam.npoints, DECAY_RUNG))
    worst = float(final.max())
    if worst < DECAY_BOUND:
        rep.checks["H4"] = CheckResult("pass", worst, None,
                                       note="limit tested at s = 2^-40")
    else:
        rep.checks["H4"] = CheckResult("fail", worst, (int(np.argmax(final)), DECAY_RUNG))

    ladder = _log_ladder(rng)
    phi = _ladder_matrix(fam, fam.phi, ladder)
    rep.checks["H5"] = _ladder_check(phi, ladder, decreasing=False, strict=True)

    bound = a + b * ladder[None, :] ** (fam.exponent.values[:, None] - 1.0)
    viol = (phi - bound) / np.maximum(1.0, bound)
    worst = float(viol.max())
    note = f"fitted b = {b}" if image else ""
    if worst <= STRICT_MARGIN:
        rep.checks["H6"] = CheckResult("pass", worst, None, note=note)
    else:
        i, j = np.unravel_index(np.argmax(viol), viol.shape)
        rep.checks["H6"] = CheckResult("fail", worst, (int(i), float(ladder[j])), note=note)

    ratio = phi / ladder[None, :] ** (fam.r_order - 1.0)
    rep.checks["H7'" if fam.strict_flag else "H7"] = _ladder_check(
        ratio, ladder, decreasing=False, strict=fam.strict_flag)

    norms = [v.grad_norms() for v in _trial_fields(grid, seed)]
    energies = [integrate(fam.A_batch(t), grid) for t in norms]

    def coercivity(order, c, c_tilde) -> CheckResult:
        # integral A(x, |grad v|) >= c integral |grad v|^order - c_tilde on every field
        margins = [(lhs - (c * integrate(t ** order, grid) - c_tilde)) / (1.0 + abs(lhs))
                   for t, lhs in zip(norms, energies)]
        k = int(np.argmin(margins))
        worst = float(margins[k])
        if worst >= -1e-10:
            return CheckResult("pass", worst, None)
        return CheckResult("fail", worst, (k,))

    rep.checks[h8] = coercivity(order, c, c_tilde)

    p = fam.exponent
    rep.checks["H2-bounds"] = CheckResult("pass", 0.0, None,
                                          note=f"p- = {p.p_minus}, p+ = {p.p_plus}")
    rep.checks["H2-embedding"] = CheckResult(
        "pass" if p.meets_embedding_bound(grid.dim) else "fail",
        2.0 * grid.dim / (grid.dim + 2.0) - p.p_minus, None,
        note="informational flag p- >= 2N/(N+2), never enforced")
    rep.checks["H2-log-holder"] = CheckResult(
        "not-checked", 0.0, None,
        note="regularity of a numerically supplied exponent is not machine-checkable")
    rep.informational.update(("H2-bounds", "H2-embedding", "H2-log-holder"))
    if image:
        probe = coercivity(p.values, 1.0, 0.0)
        probe.note = "expected to fail: the profile grows at the alpha rate"
        rep.checks["H8-pX"] = probe
        rep.informational.add("H8-pX")
    return rep


def check_source_hypotheses(src: SourceFamily, seed: int = 0) -> HypothesisReport:
    """H11 (signs at 0 and 1), H12 (shifted monotonicity, Lipschitz), H13/H13',
    and the same structure for the extension (fbar, Fbar) beyond [0, 1].

    The extension checks run on EXTENSION_LADDER: ext-lipschitz (fbar
    gamma-Lipschitz on [-3, 4]), ext-monotone (fbar + lambda0 s strictly
    increasing on [-3, 4]), and on its positive rungs s = t^(1/alpha),
    ext-convex (t -> -Fbar(t^(1/alpha)) convex) and ext-ratio
    (fbar(t^(1/alpha)) / t^((alpha-1)/alpha) nonincreasing).

    Every entry gates ``ok`` except H13' when the source does not claim a
    strict ratio (``strict13_flag``).
    """
    rng = np.random.default_rng(seed)
    rep = HypothesisReport(seed=seed)
    npts = src.npoints

    f0 = src.f_vals(np.zeros(npts))
    f1 = src.f_vals(np.ones(npts))
    worst = float(max(-f0.min(), f1.max()))
    if f0.min() >= -STRICT_MARGIN and f1.max() <= STRICT_MARGIN:
        rep.checks["H11"] = CheckResult("pass", worst, None)
    else:
        i = int(np.argmax(np.maximum(-f0, f1)))
        rep.checks["H11"] = CheckResult("fail", worst, (i, 0.0 if -f0[i] > f1[i] else 1.0))

    ladder = np.sort(rng.uniform(0.0, 1.0, size=SAMPLES))
    shifted = _ladder_matrix(src, src.f_vals, ladder) + src.lambda0 * ladder[None, :]
    rep.checks["H12-monotone"] = _ladder_check(shifted, ladder, decreasing=False,
                                               strict=True)

    s1 = rng.uniform(0.0, 1.0, size=SAMPLES * npts)
    s2 = rng.uniform(0.0, 1.0, size=SAMPLES * npts)
    pts = np.tile(np.arange(npts), SAMPLES)
    lip = np.abs(src.f_vals(s1, pts) - src.f_vals(s2, pts)) - src.gamma * np.abs(s1 - s2)
    worst = float(lip.max())
    if worst <= STRICT_MARGIN:
        rep.checks["H12-lipschitz"] = CheckResult("pass", worst, None)
    else:
        i = int(np.argmax(lip))
        rep.checks["H12-lipschitz"] = CheckResult("fail", worst,
                                                  (int(pts[i]), float(s1[i]), float(s2[i])))

    s_lad = _log_ladder(rng, hi=1.0)
    ratio = _ladder_matrix(src, src.f_vals, s_lad ** (1.0 / src.alpha)) \
        / s_lad[None, :] ** ((src.alpha - 1.0) / src.alpha)
    rep.checks["H13"] = _ladder_check(ratio, s_lad, decreasing=True, strict=False)
    rep.checks["H13'"] = _ladder_check(ratio, s_lad, decreasing=True, strict=True)
    if not src.strict13_flag:
        rep.informational.add("H13'")

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


def gate(fam: OperatorFamily, src: SourceFamily, grid: Grid, seed: int) -> tuple:
    """Run the operator and source validators; returns (report, ok).

    ok needs every entry to pass except the informational ones: the H2
    exponent entries, the image profile's H8-pX probe, and H13' unless the
    source claims a strict ratio (``strict13_flag``).
    """
    rep = check_operator_hypotheses(fam, grid, seed).merge(check_source_hypotheses(src, seed))
    return rep, rep.ok
