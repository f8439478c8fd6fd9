"""Falsification-style validators for the operator and source hypotheses.

Every experiment runs these first.  Checks are numeric, sampled, and
deterministic under a seed.  Almost-everywhere statements are claims at
every quadrature point of the supplied sampling.  Each family names the
points whose checks decide those at every point, ``gate_points()``; the
checks read the family at those points only, and witnesses name one of
them.  Every check but H4 and H8 reads its family on a seeded ladder of s
shared by every point, evaluated as the broadcast pair (ladder row,
column of points).  The H8 energy bounds integrate trial fields over
every point.  A failing check always carries a witness.  These are
falsification checks, not proofs.

Which points decide.  A family's per-point maps depend on the point only
through its tuple of ``params``, so by default the gate points are the
first point of each distinct tuple, and a report is bit for bit the one a
check at every point gives.  A fidelity source f = mu (g - s) names two
points: the first holding min g and the first holding max g.  Every row a
source check reads is affine in g at each rung: f, fbar, Fbar, the H13
ratio and the ext-ratio.  So each step is affine in g, and its least (or
greatest) value over the data lies at g_min or g_max.  A strict check's
slack, the step minus STRICT_MARGIN times the larger magnitude of its two
values, is an affine function minus a convex one: concave in g, so it too
is least at one of the two ends.  A non-strict check passes at every g
when every step is nonnegative at both ends; it fails at an interior g
only if a step is negative, though within its margin, at one of the ends.
The two reports can therefore disagree only inside that band of 1e-12
relative margin, and ``worst`` is the same extreme up to the rounding of
the values at each g.

When a family names many points (a continuous exponent or source
coefficients), the ladders are evaluated in blocks of at most
``grid.BLOCK_ELEMENTS`` values.  Each check keeps its blocks' extremes
(a ladder check's slacks only from its failing blocks) and where they
lie, and reduces them once with NumPy, so that it gives what a single
evaluation over every row would: the same worst value, verdict, note and
witness (the first in row-major order among equal slacks).  Memory then
grows with the number of points, not with SAMPLES times it.  A ladder
check whose rows hold a value that is not finite (Phi = s^299 overflows
past s = 10.7 at p = 300) is ``not-checked``, its note naming the first
such point and rung in row-major order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import AnalyticFieldSpec, Grid, integrate, row_blocks, sample_jet
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
        """Both reports' entries and informational names."""
        return HypothesisReport(checks=self.checks | other.checks, seed=self.seed,
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


def _first(vals, rows, larger=False) -> tuple:
    """Per leading index of a block (leading axes, rows, ladder): the least
    value, or the greatest when ``larger``, and the point (of ``rows``) and
    the rung of the first that holds it in row-major order, NaN first, as
    np.argmin and np.argmax pick."""
    flat = vals.reshape(-1, vals.shape[-2] * vals.shape[-1])
    k = np.argmax(flat, axis=1) if larger else np.argmin(flat, axis=1)
    row, rung = np.divmod(k, vals.shape[-1])
    return flat[np.arange(k.size), k], rows[row], rung


class _Fold:
    """Rows sampled along a ladder, fed a block of rows at a time: leading
    axes, then the rows, whose points are ``rows``, then the ladder.  Blocks
    come in row order, so the first extreme in row-major order of the rows
    stacked is the first of the blocks' extremes per leading index, taken
    in (leading index, block) order.  Rows that hold a value that is not
    finite leave the check ``not-checked``."""

    def __init__(self, ladder):
        self.ladder, self.kept, self.unfinite = ladder, [], []

    def _check_finite(self, mat, rows) -> None:
        if not np.all(np.isfinite(mat)):
            self.unfinite.append(_first(~np.isfinite(mat), rows, larger=True))

    @staticmethod
    def _reduce(kept, larger=False) -> tuple:
        """The first extreme of the kept blocks' extremes in (leading index,
        block) order, with its point and rung."""
        vals, points, rungs = (np.array(c).T for c in zip(*kept))
        k = np.unravel_index(np.argmax(vals) if larger else np.argmin(vals), vals.shape)
        return float(vals[k]), int(points[k]), int(rungs[k])

    def _not_checked(self) -> CheckResult:
        _, point, rung = self._reduce(self.unfinite, larger=True)
        return CheckResult("not-checked", note=f"value not finite at point {point},"
                                               f" s = {float(self.ladder[rung])}")


class _Peak(_Fold):
    """The largest value of the rows, with a witness (point, rung) at the
    first position that holds it, as np.max and np.argmax give over the
    blocks stacked.  Every value must be at most STRICT_MARGIN."""

    def add(self, vals, rows) -> None:
        self._check_finite(vals, rows)
        self.kept.append(_first(vals, rows, larger=True))

    def result(self, note: str = "") -> CheckResult:
        if self.unfinite:
            return self._not_checked()
        worst, point, rung = self._reduce(self.kept, larger=True)
        if worst <= STRICT_MARGIN:
            return CheckResult("pass", worst, None, note=note)
        return CheckResult("fail", worst, (point, float(self.ladder[rung])), note=note)


class _LadderFold(_Fold):
    """Classify rows sampled along an increasing ladder as monotone or not.

    ``add(mat, rows, scale)`` takes a block of rows, and the result equals
    one check over all of them stacked along the row axis.  Consecutive
    steps are compared against a margin of STRICT_MARGIN times the larger
    magnitude of the two values (of ``scale`` when given, for rows that are
    differences of larger terms).  ``worst`` is the smallest step of an
    increasing check and the largest of a decreasing one.  A row set that is
    monotone within the margin but not strictly beyond it carries the note
    "non-strict", pass or fail.  A failing check's witness names the point
    and the failing pair of the ladder at the smallest slack, the first in
    row-major order among equal slacks.
    """

    def __init__(self, ladder, *, decreasing: bool, strict: bool):
        super().__init__(ladder)
        self.decreasing, self.strict = decreasing, strict
        self.strict_ok = self.loose_ok = True
        self.worst = []

    def add(self, mat, rows, scale=None) -> None:
        self._check_finite(mat, rows)
        steps = np.diff(mat, axis=-1)
        self.worst.append(steps.max() if self.decreasing else steps.min())
        if self.decreasing:
            np.negative(steps, out=steps)
        scale = np.abs(mat) if scale is None else scale
        margins = np.maximum(scale[..., :-1], scale[..., 1:])
        margins *= STRICT_MARGIN
        strict_ok = bool(np.all(steps > margins))
        loose_ok = strict_ok or bool(np.all(steps >= -margins))
        self.strict_ok &= strict_ok
        self.loose_ok &= loose_ok
        if not (strict_ok if self.strict else loose_ok):
            # only a failing block holds a slack as small as the witness's
            self.kept.append(_first(steps - margins if self.strict else steps + margins, rows))

    def result(self) -> CheckResult:
        if self.unfinite:
            return self._not_checked()
        # the first block's among equal extremes, as the sign of a zero differs
        worst = float(self.worst[np.argmax(self.worst) if self.decreasing else np.argmin(self.worst)])
        note = "non-strict" if self.loose_ok and not self.strict_ok else ""
        if self.strict_ok if self.strict else self.loose_ok:
            return CheckResult("pass", worst, None, note=note)
        _, point, j = self._reduce(self.kept)
        return CheckResult("fail", worst, (point, float(self.ladder[j]), float(self.ladder[j + 1])),
                           note=note)


def _trial_energies(fam: OperatorFamily, grid: Grid, seed: int) -> tuple:
    """(label, gradient norms, energy) of each H8 trial field, a steep one
    included, sampled one at a time so that only the norms are held
    together, and "" or the reason the first field without a finite energy
    gives."""
    slope = np.zeros(grid.dim)
    slope[0] = 1.0
    specs = [
        AnalyticFieldSpec("constant", {"c": 1.0}),
        AnalyticFieldSpec("affine", {"a0": 1.0, "a1": slope}),
        AnalyticFieldSpec("exp-linear", {"k": np.full(grid.dim, 1.5)}),
        AnalyticFieldSpec("noisy-image", {"seed": seed, "base": 1.0, "amp": 0.5}),
        AnalyticFieldSpec("affine", {"a0": 1.0, "a1": slope * 100.0}),
    ]
    trials = []
    for k, spec in enumerate(specs):
        label = f"trial field {k} ({spec.name})"
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                t = sample_jet(spec, grid).grad_norms()
                lhs = integrate(fam.A_batch(t), grid)
        except (ValueError, OverflowError) as e:
            return trials, f"{label}: {e}"
        if not math.isfinite(lhs):
            return trials, f"{label} has energy {lhs}"
        trials.append((label, t, lhs))
    return trials, ""


def check_operator_hypotheses(fam: OperatorFamily, grid: Grid,
                              seed: int = 0) -> HypothesisReport:
    """H4-H8 on the profile Phi and the energy A a family claims, and H2.

    H4 (Phi vanishes at 0) is tested at s = DECAY_RUNG.  H5 (Phi strictly
    increasing), H6 (Phi <= a + b s^(p(x)-1)) and H7 / H7' (Phi/s^(r-1)
    nondecreasing at r = ``r_order``, strictly under ``strict_flag``) read
    one seeded log ladder of SAMPLES rungs on [1e-6, 1e3], at the points of
    ``fam.gate_points()``: one per distinct parameter tuple.  H8 bounds the
    energy of the trial fields, integrated over every point, from below.
    The constants are the family's:

    * multi-phase: a = b = sum_k max w_k, and H8-pX with the supplied
      ``d0``/``d0_tilde``, else (min w / p+, 0);
    * image: a = 0 and b from ``image_growth_constant`` (H6 ``not-checked``
      where it fails), H8-alpha with ``image_coercivity_constants``
      (``not-checked`` where c2 is not finite), and the H8-pX probe with
      d0 = 1, d0_tilde = 0, which the profile is expected to fail.

    H8 and the probe are ``not-checked``, with a note naming the field,
    when a trial field cannot be sampled on the grid or its energy or
    margin is not finite: a huge box overflows exp-linear.  Every entry
    gates ``ok`` except the H2 exponent entries and the image H8-pX probe,
    which are informational.
    """
    image = isinstance(fam, ImageFamily)
    if image:
        try:
            a, b = 0.0, image_growth_constant(fam)["b"]
        except RuntimeError as e:
            a, b, unlocated = 0.0, None, e
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
    reps = fam.gate_points()

    final = fam.phi(np.full(reps.size, DECAY_RUNG), reps)
    worst = float(final.max())
    if worst < DECAY_BOUND:
        rep.checks["H4"] = CheckResult("pass", worst, None,
                                       note="limit tested at s = 2^-40")
    else:
        rep.checks["H4"] = CheckResult("fail", worst, (int(reps[np.argmax(final)]), DECAY_RUNG))

    ladder = _log_ladder(rng)
    h5 = _LadderFold(ladder, decreasing=False, strict=True)
    h6 = _Peak(ladder)
    h7 = _LadderFold(ladder, decreasing=False, strict=fam.strict_flag)
    for blk in row_blocks(reps.size, SAMPLES):
        rows = reps[blk]
        phi = fam.phi(ladder[None, :], rows[:, None])
        h5.add(phi, rows)
        if b is not None:
            bound = a + b * ladder[None, :] ** (fam.exponent.values[rows, None] - 1.0)
            h6.add((phi - bound) / np.maximum(1.0, bound), rows)
        h7.add(phi / ladder[None, :] ** (fam.r_order - 1.0), rows)
    rep.checks["H5"] = h5.result()
    rep.checks["H6"] = (CheckResult("not-checked", note=f"growth constant not located: {unlocated}")
                        if b is None else h6.result(note=f"fitted b = {b}" if image else ""))
    rep.checks["H7'" if fam.strict_flag else "H7"] = h7.result()

    trials, unusable = _trial_energies(fam, grid, seed)

    def coercivity(order, c, c_tilde) -> CheckResult:
        # integral A(x, |grad v|) >= c integral |grad v|^order - c_tilde on every field
        if unusable:
            return CheckResult("not-checked", note=unusable)
        margins = []
        for label, t, lhs in trials:
            try:
                with np.errstate(over="ignore"):
                    margin = (lhs - (c * integrate(t ** order, grid) - c_tilde)) / (1.0 + abs(lhs))
            except OverflowError:  # math.fsum's intermediate overflow
                margin = math.nan
            if not math.isfinite(margin):
                return CheckResult("not-checked", note=f"{label} has margin {margin}")
            margins.append(margin)
        k = int(np.argmin(margins))
        worst = float(margins[k])
        if worst >= -1e-10:
            return CheckResult("pass", worst, None)
        return CheckResult("fail", worst, (k,))

    if math.isfinite(c_tilde):
        rep.checks[h8] = coercivity(order, c, c_tilde)
    else:  # every margin would be inf: the bound holds vacuously
        rep.checks[h8] = CheckResult("not-checked",
                                     note=f"coercivity constant c2 = {c_tilde} is not finite")

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

    H12 reads one seeded ladder of SAMPLES rungs on [0, 1]: H12-monotone
    (f + lambda0 s strictly increasing) on the ladder itself, and
    H12-lipschitz (f + gamma s and gamma s - f nondecreasing) on the ladder
    closed by s = 0 and 1, on the same values of f.  Each step then has
    |f step| <= gamma |s step|, and by the triangle inequality so has every
    pair of rungs.  H13/H13' read a seeded log ladder on [1e-6, 1].

    The extension checks run on EXTENSION_LADDER: ext-lipschitz (fbar
    gamma-Lipschitz on [-3, 4]), ext-monotone (fbar + lambda0 s strictly
    increasing on [-3, 4]), and on its positive rungs s = t^(1/alpha),
    ext-convex (t -> -Fbar(t^(1/alpha)) convex) and ext-ratio
    (fbar(t^(1/alpha)) / t^((alpha-1)/alpha) nonincreasing).

    Every check runs at the points of ``src.gate_points()``: one per
    distinct parameter tuple, or for a fidelity source the points holding
    g_min and g_max.
    Every entry gates ``ok`` except H13' when the source does not claim a
    strict ratio (``strict13_flag``).
    """
    rng = np.random.default_rng(seed)
    rep = HypothesisReport(seed=seed)
    reps = src.gate_points()

    f0 = src.f_vals(np.zeros(reps.size), reps)
    f1 = src.f_vals(np.ones(reps.size), reps)
    worst = float(max(-f0.min(), f1.max()))
    if f0.min() >= -STRICT_MARGIN and f1.max() <= STRICT_MARGIN:
        rep.checks["H11"] = CheckResult("pass", worst, None)
    else:
        i = int(np.argmax(np.maximum(-f0, f1)))
        rep.checks["H11"] = CheckResult("fail", worst,
                                        (int(reps[i]), 0.0 if -f0[i] > f1[i] else 1.0))

    ladder = np.sort(rng.uniform(0.0, 1.0, size=SAMPLES))
    s_lad = _log_ladder(rng, hi=1.0)
    closed = np.concatenate([[0.0], ladder, [1.0]])
    gs_closed = src.gamma * closed

    # H12-lipschitz and ext-lipschitz: |f step| <= gamma |s step|, so
    # f + gamma s and gamma s - f are nondecreasing; these rows can cancel
    # to constants (a fidelity source, the extension off [0, 1]), so their
    # margins scale with the terms, whose rounding grows with gamma.  The
    # extension the solver's energy is built from is f inside [0, 1].  The
    # root-order maps of t = s^alpha run on the positive rungs, crossing
    # t = 1; t -> -Fbar(t^(1/alpha)) is convex when its chord slopes are
    # nondecreasing.
    s = EXTENSION_LADDER
    gs = src.gamma * s
    pos = s > 0.0
    root = s[pos]
    t = root ** src.alpha
    lad_root = s_lad[None, :] ** (1.0 / src.alpha)
    lad_power = s_lad[None, :] ** ((src.alpha - 1.0) / src.alpha)
    folds = {
        "H12-monotone": _LadderFold(ladder, decreasing=False, strict=True),
        "H12-lipschitz": _LadderFold(closed, decreasing=False, strict=False),
        "H13": _LadderFold(s_lad, decreasing=True, strict=False),
        "H13'": _LadderFold(s_lad, decreasing=True, strict=True),
        "ext-lipschitz": _LadderFold(s, decreasing=False, strict=False),
        "ext-monotone": _LadderFold(s, decreasing=False, strict=True),
        "ext-convex": _LadderFold(0.5 * (t[:-1] + t[1:]), decreasing=False, strict=False),
        "ext-ratio": _LadderFold(t, decreasing=True, strict=False),
    }
    for blk in row_blocks(reps.size, SAMPLES):
        rows = reps[blk]
        f = src.f_vals(closed[None, :], rows[:, None])
        folds["H12-monotone"].add(f[:, 1:-1] + src.lambda0 * ladder[None, :], rows)
        folds["H12-lipschitz"].add(np.stack([f + gs_closed, gs_closed - f]), rows,
                                   scale=np.abs(f) + np.abs(gs_closed))
        ratio = src.f_vals(lad_root, rows[:, None]) / lad_power
        folds["H13"].add(ratio, rows)
        folds["H13'"].add(ratio, rows)
        fbar = src.fbar_vals(s[None, :], rows[:, None])
        folds["ext-lipschitz"].add(np.stack([fbar + gs, gs - fbar]), rows,
                                   scale=np.abs(fbar) + np.abs(gs))
        folds["ext-monotone"].add(fbar + src.lambda0 * s, rows)
        slopes = np.diff(-src.Fbar_vals(root[None, :], rows[:, None]), axis=1) / np.diff(t)
        folds["ext-convex"].add(slopes, rows)
        folds["ext-ratio"].add(fbar[:, pos] / root ** (src.alpha - 1.0), rows)

    rep.checks.update((name, fold.result()) for name, fold in folds.items())
    if not src.strict13_flag:
        rep.informational.add("H13'")
    return rep


def gate(fam: OperatorFamily, src: SourceFamily, grid: Grid, seed: int) -> tuple:
    """Run the operator and source validators; returns (report, ok).

    ok needs every entry to pass except the informational ones: the H2
    exponent entries, the image profile's H8-pX probe, and H13' unless the
    source claims a strict ratio (``strict13_flag``).
    """
    rep = check_operator_hypotheses(fam, grid, seed).merge(check_source_hypotheses(src, seed))
    return rep, rep.ok
