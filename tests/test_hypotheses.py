import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import pxlab.grid
from pxlab import (check_operator_hypotheses, check_source_hypotheses,
                   exponent_field, hypotheses, make_image_operator, synthetic_image)
from pxlab.hypotheses import SAMPLES, _LadderFold, _Peak, gate
from pxlab.operators import MultiphaseFamily, OperatorFamily
from pxlab.sources import FidelitySource

from util import fidelity_src, grid_1d, grid_2d, image_op, power_src, single_phase, \
    two_phase, zero_src


@pytest.fixture(scope="module")
def grid():
    return grid_1d(16)


class JumpAtZero(MultiphaseFamily):
    """Pathological profile: Phi jumps to 1 for any s > 0."""

    def _phi(self, s, idx):
        return np.where(s > 0.0, 1.0, 0.0)


class TripledProfile(MultiphaseFamily):
    """Three times the power profile, above the growth bound its weights give."""

    def _phi(self, s, idx):
        return 3.0 * super()._phi(s, idx)


def variant(cls, grid, p=2.0, alpha=1.5):
    """A unit-weight single-phase family of a MultiphaseFamily subclass."""
    return cls([exponent_field(grid, p)], [np.ones(grid.npoints)], alpha, p, None, None)


def test_limit_and_monotone_builtins(grid):
    for fam in (single_phase(grid, 2.0), two_phase(grid), image_op(grid)):
        rep = check_operator_hypotheses(fam, grid, seed=1)
        assert rep.passed("H4", "H5")


def test_limit_fails_with_witness(grid):
    rep = check_operator_hypotheses(variant(JumpAtZero, grid), grid, seed=1)
    assert rep.checks["H4"].status == "fail"
    assert rep.checks["H4"].witness is not None


def test_growth_examples(grid):
    assert check_operator_hypotheses(single_phase(grid, 2.0), grid, seed=1).passed("H6")
    img = check_operator_hypotheses(image_op(grid), grid, seed=1)
    assert img.passed("H6")
    assert img.checks["H6"].note.startswith("fitted b = ")
    rep = check_operator_hypotheses(variant(TripledProfile, grid), grid, seed=1)
    assert rep.checks["H6"].status == "fail"
    assert rep.checks["H6"].witness is not None


def test_monotone_ratio_examples(grid):
    assert check_operator_hypotheses(two_phase(grid, alpha=1.5), grid,
                                     seed=1).passed("H7'")
    assert check_operator_hypotheses(image_op(grid, alpha=1.5), grid,
                                     seed=1).passed("H7'")
    steep = single_phase(grid, 2.0, alpha=2.0)
    steep.r_order = 3.0
    rep = check_operator_hypotheses(steep, grid, seed=1)
    assert rep.checks["H7"].status == "fail"
    assert rep.checks["H7"].witness is not None
    flat = check_operator_hypotheses(single_phase(grid, 2.0, alpha=2.0), grid, seed=1)
    assert flat.checks["H7"].status == "pass"
    assert flat.checks["H7"].note == "non-strict"


def test_ratio_at_one_consistent_with_monotone_profile(grid):
    # at r = 1 the H7 rows are the H5 rows: a passing H5 implies H7 passes
    for fam in (single_phase(grid, 2.0), two_phase(grid), image_op(grid)):
        fam.r_order, fam.strict_flag = 1.0, False
        rep = check_operator_hypotheses(fam, grid, seed=2)
        assert rep.passed("H5", "H7")


def test_coercivity_modes(grid):
    # the quadratic energy attains the bound with the default d0 = 1/2 exactly
    single = single_phase(grid, 2.0)
    assert check_operator_hypotheses(single, grid, seed=2).passed("H8-pX")
    single.d0 = 1.0
    rep = check_operator_hypotheses(single, grid, seed=2)
    assert rep.checks["H8-pX"].status == "fail"
    assert rep.checks["H8-pX"].witness is not None
    assert not rep.ok
    img = check_operator_hypotheses(image_op(grid), grid, seed=2)
    assert img.passed("H8-alpha")
    assert img.checks["H8-pX"].status == "fail"
    assert img.checks["H8-pX"].witness is not None
    # the image probe is informational
    assert img.ok


def test_source_hypotheses_builtins(grid):
    n = grid.npoints
    power = power_src(n, r1=1.0, q1=1.0)
    rep = check_source_hypotheses(power, seed=1)
    assert rep.passed("H11", "H12-monotone", "H12-lipschitz", "H13", "H13'")

    zero = zero_src(n)
    repz = check_source_hypotheses(zero, seed=1)
    assert repz.passed("H11", "H12-monotone", "H12-lipschitz", "H13")
    assert repz.checks["H13'"].status == "fail"
    assert repz.checks["H13'"].witness is not None

    fid = fidelity_src(n, g=0.5, mu=1.0, alpha=1.5)
    assert check_source_hypotheses(fid, seed=1).passed("H13'")

    flat = power_src(n, r1=1.0, q1=1.0, alpha=2.0)
    repf = check_source_hypotheses(flat, seed=1)
    assert repf.checks["H13"].status == "pass"
    assert repf.checks["H13'"].status == "fail"


class SteeperFidelity(FidelitySource):
    """Fidelity source with slope 1.001 mu, above the gamma = mu it claims."""

    def _f(self, s, idx):
        return 1.001 * super()._f(s, idx)


@pytest.mark.parametrize("mu", [1.0, 1e4, 1e6])
def test_lipschitz_margin_scales_with_the_source(grid, mu):
    # f + mu s = mu g is constant, so its steps are rounding of about mu
    # times 1e-16 (worst -2.7e-12 at mu = 1e4 and -2.3e-10 at 1e6 here),
    # below an absolute -1e-12; with the margin scaled by the terms an
    # exactly mu-Lipschitz source passes and a 0.1% steeper one still fails.
    # Its f + mu s falls by 1e-3 mu per unit of s, and the widest of the
    # SAMPLES + 1 steps of the closed ladder is at least 1 / (SAMPLES + 1).
    g = np.linspace(0.0, 1.0, grid.npoints)
    exact = check_source_hypotheses(fidelity_src(grid.npoints, g=g, mu=mu), seed=3)
    assert exact.passed("H12-lipschitz")
    steep = check_source_hypotheses(SteeperFidelity(g, mu, 1.5), seed=3).checks["H12-lipschitz"]
    assert steep.status == "fail"
    assert steep.worst < -0.999e-3 * mu / (SAMPLES + 1) and steep.witness is not None


class SteepMiddle(FidelitySource):
    """Fidelity source with slope -mu off [0.4, 0.5] and (kink - 1) mu on it."""

    kink = 0.0

    def _f(self, s, idx):
        return super()._f(s, idx) + self.kink * self.mu * (np.clip(s, 0.4, 0.5) - 0.4)


@pytest.mark.parametrize("kink", [-1.0, 3.0])
def test_lipschitz_witness_brackets_the_steep_interval(grid, kink):
    # slope -2 gamma or 2 gamma on [0.4, 0.5]: f + gamma s or gamma s - f
    # falls only there, by gamma times the length a step of the ladder
    # shares with it; the witness is the step sharing the most, and worst
    # is minus that length
    src = SteepMiddle(np.full(grid.npoints, 0.5), 1.0, 1.5)
    src.kink = kink
    lip = check_source_hypotheses(src, seed=3).checks["H12-lipschitz"]
    assert lip.status == "fail"
    point, s_lo, s_hi = lip.witness
    assert point == 0 and s_lo < 0.5 and 0.4 < s_hi
    assert lip.worst == pytest.approx(-(min(s_hi, 0.5) - max(s_lo, 0.4)), abs=1e-12)


def test_reports_are_deterministic(grid):
    fam = image_op(grid)
    a = check_operator_hypotheses(fam, grid, seed=5).to_jsonable()
    b = check_operator_hypotheses(fam, grid, seed=5).to_jsonable()
    assert a == b
    bad = variant(JumpAtZero, grid)
    w1 = check_operator_hypotheses(bad, grid, seed=5).checks["H4"].witness
    w2 = check_operator_hypotheses(bad, grid, seed=5).checks["H4"].witness
    assert w1 == w2


def test_exponent_report():
    g = grid_2d(8)
    rep = check_operator_hypotheses(single_phase(g, 2.0), g)
    assert rep.checks["H2-bounds"].status == "pass"
    assert rep.checks["H2-embedding"].status == "pass"
    assert rep.checks["H2-log-holder"].status == "not-checked"


def test_gate_samples_each_family_once(grid, monkeypatch):
    # Phi once on the ladder and once at the H4 rung; A once per trial field
    calls = {"phi": 0, "A_batch": 0}
    for name in calls:
        method = getattr(OperatorFamily, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(OperatorFamily, name, counted)
    gate(image_op(grid), fidelity_src(grid.npoints), grid, seed=1)
    assert calls == {"phi": 2, "A_batch": 5}


def test_image_gate_memory_64():
    # The operator checks, on one exponent, peak near 1.3 MB here and the
    # source checks, at the points of g_min and g_max, near 0.02 MB.
    g = grid_2d(64)
    fam = image_op(g)
    src = fidelity_src(g.npoints, g=synthetic_image(64, seed=7).ravel())
    tracemalloc.start()
    try:
        gate(fam, src, g, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21e6, peak


def test_gate_memory_128_with_quantized_data():
    # constant p and 8-bit data: one operator tuple and two source points,
    # so only the per-point H8 energies grow with the grid (~15 MB;
    # checking every point peaked near 76 MB)
    g = grid_2d(128)
    data = np.rint(synthetic_image(128, seed=7).ravel() * 255.0) / 255.0
    src = fidelity_src(g.npoints, g=data)
    tracemalloc.start()
    try:
        gate(image_op(g), src, g, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


def test_source_gate_memory_128_with_continuous_data():
    # every point of the synthetic data is its own tuple, but only the
    # points of g_min and g_max are checked (near 0.02 MB; every point in
    # blocks peaked near 3.0 MB, and the whole 64 x npoints matrices near
    # 76.7 MB)
    src = fidelity_src(128 * 128, g=synthetic_image(128, seed=7).ravel())
    tracemalloc.start()
    try:
        check_source_hypotheses(src, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e4, peak


def _block_reports(g):
    """Operator and source reports on 1-D data whose every point is its own
    tuple, passing and failing with witnesses."""
    n = g.npoints
    rng = np.random.default_rng(3)
    w = np.where(np.arange(n) % 5 == 2, 2.0, rng.uniform(0.5, 1.5, n))
    p = exponent_field(g, rng.uniform(1.6, 3.0, n))
    steep = MultiphaseFamily([p], [w], 1.5, p.p_minus, None, None)
    steep.r_order = 3.5
    ops = [two_phase(g), make_image_operator(p, 1.9, 0.7, 1.5), steep,
           TripledWhereTwo([p], [w], 1.5, p.p_minus, None, None)]
    reports = [check_operator_hypotheses(fam, g, seed=2).to_jsonable() for fam in ops]
    for tamper in (None, "gamma", "lambda0"):
        # the last source is zero at every point, with distinct tuples: every
        # row ties, and a witness must name the first point
        for src in (fidelity_src(n, g=rng.uniform(0.0, 1.0, n), mu=1.3),
                    power_src(n, r1=rng.uniform(0.0, 2.0, n), q1=rng.uniform(1.0, 3.0, n),
                              r2=rng.uniform(0.0, 1.0, n)),
                    power_src(n, r1=0.0, q1=np.linspace(1.0, 3.0, n))):
            if tamper == "gamma":
                src.gamma *= 0.3
            elif tamper == "lambda0":
                src.lambda0 = -2.0
            reports.append(check_source_hypotheses(src, seed=5).to_jsonable())
    return reports


def test_reports_do_not_depend_on_the_block_size(monkeypatch):
    g = grid_1d(24)
    whole = _block_reports(g)
    statuses = [c["status"] for r in whole for c in r["checks"].values()]
    assert statuses.count("fail") >= 10
    for block in (1, 7, 7 * SAMPLES + 5, 2 ** 40):
        monkeypatch.setattr(pxlab.grid, "BLOCK_ELEMENTS", block)
        assert _block_reports(g) == whole, block


def test_source_checks_draw_the_seeded_stream_in_order(monkeypatch):
    # the H12 ladder, then the H13 ladder: the next 2 * SAMPLES draws of the
    # seeded stream, whatever the block size; H12-lipschitz reads the H12
    # ladder closed by 0 and 1, and its steps fold to those of every row
    n = 24
    rng = np.random.default_rng(11)
    src = power_src(n, r1=rng.uniform(0.5, 2.0, n), q1=rng.uniform(1.0, 3.0, n))
    src.gamma *= 0.5
    stream = np.random.default_rng(9)
    h12 = np.sort(stream.uniform(0.0, 1.0, size=SAMPLES))
    h13 = np.sort(np.exp(stream.uniform(np.log(1e-6), 0.0, size=SAMPLES)))
    closed = np.concatenate([[0.0], h12, [1.0]])
    f = src.f_vals(closed[None, :], np.arange(n)[:, None])
    steps = np.diff(np.stack([f + src.gamma * closed, src.gamma * closed - f]), axis=-1)
    ladders = []

    class Recorded(_LadderFold):
        def __init__(self, ladder, **kwargs):
            ladders.append(ladder)
            super().__init__(ladder, **kwargs)

    monkeypatch.setattr(hypotheses, "_LadderFold", Recorded)
    for block in (7, 2 ** 40):
        monkeypatch.setattr(pxlab.grid, "BLOCK_ELEMENTS", block)
        ladders.clear()
        rep = check_source_hypotheses(src, seed=9)
        # H12-monotone, H12-lipschitz, H13 and H13' in turn
        for ladder, expected in zip(ladders, (h12, closed, h13, h13)):
            assert np.array_equal(ladder, expected)
        assert rep.checks["H12-lipschitz"].status == "fail"
        assert rep.checks["H12-lipschitz"].worst == steps.min()


def test_constant_exponent_image_evaluates_one_row(grid, monkeypatch):
    seen = []
    phi = OperatorFamily.phi

    def recorded(self, s, points=None):
        seen.append((np.size(s), np.unique(points).tolist()))
        return phi(self, s, points)

    monkeypatch.setattr(OperatorFamily, "phi", recorded)
    gate(image_op(grid), fidelity_src(grid.npoints), grid, seed=1)
    # the H4 rung, then the shared ladder, both at the first point only
    assert seen == [(1, [0]), (SAMPLES, [0])]


@pytest.mark.parametrize("constant", [False, True])
def test_fidelity_gate_evaluates_two_points(monkeypatch, constant):
    g = grid_2d(128)
    data = np.full(g.npoints, 0.5) if constant else synthetic_image(128, seed=7).ravel()
    src = fidelity_src(g.npoints, g=data)
    seen = set()
    for name in ("f_vals", "fbar_vals", "Fbar_vals"):
        method = getattr(FidelitySource, name)

        def recorded(self, s, points=None, _method=method):
            seen.update(np.unique(points).tolist())
            return _method(self, s, points)

        monkeypatch.setattr(FidelitySource, name, recorded)
    gate(single_phase(g), src, g, seed=1)
    # the first point of min g and the first of max g; one point when they agree
    assert seen == {int(np.argmin(data)), int(np.argmax(data))}
    assert len(seen) == (1 if constant else 2)


class EveryPoint(FidelitySource):
    """The reference a fidelity gate must reproduce: its checks at every point."""

    def gate_points(self):
        return np.arange(self.npoints)


class OnePoint(FidelitySource):
    """A fidelity source checked at the point ``only`` alone."""

    only = 0

    def gate_points(self):
        return np.array([self.only])


def _fidelity_variant(cls, data, mu, alpha, tamper):
    """A FidelitySource subclass ``cls`` on ``data``, tampered: gamma or
    lambda0 understated, f steeper than gamma, or a steep kink."""
    variant = {"steeper": SteeperFidelity, "kink": SteepMiddle}.get(tamper)
    if variant is not None:
        cls = variant if cls is FidelitySource else type(cls.__name__, (cls, variant), {})
    src = cls(data, mu, alpha)
    if tamper == "gamma":
        src.gamma *= 0.3
    elif tamper == "lambda0":
        src.lambda0 = -2.0
    elif tamper == "kink":
        src.kink = 3.0
    return src


@pytest.mark.parametrize("tamper", [None, "gamma", "lambda0", "steeper", "kink"])
@pytest.mark.parametrize("mu", [1.0, 1e4])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_fidelity_gate_points_match_every_point(tamper, mu, alpha):
    # every row a source check reads is affine in g, so the points of g_min
    # and g_max decide each check as the every-point oracle does
    rng = np.random.default_rng(int(alpha * 10) + int(mu))
    for npoints in (24, 12 * 12):
        data = rng.uniform(0.0, 1.0, npoints)
        ends = (data.min(), data.max())
        fast = check_source_hypotheses(_fidelity_variant(FidelitySource, data, mu, alpha, tamper),
                                       seed=6).checks
        oracle = check_source_hypotheses(_fidelity_variant(EveryPoint, data, mu, alpha, tamper),
                                         seed=6).checks
        assert fast.keys() == oracle.keys()
        for name, check in fast.items():
            assert (check.status, check.note) == (oracle[name].status, oracle[name].note), name
            assert check.worst == pytest.approx(oracle[name].worst, rel=0.0,
                                                abs=1e-12 * (1.0 + mu)), name
            if check.status != "fail":
                continue
            # the witness point holds an end of the data, and the check
            # fails there alone on the witness's rungs
            assert data[check.witness[0]] in ends, name
            one = _fidelity_variant(OnePoint, data, mu, alpha, tamper)
            one.only = check.witness[0]
            alone = check_source_hypotheses(one, seed=6).checks[name]
            assert (alone.status, alone.witness) == ("fail", check.witness), name
        if tamper is None:
            assert all(c.status == "pass" for c in fast.values())
        else:
            assert any(c.status == "fail" for c in fast.values())


class TripledWhereTwo(MultiphaseFamily):
    """Three times the power profile where the weight is 2: above the growth
    bound a = b = 2 only at those points."""

    def _phi(self, s, idx):
        return np.where(self.weights[0][idx] == 2.0, 3.0, 1.0) * super()._phi(s, idx)


def test_witness_names_the_first_point_of_a_failing_tuple(grid):
    w = np.ones(grid.npoints)
    w[[5, 9, 12]] = 2.0
    fam = TripledWhereTwo([exponent_field(grid, 2.0)], [w], 1.5, 2.0, None, None)
    rep = check_operator_hypotheses(fam, grid, seed=1)
    assert rep.checks["H6"].status == "fail"
    assert rep.checks["H6"].witness[0] == 5
    # the H5 and H7' rows of the weight-2 tuple pass: no other entry fails
    assert rep.passed("H4", "H5", "H7'")


# sha256 of the sorted-key JSON of gate(...)[0] at seed 7 on 32x32: the
# README solve problem and the default denoise (the synthetic data has no
# repeated tuple), with H12-lipschitz read on the closed H12 ladder and the
# source checked at the points of g_min and g_max
GATE_DIGESTS = {
    "solve": "68de7bbdca55c6da89dcca5da68c3fed9db37421b82fbc6f6a59babad0cd49be",
    "denoise": "0e851c803159b67ee6206ba7f8a061c828f87d232f8bce9bcddd3cfcf8944492",
}


@pytest.mark.parametrize("case", sorted(GATE_DIGESTS))
def test_gate_reports_keep_their_bytes(case):
    g = grid_2d(32)
    fam = two_phase(g) if case == "solve" else image_op(g)
    src = fidelity_src(g.npoints, g=synthetic_image(32, seed=7).ravel())
    report = json.dumps(gate(fam, src, g, seed=7)[0].to_jsonable(), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == GATE_DIGESTS[case]


LADDER = np.array([1.0, 2.0, 3.0, 4.0])
# increasing rows; each decreasing case negates them
ROWS = {
    "strict": np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 8.0]]),
    "flat": np.array([[0.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]]),
    "violated": np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 1.5, 3.0]]),
}
# (rows, strict check) -> status, note, witness, worst step of the increasing rows
LADDER_TABLE = {
    ("strict", True): ("pass", "", None, 1.0),
    ("strict", False): ("pass", "", None, 1.0),
    ("flat", True): ("fail", "non-strict", (0, 2.0, 3.0), 0.0),
    ("flat", False): ("pass", "non-strict", None, 0.0),
    ("violated", True): ("fail", "", (1, 2.0, 3.0), -0.5),
    ("violated", False): ("fail", "", (1, 2.0, 3.0), -0.5),
}


@pytest.mark.parametrize("decreasing", [False, True])
@pytest.mark.parametrize("rows, strict", sorted(LADDER_TABLE))
def test_ladder_classifier_table(rows, strict, decreasing):
    status, note, witness, worst = LADDER_TABLE[rows, strict]
    mat = -ROWS[rows] if decreasing else ROWS[rows]
    # the rows in one block and a row per block classify the same
    for width in (2, 1):
        fold = _LadderFold(LADDER, decreasing=decreasing, strict=strict)
        for lo in range(0, 2, width):
            fold.add(mat[lo:lo + width], np.arange(lo, lo + width))
        res = fold.result()
        assert (res.status, res.note, res.witness) == (status, note, witness)
        # the smallest step of an increasing check, the largest of a decreasing one
        assert res.worst == (-worst if decreasing else worst)


def test_ladder_fold_ties_take_the_first_in_row_major_order():
    # stacked checks (leading axis first): row 0 fails only in the second
    # stack and row 1 equally in the first, which comes first in row-major
    # order; then two equal rows, where the first row wins
    cases = {
        (1, 2.0, 3.0): np.array([[[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.5, 3.0]],
                                 [[0.0, 1.0, 0.5, 3.0], [0.0, 1.0, 2.0, 3.0]]]),
        (0, 1.0, 2.0): np.array([[[0.0, -1.0, 2.0, 3.0], [0.0, -1.0, 2.0, 3.0]]]),
    }
    for witness, mat in cases.items():
        for width in (2, 1):
            fold = _LadderFold(LADDER, decreasing=False, strict=False)
            for lo in range(0, 2, width):
                fold.add(mat[:, lo:lo + width], np.arange(lo, lo + width))
            assert fold.result().witness == witness


def test_folds_with_a_value_that_is_not_finite_are_not_checked():
    # stacked checks: the second stack holds inf at row 0 and the first a NaN
    # at the end of row 1, which comes first in row-major order, in one block
    # and with a row per block; the note names its point and rung
    mat = np.array([[[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, np.nan]],
                    [[0.0, np.inf, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]]])
    points = np.array([7, 9])
    for width in (2, 1):
        folds = [_LadderFold(LADDER, decreasing=False, strict=True), _Peak(LADDER)]
        with np.errstate(invalid="ignore"):
            for fold in folds:
                for lo in range(0, 2, width):
                    fold.add(mat[:, lo:lo + width], points[lo:lo + width])
        for fold in folds:
            res = fold.result()
            assert (res.status, res.worst, res.witness) == ("not-checked", 0.0, None)
            assert res.note == "value not finite at point 9, s = 4.0"


class SteepAboveOne(FidelitySource):
    """Fidelity source whose extension falls with slope 2 gamma above s = 1."""

    def fbar_vals(self, s, points=None):
        return super().fbar_vals(s, points) - self.gamma * np.maximum(np.asarray(s) - 1.0, 0.0)

    def Fbar_vals(self, s, points=None):
        over = np.maximum(np.asarray(s) - 1.0, 0.0)
        return super().Fbar_vals(s, points) - 0.5 * self.gamma * over * over


def test_gate_fails_an_extension_steeper_than_gamma(grid):
    src = SteepAboveOne(np.full(grid.npoints, 0.5), 1.0, 1.5)
    rep, ok = gate(single_phase(grid, 2.0), src, grid, seed=1)
    # f itself satisfies every hypothesis on [0, 1] ...
    assert rep.passed("H11", "H12-monotone", "H12-lipschitz", "H13", "H13'")
    # ... but its extension is not gamma-Lipschitz, and fbar + lambda0 s falls
    assert not ok
    for name in ("ext-lipschitz", "ext-monotone"):
        check = rep.checks[name]
        assert check.status == "fail"
        _, s_lo, s_hi = check.witness
        assert 1.0 <= s_lo < s_hi


OPERATORS = {"single": single_phase, "multiphase": two_phase, "image": image_op}
SOURCES = {
    "power": lambda n: power_src(n, r1=1.0, q1=2.0, r2=0.5, q2=1.0),
    # f = -0.3 s attains its bound: fbar + gamma s is 0 above 1, up to rounding
    "power-linear": lambda n: power_src(n, r1=0.3, q1=1.0),
    "fidelity": lambda n: fidelity_src(n, g=np.linspace(0.0, 1.0, n), mu=1.3),
    "zero": zero_src,
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("op_kind", sorted(OPERATORS))
@pytest.mark.parametrize("src_kind", sorted(SOURCES))
def test_gate_passes_every_builtin_pair(dim, op_kind, src_kind):
    g = grid_1d(16) if dim == 1 else grid_2d(8)
    rep, ok = gate(OPERATORS[op_kind](g), SOURCES[src_kind](g.npoints), g, seed=4)
    assert ok
    assert rep.passed("ext-lipschitz", "ext-monotone", "ext-convex", "ext-ratio")
