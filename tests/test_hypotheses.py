import numpy as np
import pytest

from pxlab import (check_coercivity, check_exponent, check_growth,
                   check_limit_monotone, check_monotone_ratio,
                   check_source_hypotheses, default_trial_fields,
                   exponent_field, image_coercivity_constants,
                   image_growth_constant)
from pxlab.hypotheses import _ladder_check, gate
from pxlab.sources import FidelitySource

from util import fidelity_src, grid_1d, grid_2d, image_op, power_src, single_phase, \
    two_phase, zero_src


@pytest.fixture(scope="module")
def grid():
    return grid_1d(16)


class ConstantProfile:
    """Pathological family: the profile jumps to 1 for any s > 0."""

    def __init__(self, npoints, exponent):
        self.npoints = npoints
        self.exponent = exponent
        self.r_order = 1.0

    def phi(self, s, points=None):
        s = np.asarray(s, dtype=float)
        idx = np.arange(self.npoints) if points is None else np.asarray(points)
        s, _ = np.broadcast_arrays(s, idx)
        return np.where(s > 0.0, 1.0, 0.0)


def test_limit_and_monotone_builtins(grid):
    for fam in (single_phase(grid, 2.0), two_phase(grid), image_op(grid)):
        rep = check_limit_monotone(fam, seed=1)
        assert rep.passed("H4", "H5")


def test_limit_fails_with_witness(grid):
    bad = ConstantProfile(grid.npoints, exponent_field(grid, 2.0))
    rep = check_limit_monotone(bad, seed=1)
    assert rep.checks["H4"].status == "fail"
    assert rep.checks["H4"].witness is not None


def test_growth_examples(grid):
    single = single_phase(grid, 2.0)
    assert check_growth(single, 0.0, 1.0, seed=1).passed("H6")
    img = image_op(grid)
    b = image_growth_constant(img)["b"]
    assert check_growth(img, 0.0, b, seed=1).passed("H6")
    rep = check_growth(img, 0.0, 0.0, seed=1)
    assert rep.checks["H6"].status == "fail"
    assert rep.checks["H6"].witness is not None
    with pytest.raises(ValueError):
        check_growth(single, 0.0, -1.0)
    with pytest.raises(ValueError):
        check_growth(single, -1.0, 1.0)


def test_monotone_ratio_examples(grid):
    assert check_monotone_ratio(two_phase(grid, alpha=1.5), 1.5, True,
                                seed=1).passed("H7'")
    assert check_monotone_ratio(image_op(grid, alpha=1.5), 1.5, True,
                                seed=1).passed("H7'")
    rep = check_monotone_ratio(single_phase(grid, 2.0, alpha=2.0), 3.0, False, seed=1)
    assert rep.checks["H7"].status == "fail"
    flat = check_monotone_ratio(single_phase(grid, 2.0, alpha=2.0), 2.0, False, seed=1)
    assert flat.checks["H7"].status == "pass"
    assert flat.checks["H7"].note == "non-strict"
    with pytest.raises(ValueError):
        check_monotone_ratio(two_phase(grid), 0.5, False)


def test_ratio_at_one_consistent_with_monotone_profile(grid):
    # a passing H5 implies the ratio check at r = 1 passes too
    for fam in (single_phase(grid, 2.0), two_phase(grid), image_op(grid)):
        assert check_limit_monotone(fam, seed=2).passed("H5")
        assert check_monotone_ratio(fam, 1.0, False, seed=2).passed("H7")


def test_coercivity_modes(grid):
    fields = default_trial_fields(grid, seed=2)
    single = single_phase(grid, 2.0)
    # the quadratic energy attains the bound with d0 = 1/2 exactly
    assert check_coercivity(single, "pX", fields, grid, d0=0.5).passed("H8-pX")
    img = image_op(grid)
    c1, c2 = image_coercivity_constants(img, grid.volume)
    assert check_coercivity(img, "alpha", fields, grid, c1=c1, c2=c2).passed("H8-alpha")
    rep = check_coercivity(img, "pX", fields, grid, d0=1.0, d0_tilde=0.0)
    assert rep.checks["H8-pX"].status == "fail"
    assert rep.checks["H8-pX"].witness is not None
    with pytest.raises(ValueError):
        check_coercivity(single, "nope", fields, grid)
    with pytest.raises(ValueError):
        check_coercivity(single, "pX", fields, grid, d0=-1.0)


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


def test_reports_are_deterministic(grid):
    fam = image_op(grid)
    a = check_limit_monotone(fam, seed=5).to_jsonable()
    b = check_limit_monotone(fam, seed=5).to_jsonable()
    assert a == b
    bad = ConstantProfile(grid.npoints, exponent_field(grid, 2.0))
    w1 = check_limit_monotone(bad, seed=5).checks["H4"].witness
    w2 = check_limit_monotone(bad, seed=5).checks["H4"].witness
    assert w1 == w2


def test_exponent_report(grid):
    rep = check_exponent(exponent_field(grid, 2.0), 2)
    assert rep.checks["H2-bounds"].status == "pass"
    assert rep.checks["H2-embedding"].status == "pass"
    assert rep.checks["H2-log-holder"].status == "not-checked"


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
    res = _ladder_check(mat, LADDER, decreasing=decreasing, strict=strict)
    assert (res.status, res.note, res.witness) == (status, note, witness)
    # the smallest step of an increasing check, the largest of a decreasing one
    assert res.worst == (-worst if decreasing else worst)


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
