import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pxlab import (AnalyticFieldSpec, JetField, build_grid, fixture_counterexample,
                   fuzz_scalar_gaps, fuzz_subunit_gaps, integral_gap, integrate,
                   pointwise_gap, pointwise_gap_parts, quotient_jet, ratio_power_jet,
                   sample_jet, scalar_gap, subunit_power_gaps)
from pxlab.inequality import (AC_BD_FLAT, CD_ZERO, NO_EQUALITY, R1_FLAT,
                              STRICT_FORCED)

from util import grid_1d, image_op, random_positive_jet, single_phase, two_phase


# ---------------------------------------------------------------------------
# scalar inequality
# ---------------------------------------------------------------------------

def test_scalar_gap_power_example():
    case = scalar_gap(lambda s: s**2, 2.0, 1.0, 2.0, 3.0, 1.0)
    assert case.lhs == pytest.approx(38.75, rel=1e-14)
    assert case.rhs == pytest.approx(21.0, rel=1e-14)
    assert case.gap == pytest.approx(17.75, rel=1e-14)
    assert case.equality_class == NO_EQUALITY


def test_scalar_gap_flat_ratio_equality():
    case = scalar_gap(lambda s: s, 2.0, 1.0, 2.0, 2.0, 1.0)
    assert case.lhs == pytest.approx(10.0, rel=1e-14)
    assert case.gap == pytest.approx(0.0, abs=1e-12)
    assert case.equality_class == AC_BD_FLAT


def test_scalar_gap_zero_case():
    case = scalar_gap(lambda s: s**2, 3.0, 1.0, 2.0, 0.0, 0.0)
    assert case.lhs == case.rhs == 0.0
    assert case.equality_class == CD_ZERO


def test_scalar_gap_r1_and_strict_classes():
    case = scalar_gap(lambda s: s**1.5, 1.0, 0.7, 2.0, 1.3, 1.3)
    assert case.equality_class == R1_FLAT
    case = scalar_gap(lambda s: s**2.5, 3.0, 1.4, 1.4, 0.9, 0.9)
    assert case.equality_class == STRICT_FORCED


def test_scalar_gap_validation():
    with pytest.raises(ValueError):
        scalar_gap(lambda s: s, 1.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        scalar_gap(lambda s: s, 1.0, 1.0, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        scalar_gap(lambda s: s, 0.5, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        scalar_gap(lambda s: s + 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    r=st.floats(1.0, 4.0),
    dq=st.floats(0.05, 3.0),
    a=st.floats(1e-3, 1e3),
    b=st.floats(1e-3, 1e3),
    c=st.floats(0.0, 1e3),
    d=st.floats(0.0, 1e3),
)
def test_scalar_gap_nonnegative_property(r, dq, a, b, c, d):
    q = r - 1.0 + dq
    case = scalar_gap(lambda s: s**q, r, a, b, c, d)
    assert case.gap >= -1e-12 * max(1.0, abs(case.lhs))


def test_scalar_gap_with_operator_profile():
    # profiles frozen at a quadrature point plug straight into the scalar form
    grid = grid_1d(16)
    fam = image_op(grid, alpha=1.5)
    def phi(s):
        return float(fam.phi([s], points=[3])[0])

    case = scalar_gap(phi, 1.5, 0.8, 1.7, 2.0, 0.4)
    assert case.gap >= -1e-12 * max(1.0, abs(case.lhs))
    scalar_part, _ = pointwise_gap_parts(
        fam, 1.5,
        JetField(np.full(grid.npoints, 1.7), np.full((grid.npoints, 1), 2.0)),
        JetField(np.full(grid.npoints, 0.8), np.full((grid.npoints, 1), 0.4)))
    assert scalar_part[3] == pytest.approx(case.gap, rel=1e-12)


def test_classified_equalities_reevaluate_to_zero():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, c = rng.uniform(0.1, 10.0, 2)
        b = rng.uniform(0.1, 10.0)
        r = rng.uniform(1.5, 4.0)
        case = scalar_gap(lambda s: s ** (r - 1.0), r, a, b, c, a * c / b)
        assert case.equality_class != NO_EQUALITY
        assert abs(case.gap) <= 1e-10 * max(1.0, abs(case.lhs))


def test_nondegenerate_strict_inputs_have_positive_gap():
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = rng.uniform(1.0, 4.0)
        q = r - 1.0 + rng.uniform(0.3, 2.0)
        a, b = np.exp(rng.uniform(-1.5, 1.5, 2))
        c, d = np.exp(rng.uniform(-1.0, 2.0, 2))
        if abs(c - d) < 0.05 * max(c, d):
            continue
        case = scalar_gap(lambda s: s**q, r, a, b, c, d)
        assert case.gap > 0.0
    # equal magnitudes with unequal ratio factors also force a positive gap
    for _ in range(100):
        r = rng.uniform(1.3, 4.0)
        q = r - 1.0 + rng.uniform(0.3, 2.0)
        c = float(np.exp(rng.uniform(-1.0, 2.0)))
        a = float(np.exp(rng.uniform(-1.5, 1.5)))
        b = a * float(rng.uniform(1.3, 3.0))
        case = scalar_gap(lambda s: s**q, r, a, b, c, c)
        assert case.gap > 0.0


# ---------------------------------------------------------------------------
# pointwise and integral forms
# ---------------------------------------------------------------------------

def test_pointwise_gap_examples():
    grid = build_grid(2, 3, 1.0)
    fam = single_phase(grid, 2.0, alpha=2.0)
    assert pointwise_gap(fam, 2.0, 0, 1.0, [0, 0], 2.0, [0, 0]) == 0.0
    assert pointwise_gap(fam, 2.0, 0, 1.5, [1, 2], 1.5, [1, 2]) == 0.0
    # hand evaluation: orthogonal unit gradients, ratio 2; the dot-product
    # side vanishes and the left side is 5*1 + 1.25*1
    g = pointwise_gap(fam, 2.0, 0, 1.0, [1.0, 0.0], 2.0, [0.0, 1.0])
    assert g == pytest.approx(6.25, rel=1e-14)
    with pytest.raises(ValueError):
        pointwise_gap(fam, 2.0, 0, -1.0, [1, 0], 2.0, [0, 1])


def _jets_quadratic_affine(grid):
    x = grid.quad_points[:, 0]
    w1 = JetField(1 + x**2, (2 * x)[:, None])
    w2 = JetField(2 - x, np.full((grid.npoints, 1), -1.0))
    return w1, w2


def test_integral_gap_trivial_cases():
    grid = grid_1d(32)
    fam = single_phase(grid, 2.0, alpha=2.0)
    c1 = JetField(np.ones(32), np.zeros((32, 1)))
    c2 = JetField(np.full(32, 2.0), np.zeros((32, 1)))
    res = integral_gap(fam, 2.0, c1, c2, grid)
    assert res.lhs == res.rhs == 0.0
    w1, _ = _jets_quadratic_affine(grid)
    res = integral_gap(fam, 2.0, w1, w1, grid)
    assert res.gap == 0.0


def test_integral_gap_and_consistency():
    grid = grid_1d(64)
    w1, w2 = _jets_quadratic_affine(grid)
    for fam in (single_phase(grid, 2.0, alpha=2.0), two_phase(grid), image_op(grid)):
        r = fam.r_order
        res = integral_gap(fam, r, w1, w2, grid)
        assert res.gap >= -1e-10 * (1.0 + abs(res.lhs))
        scalar_part, cauchy = pointwise_gap_parts(fam, r, w1, w2)
        assert np.all(cauchy >= -1e-15)
        total = integrate(scalar_part + cauchy, grid)
        assert abs(res.gap - total) <= 1e-10 * max(1.0, abs(res.gap))


def test_integral_gap_variable_exponent_image_profile():
    from pxlab import exponent_field, make_image_operator

    grid = grid_1d(48)
    rng = np.random.default_rng(12)
    p = exponent_field(grid, 1.9 + 0.5 * grid.quad_points[:, 0])
    fam = make_image_operator(p, 0.6, 1.3, 1.6)
    for _ in range(5):
        w1 = random_positive_jet(rng, grid)
        w2 = random_positive_jet(rng, grid)
        res = integral_gap(fam, fam.r_order, w1, w2, grid)
        assert res.gap >= -1e-10 * (1.0 + abs(res.lhs))
        scalar_part, cauchy = pointwise_gap_parts(fam, fam.r_order, w1, w2)
        total = integrate(scalar_part + cauchy, grid)
        assert abs(res.gap - total) <= 1e-10 * max(1.0, abs(res.lhs))


def test_integral_gap_positivity_requirement():
    grid = grid_1d(16)
    fam = single_phase(grid, 2.0, alpha=2.0)
    bad = JetField(np.linspace(-0.1, 1.0, 16), np.zeros((16, 1)))
    ok = JetField(np.ones(16), np.zeros((16, 1)))
    with pytest.raises(ValueError):
        integral_gap(fam, 2.0, bad, ok, grid)


def test_ratio_power_jet_examples():
    grid = grid_1d(32)
    x = grid.quad_points[:, 0]
    w1 = JetField(np.exp(x), np.exp(x)[:, None])
    w2 = JetField(np.exp(2 * x), (2 * np.exp(2 * x))[:, None])
    r1 = ratio_power_jet(w1, w2, 1.0)
    assert np.allclose(r1.values, w2.values, rtol=1e-14)
    assert np.allclose(r1.grads, w2.grads, rtol=1e-14)
    same = ratio_power_jet(w1, w1, 3.0)
    assert np.allclose(same.values, w1.values, rtol=1e-14)
    assert np.allclose(same.grads, w1.grads, rtol=1e-13)
    rp = ratio_power_jet(w1, w2, 2.0)
    assert np.allclose(rp.values, np.exp(3 * x), rtol=1e-13)
    assert np.allclose(rp.grads[:, 0], 3 * np.exp(3 * x), rtol=1e-13)


def test_quotient_jet_examples():
    grid = grid_1d(32)
    x = grid.quad_points[:, 0]
    w1 = JetField(np.exp(x), np.exp(x)[:, None])
    w2 = JetField(2 * np.exp(x), 2 * np.exp(x)[:, None])
    q = quotient_jet(w1, w2)
    assert np.allclose(q.values, 2.0, rtol=1e-14)
    assert np.allclose(q.grads, 0.0, atol=1e-14)
    ones = JetField(np.ones(32), np.zeros((32, 1)))
    q2 = quotient_jet(ones, w2)
    assert np.allclose(q2.grads, w2.grads, rtol=1e-14)
    w3 = JetField(np.exp(2 * x), (2 * np.exp(2 * x))[:, None])
    q3 = quotient_jet(w1, w3)
    assert np.allclose(q3.values, np.exp(x), rtol=1e-13)
    assert np.allclose(q3.grads[:, 0], np.exp(x), rtol=1e-13)
    with pytest.raises(ValueError):
        quotient_jet(JetField(np.zeros(32), np.zeros((32, 1))), w2)


@pytest.mark.parametrize("r", [1.0, 1.7, 2.0, 3.0])
def test_ratio_power_gradient_matches_value_differences(r):
    errs = []
    for n in (64, 128):
        grid = grid_1d(n)
        rng = np.random.default_rng(7)
        w1 = random_positive_jet(rng, grid)
        w2 = random_positive_jet(rng, grid)
        jet = ratio_power_jet(w1, w2, r)
        h = grid.h[0]
        fd = (jet.values[2:] - jet.values[:-2]) / (2 * h)
        errs.append(np.max(np.abs(fd - jet.grads[1:-1, 0])))
    assert errs[1] <= errs[0] / 3.0


def test_quotient_gradient_matches_value_differences():
    errs = []
    for n in (64, 128):
        grid = grid_1d(n)
        rng = np.random.default_rng(8)
        w1 = random_positive_jet(rng, grid)
        w2 = random_positive_jet(rng, grid)
        jet = quotient_jet(w1, w2)
        h = grid.h[0]
        fd = (jet.values[2:] - jet.values[:-2]) / (2 * h)
        errs.append(np.max(np.abs(fd - jet.grads[1:-1, 0])))
    assert errs[1] <= errs[0] / 3.0


def test_quotient_equals_log_derivative_form():
    grid = grid_1d(48)
    rng = np.random.default_rng(9)
    w1 = random_positive_jet(rng, grid)
    w2 = random_positive_jet(rng, grid)
    q = quotient_jet(w1, w2)
    alt = (w2.values / w1.values)[:, None] * (
        w2.grads / w2.values[:, None] - w1.grads / w1.values[:, None])
    assert np.allclose(q.grads, alt, atol=1e-12, rtol=1e-12)


# ---------------------------------------------------------------------------
# counterexample fixtures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["ex51", "ex52"])
def test_fixture_counterexample(which):
    grid = build_grid(1, 64, 2.0)
    rep = fixture_counterexample(which, grid)
    assert rep["passed"]
    assert rep["log_derivative_max_diff"] <= 1e-12
    assert rep["ratio_attains_one_and_two"]
    assert rep["quotient_grad_max"] <= 1e-12
    assert not rep["ratio_constant"]


def test_fixture_log_derivative_value():
    grid = build_grid(1, 64, 2.0)
    t = grid.quad_points[:, 0] - 1.0
    w1 = sample_jet(AnalyticFieldSpec("ex51-pair", {"member": 1}), grid)
    w2 = sample_jet(AnalyticFieldSpec("ex51-pair", {"member": 2}), grid)
    assert np.allclose(w1.grads[:, 0] / w1.values, 1.0 / t, rtol=1e-13)
    assert np.allclose(w2.grads[:, 0] / w2.values, 1.0 / t, rtol=1e-13)
    ratio = w2.values / w1.values
    assert np.all(ratio[t < 0] == 2.0)
    assert np.all(ratio[t > 0] == 1.0)


def test_fixture_ex52_boundary_decay():
    grid = build_grid(1, 64, 2.0)
    rep = fixture_counterexample("ex52", grid)
    assert rep["boundary_cell_max_value"] <= 1e-10


def test_fixture_rejects_bad_grid():
    with pytest.raises(ValueError):
        fixture_counterexample("ex51", build_grid(1, 65, 2.0))
    with pytest.raises(ValueError):
        fixture_counterexample("ex53", build_grid(1, 64, 2.0))


# ---------------------------------------------------------------------------
# subunit power inequalities
# ---------------------------------------------------------------------------

def test_subunit_examples():
    gaps = subunit_power_gaps(4.0, 1.0, 0.5)
    assert gaps["gap1"] == pytest.approx(math.sqrt(3.0) - 1.0, rel=1e-14)
    assert gaps["gap2"] == pytest.approx(3.0 - math.sqrt(5.0), rel=1e-14)
    at_one = subunit_power_gaps(4.0, 1.0, 1.0)
    assert at_one["gap1"] == 0.0 and at_one["gap2"] == 0.0


def test_subunit_equality_cases():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = float(rng.uniform(0.0, 10.0))
        r = float(rng.uniform(0.05, 1.0))
        same = subunit_power_gaps(a, a, r)
        assert same["gap1"] == 0.0
        zero = subunit_power_gaps(a, 0.0, r)
        assert zero["gap1"] == pytest.approx(0.0, abs=1e-15)
        assert zero["gap2"] == pytest.approx(0.0, abs=1e-15)


def test_subunit_validation():
    with pytest.raises(ValueError):
        subunit_power_gaps(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        subunit_power_gaps(1.0, 1.0, 1.5)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 1e6), b=st.floats(0.0, 1e6), r=st.floats(0.0, 1.0))
def test_subunit_property(a, b, r):
    # both gaps are differences of terms up to max(a, b, a + b)^r, so their
    # rounding error is a few ulp of that term, not an absolute constant
    gaps = subunit_power_gaps(a, b, r)
    slack = -4.0 * np.spacing(max(a, b, a + b) ** r)
    assert gaps["gap1"] >= slack
    assert gaps["gap2"] >= slack


def test_fuzzers_deterministic():
    assert fuzz_scalar_gaps(2000, 3) == fuzz_scalar_gaps(2000, 3)
    assert fuzz_subunit_gaps(2000, 3) == fuzz_subunit_gaps(2000, 3)
