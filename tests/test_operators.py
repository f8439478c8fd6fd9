import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from pxlab import (ExponentField, check_homogeneity, exponent_field,
                   image_coercivity_constants, image_growth_constant,
                   make_image_operator, make_multiphase)

from util import grid_1d, image_op, single_phase, two_phase


@pytest.fixture(scope="module")
def grid():
    return grid_1d(16)


def test_exponent_field_validation(grid):
    with pytest.raises(ValueError):
        exponent_field(grid, 1.0)
    p = exponent_field(grid, 2.0)
    assert p.p_minus == p.p_plus == 2.0
    assert p.meets_embedding_bound(2)
    q = exponent_field(grid, 1.05)
    assert not q.meets_embedding_bound(3)  # 2N/(N+2) = 1.2 in 3D
    # the extremes are derived from the values, never passed in
    with pytest.raises(TypeError):
        ExponentField(np.full(grid.npoints, 2.0), p_minus=1.5)
    r = ExponentField(np.linspace(1.5, 2.5, grid.npoints))
    assert (r.p_minus, r.p_plus) == (1.5, 2.5)


def test_a_batch_examples(grid):
    grads = np.tile([[0.0, 0.0], [3.0, 4.0]], (grid.npoints // 2, 1))
    a2 = single_phase(grid, 2.0).a_batch(grads)
    assert np.all(a2[0::2] == 0.0)
    assert np.allclose(a2[1::2], [3.0, 4.0], rtol=1e-14)
    # |xi| = 5 and the power profile gives |xi|^(p-2) xi
    a3 = single_phase(grid, 3.0).a_batch(grads)
    assert np.allclose(a3[1::2], [15.0, 20.0], rtol=1e-14)


def test_flux_identities(grid):
    rng = np.random.default_rng(1)
    for fam in (single_phase(grid, 2.5), two_phase(grid), image_op(grid)):
        for _ in range(2):
            xi = rng.standard_normal((grid.npoints, 2)) \
                * 10 ** rng.uniform(-2, 2, (grid.npoints, 1))
            a = fam.a_batch(xi)
            norm = np.linalg.norm(xi, axis=1)
            phi = fam.phi(norm)
            assert np.allclose(np.sum(a * xi, axis=1), phi * norm, rtol=1e-12, atol=1e-300)
            assert np.allclose(np.linalg.norm(a, axis=1), phi, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("make", [
    lambda g: single_phase(g, 1.5), two_phase, lambda g: image_op(g, p=1.7, alpha=1.3)])
def test_psi_and_flux_vanish_exactly_at_zero(grid, make):
    # a batch mixing zero and positive magnitudes, with profiles that grow
    # slower than s at 0 (p < 2) among them: 0 at zero, Phi/s elsewhere
    fam = make(grid)
    zero = np.arange(grid.npoints) % 3 == 0
    s = np.where(zero, 0.0, np.geomspace(1e-6, 1e3, grid.npoints))
    psi = fam.psi(s)
    assert np.all(psi[zero] == 0.0)
    assert np.array_equal(psi[~zero], fam.phi(s)[~zero] / s[~zero])
    grads = s[:, None] * np.array([0.6, -0.8])
    norms = np.sqrt(np.sum(grads * grads, axis=1))
    a = fam.a_batch(grads)
    assert np.all(a[zero] == 0.0)
    expected = (fam.phi(norms) / np.where(zero, 1.0, norms))[:, None] * grads
    assert np.array_equal(a[~zero], expected[~zero])


def test_A_eval_examples(grid):
    fam2 = single_phase(grid, 2.0)
    assert fam2.A_eval(0, 0.0) == 0.0
    assert fam2.A_eval(0, 2.0) == pytest.approx(2.0, rel=1e-14)
    both = two_phase(grid)
    assert both.A_eval(0, 1.0) == pytest.approx(1.0 / 2.0 + 1.0 / 3.0, rel=1e-14)
    with pytest.raises(ValueError):
        fam2.A_eval(0, -1.0)


def test_A_eval_nondecreasing(grid):
    rng = np.random.default_rng(2)
    for fam in (two_phase(grid), image_op(grid)):
        ts = np.sort(rng.uniform(0.0, 20.0, 24))
        vals = [fam.A_eval(3, float(t)) for t in ts]
        assert np.all(np.diff(vals) >= 0.0)
        assert fam.A_eval(3, 0.0) == 0.0


def test_image_profile_examples(grid):
    fam = image_op(grid, p=2.0, eps=1.0, delta=1.0, alpha=1.5)
    at_threshold, at_zero, above = fam.phi([1.0, 0.0, 4.0], points=[0, 0, 0])
    # both branches agree at the threshold
    assert at_threshold == pytest.approx(math.log(2.0), rel=1e-14)
    assert at_zero == 0.0
    assert above == pytest.approx(2.0 * math.log(5.0), rel=1e-14)


def test_image_primitive_against_scipy(grid):
    fam = image_op(grid, p=2.3, eps=0.7, delta=1.4, alpha=1.6)

    def integrand(s):
        if s <= 0.7:
            return s**1.3 * math.log1p(s) ** 1.4
        return 0.7 ** (2.3 - 1.6) * s**0.6 * math.log1p(s) ** 1.4

    for t in (0.3, 0.7, 1.9, 12.0):
        ref, _ = scipy.integrate.quad(integrand, 0.0, t, points=[0.7],
                                      epsabs=1e-13, epsrel=1e-13)
        assert fam.A_eval(0, t) == pytest.approx(ref, abs=2e-10)


def test_phi_prime_against_differences(grid):
    rng = np.random.default_rng(4)
    ramp = exponent_field(grid, np.linspace(1.6, 2.8, grid.npoints))
    fams = (single_phase(grid, 2.5), two_phase(grid),
            make_multiphase([ramp], [1.0], alpha=1.5), image_op(grid),
            make_image_operator(ramp, 0.4, 0.7, 1.5))
    for fam in fams:
        s = 10 ** rng.uniform(-2.0, 1.5, grid.npoints)
        h = 1e-6 * s
        fd = (fam.phi(s + h) - fam.phi(s - h)) / (2 * h)
        assert np.allclose(fam.phi_prime(s), fd, rtol=1e-7)


def test_image_phi_prime_jumps_at_eps(grid):
    fam = image_op(grid, p=2.0, eps=0.5, delta=1.0, alpha=1.5)
    below = fam.phi_prime(np.full(grid.npoints, 0.5))
    above = fam.phi_prime(np.full(grid.npoints, np.nextafter(0.5, 1.0)))
    # left: p - 1 = 1 times ln(1.5); right: alpha - 1 = 0.5 times ln(1.5)
    assert np.allclose(below - above, 0.5 * math.log(1.5), rtol=1e-12)


def test_image_primitive_integrates_each_distinct_pair_once(grid):
    # A_batch integrates each distinct (t, p) pair once and scatters the
    # results; every integral depends only on its own limit and exponent,
    # so the result equals integrating every point on its own, bit for bit
    rng = np.random.default_rng(5)
    for case in range(30):
        if case % 2:
            p = exponent_field(grid, rng.choice([1.7, 2.0, 2.6], grid.npoints))
        else:
            p = exponent_field(grid, float(rng.uniform(1.6, 3.0)))
        fam = make_image_operator(p, float(rng.uniform(0.1, 1.0)),
                                  float(rng.uniform(0.5, 2.0)), 1.5)
        t = rng.choice(np.append(rng.uniform(0.0, 5.0, 4), 0.0), grid.npoints)
        single = [fam.A_eval(i, float(t[i])) for i in range(grid.npoints)]
        assert np.array_equal(fam.A_batch(t), single)


def _quad_reference(p, eps, delta, alpha, t):
    """A(t) of the image profile by scipy's quad in v = ln s, on unit pieces."""
    def piece(q, lo, hi):
        def f(v):
            return math.exp(q * v) * math.log1p(math.exp(v)) ** delta
        cuts = [lo, hi] if lo == -math.inf else np.append(np.arange(lo, hi, 1.0), hi)
        return math.fsum(scipy.integrate.quad(f, a, b, epsabs=0.0, epsrel=2e-14,
                                              limit=200)[0]
                         for a, b in zip(cuts[:-1], cuts[1:]))
    low = piece(p, -math.inf, math.log(min(t, eps)))
    if t <= eps:
        return low
    return low + eps ** (p - alpha) * piece(alpha, math.log(eps), math.log(t))


LIMITS = np.array([1e-3, 0.04, 0.3, 0.5, 0.8, 1.3, 2.2, 7.0, 40.0, 1e3, 1e4, 1e6])


@pytest.mark.parametrize("eps,delta", [
    (0.05, 1.0), (0.3, 1.37), (0.5, 0.5), (0.9, 2.0), (1.7, 2.6), (2.5, 3.3),
    (3.0, 25.0)])
def test_image_primitive_matches_quad_references(eps, delta):
    # eps below and above 1/2, non-integer delta (delta > 2 also moves the
    # series cutoff below 1/2, and large p + delta narrows the panels), a
    # variable exponent, limits up to 1e6
    grid = grid_1d(LIMITS.size)
    p = exponent_field(grid, np.linspace(1.8, 3.4, LIMITS.size))
    for alpha in (1.2, 1.75):
        fam = make_image_operator(p, eps, delta, alpha)
        got = fam.A_batch(LIMITS)
        for i, t in enumerate(LIMITS):
            ref = _quad_reference(p.values[i], eps, delta, alpha, float(t))
            assert got[i] == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_image_primitive_is_batch_independent():
    # one batch spanning every regime (0, the series, the low panels above
    # 1/2, the tail with 1 to 17 panels) against one-point batches and a
    # permuted, longer batch: no value may depend on its neighbours
    rng = np.random.default_rng(8)
    grid = grid_1d(48)
    p = exponent_field(grid, rng.uniform(1.6, 3.5, grid.npoints))
    for eps, delta in ((1.9, 0.7), (0.2, 2.5)):
        fam = make_image_operator(p, eps, delta, 1.5)
        t = np.concatenate([[0.0, 1e-9, 0.5, eps, 1e6],
                            10 ** rng.uniform(-3.0, 5.0, grid.npoints - 5)])
        batch = fam.A_batch(t)
        single = [fam.A_eval(i, float(t[i])) for i in range(grid.npoints)]
        assert np.array_equal(batch, single)
        perm = rng.permutation(grid.npoints)
        extra = rng.integers(0, grid.npoints, 20)
        mixed = fam.A_batch(np.append(t[perm], 10 ** rng.uniform(-3.0, 8.0, 20)),
                            points=np.append(perm, extra))
        assert np.array_equal(mixed[:grid.npoints], batch[perm])


def test_image_primitive_large_limits_stay_finite_and_small():
    # at |grad U| in the thousands and beyond the primitive stays finite and
    # exact, with a working set that grows only with ln t
    fam = image_op(grid_1d(8), p=2.0, eps=0.5, delta=1.0, alpha=1.5)
    for t in (1e3, 1e4, 1e6):
        tracemalloc.start()
        try:
            got = fam.A_batch(np.full(8, t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(got)) and np.all(got == got[0])
        assert got[0] == pytest.approx(_quad_reference(2.0, 0.5, 1.0, 1.5, t),
                                       rel=1e-13, abs=0.0)
        assert peak < 200_000
    with pytest.raises(ValueError):
        fam.A_batch(np.array([1.0, np.inf]), points=np.array([0, 1]))


def test_make_multiphase_validation(grid):
    p2 = exponent_field(grid, 2.0)
    with pytest.raises(ValueError):
        make_multiphase([], [])
    with pytest.raises(ValueError):
        make_multiphase([p2], [0.0])
    with pytest.raises(ValueError):
        make_multiphase([p2], [1.0], alpha=2.5)
    for consts in ({"d0": -1.0}, {"d0_tilde": -1.0}, {"d0": float("nan")},
                   {"d0_tilde": float("inf")}):
        with pytest.raises(ValueError):
            make_multiphase([p2], [1.0], **consts)
    fam = make_multiphase([p2], [1.0], alpha=2.0)
    assert not fam.strict_flag  # the ratio at r = p is flat
    assert make_multiphase([p2], [1.0]).r_order == pytest.approx(1.5)


def test_two_phase_profile_sum(grid):
    fam = two_phase(grid)
    assert fam.phi([2.0], points=[0])[0] == pytest.approx(2.0 + 4.0, rel=1e-14)
    assert not fam.homogeneous_flag
    assert fam.strict_flag


def test_make_image_operator_validation(grid):
    p = exponent_field(grid, 2.0)
    with pytest.raises(ValueError):
        make_image_operator(p, 0.5, 1.0, 2.5)  # alpha >= p-
    with pytest.raises(ValueError):
        make_image_operator(p, -1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        make_image_operator(p, 0.5, 0.0, 1.5)


def test_homogeneity_flags(grid):
    single = single_phase(grid, 2.0)
    rep = check_homogeneity(single, samples=150, seed=0)
    assert rep.is_A_homog and rep.is_Phi_homog and rep.agree

    both = two_phase(grid)
    rep2 = check_homogeneity(both, samples=150, seed=0)
    assert not rep2.is_A_homog and not rep2.is_Phi_homog and rep2.agree
    # direct witness: Phi(2*1) = 6 but 2^(p-1) Phi(1) = 8 for the family exponent
    phi2, phi1 = both.phi([2.0, 1.0], points=[0, 0])
    assert phi2 != pytest.approx(2.0 ** 2 * phi1)

    img = image_op(grid)
    rep3 = check_homogeneity(img, samples=150, seed=0)
    assert not rep3.is_A_homog and not rep3.is_Phi_homog and rep3.agree


def test_homogeneity_deterministic(grid):
    fam = two_phase(grid)
    a = check_homogeneity(fam, samples=64, seed=9)
    b = check_homogeneity(fam, samples=64, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        check_homogeneity(fam, samples=0)


def test_multiphase_stores_supplied_coercivity_constants(grid):
    p2 = exponent_field(grid, 2.0)
    fam = make_multiphase([p2], [1.0], alpha=1.5, d0=0.25, d0_tilde=3.0)
    assert fam.d0 == 0.25 and fam.d0_tilde == 3.0
    bare = make_multiphase([p2], [1.0], alpha=1.5)
    assert bare.d0 is None and bare.d0_tilde is None


def test_strict_ratio_ladder_margin(grid):
    rng = np.random.default_rng(3)
    for fam in (two_phase(grid, alpha=1.5), image_op(grid, alpha=1.5)):
        s = np.sort(np.exp(rng.uniform(np.log(1e-4), np.log(50.0), 32)))
        for i in (0, grid.npoints // 2):
            ratio = fam.phi(s, points=np.full(s.size, i)) / s ** (fam.r_order - 1.0)
            assert np.all(np.diff(ratio) > 0.0)


@pytest.mark.parametrize("p,eps,delta,alpha", [
    (2.0, 0.5, 1.0, 1.5), (3.0, 1.2, 0.7, 1.3), (2.2, 0.9, 2.0, 2.0)])
def test_growth_bound(grid, p, eps, delta, alpha):
    fam = image_op(grid, p=p, eps=eps, delta=delta, alpha=alpha)
    b = image_growth_constant(fam)["b"]
    s = np.exp(np.linspace(np.log(1e-6), np.log(1e4), 400))
    for i in (0, 7):
        phi = fam.phi(s, points=np.full(s.size, i))
        assert np.all(phi <= b * s ** (p - 1.0) * (1 + 1e-12))


def test_coercivity_constants_pointwise(grid):
    fam = image_op(grid, p=2.0, eps=0.5, delta=1.0, alpha=1.5)
    c1, c2 = image_coercivity_constants(fam, grid.volume)
    assert c1 > 0.0 and c2 > 0.0
    ts = np.linspace(0.0, 30.0, 200)
    for i in (0, 5):
        for t in ts:
            lower = c1 * t**1.5 - c1 * 0.5**1.5
            assert fam.A_eval(i, float(t)) >= lower - 1e-12


def test_growth_constant_requires_image(grid):
    with pytest.raises(ValueError):
        image_growth_constant(single_phase(grid, 2.0))
    with pytest.raises(ValueError):
        image_coercivity_constants(two_phase(grid), 1.0)
