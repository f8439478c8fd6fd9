import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate

import pxlab.grid
import pxlab.operators
from pxlab import (ExponentField, check_homogeneity, exponent_field,
                   image_coercivity_constants, image_growth_constant,
                   make_image_operator, make_multiphase)
from pxlab.operators import (_GL_NODES, _GL_WEIGHTS, PANEL_BUDGET, ImageFamily, _gl_panels,
                             _log_panels)

from util import (grid_1d, image_op, ref_gl_panels, ref_image_dphi, ref_image_phi,
                  ref_series_sum, single_phase, two_phase)


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


def _A_at(fam, point, t):
    """A(x_point, t) by a one-point batch."""
    return float(fam.A_batch([t], points=[point])[0])


def test_A_batch_one_point_examples(grid):
    fam2 = single_phase(grid, 2.0)
    assert _A_at(fam2, 0, 0.0) == 0.0
    assert _A_at(fam2, 0, 2.0) == pytest.approx(2.0, rel=1e-14)
    both = two_phase(grid)
    assert _A_at(both, 0, 1.0) == pytest.approx(1.0 / 2.0 + 1.0 / 3.0, rel=1e-14)
    with pytest.raises(ValueError):
        _A_at(fam2, 0, -1.0)


def test_A_batch_one_point_nondecreasing(grid):
    rng = np.random.default_rng(2)
    for fam in (two_phase(grid), image_op(grid)):
        ts = np.sort(rng.uniform(0.0, 20.0, 24))
        vals = [_A_at(fam, 3, float(t)) for t in ts]
        assert np.all(np.diff(vals) >= 0.0)
        assert _A_at(fam, 3, 0.0) == 0.0


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
        assert _A_at(fam, 0, t) == pytest.approx(ref, abs=2e-10)


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


def test_image_primitive_integrates_each_distinct_pair_once(grid, monkeypatch):
    # A_batch integrates the first pair of each run of equal (t, p) in t
    # order and scatters the results; every integral depends only on its own
    # limit and exponent, so the result equals integrating every point on
    # its own, bit for bit.  A constant exponent, here with repeated and
    # zero limits, integrates each distinct t exactly once: the panels above
    # eps see every integrated limit.
    seen = []

    def recorded(lo, hi, t, qs, u, delta):
        if hi == math.inf:
            seen.append(t.copy())
        return _log_panels(lo, hi, t, qs, u, delta)

    monkeypatch.setattr(pxlab.operators, "_log_panels", recorded)
    rng = np.random.default_rng(5)
    for case in range(30):
        if case % 2:
            p = exponent_field(grid, rng.choice([1.7, 2.0, 2.6], grid.npoints))
        else:
            p = exponent_field(grid, float(rng.uniform(1.6, 3.0)))
        fam = make_image_operator(p, float(rng.uniform(0.1, 1.0)),
                                  float(rng.uniform(0.5, 2.0)), 1.5)
        t = rng.choice(np.append(rng.uniform(0.0, 5.0, 4), 0.0), grid.npoints)
        seen.clear()
        got = fam.A_batch(t)
        if case % 2 == 0:
            assert np.array_equal(np.sort(np.concatenate(seen)), np.unique(t))
        single = [_A_at(fam, i, float(t[i])) for i in range(grid.npoints)]
        assert np.array_equal(got, single)


def test_image_primitive_takes_a_point_index_at_its_own_shape(grid):
    # the index broadcasts against the limits, (rows, 1) against (1, k) and
    # (k,) against (rows, k), with equal limits under different exponents;
    # each value is the one-point value, bit for bit
    p = exponent_field(grid, np.resize([1.7, 2.0, 2.6, 2.0], grid.npoints))
    fam = make_image_operator(p, 0.9, 1.3, 1.5)
    t = np.array([0.0, 0.2, 0.7, 0.7, 3.0])
    cases = [(t[None, :], np.arange(grid.npoints)[:, None]),
             (np.array([np.full(5, 0.7), [0.2, 0.7, 0.2, 3.0, 0.0]]), np.array([0, 1, 2, 3, 1]))]
    for limits, points in cases:
        got = fam.A_batch(limits, points)
        lims, pts = np.broadcast_arrays(limits, points)
        assert got.shape == lims.shape
        single = [_A_at(fam, int(i), float(v)) for i, v in zip(pts.ravel(), lims.ravel())]
        assert np.array_equal(got.ravel(), single)


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


def _mp_integrals(q, delta, start, ends):
    """Integrals of e^(q v) ln^delta(1 + e^v) over [start, e] for each of the
    sorted ends, by mpmath.quad at the working precision: each gap between
    neighbouring ends is one more piece, by tanh-sinh from -inf and by
    Gauss-Legendre on the finite (smooth, mostly short) pieces."""
    def f(v):
        return mpmath.exp(q * v) * mpmath.log1p(mpmath.exp(v)) ** delta
    out, total, prev = [], mpmath.mpf(0), start
    for e in ends:
        if e > prev:
            method = "tanh-sinh" if prev == -mpmath.inf else "gauss-legendre"
            total += mpmath.quad(f, [prev, e], method=method)
            prev = e
        out.append(total)
    return out


def _mp_primitive(exps, eps, delta, alpha, limits):
    """A(t_i) of the image profile at exponent exps[i], to 30 digits, by
    mpmath.quad in v = ln s: the low branch up to ln min(t, eps) per exponent
    and the tail from ln eps to ln t, each accumulated over sorted limits."""
    with mpmath.workdps(30):
        eps_m, delta_m, alpha_m = mpmath.mpf(eps), mpmath.mpf(delta), mpmath.mpf(alpha)
        v = [mpmath.log(mpmath.mpf(t)) for t in limits]
        cut = mpmath.log(eps_m)
        order = np.argsort(limits, kind="stable")
        tail = dict(zip(order, _mp_integrals(alpha_m, delta_m, cut,
                                             [max(v[i], cut) for i in order])))
        ref = {}
        for p in set(exps):
            rows = [i for i in order if exps[i] == p]
            low = _mp_integrals(mpmath.mpf(p), delta_m, -mpmath.inf,
                                [min(v[i], cut) for i in rows])
            for i, lo in zip(rows, low):
                ref[i] = lo + eps_m ** (mpmath.mpf(p) - alpha_m) * tail[i]
        return [ref[i] for i in range(len(limits))]


def _ulps(got, ref):
    """|got - ref| / |ref| in units of 2^-53, per value."""
    with mpmath.workdps(30):
        return np.array([float(abs(mpmath.mpf(float(g)) - r) / abs(r)) * 2.0 ** 53
                         for g, r in zip(got, ref)])


# the largest error of A_batch against _mp_primitive over the 384 limits of
# test_image_primitive_matches_mpmath, in units of 2^-53 relative, as the
# termwise series with per-row panels read it (34.84, median 3.98); Horner's
# rule with tau^p tau^delta and the tiled panel table read 16.51 (median 1.93)
MPMATH_MAX_ULPS = 34.9


def test_image_primitive_matches_mpmath():
    # eps below and above 1/2 (and above tau0, so that the low branch has
    # panels), every delta regime, a variable exponent, and limits from 1e-4
    # to 1e6: the error may not exceed the one measured before the series
    # was summed by Horner's rule and the panels came from a table
    limits = np.logspace(-4.0, 6.0, 64)
    exps = np.resize([1.7, 2.05, 2.6, 3.4], limits.size)
    grid = grid_1d(limits.size)
    errors = []
    for eps, delta, alpha in ((0.05, 0.5, 1.5), (1.9, 0.7, 1.25), (0.5, 1.0, 1.5),
                              (0.3, 1.37, 1.25), (2.2, 1.37, 1.5), (3.0, 2.5, 1.25)):
        fam = make_image_operator(exponent_field(grid, exps), eps, delta, alpha)
        ref = _mp_primitive(exps.tolist(), eps, delta, alpha, limits.tolist())
        errors.append(_ulps(fam.A_batch(limits), ref))
    errors = np.concatenate(errors)
    assert errors.size == 384
    assert errors.max() <= MPMATH_MAX_ULPS, (errors.max(), np.median(errors))


def test_image_primitive_at_the_panel_table_edges():
    # limits at the panel edges lo e^(j H) of the low branch (lo = tau0) and
    # of the tail (lo = eps), at their float neighbours, at lo itself and at
    # 1e300 (alpha near 1 keeps A finite there): each agrees with mpmath, and
    # each stays bit for bit the same when a far limit in the same batch
    # lengthens the tail's table.  ln t and the nodes in v = ln s carry
    # rounding of |ln t| 2^-53, which e^(q v) makes q |ln t| ulps relative
    # (216 of them at 1e300 from ln t alone), so that much is allowed on top.
    eps, delta, alpha = 3.0, 0.5, 1.01
    tau0 = 0.5
    limits, exps = [], []
    for p, lo, width in ((1.05, tau0, 1.0), (9.5, tau0, 8.0 / 10.0),
                         (1.05, eps, 1.0), (9.5, eps, 1.0)):
        for j in range(3 if lo == eps else 2):
            edge = lo * math.exp(j * width)
            for t in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                limits.append(t)
                exps.append(p)
    limits.append(1e300)
    exps.append(1.05)
    grid = grid_1d(len(limits))
    fam = make_image_operator(exponent_field(grid, np.array(exps)), eps, delta, alpha)
    got = fam.A_batch(np.array(limits))
    ref = _mp_primitive(exps, eps, delta, alpha, limits)
    q = np.where(np.array(limits) > eps, alpha, exps)
    assert np.all(_ulps(got, ref) <= MPMATH_MAX_ULPS + q * np.abs(np.log(limits)))
    near = fam.A_batch(np.array(limits[:-1]), points=np.arange(len(limits) - 1))
    assert np.array_equal(near, got[:-1])
    single = [_A_at(fam, i, t) for i, t in enumerate(limits)]
    assert np.array_equal(got, single)


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
        single = [_A_at(fam, i, float(t[i])) for i in range(grid.npoints)]
        assert np.array_equal(batch, single)
        perm = rng.permutation(grid.npoints)
        extra = rng.integers(0, grid.npoints, 20)
        mixed = fam.A_batch(np.append(t[perm], 10 ** rng.uniform(-3.0, 8.0, 20)),
                            points=np.append(perm, extra))
        assert np.array_equal(mixed[:grid.npoints], batch[perm])


def test_stacked_rows_gather_per_point_parameters_bit_for_bit(grid):
    # (rows, k) magnitudes on a (k,) row of points, on a (rows, 1) column
    # of points, and (rows, npoints) without points: the parameters are
    # gathered at the index's shape and broadcast, and every value must be
    # the one its element gives alone
    rng = np.random.default_rng(8)
    n = grid.npoints
    families = [
        make_multiphase([exponent_field(grid, rng.uniform(1.6, 2.4, n)),
                         exponent_field(grid, rng.uniform(2.5, 3.5, n))],
                        [rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)], alpha=1.5),
        make_image_operator(exponent_field(grid, rng.uniform(1.6, 2.6, n)), 0.5, 1.0, 1.5),
    ]
    s = np.exp(rng.uniform(-6.0, 4.0, size=(4, 7)))
    s[0, 0] = 0.5  # the image threshold eps
    row = np.array([5, 0, 11, 3, 3, 7, 1])
    cases = [(s, row), (s, row[:4, None]), (np.exp(rng.uniform(-6.0, 4.0, size=(3, n))), None)]
    for fam in families:
        for name in ("phi", "psi", "phi_prime", "A_batch"):
            method = getattr(fam, name)
            for vals, points in cases:
                idx = np.broadcast_to(np.arange(n) if points is None else points, vals.shape)
                alone = [method(vals[k][None], idx[k][None])[0] for k in np.ndindex(vals.shape)]
                got = method(vals, points)
                assert got.shape == vals.shape
                assert got.tobytes() == np.array(alone).tobytes(), (type(fam).__name__, name)


def test_image_primitive_sums_the_clamped_series_once_per_exponent(monkeypatch):
    # every limit at or above the cap min(eps, tau0) integrates the series
    # over the same [0, cap], so the series runs once per distinct exponent
    rows = []
    inner = ImageFamily._series_sum

    def counted(self, tau, p):
        rows.append(tau.size)
        return inner(self, tau, p)

    monkeypatch.setattr(ImageFamily, "_series_sum", counted)
    grid = grid_1d(4096)
    t = np.linspace(0.5, 40.0, grid.npoints)
    for exps, expected in ((2.0, 1), (np.resize([1.7, 2.0, 2.6], grid.npoints), 3)):
        rows.clear()
        fam = make_image_operator(exponent_field(grid, exps), 0.5, 1.0, 1.5)
        fam.A_batch(t)
        assert sum(rows) == expected


# float.hex of A_batch at the limits below (one row of 8 per exponent 1.8, 2.0,
# 3.4) from the series by Horner's rule and the panel table: a refactor of
# the primitive may not move a bit
GOLDEN_BITS = {
    (0.5, 1.0): """
        0x0.0p+0 0x1.be55ec1c5bdcdp-86 0x1.666272de60b92p-5 0x1.666272de60b94p-5
        0x1.666272de60b98p-5 0x1.666272de60b94p-5 0x1.2730056988916p+0 0x1.a8646efc255dfp+32
        0x0.0p+0 0x1.a68cd9e6dc70dp-92 0x1.2269439c1371ap-5 0x1.2269439c1371cp-5
        0x1.2269439c1371fp-5 0x1.2269439c1371cp-5 0x1.004d2346747a8p+0 0x1.7174790a4256bp+32
        0x0.0p+0 0x1.3e472f32d4353p-134 0x1.283c5a4bc5fc2p-7 0x1.283c5a4bc5fc5p-7
        0x1.283c5a4bc5fcap-7 0x1.283c5a4bc5fc5p-7 0x1.7ffb5b899d09bp-2 0x1.17fe9841e104fp+31
    """.split(),
    (1.9, 0.7): """
        0x0.0p+0 0x1.e956b9624d176p-77 0x1.03f04277db61cp-4 0x1.03f04277db61dp-4
        0x1.03f04277db61fp-4 0x1.74a56a23a7386p+0 0x1.a26fe10ada892p+0 0x1.245b521a3d46ep+32
        0x0.0p+0 0x1.cb95c23eebe72p-83 0x1.a2217e301e55dp-5 0x1.a2217e301e55fp-5
        0x1.a2217e301e563p-5 0x1.860d126660c8dp+0 0x1.ba1d3704d9546p+0 0x1.4c66f2412278dp+32
        0x0.0p+0 0x1.4e5a6f7906fe0p-125 0x1.9d06998d3ed41p-7 0x1.9d06998d3ed43p-7
        0x1.9d06998d3ed49p-7 0x1.332f3bc384c9cp+1 0x1.731f32d55b6d5p+1 0x1.98370375aa5cbp+33
    """.split(),
    (0.2, 2.5): """
        0x0.0p+0 0x1.435ef3973541dp-131 0x1.8e73523d47e98p-13 0x1.8e73523d47e9dp-13
        0x1.8e73523d47e9dp-13 0x1.8e73523d47e9dp-13 0x1.67a01f852bf51p-1 0x1.e2a299b93c819p+37
        0x0.0p+0 0x1.396d6536f5a69p-137 0x1.138523a58ee08p-13 0x1.138523a58ee09p-13
        0x1.138523a58ee09p-13 0x1.138523a58ee09p-13 0x1.04a55ff97be54p-1 0x1.5dcddc9ddb651p+37
        0x0.0p+0 0x1.0817da4964600p-179 0x1.5e49414e56e8ep-17 0x1.5e49414e56e93p-17
        0x1.5e49414e56e93p-17 0x1.5e49414e56e93p-17 0x1.b61cd1eb6086cp-5 0x1.2601aa22d0a2fp+34
    """.split(),
}


@pytest.mark.parametrize("eps,delta", sorted(GOLDEN_BITS))
def test_image_primitive_golden_bits(eps, delta):
    cap = min(eps, 0.5, 1.0 / delta)
    limits = [0.0, 1e-9, math.nextafter(cap, 0.0), cap, math.nextafter(cap, math.inf),
              eps, 2.0, 1e6]
    exps = np.repeat([1.8, 2.0, 3.4], len(limits))
    fam = make_image_operator(exponent_field(grid_1d(exps.size), exps), eps, delta, 1.5)
    got = fam.A_batch(np.tile(limits, 3))
    assert [v.hex() for v in got] == GOLDEN_BITS[(eps, delta)]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


SERIES_EXPONENTS = {
    "constant": lambda n: np.full(n, 2.3),
    "ramp": lambda n: np.linspace(1.6, 3.4, n),
    "per-point": lambda n: np.resize([1.7, 2.05, 2.6, 3.4], n),
}


@pytest.mark.parametrize("kind", sorted(SERIES_EXPONENTS))
@pytest.mark.parametrize("delta", [0.5, 1.0, 2.5, 25.0])
def test_series_sum_matches_the_per_row_division_bit_for_bit(kind, delta):
    # limits at 0, subnormal, tiny, spread and just below tau0, past one
    # block of rows (3276 rows of 10 lanes)
    n = 3400
    fam = make_image_operator(exponent_field(grid_1d(n), SERIES_EXPONENTS[kind](n)),
                              0.5, delta, 1.5)
    tau0 = fam._tau0
    edge = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-9,
            math.nextafter(tau0, 0.0), tau0 * (1.0 - 2.0 ** -40)]
    tau = np.concatenate([edge, np.random.default_rng(3).uniform(0.0, tau0, n - len(edge))])
    p = fam.p.values
    assert np.array_equal(_bits(fam._series_sum(tau, p)), _bits(ref_series_sum(fam, tau, p)))


@pytest.mark.parametrize("kind", sorted(SERIES_EXPONENTS))
@pytest.mark.parametrize("eps", [0.05, 0.5, 1.9])
def test_image_profile_matches_a_pow_per_evaluation_bit_for_bit(kind, eps):
    # s at and around eps, where Phi changes branch, and far on either side;
    # flat and stacked (rows, points) batches
    n = 16
    fam = make_image_operator(exponent_field(grid_1d(n), SERIES_EXPONENTS[kind](n)),
                              eps, 1.37, 1.5)
    s = np.array([0.0, 1e-300, 1e-6, eps * 0.5, math.nextafter(eps, 0.0), eps,
                  math.nextafter(eps, math.inf), eps * 2.0, 3.0, 1e3, 1e6, 1e12, 0.7, 0.1,
                  eps * (1.0 + 2.0 ** -30), 42.0])
    idx = np.arange(n)
    stacked = np.stack([s, s[::-1] + 1e-3])
    for got, want in ((fam.phi(s), ref_image_phi(fam, s, idx)),
                      (fam.phi(stacked), ref_image_phi(fam, stacked, idx)),
                      (fam.phi_prime(s[1:], idx[1:]), ref_image_dphi(fam, s[1:], idx[1:])),
                      (fam.phi_prime(stacked + 1e-9), ref_image_dphi(fam, stacked + 1e-9, idx))):
        assert np.array_equal(_bits(got), _bits(want))


def test_log_panels_with_no_limit_above_lo_are_positive_zeros():
    lo = 0.3
    for t in (np.array([0.0, 1e-300, 0.1, math.nextafter(lo, 0.0), lo]),
              np.full((2, 3), lo), np.empty(0)):
        got = _log_panels(lo, 2.0, t, np.array([1.5, 2.5]), 0, 1.0)
        assert got.shape == t.shape
        assert np.array_equal(_bits(got), np.zeros(t.shape, dtype=np.uint64))


def test_gl_rule_is_the_bits_of_leggauss():
    x, w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(_bits(_GL_NODES), _bits(0.5 * (x + 1.0)))
    assert np.array_equal(_bits(_GL_WEIGHTS), _bits(0.5 * w))


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, "random"])
@pytest.mark.parametrize("size", [1, 2729, 2730, 2731, 9000])  # blocks of 2730 panels
def test_gl_panels_match_the_reduceat_reference_bit_for_bit(delta, size):
    rng = np.random.default_rng(size)
    if delta == "random":
        delta = rng.uniform(0.3, 3.0)
    start = rng.uniform(-40.0, 40.0, size)
    width = rng.uniform(0.0, 1.0, size)
    width[rng.random(size) < 0.05] = 0.0
    q = rng.choice([1.2, 1.5, 2.0, 3.4], size) + rng.uniform(0.0, 1e-3, size)
    got, want = _gl_panels(start, width, q, delta), ref_gl_panels(start, width, q, delta)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def test_image_primitive_does_not_depend_on_the_block_size(monkeypatch):
    # limits below the cap, on [tau0, eps] (eps > tau0 here), above eps and
    # far out, so that the series and both panel pieces run in blocks
    rng = np.random.default_rng(4)
    grid = grid_1d(300)
    p = exponent_field(grid, rng.uniform(1.6, 3.5, grid.npoints))
    t = np.concatenate([[0.0, 1e-9, 0.5, 1.9], 10 ** rng.uniform(-4.0, 7.0, grid.npoints - 4)])
    fam = make_image_operator(p, 1.9, 0.7, 1.5)
    whole = fam.A_batch(t)
    for block in (1, 7, 12 * 40 + 5, 2 ** 40):
        monkeypatch.setattr(pxlab.grid, "BLOCK_ELEMENTS", block)
        assert np.array_equal(fam.A_batch(t), whole), block


def test_image_primitive_memory_on_many_limits_below_the_cap():
    # every limit has its own series row: (limits, 60) terms in blocks (the
    # whole arrays peaked near 62.6 MB)
    grid = grid_1d(65536)
    fam = image_op(grid, p=2.0, eps=0.5, delta=1.0, alpha=1.5)
    t = np.linspace(0.0, 0.49, grid.npoints)
    tracemalloc.start()
    try:
        fam.A_batch(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def test_image_primitive_memory_on_many_distinct_limits():
    # 262 144 distinct limits, one per point, most of them above eps: the
    # sort, the pairs and the panels hold a few point-length arrays at a time
    # (about 34 MB when every temporary of the dedup and panels stayed alive)
    grid = grid_1d(2 ** 18)
    fam = image_op(grid, p=2.0, eps=0.5, delta=1.0, alpha=1.5)
    t = np.linspace(0.0, 5.0, grid.npoints)
    tracemalloc.start()
    try:
        fam.A_batch(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, peak


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_multiphase_rejects_non_finite_weights(grid, bad):
    w = np.ones(grid.npoints)
    w[3] = bad
    with pytest.raises(ValueError):
        make_multiphase([exponent_field(grid, 2.0)], [w])
    with pytest.raises(ValueError):
        make_multiphase([exponent_field(grid, 2.0)], [bad])


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


@pytest.mark.parametrize("eps, delta", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan),
                                        (0.5, math.inf)])
def test_make_image_operator_rejects_non_finite_parameters(grid, eps, delta):
    with pytest.raises(ValueError):
        make_image_operator(exponent_field(grid, 2.0), eps, delta, 1.5)


def test_make_image_operator_bounds_the_panel_table(grid):
    # above eps, one table of up to (ln DBL_MAX - ln eps)(alpha + delta)/8 panels
    edge = 8.0 * PANEL_BUDGET / (math.log(sys.float_info.max) - math.log(0.5)) - 1.5
    p = exponent_field(grid, 2.0)
    make_image_operator(p, 0.5, edge * (1.0 - 1e-9), 1.5)
    for delta in (edge * (1.0 + 1e-9), 1e300):
        with pytest.raises(ValueError, match="panels"):
            make_image_operator(p, 0.5, delta, 1.5)
    # the low branch's tables over [tau0, eps] grow with p + delta
    with pytest.raises(ValueError, match="panels"):
        make_image_operator(exponent_field(grid, 1e300), 2.0, 1.0, 1.5)


def test_homogeneity_flags(grid):
    single = single_phase(grid, 2.0)
    rep = check_homogeneity(single, seed=0)
    assert rep["is_A_homog"] and rep["is_Phi_homog"] and rep["agree"]

    both = two_phase(grid)
    rep2 = check_homogeneity(both, seed=0)
    assert not rep2["is_A_homog"] and not rep2["is_Phi_homog"] and rep2["agree"]
    # direct witness: Phi(2*1) = 6 but 2^(p-1) Phi(1) = 8 for the family exponent
    phi2, phi1 = both.phi([2.0, 1.0], points=[0, 0])
    assert phi2 != pytest.approx(2.0 ** 2 * phi1)

    img = image_op(grid)
    rep3 = check_homogeneity(img, seed=0)
    assert not rep3["is_A_homog"] and not rep3["is_Phi_homog"] and rep3["agree"]


def test_homogeneity_deterministic(grid):
    fam = two_phase(grid)
    a = check_homogeneity(fam, seed=9)
    assert a == check_homogeneity(fam, seed=9)
    assert (a["samples"], a["seed"]) == (200, 9)


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
            assert _A_at(fam, i, float(t)) >= lower - 1e-12


def test_growth_constant_requires_image(grid):
    with pytest.raises(ValueError):
        image_growth_constant(single_phase(grid, 2.0))
    with pytest.raises(ValueError):
        image_coercivity_constants(two_phase(grid), 1.0)
