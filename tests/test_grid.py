import math
import sys

import numpy as np
import pytest

import pxlab.grid
from pxlab import (AnalyticFieldSpec, JetField, alpha_root_jet,
                   build_grid, discrete_gradient, integrate, jet_linear,
                   sample_jet, sample_values)
from pxlab.grid import (_certified_row_sums, dct, dot_components, idct, scale_components,
                        stencil_adjoint, stencil_symbol)

from util import (POSITIVE_SPECS, ref_dct, ref_discrete_gradient, ref_dot_components,
                  ref_idct, ref_scale_components, ref_stencil_adjoint)


def test_build_grid_1d_midpoints():
    g = build_grid(1, 4, 1.0)
    assert np.allclose(g.quad_points.ravel(), [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(g.quad_weights, 0.25)


def test_build_grid_2d_weights_sum():
    g = build_grid(2, 3, 1.0)
    assert g.npoints == 9
    assert abs(g.quad_weights.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("dim,n,extent", [(1, 2, 1.0), (2, (3, 2), 1.0),
                                          (1, 4, 0.0), (1, 4, -1.0), (3, 4, 1.0)])
def test_build_grid_rejects(dim, n, extent):
    with pytest.raises(ValueError):
        build_grid(dim, n, extent)


@pytest.mark.parametrize("dim,n,extent", [(1, 17, 2.5), (2, (5, 9), (1.0, 3.0))])
def test_weights_positive_and_sum_to_volume(dim, n, extent):
    g = build_grid(dim, n, extent)
    assert g.quad_weights.min() > 0.0
    vol = float(np.prod(g.extent))
    assert abs(g.quad_weights.sum() - vol) <= 1e-12 * vol


def test_integrate_constants_and_affine():
    g = build_grid(1, 4, 1.0)
    assert integrate(np.ones(4), g) == 1.0
    # midpoint rule is exact on affine integrands
    assert integrate(g.quad_points[:, 0], g) == 0.5


def test_integrate_quadratic_error_bound():
    g = build_grid(1, 100, 1.0)
    err = abs(integrate(g.quad_points[:, 0] ** 2, g) - 1.0 / 3.0)
    assert err <= 1e-4


def test_integrate_linearity():
    g = build_grid(2, 6, 1.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.npoints)
    h = rng.standard_normal(g.npoints)
    a, b = 1.7, -0.3
    lhs = integrate(a * f + b * h, g)
    rhs = a * integrate(f, g) + b * integrate(h, g)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_integrate_length_mismatch():
    g = build_grid(1, 4, 1.0)
    with pytest.raises(ValueError):
        integrate(np.ones(5), g)
    with pytest.raises(ValueError):
        integrate(np.ones((3, 5)), g)
    with pytest.raises(ValueError):
        integrate(1.0, g)


def test_integrate_stacked_rows_match_one_row_calls():
    g = build_grid(2, 5, 1.0)
    rows = np.random.default_rng(1).standard_normal((2, 3, g.npoints))
    out = integrate(rows, g)
    assert out.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            one = integrate(rows[i, j], g)
            assert isinstance(one, float)
            assert out[i, j] == one  # the same exactly rounded sum


BIG = sys.float_info.max
TINY = 5e-324
INF, NAN = math.inf, math.nan
# rows whose correctly rounded sum is hard to certify, padded with -0.0 to
# the grid's points; every one must come out as math.fsum gives it
EDGE_ROWS = {
    "cancellation": [[1e16, 1.0, -1e16], [1e300, 1e-300, -1e300], [0.1, 0.2, -0.3],
                     [1.0, 1e-17, -1.0, 3e-33], [2.0 ** 60, -(2.0 ** 60), 2.0 ** -1000]],
    "near-ties": [[1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -160],
                  [1.0, 2.0 ** -53, -(2.0 ** -160)], [1.0 + 2.0 ** -52, 2.0 ** -53],
                  [2.0, -(2.0 ** -53)], [2.0, -(2.0 ** -54)], [2.0, -(2.0 ** -54), 2.0 ** -200],
                  [2.0, -(2.0 ** -54), -(2.0 ** -200)], [3.0, 2.0 ** -52, 2.0 ** -300]],
    "subnormals": [[TINY] * 5, [TINY, -2.0 * TINY, 2.5e-308, 2.5e-308],
                   [2.2e-308, 2.2e-308, -TINY], [1e-310, -3e-311, 7e-315]],
    "near-overflow": [[BIG, -BIG, BIG], [BIG / 2, BIG / 2], [BIG, 2.0 ** 969], [BIG, -(2.0 ** 970), 1.0],
                      [BIG / 3, BIG / 3, BIG / 3], [-BIG, -(2.0 ** 969), 2.0 ** 900]],
    "zeros": [[0.0], [-0.0], [0.0, -0.0], [1.0, -1.0], [BIG, -BIG], [TINY, -TINY]],
    "non-finite": [[INF, 1.0], [-INF], [NAN, 1.0], [INF, NAN], [INF, -INF], [BIG, BIG, -BIG],
                   [BIG, BIG], [BIG, 2.0 ** 970]],
}


def _fsum_outcome(row):
    """What math.fsum gives a row: ("value", bits) or ("raises", type, message)."""
    try:
        return ("value", math.fsum(row).hex())
    except (ValueError, OverflowError) as e:
        return ("raises", type(e), str(e))


def _integrate_outcome(rows, grid):
    try:
        return ("value", [v.hex() for v in integrate(np.array(rows), grid).tolist()])
    except (ValueError, OverflowError) as e:
        return ("raises", type(e), str(e))


def _unit_grid(npoints):
    # unit cells: the weighted values are the values themselves
    return build_grid(1, npoints, float(npoints))


@pytest.mark.parametrize("case", sorted(EDGE_ROWS))
def test_stacked_integrate_equals_fsum_on_adversarial_rows(case):
    g = _unit_grid(8)
    rows = [row + [-0.0] * (g.npoints - len(row)) for row in EDGE_ROWS[case]]
    if case == "zeros":
        rows.append([0.0] * g.npoints)
    for row in rows:  # one row at a time, so that each raising row is seen
        want = _fsum_outcome(row)
        if want[0] == "value":
            want = ("value", [want[1]])
        assert _integrate_outcome([row], g) == want, row
    # the whole set stacked, behind benign rows: the first raising row raises,
    # as a per-row fsum loop would
    benign = np.random.default_rng(3).standard_normal((5, g.npoints)).tolist()
    outcomes = [_fsum_outcome(row) for row in benign + rows]
    raised = [o for o in outcomes if o[0] == "raises"]
    want = raised[0] if raised else ("value", [o[1] for o in outcomes])
    assert _integrate_outcome(benign + rows, g) == want


@pytest.mark.parametrize("width", [1024, 1025, 4096])
def test_one_dimensional_integrate_equals_fsum_at_any_length(width):
    # up to FSUM_MAX_POINTS values go to math.fsum and longer ones to the
    # certified row sums: the same value, or the same exception, either way
    g = _unit_grid(width)
    rng = np.random.default_rng(width)
    rows = [rng.standard_normal(width).tolist(),
            (rng.standard_normal(width) * 10.0 ** rng.integers(-300, 300, width)).tolist()]
    rows += [row + [-0.0] * (width - len(row)) for case in EDGE_ROWS.values() for row in case]
    for row in rows:
        try:
            got = ("value", integrate(np.array(row), g).hex())
        except (ValueError, OverflowError) as e:
            got = ("raises", type(e), str(e))
        assert got == _fsum_outcome(row), row[:4]


def test_certified_row_sums_on_one_column_and_no_rows():
    rows = [row[:1] for rows in EDGE_ROWS.values() for row in rows]
    got = _certified_row_sums(np.array(rows))
    assert [v.hex() for v in got.tolist()] == [math.fsum(r).hex() for r in rows]
    g = _unit_grid(8)
    assert _certified_row_sums(np.empty((0, 8))).shape == (0,)
    assert integrate(np.empty((0, g.npoints)), g).shape == (0,)
    assert integrate(np.empty((2, 0, g.npoints)), g).shape == (2, 0)


@pytest.mark.parametrize("seed", range(4))
def test_certified_row_sums_match_fsum_on_random_rows(seed):
    # widths 1 to 300, every scale from subnormal to 1e300, mirrored rows
    # that cancel to a tiny remainder, and dyadic rows whose sums sit on ties
    rng = np.random.default_rng(seed)
    for trial in range(200):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 300)))
        kind = trial % 4
        x = rng.standard_normal(shape)
        if kind == 1:
            x *= 10.0 ** rng.integers(-320, 300, shape)
        elif kind == 2:
            x = np.concatenate([x, -x[:, ::-1], 1e-20 * x[:, :1]], axis=1)
        elif kind == 3:
            x = np.round(x * 64.0) / 64.0 + 2.0 ** -60 * rng.integers(-1, 2, shape)
        got = _certified_row_sums(x)
        assert [v.hex() for v in got.tolist()] == [math.fsum(r).hex() for r in x.tolist()]


def test_certified_row_sums_of_zero_rows_match_fsum_without_calling_it(monkeypatch):
    # rows of +0.0, of -0.0 and of both, widths 0 to 40: fsum's own value,
    # taken once per kind of row and not once per row
    rng = np.random.default_rng(6)
    fsum = math.fsum
    for n in range(41):
        x = np.where(rng.random((60, n)) < [[0.0], [1.0], [0.5]] * 20, -0.0, 0.0)
        calls = []
        monkeypatch.setattr(pxlab.grid.math, "fsum", lambda r: calls.append(1) or fsum(r))
        got = _certified_row_sums(x)
        monkeypatch.undo()
        assert [v.hex() for v in got.tolist()] == [fsum(r).hex() for r in x.tolist()]
        assert len(calls) <= 2


def test_stacked_integrate_certifies_most_rows(monkeypatch):
    # the vectorized path is the rule and math.fsum the exception
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(pxlab.grid.math, "fsum", lambda r: calls.append(1) or fsum(r))
    g = build_grid(2, 16, 1.0)
    rows = np.random.default_rng(0).standard_normal((2000, g.npoints))
    integrate(rows, g)
    assert len(calls) < 40


def test_sample_jet_constant_and_exp():
    g = build_grid(1, 8, 1.0)
    jc = sample_jet(AnalyticFieldSpec("constant", {"c": 2.0}), g)
    assert np.all(jc.values == 2.0) and np.all(jc.grads == 0.0)
    je = sample_jet(AnalyticFieldSpec("exp-linear", {"k": 1.0}), g)
    x = g.quad_points[:, 0]
    assert np.allclose(je.values, np.exp(x), rtol=1e-14)
    assert np.allclose(je.grads[:, 0], np.exp(x), rtol=1e-14)


def test_sample_jet_kinked_pair_members():
    g = build_grid(1, 64, 2.0)
    t = g.quad_points[:, 0] - 1.0
    w1 = sample_jet(AnalyticFieldSpec("ex51-pair", {"member": 1}), g)
    w2 = sample_jet(AnalyticFieldSpec("ex51-pair", {"member": 2}), g)
    assert np.allclose(w1.values, np.abs(t))
    assert np.allclose(w2.values, np.where(t >= 0, t, -2 * t))


def test_sample_jet_unknown_name():
    g = build_grid(1, 8, 1.0)
    with pytest.raises(ValueError):
        sample_jet(AnalyticFieldSpec("mystery", {}), g)


def test_sample_jet_kink_on_gridpoint_rejected():
    g = build_grid(1, 65, 2.0)  # odd cell count puts a midpoint at the kink
    with pytest.raises(ValueError):
        sample_jet(AnalyticFieldSpec("ex51-pair", {"member": 1}), g)


@pytest.mark.parametrize("spec", [
    AnalyticFieldSpec("exp-linear", {"k": 1.3}),
    AnalyticFieldSpec("quadratic-bump", {"base": 1.0, "amp": 2.0}),
    AnalyticFieldSpec("noisy-image", {"seed": 5}),
])
def test_jet_gradients_match_value_differences(spec):
    # central differences of the sampled values converge at second order
    errs = []
    for n in (64, 128):
        g = build_grid(1, n, 1.0)
        jet = sample_jet(spec, g)
        h = g.h[0]
        fd = (jet.values[2:] - jet.values[:-2]) / (2 * h)
        errs.append(np.max(np.abs(fd - jet.grads[1:-1, 0])))
    assert errs[1] <= errs[0] / 3.0


def test_discrete_gradient_constant_and_affine():
    g = build_grid(1, 16, 1.0)
    zero = discrete_gradient(np.ones(16), g)
    assert zero.shape == (16, 1) and np.all(zero == 0.0)
    aff = discrete_gradient(g.quad_points[:, 0].copy(), g)
    assert np.allclose(aff[1:-1, 0], 1.0, atol=1e-13)
    # reflected ghosts bias the boundary value toward 0
    assert np.allclose(aff[[0, -1], 0], 0.5, atol=1e-13)


def test_discrete_gradient_boundary_error_is_first_order():
    # L1 error against the analytic gradient of u(x) = x halves with h
    errs = []
    for n in (32, 64):
        g = build_grid(1, n, 1.0)
        grads = discrete_gradient(g.quad_points[:, 0].copy(), g)
        errs.append(integrate(np.abs(grads[:, 0] - 1.0), g))
    assert errs[0] == pytest.approx(1.0 / 32.0, rel=1e-12)
    assert errs[1] == pytest.approx(errs[0] / 2.0, rel=1e-12)


def test_discrete_gradient_2d_affine_interior_exact():
    g = build_grid(2, 8, 1.0)
    u = 0.3 * g.quad_points[:, 0] - 0.7 * g.quad_points[:, 1]
    grads = discrete_gradient(u.reshape(g.n), g)
    interior = np.ones(g.n, dtype=bool)
    for ax in range(2):
        sl = [slice(None)] * 2
        sl[ax] = [0, -1]
        interior[tuple(sl)] = False
    mask = interior.ravel()
    assert np.allclose(grads[mask, 0], 0.3, atol=1e-13)
    assert np.allclose(grads[mask, 1], -0.7, atol=1e-13)


def test_discrete_gradient_non_square_grid():
    g = build_grid(2, (5, 9), (1.0, 3.0))
    u = 0.4 * g.quad_points[:, 0] + 0.2 * g.quad_points[:, 1]
    grads = discrete_gradient(u.reshape(g.n), g)
    interior = np.ones(g.n, dtype=bool)
    interior[[0, -1], :] = False
    interior[:, [0, -1]] = False
    mask = interior.ravel()
    assert np.allclose(grads[mask, 0], 0.4, atol=1e-13)
    assert np.allclose(grads[mask, 1], 0.2, atol=1e-13)


def _columns(op, shape):
    """The dense matrix of a linear map on arrays of the given shape."""
    size = int(np.prod(shape))
    return np.column_stack([np.ravel(op(np.eye(size)[j].reshape(shape)))
                            for j in range(size)])


@pytest.mark.parametrize("dim,n,extent", [(1, 9, 1.0), (2, (7, 12), (1.0, 2.5))])
def test_dct_diagonalizes_the_stencil(dim, n, extent):
    g = build_grid(dim, n, extent)
    D = _columns(lambda e: discrete_gradient(e, g), g.n)
    C = _columns(idct, g.n)  # columns are the orthonormal DCT-II modes
    assert np.max(np.abs(C.T @ C - np.eye(g.npoints))) <= 1e-14
    assert np.max(np.abs(C.T - _columns(dct, g.n))) <= 1e-14
    DtD = D.T @ D
    assert np.max(np.abs(C @ np.diag(stencil_symbol(g).ravel()) @ C.T - DtD)) <= 1e-12
    # the constants are the only zero mode
    assert stencil_symbol(g).flat[0] == 0.0 and np.min(stencil_symbol(g).flat[1:]) > 0.0


@pytest.mark.parametrize("shape", [(3,), (9,), (7, 12), (16, 5), (64, 64)])
def test_dct_round_trip_and_reference(shape):
    fft = pytest.importorskip("scipy.fft")
    x = np.random.default_rng(4).standard_normal(shape)
    assert np.max(np.abs(idct(dct(x)) - x)) <= 1e-14
    assert np.max(np.abs(dct(idct(x)) - x)) <= 1e-14
    assert np.max(np.abs(dct(x) - fft.dctn(x, type=2, norm="ortho"))) <= 1e-14



def _signed_zero_data(rng, shape, scale):
    """Normal draws times scale, about 10% of them replaced by +0.0 or -0.0."""
    x = rng.standard_normal(shape) * scale
    zero = rng.random(shape) < 0.1
    x[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return x


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("dim,n,extent", [(1, 3, 2.5), (1, 47, 2.5), (2, (3, 5), (1.0, 2.5)),
                                          (2, (5, 3), (1.0, 2.5)), (2, (17, 40), (1.0, 2.5)),
                                          (2, (64, 24), (1.0, 2.5))])
@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
def test_kernels_match_the_moveaxis_reference_bit_for_bit(dim, n, extent, scale):
    g = build_grid(dim, n, extent)
    rng = np.random.default_rng(17)
    u = _signed_zero_data(rng, g.n, scale)
    flux = _signed_zero_data(rng, (g.npoints, dim), scale)
    pairs = [(discrete_gradient(u, g), ref_discrete_gradient(u, g)),
             (discrete_gradient(u.ravel(), g), ref_discrete_gradient(u.ravel(), g)),
             (stencil_adjoint(flux, g), ref_stencil_adjoint(flux, g))]
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 overflows
        pairs += [(dct(u), ref_dct(u)), (idct(u), ref_idct(u))]
    for new, ref in pairs:
        assert new.shape == ref.shape
        assert np.array_equal(_bits(new), _bits(ref))


def _component_data(rng, shape):
    """Normal draws at magnitudes 1e-150, 1 and 1e150, about 10% of them
    replaced by signed zeros and 10% by subnormals."""
    x = rng.standard_normal(shape) * rng.choice([1e-150, 1.0, 1e150], size=shape)
    kind = rng.random(shape)
    zero = kind < 0.1
    x[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    sub = (kind >= 0.1) & (kind < 0.2)
    x[sub] = rng.integers(-2**40, 2**40, size=int(sub.sum())) * 5e-324
    return x


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rows", [(), (1,), (7,), (3, 5)])
def test_component_kernels_match_the_whole_array_forms_bit_for_bit(dim, rows):
    rng = np.random.default_rng(23 + dim)
    a = _component_data(rng, (*rows, 40, dim))
    b = _component_data(rng, (*rows, 40, dim))
    a[..., :3, :] = -0.0  # products of -0.0 alone, and -0.0 against +0.0
    b[..., :2, :] = 1.0
    s = _component_data(rng, (*rows, 40))
    one = a.reshape(-1, 40, dim)[0]  # one row, broadcast against the stack
    with np.errstate(all="ignore"):  # 1e150 squared overflows, 0 / 0
        pairs = [(dot_components(a, b), ref_dot_components(a, b)),
                 (dot_components(one, b), ref_dot_components(one, b)),
                 (scale_components(a, s), ref_scale_components(a, s)),
                 (scale_components(one, s), ref_scale_components(one, s)),
                 (scale_components(a, s, np.divide), ref_scale_components(a, s, np.divide))]
    for new, ref in pairs:
        assert new.shape == ref.shape
        assert np.array_equal(_bits(new), _bits(ref))


@pytest.mark.parametrize("dim", [1, 2])
def test_sample_values_are_the_jet_values_bit_for_bit(dim):
    g = build_grid(dim, 13, 1.7)
    for spec in POSITIVE_SPECS + [AnalyticFieldSpec("noisy-image", {"seed": 3, "modes": 9})]:
        assert np.array_equal(_bits(sample_values(spec, g)), _bits(sample_jet(spec, g).values))
    with pytest.raises(ValueError):
        sample_values(AnalyticFieldSpec("nope"), g)


def test_jetfield_validation():
    with pytest.raises(ValueError):
        JetField(np.ones(4), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        JetField(np.array([1.0, np.inf]), np.zeros((2, 1)))


def test_jet_linear_and_alpha_root():
    g = build_grid(1, 8, 1.0)
    w = sample_jet(AnalyticFieldSpec("exp-linear", {"k": 2.0}), g)
    v = sample_jet(AnalyticFieldSpec("constant", {"c": 1.0}), g)
    s = jet_linear(0.5, w, 0.5, v)
    assert np.allclose(s.values, 0.5 * w.values + 0.5)
    root = alpha_root_jet(w, 2.0)
    x = g.quad_points[:, 0]
    assert np.allclose(root.values, np.exp(x), rtol=1e-14)
    assert np.allclose(root.grads[:, 0], np.exp(x), rtol=1e-14)
    with pytest.raises(ValueError):
        alpha_root_jet(jet_linear(1.0, w, -10.0, v), 2.0)
