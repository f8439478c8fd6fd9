"""Shared builders for the test suite."""

import numpy as np

from pxlab import (AnalyticFieldSpec, build_grid, exponent_field,
                   make_fidelity_source, make_image_operator, make_multiphase,
                   make_power_source, make_zero_source, sample_jet)
from pxlab.grid import row_blocks
from pxlab.operators import _GL_NODES, _GL_WEIGHTS


def single_phase(grid, p=2.0, alpha=None):
    pf = exponent_field(grid, p)
    return make_multiphase([pf], [1.0], alpha=alpha)


def two_phase(grid, p1=2.0, p2=3.0, alpha=1.5):
    return make_multiphase(
        [exponent_field(grid, p1), exponent_field(grid, p2)], [1.0, 1.0], alpha=alpha)


def image_op(grid, p=2.0, eps=0.5, delta=1.0, alpha=1.5):
    return make_image_operator(exponent_field(grid, p), eps, delta, alpha)


def power_src(npoints, r1=1.0, q1=1.0, r2=0.0, q2=1.0, alpha=1.5):
    return make_power_source(r1, r2, q1, q2, npoints=npoints, alpha=alpha)


def fidelity_src(npoints, g=0.5, mu=1.0, alpha=1.5):
    g_arr = np.full(npoints, g) if np.isscalar(g) else np.asarray(g)
    return make_fidelity_source(g_arr, mu, alpha)


def zero_src(npoints, alpha=1.5):
    return make_zero_source(npoints, alpha=alpha)


POSITIVE_SPECS = [
    AnalyticFieldSpec("constant", {"c": 1.3}),
    AnalyticFieldSpec("quadratic-bump", {"base": 0.8, "amp": 1.2}),
    AnalyticFieldSpec("exp-linear", {"k": 0.9}),
    AnalyticFieldSpec("noisy-image", {"seed": 11, "base": 1.2, "amp": 0.6}),
    AnalyticFieldSpec("affine", {"a0": 0.7, "a1": 0.9}),
]


def random_positive_jet(rng, grid):
    """A random strictly positive catalog jet on the grid."""
    kind = rng.integers(0, 4)
    if kind == 0:
        spec = AnalyticFieldSpec("constant", {"c": rng.uniform(0.5, 2.0)})
    elif kind == 1:
        spec = AnalyticFieldSpec("quadratic-bump", {
            "base": rng.uniform(0.4, 1.0), "amp": rng.uniform(0.2, 1.5)})
    elif kind == 2:
        k = rng.uniform(-1.2, 1.2, size=grid.dim)
        spec = AnalyticFieldSpec("exp-linear", {"k": k, "scale": rng.uniform(0.5, 1.5)})
    else:
        spec = AnalyticFieldSpec("noisy-image", {
            "seed": int(rng.integers(0, 2**31)),
            "base": rng.uniform(0.9, 1.5), "amp": rng.uniform(0.2, 0.7)})
    return sample_jet(spec, grid)


def grid_1d(n=64, extent=1.0):
    return build_grid(1, n, extent)


def grid_2d(n=8, extent=1.0):
    return build_grid(2, n, extent)


# Reference formulations of the stencil pair and the DCT pair: each axis is
# moved to the front (stencil) or to the back (DCT) with np.moveaxis and
# worked on there.  The package's kernels must return the same bits.

def ref_discrete_gradient(u, grid):
    vals = np.asarray(u, dtype=float).reshape(grid.n)
    grads = np.empty((grid.npoints, grid.dim))
    for axis, h in enumerate(grid.h):
        v = np.moveaxis(vals, axis, 0)
        g = np.empty_like(v)
        g[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        g[0] = (v[1] - v[0]) / (2.0 * h)
        g[-1] = (v[-1] - v[-2]) / (2.0 * h)
        grads[:, axis] = np.moveaxis(g, 0, axis).ravel()
    return grads


def ref_stencil_adjoint(flux, grid):
    out = np.zeros(grid.n)
    for axis, h in enumerate(grid.h):
        v = np.moveaxis(flux[:, axis].reshape(grid.n), axis, 0)
        r = np.zeros_like(v)
        w = 1.0 / (2.0 * h)
        r[2:] += v[1:-1] * w
        r[:-2] -= v[1:-1] * w
        r[1] += v[0] * w
        r[0] -= v[0] * w
        r[-1] += v[-1] * w
        r[-2] -= v[-1] * w
        out += np.moveaxis(r, 0, axis)
    return out.ravel()


def _ref_twiddle(n):
    w = np.sqrt(2.0 / n) * np.exp(-0.5j * np.pi * np.arange(n) / n)
    w[0] /= np.sqrt(2.0)
    return w


def ref_dct(x):
    for axis in range(x.ndim):
        v = np.moveaxis(x, axis, -1)
        n = v.shape[-1]
        spec = np.fft.rfft(np.concatenate([v, v[..., ::-1]], axis=-1))[..., :n]
        x = np.moveaxis(0.5 * (spec * _ref_twiddle(n)).real, -1, axis)
    return x


def ref_idct(x):
    for axis in range(x.ndim):
        v = np.moveaxis(x, axis, -1)
        n = v.shape[-1]
        spec = v * _ref_twiddle(n).conj()
        spec[..., 0] *= 2.0
        x = np.moveaxis(n * np.fft.irfft(spec, 2 * n)[..., :n], -1, axis)
    return x


# Reference formulations of the component kernels: whole-array forms that
# reduce over or broadcast along the trailing component axis.  The package's
# one-component-at-a-time kernels must return the same bits.

def ref_dot_components(a, b):
    return np.sum(a * b, axis=-1)


def ref_scale_components(g, s, op=np.multiply):
    return op(g, s[..., None])


def ref_gl_panels(start, width, q, delta):
    """The Gauss-Legendre panels laid out panel-major, each panel's 8 node
    terms summed by np.add.reduceat."""
    out = np.empty_like(start)
    for blk in row_blocks(start.size, _GL_NODES.size):
        v = width[blk, None] * _GL_NODES
        v += start[blk, None]
        f = q[blk, None] * v
        np.exp(f, out=f)
        np.exp(v, out=v)
        np.log1p(v, out=v)
        v **= delta
        f *= v
        f *= _GL_WEIGHTS
        out[blk] = width[blk] * np.add.reduceat(f.ravel(), np.arange(0, f.size, _GL_NODES.size))
    return out


# Reference formulations of the exponent-only work of the image primitive and
# of the solver's gradient magnitudes: per-row coefficient division, a pow
# per evaluation and np.linalg.norm.  The package's forms must return the
# same bits.

def ref_series_sum(fam, tau, p):
    b = fam._series
    k = np.arange(b.size, dtype=float).reshape(b.shape)
    c = p + fam.delta
    sums = np.empty_like(tau)
    for blk in row_blocks(tau.size, b.shape[1]):
        tb, cb = tau[blk], c[blk]
        y = tb ** b.shape[1]
        lanes = b[-1] / (cb + k[-1])
        for g in range(b.shape[0] - 2, -1, -1):
            lanes *= y
            lanes += b[g] / (cb + k[g])
        sums[blk] = np.polynomial.polynomial.polyval(tb, lanes, tensor=False)
    return tau**p * tau**fam.delta * sums


def ref_image_phi(fam, s, idx):
    p = fam.p.values[idx]
    logs = np.log1p(s) ** fam.delta
    low = s ** (p - 1.0) * logs
    high = fam.eps ** (p - fam.alpha) * s ** (fam.alpha - 1.0) * logs
    return np.where(s <= fam.eps, low, high)


def ref_image_dphi(fam, s, idx):
    p = fam.p.values[idx]
    logs = np.log1p(s) ** fam.delta
    dlogs = fam.delta * np.log1p(s) ** (fam.delta - 1.0) / (1.0 + s)
    low = (p - 1.0) * s ** (p - 2.0) * logs + s ** (p - 1.0) * dlogs
    high = fam.eps ** (p - fam.alpha) * (
        (fam.alpha - 1.0) * s ** (fam.alpha - 2.0) * logs
        + s ** (fam.alpha - 1.0) * dlogs)
    return np.where(s <= fam.eps, low, high)


def ref_magnitudes(xi):
    return np.linalg.norm(xi, axis=1)


def ref_write_csv(path, header, template, columns):
    """The per-row CSV writer: one %-formatting per line."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(template % row for row in zip(*(np.asarray(c).tolist() for c in columns)))
