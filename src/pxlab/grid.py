"""Structured box grids, midpoint quadrature, and jet-field sampling.

The domain is a box [0, L1] (1D) or [0, L1] x [0, L2] (2D) split into n
cells per axis.  Quadrature points sit at cell centers with cell volumes
as weights, so pointwise inequalities at the quadrature points integrate
to inequalities between the quadrature sums (all weights positive).

A nodal function is a float array of the grid's npoints values on the
same cell-center lattice, in C order over the axis indices, flat or of the
grid's node shape ``n``.  Its stencil gradient D (:func:`discrete_gradient`,
with adjoint :func:`stencil_adjoint`) uses centered differences with
reflected ghost cells, which bakes in the homogeneous Neumann condition;
the same reflection makes the DCT-II diagonalize D^T D
(:func:`stencil_symbol`, :func:`dct`).  The stencil pair and the DCT pair
work axis by axis on ``swapaxes`` views of the node-shaped array: the
gradient writes each axis's differences into its ``(*n, dim)`` output in
place, and the adjoint accumulates into its result, so neither copies an
axis.  Each node sums its terms in one fixed order, which the tests pin
bit for bit against ``np.moveaxis`` formulations.

Per-point vectors (gradients, fluxes) keep their components on a
trailing axis and are worked on one component at a time, so inner loops
run over points: :func:`dot_components` sums as ``((0.0 + x0) + x1) + x2``,
the order of ``np.sum(..., axis=-1)``, and :func:`scale_components`
applies a per-point factor, with the bits of the whole-array forms.

Operator and source families derive from :class:`PointFamily`, which
defines the batch convention of their evaluations.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

CATALOG_NAMES = (
    "constant",
    "affine",
    "exp-linear",
    "quadratic-bump",
    "abs-kink",
    "ex51-pair",
    "ex52-pair",
    "noisy-image",
)

# Elements per block of a wide temporary: the hypothesis ladders and the
# image primitive's series and panels are evaluated a block of rows at a
# time, so their memory stays bounded whatever the number of rows.
BLOCK_ELEMENTS = 2 ** 15
# The longest 1-D input integrate sums by math.fsum; past it the same bits cost less certified
FSUM_MAX_POINTS = 1024
# glibc's allocator policy for the block temporaries (mallopt parameters and
# values): the largest mmap threshold its dynamic rule reaches on 64-bit,
# which mallopt will not exceed, and twice that as the trim threshold, the
# ratio the rule keeps
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2 ** 20
_MALLOC_ENVIRONMENT = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                       "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")


def _keep_freed_blocks() -> None:
    """Keep freed block temporaries in the heap for the next block to reuse.

    A block holds several MiB of arrays of about 0.5 MiB each.  Under
    glibc's defaults they are mapped fresh from the kernel (above the mmap
    threshold) or trimmed back to it once freed (above the trim threshold),
    and every block faults its pages in again, zero-filled.  Fixed
    thresholds of 32 and 64 MiB keep them in the process; no computed bit
    depends on where an array lives.  Nothing is set off Linux, without
    glibc's ``mallopt``, or when the environment already tunes malloc.
    """
    if sys.platform != "linux" or "malloc" in os.environ.get("GLIBC_TUNABLES", ""):
        return
    if any(name in os.environ for name in _MALLOC_ENVIRONMENT):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library to load, or not glibc's
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


_keep_freed_blocks()


@dataclass(frozen=True)
class Grid:
    """Structured box grid with midpoint quadrature.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    extent : tuple of float
        Axis lengths; the domain is the box [0, extent[0]] x ... .
    n : tuple of int
        Cells per axis (>= 3 each).
    h : tuple of float
        Cell spacing per axis.
    quad_points : ndarray, shape (nq, dim)
        Cell centers, C-ordered over axis indices.
    quad_weights : ndarray, shape (nq,)
        Cell volumes; positive, summing to the box volume.
    """

    dim: int
    extent: tuple
    n: tuple
    h: tuple
    quad_points: np.ndarray = field(repr=False)
    quad_weights: np.ndarray = field(repr=False)

    @property
    def npoints(self) -> int:
        return self.quad_points.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))


@dataclass
class JetField:
    """Per-quadrature-point samples (value, gradient) of a scalar field.

    values has shape (..., npoints) and grads (..., npoints, dim); leading
    axes stack several fields of the same grid (rows of a batch).
    """

    values: np.ndarray
    grads: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.grads = np.asarray(self.grads, dtype=float)
        if self.values.ndim < 1 or self.grads.shape[:-1] != self.values.shape:
            raise ValueError(
                f"grads shape {self.grads.shape} inconsistent with "
                f"values shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)) or not np.all(np.isfinite(self.grads)):
            raise ValueError("jet field contains non-finite entries")

    @property
    def npoints(self) -> int:
        return self.values.shape[-1]

    def grad_norms(self) -> np.ndarray:
        return np.sqrt(dot_components(self.grads, self.grads))


@dataclass(frozen=True)
class AnalyticFieldSpec:
    """A named entry of the closed-form field catalog plus its parameters."""

    name: str
    params: dict = field(default_factory=dict)


def build_grid(dim: int, n, extent=1.0) -> Grid:
    """Build a box grid with midpoint quadrature.

    Parameters
    ----------
    dim : int
        1 or 2.
    n : int or sequence of int
        Cells per axis; at least 3 per axis.
    extent : float or sequence of float
        Axis lengths; all positive, with a cell volume that is a finite
        float of at least ``np.finfo(float).tiny``.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    ns = tuple(int(v) for v in (n if np.iterable(n) else (n,) * dim))
    exts = tuple(float(v) for v in (extent if np.iterable(extent) else (extent,) * dim))
    if len(ns) != dim or len(exts) != dim:
        raise ValueError("n and extent must match dim")
    if any(v < 3 for v in ns):
        raise ValueError(f"need at least 3 cells per axis, got {ns}")
    if any(v <= 0.0 for v in exts):
        raise ValueError(f"extent must be positive, got {exts}")

    hs = tuple(L / m for L, m in zip(exts, ns))
    # a quadrature weight that overflows or is subnormal or 0 carries no volume
    cell = math.prod(hs)
    if not (math.isfinite(cell) and cell >= np.finfo(float).tiny):
        raise ValueError(f"cell volume {cell} of extent {exts} is not a normal finite float")
    axes = [(np.arange(m) + 0.5) * h for m, h in zip(ns, hs)]
    if dim == 1:
        points = axes[0][:, None]
    else:
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.column_stack([gx.ravel(), gy.ravel()])
    weights = np.full(points.shape[0], cell)
    return Grid(dim=dim, extent=exts, n=ns, h=hs, quad_points=points, quad_weights=weights)


def integrate(values, grid: Grid):
    """Quadrature sum over the grid, correctly rounded: the value ``math.fsum``
    returns, bit for bit.

    values has shape (..., npoints); a 1-D input gives a float and a
    stacked one an array holding one sum per row.  A 1-D input of at most
    FSUM_MAX_POINTS values is summed by ``math.fsum``; a longer one, as one
    row, and stacked rows by :func:`_certified_row_sums`, which hands every
    row it cannot certify to ``math.fsum``, so a row returns or raises as
    ``math.fsum`` does.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (grid.npoints,):
        raise ValueError(f"expected {grid.npoints} values, got shape {values.shape}")
    weighted = grid.quad_weights * values
    if weighted.ndim == 1:
        if weighted.size <= FSUM_MAX_POINTS:
            return math.fsum(weighted.tolist())
        return float(_certified_row_sums(weighted[None, :])[0])
    rows = weighted.reshape(-1, grid.npoints)
    sums = np.empty(rows.shape[0])
    for blk in row_blocks(rows.shape[0], grid.npoints):
        sums[blk] = _certified_row_sums(rows[blk])
    return sums.reshape(values.shape[:-1])


def _certified_row_sums(x: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each row of a 2-D array, as ``math.fsum``.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31, 2008): with sigma a power
    of two at least (n + 2) max |x_ij| over row i, q = (sigma + x) - sigma
    holds multiples of 2^-53 sigma whose partial sums stay below sigma (for
    n below 2^26), so their row sum t1 is exact in any order, and x - q is
    exact.  Its row
    sum t2 errs by at most gamma_(n-1) sum |x - q| (Higham 2002, in any
    order), which the bound below covers.  With s = t1 + t2 and e its
    TwoSum residual, the true sum lies within |e| + bound of s; when that is
    under half the gap from |s| down to its neighbour toward zero, s is the
    nearest double and no tie, so it is what ``math.fsum`` returns.  Every
    other row (non-finite, sigma overflowing, a zero or subnormal sum, a
    near tie, heavy cancellation) is summed by ``math.fsum`` in row order;
    for rows of zeros alone its value depends only on their signs.
    """
    n = x.shape[1]
    with np.errstate(all="ignore"):
        amax = np.max(np.abs(x), axis=1, initial=0.0)
        _, top = np.frexp(amax)
        sigma = np.ldexp(1.0, top + (n + 1).bit_length())[:, None]
        q = sigma + x
        q -= sigma
        r = x - q
        t1 = q.sum(axis=1)
        t2 = r.sum(axis=1)
        np.abs(r, out=r)
        bound = r.sum(axis=1) * (n * 2.0 ** -52) + 2.0 ** -1074
        s = t1 + t2
        back = s - t1
        err = np.abs((t1 - (s - back)) + (t2 - back))
        mag = np.abs(s)
        ok = np.isfinite(s) & (err + bound < 0.5 * (mag - np.nextafter(mag, 0.0)))
    zero = amax == 0.0  # an empty row sums as fsum([]), like one with a +0.0
    if zero.any():
        negative = np.signbit(x[zero]).all(axis=1) & (n > 0)
        s[zero] = np.where(negative, math.fsum([-0.0]), math.fsum([0.0, -0.0]))
    rest = ~(ok | zero)
    s[rest] = [math.fsum(row) for row in x[rest].tolist()]
    return s


def row_blocks(nrows: int, width: int):
    """Slices of consecutive rows covering ``range(nrows)``, in order, for
    rows of ``width`` elements.  Each block holds at most BLOCK_ELEMENTS
    elements, or one row when a row alone is wider."""
    step = max(1, BLOCK_ELEMENTS // int(width))
    for lo in range(0, nrows, step):
        yield slice(lo, min(lo + step, nrows))


def dot_components(a, b) -> np.ndarray:
    """``np.sum(a * b, axis=-1)`` bit for bit, one component at a time."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    out += 0.0  # np.sum starts from +0.0: terms of -0.0 alone sum to +0.0
    return out


def scale_components(g, s, op=np.multiply) -> np.ndarray:
    """``op(g, s[..., None])`` bit for bit, one component of g at a time."""
    out = np.empty(np.broadcast_shapes(g.shape, np.shape(s) + (1,)))
    for k in range(out.shape[-1]):
        op(g[..., k], s, out=out[..., k])
    return out


def per_point(value, npoints: int, what: str) -> np.ndarray:
    """``value`` as one finite float per point: a scalar gives ``npoints``
    copies, and an array must have shape (npoints,)."""
    vals = np.asarray(value, dtype=float)
    if vals.ndim == 0:
        vals = np.full(npoints, float(vals))
    if vals.shape != (npoints,):
        raise ValueError(f"{what} needs shape ({npoints},), got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what} must be finite")
    return vals


class PointFamily:
    """A family of functions of s sampled at ``npoints`` quadrature points,
    such as an operator profile or a source, whose values at a point depend
    on the point only through the tuple of its per-point arrays ``params``.

    Every evaluation is a batch: per-point values s paired with point
    indices ``points`` (all points in order when omitted, which also takes
    stacked rows of shape (..., npoints)).  The two broadcast together;
    each per-point parameter is gathered at the index's own shape and
    spread over the result by broadcasting, so a (rows, k) batch on a (k,)
    or (rows, 1) index gathers k or rows values, not rows * k, with the
    same bits.
    """

    def __init__(self, npoints, params):
        self.npoints = int(npoints)
        self.params = tuple(params)

    def _align(self, s, points):
        """``s`` broadcast to the batch shape, and the point index at its own
        shape, which broadcasts against it."""
        s = np.asarray(s, dtype=float)
        idx = np.arange(self.npoints) if points is None else np.asarray(points)
        return np.broadcast_to(s, np.broadcast_shapes(s.shape, idx.shape)), idx

    def gate_points(self) -> np.ndarray:
        """The points whose checks decide the checks at every point, sorted.

        The hypothesis validators read the family only at these points, and
        a witness names one of them: the first point of each distinct tuple
        of ``params``, compared by bits, stands for all of its points.  One
        stable lexsort and a compare of adjacent rows cost several times
        less than ``np.unique(..., axis=0)`` on all-distinct tuples.
        """
        keys = np.column_stack(self.params).astype(float, copy=False).view(np.uint64)
        order = np.lexsort(keys.T)  # stable: equal rows stay in point order
        first = np.ones(order.size, dtype=bool)
        first[1:] = np.any(keys[order[1:]] != keys[order[:-1]], axis=1)
        return np.sort(order[first])


def discrete_gradient(u, grid: Grid) -> np.ndarray:
    """Stencil gradient D u of a nodal function (flat or node-shaped) at the
    cell centers, as an array of shape (npoints, dim).

    Centered differences across neighboring cells; at boundary cells the
    missing neighbor is the reflected ghost (equal to the boundary cell
    itself), realizing the zero-flux condition.  Exact for affine data at
    interior cells; the boundary value is biased toward 0, so the L1 error
    against a smooth field decays like O(h) under refinement.
    """
    vals = np.asarray(u, dtype=float).reshape(grid.n)
    grads = np.empty((*grid.n, grid.dim))
    for axis, h in enumerate(grid.h):
        # the axis first, as views: each difference is written in place
        v = vals.swapaxes(0, axis)
        g = grads[..., axis].swapaxes(0, axis)
        np.subtract(v[2:], v[:-2], out=g[1:-1])
        np.subtract(v[1:2], v[:1], out=g[:1])
        np.subtract(v[-1:], v[-2:-1], out=g[-1:])
        g /= 2.0 * h
    return grads.reshape(grid.npoints, grid.dim)


def stencil_adjoint(flux, grid: Grid) -> np.ndarray:
    """D^T flux: the adjoint of :func:`discrete_gradient` with respect to the
    plain dot product, applied to per-point vectors of shape (npoints, dim)
    and returned as a flat vector over the nodes.

    Axis 0 accumulates straight into the result, which starts at zeros;
    each later axis accumulates into its own zeroed array, which is then
    added, so every node sums its terms in one fixed order, signs of zeros
    included.
    """
    fluxes = np.asarray(flux, dtype=float).reshape(*grid.n, grid.dim)
    out = np.zeros(grid.n)
    for axis, h in enumerate(grid.h):
        v = fluxes[..., axis].swapaxes(0, axis)
        r = out if axis == 0 else np.zeros(grid.n)
        rv = r.swapaxes(0, axis)
        w = 1.0 / (2.0 * h)
        inner = v[1:-1] * w
        rv[2:] += inner
        rv[:-2] -= inner
        first, last = v[:1] * w, v[-1:] * w
        rv[1:2] += first
        rv[:1] -= first
        rv[-1:] += last
        rv[-2:-1] -= last
        if axis:
            out += r
    return out.ravel()


def stencil_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues of D^T D, with D the stencil gradient, per DCT-II mode.

    The reflected ghost extends a nodal function evenly about each boundary
    face, so the centered difference maps the cosine mode
    cos(pi k (i + 1/2) / n) to -sin(pi k / n) / h times the matching sine
    mode, and its adjoint maps that back: the DCT-II diagonalizes D^T D
    with eigenvalue sum over axes of sin^2(pi k / n) / h^2.  The result has
    the grid's node shape, indexed like the output of :func:`dct`.
    """
    lam = np.zeros(grid.n)
    for axis, (m, h) in enumerate(zip(grid.n, grid.h)):
        shape = [1] * grid.dim
        shape[axis] = m
        lam = lam + ((np.sin(np.pi * np.arange(m) / m) / h) ** 2).reshape(shape)
    return lam


def dct(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II over every axis, by real FFTs of the even extension."""
    for axis in range(x.ndim):
        v = x.swapaxes(axis, -1)
        n = v.shape[-1]
        spec = np.fft.rfft(np.concatenate([v, v[..., ::-1]], axis=-1))[..., :n]
        x = (0.5 * (spec * _dct_twiddle(n)).real).swapaxes(axis, -1)
    return x


def idct(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct` (the orthonormal DCT-III over every axis)."""
    for axis in range(x.ndim):
        v = x.swapaxes(axis, -1)
        n = v.shape[-1]
        spec = v * _dct_twiddle(n).conj()  # irfft pads mode n with a zero
        spec[..., 0] *= 2.0
        x = (n * np.fft.irfft(spec, 2 * n)[..., :n]).swapaxes(axis, -1)
    return x


_TWIDDLES: dict = {}  # read-only, by length


def _dct_twiddle(n: int) -> np.ndarray:
    """Orthonormal scales times the half-sample phases exp(-i pi k / 2n)."""
    if n not in _TWIDDLES:
        w = np.sqrt(2.0 / n) * np.exp(-0.5j * np.pi * np.arange(n) / n)
        w[0] /= math.sqrt(2.0)
        w.flags.writeable = False
        _TWIDDLES[n] = w
    return _TWIDDLES[n]


def jet_linear(a, w1: JetField, b, w2: JetField) -> JetField:
    """The jet of a*w1 + b*w2; a and b are scalars, or arrays of shape (rows,)
    that give one stacked row per coefficient pair."""
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    return JetField(a * w1.values + b * w2.values,
                    a[..., None] * w1.grads + b[..., None] * w2.grads)


def alpha_root_jet(w: JetField, alpha: float) -> JetField:
    """Jet of w**(1/alpha) for a positive field, by the chain rule."""
    if np.any(w.values <= 0.0):
        raise ValueError("alpha-root jet needs a strictly positive field")
    root = w.values ** (1.0 / alpha)
    grads = scale_components(w.grads, (1.0 / alpha) * w.values ** (1.0 / alpha - 1.0))
    return JetField(root, grads)


def sample_jet(spec: AnalyticFieldSpec, grid: Grid) -> JetField:
    """Evaluate a catalog field and its exact gradient at the quadrature points."""
    if spec.name not in CATALOG_NAMES:
        raise ValueError(f"unknown catalog name {spec.name!r}")
    x = grid.quad_points
    p = spec.params
    if spec.name == "constant":
        c = float(p["c"])
        return JetField(np.full(grid.npoints, c), np.zeros_like(x))
    if spec.name == "affine":
        a0 = float(p.get("a0", 0.0))
        a1 = np.broadcast_to(np.atleast_1d(np.asarray(p["a1"], dtype=float)), (grid.dim,))
        vals = a0 + dot_components(x, a1)
        return JetField(vals, np.broadcast_to(a1, x.shape).copy())
    if spec.name == "exp-linear":
        k = np.broadcast_to(np.atleast_1d(np.asarray(p["k"], dtype=float)), (grid.dim,))
        scale = float(p.get("scale", 1.0))
        vals = scale * np.exp(dot_components(x, k))
        return JetField(vals, scale_components(k, vals))
    if spec.name == "quadratic-bump":
        base = float(p.get("base", 1.0))
        amp = float(p.get("amp", 1.0))
        # product of per-axis parabolas 4*t*(L-t)/L^2, peaking at 1 mid-axis
        fac = np.empty((grid.npoints, grid.dim))
        dfac = np.empty((grid.npoints, grid.dim))
        for ax, L in enumerate(grid.extent):
            t = x[:, ax]
            fac[:, ax] = 4.0 * t * (L - t) / L**2
            dfac[:, ax] = 4.0 * (L - 2.0 * t) / L**2
        prod = np.prod(fac, axis=1)
        vals = base + amp * prod
        grads = np.empty_like(fac)
        for ax in range(grid.dim):
            others = np.prod(np.delete(fac, ax, axis=1), axis=1) if grid.dim > 1 else 1.0
            grads[:, ax] = amp * dfac[:, ax] * others
        return JetField(vals, grads)
    if spec.name == "abs-kink":
        _require_1d(grid, spec.name)
        c = float(p.get("c", grid.extent[0] / 2.0))
        t = x[:, 0] - c
        if np.any(t == 0.0):
            raise ValueError("grid places a quadrature point at the kink")
        return JetField(np.abs(t), np.sign(t)[:, None])
    if spec.name in ("ex51-pair", "ex52-pair"):
        return _counterexample_member(spec, grid)
    if spec.name == "noisy-image":
        return JetField(*_noisy_image(spec, grid, with_grads=True))
    raise AssertionError("unreachable")


def sample_values(spec: AnalyticFieldSpec, grid: Grid) -> np.ndarray:
    """The values of a catalog field at the quadrature points, equal bit for
    bit to ``sample_jet(spec, grid).values`` wherever that returns; the
    noisy image skips its gradients."""
    if spec.name == "noisy-image":
        return _noisy_image(spec, grid, with_grads=False)[0]
    return sample_jet(spec, grid).values


def _require_1d(grid: Grid, name: str) -> None:
    if grid.dim != 1:
        raise ValueError(f"catalog entry {name!r} is one-dimensional")


def _counterexample_member(spec: AnalyticFieldSpec, grid: Grid) -> JetField:
    """Members of the kinked pairs on (-1, 1), via centered coordinates t = x - L/2.

    Member 1 is |t|; member 2 is t for t >= 0 and -2t for t < 0.  The
    ex52 variant multiplies both by the bump exp(1/(t^2-1)), which decays
    to zero at t = +-1.
    """
    _require_1d(grid, spec.name)
    member = int(spec.params["member"])
    if member not in (1, 2):
        raise ValueError("member must be 1 or 2")
    L = grid.extent[0]
    t = grid.quad_points[:, 0] - L / 2.0
    if np.any(t == 0.0):
        raise ValueError("grid places a quadrature point at the kink t=0")
    if member == 1:
        vals = np.abs(t)
        dvals = np.sign(t)
    else:
        vals = np.where(t >= 0.0, t, -2.0 * t)
        dvals = np.where(t >= 0.0, 1.0, -2.0)
    if spec.name == "ex51-pair":
        return JetField(vals, dvals[:, None])
    if np.any(np.abs(np.abs(t) - 1.0) < 1e-14):
        raise ValueError("grid places a quadrature point at t=+-1")
    if np.any(np.abs(t) >= 1.0):
        raise ValueError("ex52-pair needs the centered domain inside (-1, 1)")
    eta = np.exp(1.0 / (t * t - 1.0))
    deta = eta * (-2.0 * t) / (t * t - 1.0) ** 2
    return JetField(vals * eta, (dvals * eta + vals * deta)[:, None])


def _noisy_image(spec: AnalyticFieldSpec, grid: Grid, with_grads: bool):
    """Seeded trigonometric polynomial: noisy-looking but smooth with exact
    jets.  Returns the values and the exact gradients, or None in place of
    the gradients when ``with_grads`` is false."""
    p = spec.params
    seed = int(p.get("seed", 0))
    base = float(p.get("base", 0.5))
    amp = float(p.get("amp", 0.3))
    modes = int(p.get("modes", 4))
    rng = np.random.default_rng(seed)
    kvecs = rng.integers(1, 4, size=(modes, grid.dim)).astype(float)
    coeffs = rng.uniform(-1.0, 1.0, size=modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=modes)
    norm = np.sum(np.abs(coeffs))
    x = grid.quad_points
    scale = 2.0 * np.pi / np.asarray(grid.extent)
    vals = np.full(grid.npoints, base)
    grads = np.zeros_like(x) if with_grads else None
    for m in range(modes):
        k = kvecs[m] * scale
        arg = dot_components(x, k) + phases[m]
        vals += (amp / norm) * coeffs[m] * np.cos(arg)
        if with_grads:
            grads += scale_components(k, (-amp / norm) * coeffs[m] * np.sin(arg))
    return vals, grads
