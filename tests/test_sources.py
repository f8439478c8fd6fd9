from fractions import Fraction

import numpy as np
import pytest

from pxlab import check_source_hypotheses, make_fidelity_source, make_power_source
from pxlab.sources import SourceFamily

from util import fidelity_src, power_src, zero_src

N = 12


@pytest.fixture(scope="module")
def linear_decay():
    # f(x, s) = -s with gamma = 1, lambda0 = 2
    return power_src(N, r1=1.0, q1=1.0)


def test_extension_branches(linear_decay):
    s, pts = np.array([2.0, -1.0]), np.zeros(2, dtype=int)
    fbar = linear_decay.fbar_vals(s, points=pts)
    Fbar = linear_decay.Fbar_vals(s, points=pts)
    assert fbar[0] == pytest.approx(-2.0, abs=1e-15)
    assert Fbar[0] == pytest.approx(-2.0, abs=1e-15)
    assert fbar[1] == pytest.approx(-1.0, abs=1e-15)
    # antiderivative of f(x,0) + gamma*s through 0
    assert Fbar[1] == pytest.approx(0.5, abs=1e-15)


def test_extension_matches_f_and_F_inside(linear_decay):
    rng = np.random.default_rng(0)
    s = rng.uniform(0.0, 1.0, 50)
    pts = rng.integers(0, N, 50)
    assert np.array_equal(linear_decay.fbar_vals(s, pts), linear_decay.f_vals(s, pts))
    # F(x, s) = -s^2/2 for f = -s, up to the rounding of the power s**2
    assert np.allclose(linear_decay.Fbar_vals(s, pts), -0.5 * s * s,
                       rtol=2 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("src_name", ["power", "fidelity", "zero"])
def test_extension_derivative(src_name):
    src = {"power": power_src(N, r1=2.0, q1=3.0, r2=1.0, q2=1.0),
           "fidelity": fidelity_src(N, g=0.4, mu=1.3),
           "zero": zero_src(N)}[src_name]
    rng = np.random.default_rng(1)
    s = rng.uniform(-2.5, 3.5, 100)
    pts = rng.integers(0, N, 100)
    h = 1e-6
    fd = (src.Fbar_vals(s + h, pts) - src.Fbar_vals(s - h, pts)) / (2 * h)
    assert np.max(np.abs(fd - src.fbar_vals(s, pts))) <= 1e-8
    # fbar' is f' inside [0, 1] and the +-gamma slopes of the extension outside
    fd2 = (src.fbar_vals(s + h, pts) - src.fbar_vals(s - h, pts)) / (2 * h)
    assert np.max(np.abs(fd2 - src.fbar_prime_vals(s, pts))) <= 1e-6
    assert np.all(src.fbar_prime_vals(s[s < 0.0], pts[s < 0.0]) == src.gamma)
    assert np.all(src.fbar_prime_vals(s[s > 1.0], pts[s > 1.0]) == -src.gamma)


@pytest.mark.parametrize("src_name", ["power", "fidelity"])
def test_extension_matches_sup_formula(src_name):
    # independent oracle: fbar(x, s) is the largest of f(x, tau) - gamma |s - tau|
    # over tau in [0, 1]; evaluate the sup on a dense tau grid
    src = {"power": power_src(N, r1=2.0, q1=3.0, r2=1.0, q2=1.0),
           "fidelity": fidelity_src(N, g=0.3, mu=1.4)}[src_name]
    taus = np.linspace(0.0, 1.0, 20001)
    rng = np.random.default_rng(2)
    for _ in range(40):
        s = float(rng.uniform(-3.0, 4.0))
        pt = int(rng.integers(0, N))
        fvals = src.f_vals(taus, np.full(taus.size, pt))
        oracle = float(np.max(fvals - src.gamma * np.abs(s - taus)))
        got = float(src.fbar_vals(np.array([s]), np.array([pt]))[0])
        # the dense-grid sup underestimates by at most gamma * grid spacing
        assert got >= oracle - 1e-12
        assert got <= oracle + 2.0 * src.gamma * (taus[1] - taus[0])


def test_power_source_gamma_examples():
    assert power_src(N, r1=1.0, q1=1.0).gamma == 1.0
    assert power_src(N, r1=1.0, q1=1.0).lambda0 == 2.0
    assert power_src(N, r1=2.0, q1=3.0, r2=1.0, q2=1.0).gamma == 7.0
    z = zero_src(N)
    assert np.all(z.f_vals(np.full(N, 0.7)) == 0.0)
    assert z.gamma == 1.0  # fallback bound for the zero source


def test_power_source_sign_invariant():
    src = power_src(N, r1=2.0, q1=3.0, r2=1.0, q2=1.0)
    f0 = src.f_vals(np.zeros(N))
    f1 = src.f_vals(np.ones(N))
    assert np.all(f0 >= 0.0)
    assert np.all(f1 + src.gamma >= f0)


def test_power_source_validation():
    with pytest.raises(ValueError):
        make_power_source(-1.0, 0.0, 1.0, 1.0, npoints=N)
    with pytest.raises(ValueError):
        make_power_source(1.0, 0.0, 0.5, 1.0, npoints=N)
    with pytest.raises(ValueError):
        make_power_source(1.0, 0.0, 1.0, 1.0)  # scalar coefficients need npoints


@pytest.mark.parametrize("bad", [{"r1": np.nan}, {"q1": np.nan}, {"r2": np.inf},
                                 {"q2": np.inf}])
def test_power_source_rejects_non_finite_parameters(bad):
    args = {"r1": 1.0, "r2": 0.0, "q1": 1.0, "q2": 1.0} | bad
    with pytest.raises(ValueError):
        make_power_source(**args, npoints=N)
    # one bad point among finite ones
    arrays = {k: np.full(N, v if k not in bad else 1.0) for k, v in args.items()}
    arrays[next(iter(bad))][3] = next(iter(bad.values()))
    with pytest.raises(ValueError):
        make_power_source(**arrays)


def test_fidelity_source_examples():
    fid = fidelity_src(N, g=0.5, mu=1.0)
    assert np.all(fid.f_vals(np.zeros(N)) == 0.5)
    assert np.all(fid.f_vals(np.ones(N)) == -0.5)
    assert fid.gamma == 1.0 and fid.lambda0 == 2.0 and fid.strict13_flag
    near = fidelity_src(N, g=1.0, mu=1.0)
    assert np.all(near.f_vals(np.ones(N)) == 0.0)
    strong = fidelity_src(N, g=0.0, mu=2.0)
    assert np.all(strong.f_vals(np.full(N, 0.3)) == -0.6)
    assert strong.gamma == 2.0


def test_fidelity_validation():
    with pytest.raises(ValueError):
        make_fidelity_source(np.full(N, 1.2), 1.0, 1.5)
    with pytest.raises(ValueError):
        make_fidelity_source(np.full(N, 0.5), 0.0, 1.5)
    with pytest.raises(ValueError):
        make_fidelity_source(np.full(N, 0.5), 1.0, 2.0)


@pytest.mark.parametrize("g, mu", [(0.5, np.nan), (0.5, np.inf), (np.nan, 1.0)])
def test_fidelity_source_rejects_non_finite_parameters(g, mu):
    data = np.full(N, 0.5)
    data[4] = g
    with pytest.raises(ValueError):
        make_fidelity_source(data, mu, 1.5)


def test_strict_claim_requires_alpha_below_two():
    class Dummy(SourceFamily):
        def _f(self, s, idx):
            return -s

        def _F(self, s, idx):
            return -0.5 * s * s

    with pytest.raises(ValueError):
        Dummy(N, 1.0, 2.0, True)
    assert Dummy(N, 1.0, 2.0, False).lambda0 == 2.0


def test_alpha_two_power_source_not_strict():
    src = power_src(N, r1=1.0, q1=1.0, alpha=2.0)
    assert not src.strict13_flag


EXTENSION_CHECKS = ("ext-lipschitz", "ext-monotone", "ext-convex", "ext-ratio")


def test_source_props_linear(linear_decay):
    rep = check_source_hypotheses(linear_decay, seed=3)
    assert rep.passed(*EXTENSION_CHECKS)
    # -Fbar(s^(1/alpha)) = s^(4/3) / 2 and the ratio -s^(1/3): both strict
    assert rep.checks["ext-convex"].note == "" and rep.checks["ext-ratio"].note == ""


def test_source_props_zero():
    rep = check_source_hypotheses(zero_src(N), seed=3)
    assert rep.passed(*EXTENSION_CHECKS)
    # flat on [0, 1]: convex and nonincreasing, but not strictly
    assert rep.checks["ext-convex"].note == "non-strict"
    assert rep.checks["ext-ratio"].note == "non-strict"


def test_source_props_fidelity():
    rep = check_source_hypotheses(fidelity_src(N, g=0.5, mu=1.0, alpha=1.5), seed=3)
    assert rep.passed(*EXTENSION_CHECKS)
    assert rep.checks["ext-ratio"].note == ""


def _extension_formulas(src, s, points):
    """fbar and Fbar with f(x, 0), f(x, 1) and F(x, 1) evaluated on the
    whole input, as the extension is defined."""
    s, idx = np.broadcast_arrays(np.asarray(s, dtype=float), points)
    mid = np.clip(s, 0.0, 1.0)
    f0 = src._f(np.zeros_like(s), idx)
    f1 = src._f(np.ones_like(s), idx)
    F1 = src._F(np.ones_like(s), idx)
    fbar = np.where(s < 0.0, f0 + src.gamma * s,
                    np.where(s <= 1.0, src._f(mid, idx), f1 - src.gamma * (s - 1.0)))
    above = F1 + f1 * (s - 1.0) - 0.5 * src.gamma * (s - 1.0) ** 2
    Fbar = np.where(s < 0.0, f0 * s + 0.5 * src.gamma * s * s,
                    np.where(s <= 1.0, src._F(mid, idx), above))
    return fbar, Fbar


def test_extension_gathers_endpoint_constants_bit_for_bit():
    rng = np.random.default_rng(5)
    sources = [
        make_power_source(rng.uniform(0.0, 2.0, N), rng.uniform(0.0, 1.0, N),
                          rng.uniform(1.0, 3.0, N), rng.uniform(1.0, 2.0, N), alpha=1.5),
        fidelity_src(N, g=rng.uniform(0.0, 1.0, N), mu=2.5),
        zero_src(N),
    ]
    s = rng.uniform(-2.0, 3.0, size=(4, 7))
    s[0, :3] = (0.0, 1.0, -0.0)
    points = np.array([5, 0, 11, 3, 3, 7, 1])
    for src in sources:
        fbar, Fbar = _extension_formulas(src, s, points)
        assert src.fbar_vals(s, points=points).tobytes() == fbar.tobytes()
        assert src.Fbar_vals(s, points=points).tobytes() == Fbar.tobytes()
        full = rng.uniform(-2.0, 3.0, size=(3, N))
        fbar, Fbar = _extension_formulas(src, full, np.arange(N))
        assert src.fbar_vals(full).tobytes() == fbar.tobytes()
        assert src.Fbar_vals(full).tobytes() == Fbar.tobytes()



# Fbar_diff against exact rational arithmetic.  Each case gives a source
# and, on Fractions, f(k, s), F(k, s) and the sup over [0, m] of the sum of
# |terms| of f(k, .); power exponents are integers, so F is rational.
def _fidelity_case(rng, n):
    src = make_fidelity_source(rng.uniform(0.0, 1.0, n), 1.3, 1.5)
    g, mu = [Fraction(x) for x in src.g], Fraction(src.mu)
    return (src, lambda k, s: mu * (g[k] - s), lambda k, s: mu * (g[k] * s - s * s / 2),
            lambda k, m: mu * (g[k] + m))


def _power_case(q):
    def case(rng, n):
        src = make_power_source(rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n), q, q,
                                npoints=n)
        r = [Fraction(a) + Fraction(b) for a, b in zip(src.r1, src.r2)]
        return (src, lambda k, s: -r[k] * s ** q, lambda k, s: -r[k] * s ** (q + 1) / (q + 1),
                lambda k, m: r[k] * m ** q)
    return case


def _interval_pairs(rng, kind, n):
    if kind == "near-equal":
        u = rng.uniform(-0.5, 1.5, n)
        u[: n // 4] = [0.0, 1.0] * (n // 8)  # pairs straddling the kinks
        ulps = rng.integers(-8, 9, n) * np.spacing(np.maximum(np.abs(u), 1e-300))
        return u, u + np.where(rng.random(n) < 0.5, ulps, u * rng.uniform(-1e-9, 1e-9, n))
    lo_u, hi_u, lo_v, hi_v = {
        "below": (-1.0, 0.0, -1.0, 0.0), "inside": (0.0, 1.0, 0.0, 1.0),
        "above": (1.0, 2.0, 1.0, 2.0), "across-0": (-0.5, 0.0, 0.0, 0.5),
        "across-1": (0.5, 1.0, 1.0, 1.5), "across-both": (-0.5, 0.0, 1.0, 1.5),
    }[kind]
    u, v = rng.uniform(lo_u, hi_u, n), rng.uniform(lo_v, hi_v, n)
    swap = rng.random(n) < 0.5
    return np.where(swap, v, u), np.where(swap, u, v)


def _exact_Fbar_diff(f, F, term_sup, gamma, k, u, v):
    """Fbar(v) - Fbar(u) of the exact extension, and the magnitude of its
    pieces: the sum over [u, v] split at 0 and 1 of |length| times the sup
    of the |terms| of fbar on the piece."""
    zero, one = Fraction(0), Fraction(1)  # int kinks would turn s * s / 2 into a float
    f0, f1 = f(k, zero), f(k, one)
    below = lambda s: f0 * s + gamma * s * s / 2
    above = lambda s: f1 * (s - 1) - gamma * (s - 1) ** 2 / 2
    a, b = min(u, zero), min(v, zero)
    value = below(b) - below(a)
    size = abs(b - a) * (abs(f0) + gamma * max(-a, -b))
    a, b = min(max(u, zero), one), min(max(v, zero), one)
    value += F(k, b) - F(k, a)
    size += abs(b - a) * term_sup(k, max(a, b))
    a, b = max(u, one), max(v, one)
    value += above(b) - above(a)
    size += abs(b - a) * (abs(f1) + gamma * (max(a, b) - 1))
    return value, size


@pytest.mark.parametrize("kind", ["below", "inside", "above", "across-0", "across-1",
                                  "across-both", "near-equal"])
@pytest.mark.parametrize("case", [_fidelity_case, _power_case(1), _power_case(2)],
                         ids=["fidelity", "power-q1", "power-q2"])
def test_Fbar_diff_is_exact_to_a_few_ulp_of_its_pieces(case, kind):
    n = 64
    rng = np.random.default_rng(11)
    src, f, F, term_sup = case(rng, n)
    u, v = _interval_pairs(rng, kind, n)
    got = src.Fbar_diff(u, v)
    gamma, eps = Fraction(src.gamma), Fraction(np.finfo(float).eps)
    # pieces that underflow round to the subnormal spacing instead
    tiny = Fraction(np.finfo(float).smallest_subnormal)
    for k in range(n):
        exact, size = _exact_Fbar_diff(f, F, term_sup, gamma, k, Fraction(u[k]), Fraction(v[k]))
        assert abs(Fraction(got[k]) - exact) <= 4 * (eps * size + tiny), (k, u[k], v[k])
