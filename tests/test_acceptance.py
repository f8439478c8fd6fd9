"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s` to see
the lines as they complete."""

import time

import numpy as np

from pxlab import (build_grid, check_homogeneity, check_operator_hypotheses,
                   check_source_hypotheses, beta_scan, discrete_energy,
                   discrete_residual, fixture_counterexample,
                   fuzz_scalar_gaps, fuzz_subunit_gaps, GridFunction,
                   integral_gap, integrate, make_path, pointwise_gap,
                   pointwise_gap_parts, scalar_gap, SolveConfig,
                   subunit_power_gaps, synthetic_image, uniqueness_experiment)
from pxlab.inequality import AC_BD_FLAT, CD_ZERO, NO_EQUALITY, R1_FLAT

from util import (fidelity_src, grid_1d, grid_2d, image_op, power_src,
                  random_positive_jet, single_phase, two_phase, zero_src)


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[acceptance] {self.label}: {status} ({elapsed:.2f}s / budget {self.budget}s)")
        assert elapsed < self.budget, f"{self.label} exceeded its runtime budget"
        return False


def test_criterion_1_scalar_inequality_fuzz():
    with _Timer("1 scalar inequality fuzz", 5.0):
        rep = fuzz_scalar_gaps(100_000, seed=20260101)
        assert rep["min_scaled_gap"] >= -1e-12, rep


def test_criterion_2_equality_classification():
    with _Timer("2 equality classification", 2.0):
        rng = np.random.default_rng(2)
        for k in range(1000):
            r = float(rng.uniform(1.0, 4.0))
            a = float(rng.uniform(0.1, 50.0))
            b = float(rng.uniform(0.1, 50.0))
            kind = k % 3
            if kind == 0:
                case = scalar_gap(lambda s: s ** (r - 0.3), r, a, b, 0.0, 0.0)
                assert case.equality_class == CD_ZERO
            elif kind == 1:
                c = float(rng.uniform(0.1, 50.0))
                case = scalar_gap(lambda s: s ** (0.5 + r), 1.0, a, b, c, c)
                assert case.equality_class == R1_FLAT
            else:
                r = float(rng.uniform(1.2, 4.0))
                b = a * float(rng.uniform(1.5, 3.0))
                c = float(rng.uniform(0.1, 50.0))
                d = a * c / b
                case = scalar_gap(lambda s: s ** (r - 1.0), r, a, b, c, d)
                assert case.equality_class == AC_BD_FLAT
            assert abs(case.gap) <= 1e-10 * max(1.0, abs(case.lhs))

        count = 0
        while count < 1000:
            r = float(rng.uniform(1.0, 4.0))
            q = r - 1.0 + float(rng.uniform(0.3, 2.0))
            a, b = np.exp(rng.uniform(-2.0, 2.0, 2))
            c, d = np.exp(rng.uniform(-1.5, 2.5, 2))
            if abs(c - d) < 0.05 * max(c, d):
                continue
            case = scalar_gap(lambda s: s**q, r, float(a), float(b), float(c), float(d))
            assert case.gap > 0.0
            assert case.equality_class == NO_EQUALITY
            count += 1


def test_criterion_3_integral_inequality():
    with _Timer("3 integral inequality", 30.0):
        rng = np.random.default_rng(3)
        grids = [grid_1d(48), grid_2d(7)]
        for pair in range(100):
            grid = grids[pair % 2]
            fams = (single_phase(grid, 2.0, alpha=1.5), two_phase(grid, alpha=1.5),
                    image_op(grid, alpha=1.5))
            w1 = random_positive_jet(rng, grid)
            w2 = random_positive_jet(rng, grid)
            for fam in fams:
                r = fam.r_order
                res = integral_gap(fam, r, w1, w2, grid)
                assert res.gap >= -1e-10 * (1.0 + abs(res.lhs))
                scalar_part, cauchy = pointwise_gap_parts(fam, r, w1, w2)
                total = integrate(scalar_part + cauchy, grid)
                assert abs(res.gap - total) <= 1e-10 * max(1.0, abs(res.lhs))
                if pair % 10 == 0:
                    # third route: per-point flux dot products, summed
                    per_point = np.array([
                        pointwise_gap(fam, r, k, w1.values[k], w1.grads[k],
                                      w2.values[k], w2.grads[k])
                        for k in range(grid.npoints)])
                    assert np.all(per_point >= -1e-12 * np.maximum(1.0, np.abs(per_point)))
                    total_pw = integrate(per_point, grid)
                    assert abs(res.gap - total_pw) <= 1e-10 * max(1.0, abs(res.lhs))


def test_criterion_4_counterexample_fixtures():
    with _Timer("4 counterexample fixtures", 1.0):
        grid = build_grid(1, 64, 2.0)
        for which in ("ex51", "ex52"):
            rep = fixture_counterexample(which, grid)
            assert rep["log_derivative_max_diff"] <= 1e-12
            assert rep["ratio_attains_one_and_two"]
            assert not rep["ratio_constant"]
            assert rep["passed"]


def test_criterion_5_hidden_convexity():
    with _Timer("5 hidden convexity", 60.0):
        grid = grid_1d(32)
        rng = np.random.default_rng(5)
        legs = [
            (single_phase(grid, 2.0, alpha=2.0),
             power_src(grid.npoints, r1=1.0, q1=1.0, alpha=2.0), 2.0, False),
            (image_op(grid, alpha=1.5),
             power_src(grid.npoints, r1=1.0, q1=1.0, alpha=1.5), 1.5, True),
        ]
        for pair in range(20):
            w1 = random_positive_jet(rng, grid)
            w2 = random_positive_jet(rng, grid)
            if np.max(np.abs(w1.values - w2.values)) == 0.0:
                continue
            for fam, src, alpha, strict in legs:
                scan = beta_scan(make_path(w1, w2, alpha), fam, src, grid)
                assert scan.min_beta_prime_step >= -1e-10
                assert scan.fd_max_rel_err <= 1e-6
                on_unit = (scan.thetas >= 0.0) & (scan.thetas <= 1.0)
                assert float(scan.cor64_gap[on_unit].min()) >= -1e-10
                if strict:
                    assert scan.strict_gap_ok is True


def test_criterion_6_gradient_correctness():
    with _Timer("6 discrete gradient correctness", 10.0):
        grid = grid_2d(6)
        rng = np.random.default_rng(6)
        ops = {"single": single_phase(grid, 2.0), "two": two_phase(grid),
               "image": image_op(grid)}
        srcs = {"power": power_src(grid.npoints),
                "fidelity": fidelity_src(grid.npoints, g=0.4, mu=1.2),
                "zero": zero_src(grid.npoints)}
        h = 1e-5
        for fam in ops.values():
            for src in srcs.values():
                U0 = rng.uniform(0.2, 0.8, grid.npoints)
                res = discrete_residual(fam, src, GridFunction(U0.reshape(grid.n)),
                                        grid).values.ravel()
                for _ in range(20):
                    d = rng.standard_normal(grid.npoints)
                    d /= np.linalg.norm(d)
                    ep = discrete_energy(fam, src,
                                         GridFunction((U0 + h * d).reshape(grid.n)), grid)
                    em = discrete_energy(fam, src,
                                         GridFunction((U0 - h * d).reshape(grid.n)), grid)
                    fd = (ep - em) / (2 * h)
                    an = float(res @ d)
                    assert abs(fd - an) <= 1e-6 * max(1e-12, abs(an))


def test_criterion_7_uniqueness_experiment():
    with _Timer("7 uniqueness of the steady state", 120.0):
        grid = build_grid(2, 32, 1.0)
        g_img = synthetic_image(32, seed=7)
        fid = fidelity_src(grid.npoints, g=g_img.ravel(), mu=1.0, alpha=1.5)
        fams = [two_phase(grid, alpha=1.5), image_op(grid, alpha=1.5)]
        for fam in fams:
            cfg = SolveConfig(fam, fid, grid, init=0.2, residual_tol=1e-8)
            rep = uniqueness_experiment(cfg, [0.2, 0.9])
            assert all(r <= 1e-8 for r in rep["residuals"])
            assert rep["max_pairwise_sup"] <= 1e-6, rep


def test_criterion_8_hypothesis_validators():
    with _Timer("8 hypothesis validators", 10.0):
        grid = grid_1d(24)
        multi = two_phase(grid, alpha=1.5)
        img = image_op(grid, alpha=1.5)

        multi_rep, img_rep = (check_operator_hypotheses(fam, grid, seed=8)
                              for fam in (multi, img))
        for rep in (multi_rep, img_rep):
            assert rep.passed("H4", "H5", "H6", "H7'")

        assert img_rep.checks["H8-pX"].status == "fail"
        assert img_rep.passed("H8-alpha")

        src = power_src(grid.npoints, r1=1.0, q1=1.0)
        assert check_source_hypotheses(src, seed=8).passed(
            "H11", "H12-monotone", "H12-lipschitz", "H13")

        for fam in (single_phase(grid, 2.0), multi, img):
            assert check_homogeneity(fam, samples=120, seed=8).agree


def test_criterion_9_subunit_power_inequalities():
    with _Timer("9 subunit power inequalities", 2.0):
        rep = fuzz_subunit_gaps(100_000, seed=9)
        assert rep["min_gap1"] >= -1e-12 and rep["min_gap2"] >= -1e-12, rep
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = float(rng.uniform(0.0, 100.0))
            b = float(rng.uniform(0.0, 100.0))
            at_one = subunit_power_gaps(a, b, 1.0)
            assert at_one["gap1"] == 0.0 and at_one["gap2"] == 0.0
            r = float(rng.uniform(0.05, 1.0))
            assert subunit_power_gaps(a, a, r)["gap1"] == 0.0
            edge = subunit_power_gaps(a, 0.0, r)
            assert abs(edge["gap1"]) <= 1e-15 and abs(edge["gap2"]) <= 1e-15
