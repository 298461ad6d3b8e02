from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from interaction_bounds.functionals import interaction
from interaction_bounds.exchangeable import multisets, occupancy
from interaction_bounds.operators import cond_expectation
from interaction_bounds.rng import substream
from interaction_bounds.space import CapacityError, FiniteAxis, expectation, fsum
from interaction_bounds.ustat import (
    CrossoverResult,
    Kernel,
    UStatProblem,
    arcones_bound,
    check_kernel,
    crossover,
    evaluate_u,
    exact_u_mean,
    intersecting_pairs_count,
    kernel_from_json,
    mean_kernel,
    product_kernel,
    sample_u_values,
    scv_envelope_terms,
    sigma1_squared,
    sigma1_squared_mc,
    sign_agreement_kernel,
    tabulate_u,
    tabulated_kernel,
    u_at_counts,
    ustat_bound,
)

TWO_POINT = FiniteAxis.uniform(2)
PM_ONE = (-1.0, 1.0)


def problem(kernel, n, axis=TWO_POINT, points=PM_ONE):
    return UStatProblem(kernel=kernel, n=n, base_axis=axis, base_points=points)


class TestKernels:
    def test_builtins_pass_checks(self):
        for kernel in (product_kernel(2), mean_kernel(3), sign_agreement_kernel(2)):
            check_kernel(kernel, [-1.0, -0.25, 0.0, 0.5, 1.0], seed=3)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            product_kernel(1)

    def test_sign_agreement_values(self):
        k = sign_agreement_kernel(3)
        assert k.evaluate((0.5, 0.1, 1.0)) == 1.0
        assert k.evaluate((-0.5, -1.0, -0.1)) == 1.0
        assert k.evaluate((0.5, -0.1, 1.0)) == -1.0

    def test_tabulated_kernel_lookup_and_json(self):
        doc = {
            "points": [-1.0, 1.0],
            "m": 2,
            "table": [1.0, -1.0, -1.0, 1.0],  # product kernel on {-1,1}
        }
        kernel = kernel_from_json(doc)
        assert kernel.evaluate((-1.0, 1.0)) == -1.0
        assert kernel.evaluate((1.0, 1.0)) == 1.0
        with pytest.raises(ValueError):
            kernel.evaluate((0.5, 1.0))

    def test_tabulated_kernel_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            tabulated_kernel([-1.0, 1.0], [0.0, 0.5, -0.5, 0.0], m=2)

    def test_tabulated_kernel_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range|\\[-1, 1\\]"):
            tabulated_kernel([-1.0, 1.0], [0.0, 2.0, 2.0, 0.0], m=2)

    def test_check_kernel_catches_asymmetry(self):
        bad = Kernel(m=2, fn=lambda p: 0.5 * (p[0] - p[1]), name="bad")
        with pytest.raises(ValueError, match="symmetric"):
            check_kernel(bad, [-1.0, 0.5, 1.0], seed=0)


class TestEvaluateU:
    def test_all_ones(self):
        p = problem(product_kernel(2), 3)
        assert evaluate_u(p, (1.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_mixed_signs(self):
        p = problem(product_kernel(2), 3)
        assert evaluate_u(p, (1.0, -1.0, 1.0)) == pytest.approx(-1.0 / 3.0)

    def test_constant_kernel(self):
        const = Kernel(m=2, fn=lambda _: 0.25, name="const")
        p = problem(const, 5)
        assert evaluate_u(p, (1.0,) * 5) == pytest.approx(0.25)

    def test_wrong_length(self):
        p = problem(product_kernel(2), 3)
        with pytest.raises(ValueError):
            evaluate_u(p, (1.0, 1.0))

    def test_oversized_sample_rejected(self):
        with pytest.raises(ValueError):
            problem(product_kernel(2), 2)  # n must exceed m
        with pytest.raises(OverflowError):
            evaluate_u(problem(product_kernel(2), 65), (1.0,) * 65)

    def test_matches_oracle_on_random_samples(self):
        rng = np.random.default_rng(8)
        kern = mean_kernel(3)
        p = problem(kern, 6)
        for _ in range(5):
            sample = tuple(rng.uniform(-1, 1, 6))
            assert evaluate_u(p, sample) == pytest.approx(
                oracles.u_value(kern.fn, 3, sample), abs=1e-13
            )


class TestSigma1:
    def test_degenerate_product_kernel(self):
        # conditional mean of y*x over x on uniform {-1,1} vanishes identically
        assert sigma1_squared(problem(product_kernel(2), 4)) == pytest.approx(0.0)

    def test_mean_pair_kernel(self):
        # conditional mean is y/2, variance of y/2 over uniform {-1,1} is 1/4
        assert sigma1_squared(problem(mean_kernel(2), 4)) == pytest.approx(0.25)

    def test_constant_kernel(self):
        const = Kernel(m=2, fn=lambda _: -0.3, name="const")
        assert sigma1_squared(problem(const, 4)) == pytest.approx(0.0)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            sigma1_squared(problem(mean_kernel(3), 5), cap=1)

    def test_monte_carlo_agrees(self):
        p = problem(mean_kernel(2), 4)
        mean, stderr = sigma1_squared_mc(p, n_samples=8000, seed=5)
        assert abs(mean - 0.25) <= 4 * max(stderr, 1e-3)


class TestBoundFormulas:
    def test_ustat_bound_example(self):
        got = ustat_bound(10, 2, 0.25, 0.5)
        # direct plug-in: denominator 2*4*0.25 + 4/8 + 16*4*0.5/3
        want = 2.0 * math.exp(-2.5 / (2.0 + 0.5 + 32.0 / 3.0))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.654127637880481, abs=1e-9)

    def test_ustat_bound_small_t(self):
        assert ustat_bound(10, 2, 0.2, 1e-12) == pytest.approx(2.0, abs=1e-9)

    def test_ustat_bound_asymptotic_rate(self):
        # with sigma1 = 0 and m = 2 the exponent approaches -3 n t / 64
        # (n chosen large enough to swamp the 4/(n-2) term but small enough
        # that the bound does not underflow)
        t = 0.7
        n = 20_000
        got = ustat_bound(n, 2, 0.0, t)
        assert math.log(got / 2.0) * 64.0 / (3.0 * n * t) == pytest.approx(
            -1.0, rel=1e-4
        )

    def test_arcones_bound_small_t(self):
        assert arcones_bound(10, 2, 0.25, 1e-12) == pytest.approx(4.0, abs=1e-9)

    def test_arcones_bound_plug_in(self):
        n, m, s1, t = 10, 2, 0.25, 0.5
        coef = 2.0 ** (m + 2) * m**m * math.sqrt((n - 1) / n) + (2.0 / 3.0) / m
        want = 4.0 * math.exp(-n * t * t / (2 * m * m * s1 + coef * t))
        assert arcones_bound(n, m, s1, t) == pytest.approx(want, abs=1e-12)

    def test_arcones_linear_coefficient_limit(self):
        from interaction_bounds.ustat import _arcones_linear_coefficient

        assert _arcones_linear_coefficient(10**12, 2) == pytest.approx(
            64.0 + 1.0 / 3.0, rel=1e-6
        )

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            ustat_bound(2, 2, 0.1, 0.5)
        with pytest.raises(ValueError):
            ustat_bound(10, 2, 1.5, 0.5)
        with pytest.raises(ValueError):
            arcones_bound(10, 2, 0.1, 0.0)


class TestCrossover:
    @pytest.mark.parametrize("n", [10, 50, 200])
    @pytest.mark.parametrize("sigma1sq", [0.0, 0.25])
    def test_order_two(self, n, sigma1sq):
        got = crossover(2, sigma1sq, n)
        assert got.found
        assert 0.06 <= got.product <= 0.24  # 0.12 within a factor of two

    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_order_three(self, n):
        got = crossover(3, 0.25, n)
        assert got.found
        assert 0.03 <= got.product <= 0.12  # 6e-2 within a factor of two

    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_order_four(self, n):
        got = crossover(4, 0.0, n)
        assert got.found
        assert 0.005 <= got.product <= 0.02  # 1e-2 within a factor of two

    def test_product_independent_of_sigma1(self):
        a = crossover(3, 0.0, 20)
        b = crossover(3, 0.9, 20)
        assert a.product == pytest.approx(b.product, abs=1e-6)

    def test_rate_comparison_at_crossover(self):
        got = crossover(2, 0.1, 12)
        eps = 1e-4
        below = ustat_bound(12, 2, 0.1, got.t - eps) / 2.0
        above = ustat_bound(12, 2, 0.1, got.t + eps) / 2.0
        a_below = arcones_bound(12, 2, 0.1, got.t - eps) / 4.0
        a_above = arcones_bound(12, 2, 0.1, got.t + eps) / 4.0
        # rate (prefactor-free) ordering flips exactly at the crossover
        assert below > a_below
        assert above < a_above


class TestIntersectingPairs:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_exhaustive_enumeration(self, n, m):
        if n <= m:
            pytest.skip("need n > m")
        exact, ratio_ok = intersecting_pairs_count(n, m)
        assert exact == oracles.intersecting_pairs(n, m)
        assert ratio_ok

    def test_identity_form(self):
        exact, _ = intersecting_pairs_count(5, 2)
        assert exact == math.comb(5, 2) * (math.comb(5, 2) - math.comb(3, 2))
        assert exact == 70

    def test_count_form_fails_at_four_choose_two(self):
        # the count itself exceeds C(n,m) * m^2/(n-m): 30 > 12, so only the
        # intersecting-fraction form of the estimate is usable
        exact, ratio_ok = intersecting_pairs_count(4, 2)
        assert exact == 30
        assert exact > math.comb(4, 2) * 2**2 // (4 - 2)
        assert ratio_ok


PROOF_CHAIN_CASES = [
    (product_kernel(2), 6, TWO_POINT, PM_ONE),
    (product_kernel(2), 8, TWO_POINT, PM_ONE),
    (mean_kernel(2), 8, TWO_POINT, PM_ONE),
    (product_kernel(3), 6, TWO_POINT, PM_ONE),
    (mean_kernel(3), 7, FiniteAxis(weights=(0.2, 0.5, 0.3)), (-1.0, 0.0, 1.0)),
    (sign_agreement_kernel(2), 8, FiniteAxis(weights=(0.25, 0.35, 0.4)), (-0.5, 0.25, 1.0)),
]


class TestProofChain:
    @pytest.mark.parametrize("kernel,n,axis,points", PROOF_CHAIN_CASES)
    def test_per_coordinate_range(self, kernel, n, axis, points):
        p = UStatProblem(kernel=kernel, n=n, base_axis=axis, base_points=points)
        u = tabulate_u(p)
        worst = max(
            float((u.values - cond_expectation(u, k).values).max())
            for k in range(n)
        )
        assert worst <= 2.0 * kernel.m / n + 1e-12

    @pytest.mark.parametrize("kernel,n,axis,points", PROOF_CHAIN_CASES)
    def test_interaction_bound(self, kernel, n, axis, points):
        p = UStatProblem(kernel=kernel, n=n, base_axis=axis, base_points=points)
        u = tabulate_u(p)
        m = kernel.m
        j = interaction(u)
        tight = 4.0 * m * (m - 1) / math.sqrt(n * (n - 1))
        assert j <= tight + 1e-10
        assert tight <= 4.0 * m * m / n + 1e-12

    @pytest.mark.parametrize("kernel,n,axis,points", PROOF_CHAIN_CASES[:4])
    def test_exact_tail_below_bound(self, kernel, n, axis, points):
        p = UStatProblem(kernel=kernel, n=n, base_axis=axis, base_points=points)
        u = tabulate_u(p)
        s1 = sigma1_squared(p)
        center = expectation(u)
        w = u.space.weight_table()
        tmax = float(np.abs(u.values - center).max())
        for t in np.linspace(0.0, tmax, 8)[1:]:
            tail = fsum(w[np.abs(u.values - center) > t])
            assert tail <= ustat_bound(n, kernel.m, s1, float(t)) + 1e-12

    def test_variance_sum_envelopes(self):
        # the halved envelope is not a valid bound: the degenerate product
        # kernel exceeds it for n >= 4, while the doubled form always holds
        terms = scv_envelope_terms(problem(product_kernel(2), 4))
        assert terms["lhs"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert terms["lhs"] > terms["tight_envelope"] + 0.05
        assert terms["lhs"] <= terms["safe_envelope"] + 1e-10

    @pytest.mark.parametrize("kernel,n,axis,points", PROOF_CHAIN_CASES)
    def test_safe_envelope_holds(self, kernel, n, axis, points):
        p = UStatProblem(kernel=kernel, n=n, base_axis=axis, base_points=points)
        terms = scv_envelope_terms(p)
        assert terms["lhs"] <= terms["safe_envelope"] + 1e-10


class TestSampling:
    def test_exact_mean_matches_table(self):
        p = problem(mean_kernel(2), 5)
        u = tabulate_u(p)
        assert exact_u_mean(p) == pytest.approx(expectation(u), abs=1e-12)

    def test_sampled_values_deterministic(self):
        p = problem(product_kernel(2), 6)
        a = sample_u_values(p, 50, seed=9)
        b = sample_u_values(p, 50, seed=9)
        assert np.array_equal(a, b)

    def test_sampled_tail_agrees_with_exact(self):
        p = problem(mean_kernel(2), 6)
        u = tabulate_u(p)
        center = expectation(u)
        w = u.space.weight_table()
        values = sample_u_values(p, 4000, seed=10)
        t = 0.25
        exact = fsum(w[np.abs(u.values - center) > t])
        mc = float(np.mean(np.abs(values - center) > t))
        stderr = math.sqrt(max(mc * (1 - mc), 1e-9) / len(values))
        assert abs(mc - exact) <= 4 * stderr


def _tabulated_quadratic(points):
    """A symmetric non-integer kernel table on three points, m = 2."""
    table = [[0.3, -0.7, 0.1], [-0.7, 0.55, -0.2], [0.1, -0.2, 0.9]]
    return tabulated_kernel(points, [v for row in table for v in row], m=2)


WEIGHTED_POINTS = (-0.7, 0.3, 0.9)
WEIGHTED_AXIS = FiniteAxis(weights=(0.2, 0.5, 0.3))
COUNT_CASES = [
    (product_kernel(2), 6),
    (mean_kernel(3), 6),
    (mean_kernel(4), 5),
    (sign_agreement_kernel(3), 5),
    (_tabulated_quadratic(WEIGHTED_POINTS), 6),
]


class TestCountsEvaluator:
    @pytest.mark.parametrize("kernel,n", COUNT_CASES)
    def test_tabulate_matches_configuration_loop(self, kernel, n):
        p = problem(kernel, n, WEIGHTED_AXIS, WEIGHTED_POINTS)
        assert np.array_equal(tabulate_u(p).values, oracles.tabulate_u(p))

    @pytest.mark.parametrize("kernel,n", COUNT_CASES)
    def test_samples_match_evaluate_u(self, kernel, n):
        p = problem(kernel, n, WEIGHTED_AXIS, WEIGHTED_POINTS)
        got = sample_u_values(p, 200, seed=12)
        draws = substream(12, 0x0E).choice(3, size=(200, n), p=WEIGHTED_AXIS.weights)
        pts = np.asarray(WEIGHTED_POINTS)
        assert np.array_equal(got, [evaluate_u(p, pts[row]) for row in draws])

    def test_large_sample_beyond_evaluate_u(self):
        # n = 200 has no configuration table, but u at all-equal points is g there
        p = problem(mean_kernel(4), 200, WEIGHTED_AXIS, WEIGHTED_POINTS)
        got = u_at_counts(p, np.array([[200, 0, 0], [0, 0, 200]]))
        assert got.tolist() == [-0.7, 0.9]

    def test_out_of_range_kernel_rejected(self):
        wild = Kernel(m=2, fn=lambda pts: 1.5 * pts[0] * pts[1], name="wild")
        with pytest.raises(ValueError, match="outside"):
            tabulate_u(problem(wild, 4))
        with pytest.raises(ValueError, match="outside"):
            sample_u_values(problem(wild, 4), 10, seed=1)
        with pytest.raises(ValueError, match="outside"):
            sigma1_squared(problem(wild, 4))

    def test_term_cap_names_the_cap(self):
        p = problem(mean_kernel(2), 5, WEIGHTED_AXIS, WEIGHTED_POINTS)
        counts = multisets(5, 3)
        assert len(u_at_counts(p, counts, eval_cap=21 * 6)) == 21
        with pytest.raises(CapacityError, match="cap of 125"):
            u_at_counts(p, counts, eval_cap=125)

    def test_rows_must_hold_n_draws(self):
        p = problem(mean_kernel(2), 5, WEIGHTED_AXIS, WEIGHTED_POINTS)
        with pytest.raises(ValueError, match="sample size"):
            u_at_counts(p, occupancy(np.zeros((1, 4), dtype=int), 3))
