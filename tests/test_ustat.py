from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from interaction_bounds import exchangeable
from interaction_bounds import ustat as usmod
from interaction_bounds.functionals import interaction
from interaction_bounds.exchangeable import block_rows, mc_tails, multisets, occupancy, rank
from interaction_bounds.operators import cond_expectation
from interaction_bounds.rng import substream
from interaction_bounds.space import CapacityError, FiniteAxis, expectation, tail_probabilities
from interaction_bounds.ustat import (
    Kernel,
    UStatProblem,
    arcones_bound,
    check_kernel_terms,
    crossover,
    mean_kernel,
    product_kernel,
    sign_agreement_kernel,
    tabulated_kernel,
    u_at_counts,
    ustat_bound,
)

TWO_POINT = FiniteAxis.uniform(2)
PM_ONE = (-1.0, 1.0)


def problem(kernel, axis=TWO_POINT, points=PM_ONE):
    return UStatProblem(kernel=kernel, base_axis=axis, base_points=points)


class TestKernels:
    def test_builtins_pass_checks(self):
        # tabulated_kernel checks range and symmetry on every tuple of the table
        points = [-1.0, -0.25, 0.0, 0.5, 1.0]
        for kernel in (product_kernel(2), mean_kernel(3), sign_agreement_kernel(2)):
            table = [kernel.fn(p) for p in itertools.product(points, repeat=kernel.m)]
            tabulated_kernel(points, table, kernel.m)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            product_kernel(1)

    def test_sign_agreement_values(self):
        k = sign_agreement_kernel(3)
        assert k.fn((0.5, 0.1, 1.0)) == 1.0
        assert k.fn((-0.5, -1.0, -0.1)) == 1.0
        assert k.fn((0.5, -0.1, 1.0)) == -1.0

    def test_tabulated_kernel_lookup(self):
        # the product kernel on {-1, 1}
        kernel = tabulated_kernel([-1.0, 1.0], [1.0, -1.0, -1.0, 1.0], 2)
        assert kernel.fn((-1.0, 1.0)) == -1.0
        assert kernel.fn((1.0, 1.0)) == 1.0
        with pytest.raises(ValueError):
            kernel.fn((0.5, 1.0))

    def test_tabulated_kernel_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            tabulated_kernel([-1.0, 1.0], [0.0, 0.5, -0.5, 0.0], m=2)

    @given(st.integers(1, 4), st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_symmetry_check_is_the_permutation_loop(self, s, m, seed):
        # A symmetric table with a few entries moved by amounts on both sides
        # of the 1e-12 tolerance.
        rng = np.random.default_rng(seed)
        base = rng.uniform(-0.5, 0.5, (s,) * m)
        table = np.empty_like(base)
        for idx in np.ndindex(table.shape):
            table[idx] = base[tuple(sorted(idx))]
        steps = np.array([0.5, 1.0, 1.5, 2.0, 1000.0]) * 1e-12
        for _ in range(int(rng.integers(0, 4))):
            at = tuple(rng.integers(0, s, m))
            table[at] += float(rng.choice(steps)) * float(rng.choice([-1.0, 1.0]))
        points = np.arange(s) / s
        want = oracles.first_asymmetric_kernel_entry(table)
        if want is None:
            tabulated_kernel(points, table.ravel().tolist(), m)
        else:
            with pytest.raises(ValueError) as err:
                tabulated_kernel(points, table.ravel().tolist(), m)
            assert str(err.value) == f"kernel table not symmetric at {want}"

    def test_tabulated_kernel_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range|\\[-1, 1\\]"):
            tabulated_kernel([-1.0, 1.0], [0.0, 2.0, 2.0, 0.0], m=2)



class TestEvaluateU:
    """``u`` of one sample, given by how often it holds each base point."""

    def test_all_ones(self):
        p = problem(product_kernel(2))
        assert u_at_counts(p, [[0, 3]]).tolist() == pytest.approx([1.0])

    def test_mixed_signs(self):
        p = problem(product_kernel(2))
        assert u_at_counts(p, [[1, 2]]).tolist() == pytest.approx([-1.0 / 3.0])

    def test_constant_kernel(self):
        const = Kernel(m=2, fn=lambda _: 0.25, name="const")
        p = problem(const)
        assert u_at_counts(p, [[2, 3]]).tolist() == pytest.approx([0.25])

    def test_wrong_length(self):
        p = problem(product_kernel(2))
        with pytest.raises(ValueError):
            u_at_counts(p, [[0, 2]])

    def test_oversized_sample_rejected(self):
        with pytest.raises(ValueError):
            u_at_counts(problem(product_kernel(2)), [[1, 1]])  # n must exceed m

    def test_matches_oracle_on_random_samples(self):
        rng = np.random.default_rng(8)
        kern = mean_kernel(3)
        for _ in range(5):
            sample = tuple(rng.uniform(-1, 1, 6))
            p = problem(kern, FiniteAxis.uniform(6), sample)
            assert u_at_counts(p, [[1] * 6]).tolist() == pytest.approx(
                [oracles.u_value(kern.fn, 3, sample)], abs=1e-13
            )


class TestSigma1:
    def test_degenerate_product_kernel(self):
        # conditional mean of y*x over x on uniform {-1,1} vanishes identically
        assert problem(product_kernel(2)).sigma1sq == pytest.approx(0.0)

    def test_mean_pair_kernel(self):
        # conditional mean is y/2, variance of y/2 over uniform {-1,1} is 1/4
        assert problem(mean_kernel(2)).sigma1sq == pytest.approx(0.25)

    def test_constant_kernel(self):
        const = Kernel(m=2, fn=lambda _: -0.3, name="const")
        assert problem(const).sigma1sq == pytest.approx(0.0)

    def test_reads_no_pair_level(self, monkeypatch):
        # the kernel table of m = 4 on 5 points and its 3-multisets, no 2-multisets
        sizes = []
        real = exchangeable.multisets

        def counting(n, s, *cap):
            sizes.append(n)
            return real(n, s, *cap)

        monkeypatch.setattr(exchangeable, "multisets", counting)
        p = problem(mean_kernel(4), FiniteAxis.uniform(5), (-1.0, -0.5, 0.0, 0.5, 1.0))
        # conditional mean y / 4, and the points have variance 1/2
        assert p.sigma1sq == pytest.approx(0.5 / 16)
        assert sorted(sizes) == [3, 4]

    def test_capacity(self, monkeypatch):
        monkeypatch.setattr(usmod, "KERNEL_TABLE_CAP", 1)
        with pytest.raises(CapacityError):
            problem(mean_kernel(3)).sigma1sq


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
    """Ordered pairs of intersecting ``m``-subsets of ``{1..n}``, by enumeration.

    The identity ``C(n,m) (C(n,m) - C(n-m,m))`` and the fraction bound
    ``(C(n,m) - C(n-m,m)) / C(n,m) <= m^2 / (n-m)`` behind ``ustat_bound``.
    """

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_exhaustive_enumeration(self, n, m):
        if n <= m:
            pytest.skip("need n > m")
        total, disjoint = math.comb(n, m), math.comb(n - m, m)
        assert oracles.intersecting_pairs(n, m) == total * (total - disjoint)
        assert (total - disjoint) * (n - m) <= m * m * total

    def test_identity_form(self):
        assert oracles.intersecting_pairs(5, 2) == 10 * (10 - 3) == 70

    def test_count_form_fails_at_four_choose_two(self):
        # the count itself exceeds C(n,m) * m^2/(n-m): 30 > 12, so only the
        # intersecting-fraction form of the estimate is usable
        exact = oracles.intersecting_pairs(4, 2)
        assert exact == 30
        assert exact > math.comb(4, 2) * 2**2 // (4 - 2)
        assert (math.comb(4, 2) - math.comb(2, 2)) * (4 - 2) <= 2**2 * math.comb(4, 2)


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
        p = UStatProblem(kernel=kernel, base_axis=axis, base_points=points)
        u = oracles.tabulate_u(p, n)
        worst = max(
            float((u.values - cond_expectation(u, k).values).max())
            for k in range(n)
        )
        assert worst <= 2.0 * kernel.m / n + 1e-12

    @pytest.mark.parametrize("kernel,n,axis,points", PROOF_CHAIN_CASES)
    def test_interaction_bound(self, kernel, n, axis, points):
        p = UStatProblem(kernel=kernel, base_axis=axis, base_points=points)
        u = oracles.tabulate_u(p, n)
        m = kernel.m
        j = interaction(u)
        tight = 4.0 * m * (m - 1) / math.sqrt(n * (n - 1))
        assert j <= tight + 1e-10
        assert tight <= 4.0 * m * m / n + 1e-12

    @pytest.mark.parametrize("kernel,n,axis,points", PROOF_CHAIN_CASES[:4])
    def test_exact_tail_below_bound(self, kernel, n, axis, points):
        p = UStatProblem(kernel=kernel, base_axis=axis, base_points=points)
        u = oracles.tabulate_u(p, n)
        s1 = p.sigma1sq
        center = expectation(u)
        w = u.space.weight_table()
        deviations = np.abs(u.values - center)
        t_values = np.linspace(0.0, float(deviations.max()), 8)[1:].tolist()
        for t, tail in zip(t_values, tail_probabilities(deviations, w, t_values)):
            assert tail <= ustat_bound(n, kernel.m, s1, t) + 1e-12

    def test_variance_sum_envelopes(self):
        # the halved envelope is not a valid bound: the degenerate product
        # kernel exceeds it for n >= 4, while the doubled form always holds
        terms = oracles.scv_envelope_terms(problem(product_kernel(2)), 4)
        assert terms["lhs"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert terms["lhs"] > terms["tight_envelope"] + 0.05
        assert terms["lhs"] <= terms["safe_envelope"] + 1e-10

    @pytest.mark.parametrize("kernel,n,axis,points", PROOF_CHAIN_CASES)
    def test_safe_envelope_holds(self, kernel, n, axis, points):
        p = UStatProblem(kernel=kernel, base_axis=axis, base_points=points)
        terms = oracles.scv_envelope_terms(p, n)
        assert terms["lhs"] <= terms["safe_envelope"] + 1e-10


class TestSampling:
    def test_exact_mean_matches_table(self):
        p = problem(mean_kernel(2))
        u = oracles.tabulate_u(p, 5)
        assert p.u_mean == pytest.approx(expectation(u), abs=1e-12)

    def test_sampled_values_deterministic(self):
        p = problem(product_kernel(2))
        a = oracles.sample_u_values(p, 6, 50, seed=9)
        b = oracles.sample_u_values(p, 6, 50, seed=9)
        assert np.array_equal(a, b)

    def test_sampled_tail_agrees_with_exact(self):
        p = problem(mean_kernel(2))
        u = oracles.tabulate_u(p, 6)
        center = expectation(u)
        w = u.space.weight_table()
        values = oracles.sample_u_values(p, 6, 4000, seed=10)
        t = 0.25
        exact = tail_probabilities(np.abs(u.values - center), w, [t])[0]
        mc = float(np.mean(np.abs(values - center) > t))
        stderr = math.sqrt(max(mc * (1 - mc), 1e-9) / len(values))
        assert abs(mc - exact) <= 4 * stderr

    @pytest.mark.parametrize("samples", [50, block_rows(9) + 1])
    def test_blocked_tails_are_the_one_shot_tails(self, samples):
        p = problem(_tabulated_quadratic(WEIGHTED_POINTS), WEIGHTED_AXIS, WEIGHTED_POINTS)
        center = p.u_mean
        t_values = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 2.0]
        got = mc_tails(
            substream(3, 0x0E), WEIGHTED_AXIS.weights, 9, samples,
            lambda counts: np.abs(u_at_counts(p, counts) - center), t_values,
        )
        values = oracles.sample_u_values(p, 9, samples, seed=3)
        assert got == oracles.mc_tails_of(np.abs(values - center), t_values)
        assert got[-1] == (0.0, 0.0)

    def test_kernel_terms_of_a_whole_sample(self, monkeypatch):
        # 70 multisets of 4 of 5 points: u_at_counts' cap text, before any row is formed
        p = problem(mean_kernel(4), FiniteAxis.uniform(5), (-1.0, -0.5, 0.0, 0.5, 1.0))
        check_kernel_terms(p, 142_857)
        text = "^10000060 kernel terms exceed the cap of 10000000$"
        with pytest.raises(CapacityError, match=text):
            check_kernel_terms(p, 142_858)
        monkeypatch.setattr(usmod, "DEFAULT_EVAL_CAP", 209)
        with pytest.raises(CapacityError, match="^210 kernel terms exceed the cap of 209$"):
            u_at_counts(p, multisets(5, 5)[:3])


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
        p = problem(kernel, WEIGHTED_AXIS, WEIGHTED_POINTS)
        configs = np.indices((3,) * n).reshape(n, -1).T
        got = u_at_counts(p, multisets(n, 3))[rank(occupancy(configs, 3))]
        assert np.array_equal(got, oracles.tabulate_u(p, n).values.ravel())

    @pytest.mark.parametrize("kernel,n", COUNT_CASES)
    def test_samples_match_evaluate_u(self, kernel, n):
        p = problem(kernel, WEIGHTED_AXIS, WEIGHTED_POINTS)
        got = oracles.sample_u_values(p, n, 200, seed=12)
        draws = substream(12, 0x0E).choice(3, size=(200, n), p=WEIGHTED_AXIS.weights)
        pts = np.asarray(WEIGHTED_POINTS)
        want = [oracles.u_value(kernel.fn, kernel.m, pts[row]) for row in draws]
        assert np.array_equal(got, want)

    def test_large_sample_beyond_evaluate_u(self):
        # n = 200 has no configuration table, but u at all-equal points is g there;
        # the per-sample sum would have C(200, 4) terms
        p = problem(mean_kernel(4), WEIGHTED_AXIS, WEIGHTED_POINTS)
        got = u_at_counts(p, np.array([[200, 0, 0], [0, 0, 200]]))
        assert got.tolist() == [-0.7, 0.9]

    def test_sample_count_beyond_float_range(self):
        # C(20000, 142) ~ 1e367 is no float; the kernel sum is the x^142 coefficient
        # of (1 - x)^10000 (1 + x)^10000 = (1 - x^2)^10000, so u = -C(10000, 71) / C(20000, 142)
        p = problem(product_kernel(142))
        want = -float(Fraction(math.comb(10000, 71), math.comb(20000, 142)))
        assert u_at_counts(p, [[10000, 10000]]).tolist() == [want]

    def test_out_of_range_kernel_rejected(self):
        wild = Kernel(m=2, fn=lambda pts: 1.5 * pts[0] * pts[1], name="wild")
        with pytest.raises(ValueError, match="outside"):
            u_at_counts(problem(wild), multisets(4, 2))
        with pytest.raises(ValueError, match="outside"):
            oracles.sample_u_values(problem(wild), 4, 10, seed=1)
        with pytest.raises(ValueError, match="outside"):
            problem(wild).sigma1sq

    def test_term_cap_names_the_cap(self, monkeypatch):
        p = problem(mean_kernel(2), WEIGHTED_AXIS, WEIGHTED_POINTS)
        counts = multisets(5, 3)
        monkeypatch.setattr(usmod, "DEFAULT_EVAL_CAP", 21 * 6)
        assert len(u_at_counts(p, counts)) == 21
        monkeypatch.setattr(usmod, "DEFAULT_EVAL_CAP", 125)
        with pytest.raises(CapacityError, match="cap of 125"):
            u_at_counts(p, counts)

    def test_rows_must_hold_n_draws(self):
        # one sample size n > m for every row
        p = problem(mean_kernel(2), WEIGHTED_AXIS, WEIGHTED_POINTS)
        with pytest.raises(ValueError, match="sample size"):
            u_at_counts(p, np.concatenate([multisets(5, 3), multisets(4, 3)]))
        with pytest.raises(ValueError, match="sample size"):
            u_at_counts(p, occupancy(np.zeros((1, 2), dtype=int), 3))
