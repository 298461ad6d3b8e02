from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given

import oracles
from conftest import coordinate_product, coordinate_sum, table, tabulated_strategy, uniform_space
from interaction_bounds.bounds import (
    BoundReport,
    bias_second_difference_bound,
    bound_ingredients,
    bounded_difference_variance_term,
    chatterjee_variance,
    chernoff_infimum,
    conditional_mean_variance_sum,
    efron_stein_gap,
    main_bound,
    per_coordinate_range_bound,
    psi,
    psi_ratio_inequality,
    sup_bernstein_bound,
    variance_corollary_bound,
)
from interaction_bounds.functionals import interaction, weighted_interaction
from interaction_bounds.operators import scv
from interaction_bounds.space import (
    CapacityError,
    TabulatedFunction,
    expectation,
    variance,
)


def random_table(sizes, seed):
    space = uniform_space(*sizes)
    rng = np.random.default_rng(seed)
    return TabulatedFunction(space, rng.uniform(-1, 1, space.size))


class TestPsi:
    def test_values(self):
        assert psi(0.0) == 0.0
        assert psi(1.0) == pytest.approx(1.0, abs=1e-14)
        assert psi(2.0) == pytest.approx(math.e**2 + 1.0, abs=1e-12)

    def test_nonnegative_and_convex(self):
        grid = np.linspace(0.0, 4.0, 41)
        values = [psi(t) for t in grid]
        assert min(values) >= 0.0
        second = np.diff(values, 2)
        assert second.min() >= -1e-12


class TestBoundReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundReport(theorem="NOPE", t=1.0, value=0.5)
        with pytest.raises(ValueError):
            BoundReport(theorem="MAIN", t=-1.0, value=0.5)
        with pytest.raises(ValueError):
            BoundReport(theorem="MAIN", t=1.0, value=1.5)
        with pytest.raises(ValueError):
            BoundReport(theorem="MAIN", t=1.0, value=0.5, ingredients={"bogus": 1.0})

    def test_serialization(self):
        report = main_bound(0.5, 0.5, 0.0, 1.0)
        doc = report.to_json()
        assert doc["theorem"] == "MAIN"
        assert doc["value"] == pytest.approx(math.exp(-0.75))
        row = report.csv_row()
        assert row[0] == "MAIN"
        assert len(row) == len(BoundReport.csv_header())


class TestSupBernstein:
    def test_sum_example(self):
        f = coordinate_sum(uniform_space(2, 2))
        got = sup_bernstein_bound(f, 0.5, 1.0)
        assert got.value == pytest.approx(math.exp(-0.75), abs=1e-14)
        assert got.ingredients["sup_scv"] == pytest.approx(0.5)

    def test_product_example(self):
        f = coordinate_product(uniform_space(2, 2))
        got = sup_bernstein_bound(f, 0.75, 1.0)
        assert got.value == pytest.approx(math.exp(-2.0 / 3.0), abs=1e-14)

    def test_small_t_tends_to_one(self):
        f = coordinate_sum(uniform_space(2, 2))
        assert sup_bernstein_bound(f, 0.5, 1e-9).value == pytest.approx(1.0, abs=1e-8)

    def test_b_too_small_rejected(self):
        f = coordinate_sum(uniform_space(2, 2))
        with pytest.raises(ValueError):
            sup_bernstein_bound(f, 0.2, 1.0)

    def test_two_sided_doubles(self):
        f = coordinate_sum(uniform_space(2, 2))
        one = sup_bernstein_bound(f, 0.5, 1.0)
        two = sup_bernstein_bound(f, 0.5, 1.0, two_sided=True)
        assert two.value == pytest.approx(2.0 * one.value)

    def test_two_sided_checks_mirror_hypothesis(self):
        space = uniform_space(3, 2)
        f = table(space, lambda c: -1.0 if c == (0, 0) else 0.0)
        b = per_coordinate_range_bound(f)
        sup_bernstein_bound(f, b, 0.5)  # one-sided fine
        with pytest.raises(ValueError):
            sup_bernstein_bound(f, b, 0.5, two_sided=True)

    def test_repeat_calls_recheck_b(self):
        f = coordinate_sum(uniform_space(2, 2))
        first = sup_bernstein_bound(f, 0.5, 1.0, two_sided=True)
        assert sup_bernstein_bound(f, 0.5, 1.0, two_sided=True) == first
        for two_sided in (False, True):
            with pytest.raises(ValueError):
                sup_bernstein_bound(f, 0.2, 1.0, two_sided=two_sided)


class TestMainBound:
    def test_bernstein_reduction_case(self):
        got = main_bound(0.5, 0.5, 0.0, 1.0)
        assert got.value == pytest.approx(math.exp(-0.75), abs=1e-15)

    def test_product_ingredients(self):
        got = main_bound(0.25, 0.75, math.sqrt(2.0), 1.0)
        assert got.value == pytest.approx(
            math.exp(-1.0 / (1.0 + math.sqrt(2.0))), abs=1e-14
        )

    @given(tabulated_strategy())
    def test_value_in_unit_interval(self, f):
        e_scv = expectation(scv(f))
        b = max(per_coordinate_range_bound(f), 1e-6)
        got = main_bound(e_scv, b, 0.1, 0.7)
        assert 0.0 < got.value < 1.0

    def test_rejects_negative_ingredients(self):
        with pytest.raises(ValueError):
            main_bound(-0.1, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            main_bound(0.1, 1.0, 0.0, -1.0)

    def test_degenerate_denominator_gives_zero(self):
        assert main_bound(0.0, 0.0, 0.0, 1.0).value == 0.0

    def test_monotone_in_j_mu(self):
        values = [main_bound(0.3, 0.4, j, 0.8).value for j in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values)


class TestVarianceCorollary:
    def test_reduces_to_bernstein_with_true_variance(self):
        got = variance_corollary_bound(0.5, 0.0, 0.0, 0.5, 1.0)
        assert got.value == pytest.approx(math.exp(-0.75), abs=1e-15)

    def test_product_ingredients(self):
        j = math.sqrt(2.0)
        got = variance_corollary_bound(3.0 / 16.0, j, j, 0.75, 1.0)
        want = math.exp(-1.0 / (3.0 / 8.0 + 1.0 + 0.5 + j))
        assert got.value == pytest.approx(want, abs=1e-14)

    def test_large_t_log_slope(self):
        # log value / t approaches -1/(2b/3 + j_mu) as the linear term takes over
        j_mu, b = 0.3, 0.6
        sigma2, j = 0.2, 0.5
        constant = 2.0 * sigma2 + 0.5 * j * j
        linear = 2.0 * b / 3.0 + j_mu
        slopes = []
        for t in (30.0, 300.0):
            got = variance_corollary_bound(sigma2, j, j_mu, b, t)
            slope = math.log(got.value) / t
            assert slope * (linear + constant / t) == pytest.approx(-1.0, rel=1e-12)
            slopes.append(slope)
        assert abs(slopes[1] + 1.0 / linear) < abs(slopes[0] + 1.0 / linear)

    @given(tabulated_strategy())
    def test_never_below_main_bound(self, f):
        sigma2 = variance(f)
        j = interaction(f)
        j_mu = weighted_interaction(f)
        e_scv = expectation(scv(f))
        b = max(per_coordinate_range_bound(f), 1e-6)
        t = 0.4
        assert e_scv <= sigma2 + 0.25 * j * j + 1e-10
        cor = variance_corollary_bound(sigma2, j, j_mu, b, t)
        assert cor.value >= main_bound(e_scv, b, j_mu, t).value - 1e-12


class TestEfronSteinGap:
    def test_sum_gap_zero(self):
        f = coordinate_sum(uniform_space(2, 3))
        gap, envelope = efron_stein_gap(f)
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert envelope == pytest.approx(0.0, abs=1e-12)

    def test_product_values(self):
        f = coordinate_product(uniform_space(2, 2))
        gap, envelope = efron_stein_gap(f)
        assert gap == pytest.approx(1.0 / 16.0, abs=1e-14)
        assert envelope == pytest.approx(0.5, abs=1e-12)

    def test_constant(self):
        f = TabulatedFunction.constant(uniform_space(2, 2), 1.0)
        gap, envelope = efron_stein_gap(f)
        assert abs(gap) <= 1e-14 and envelope <= 1e-14

    @given(tabulated_strategy())
    def test_sandwich(self, f):
        gap, envelope = efron_stein_gap(f)
        assert -1e-12 <= gap <= envelope + 1e-10


class TestBiasSecondDifferenceBound:
    def test_sum_vanishes(self):
        f = coordinate_sum(uniform_space(3, 2))
        assert bias_second_difference_bound(f) == pytest.approx(0.0, abs=1e-14)

    def test_product_value(self):
        # exhaustive 16-term shadow enumeration gives 1/8 for the coordinate
        # product on the uniform two-by-two space
        f = coordinate_product(uniform_space(2, 2))
        assert oracles.bias_second_difference_rhs(f) == pytest.approx(0.125, abs=1e-14)
        assert bias_second_difference_bound(f) == pytest.approx(0.125, abs=1e-14)

    @given(tabulated_strategy(max_axes=3, max_size=3))
    def test_matches_shadow_oracle(self, f):
        assert bias_second_difference_bound(f) == pytest.approx(
            oracles.bias_second_difference_rhs(f), abs=1e-11
        )

    @given(tabulated_strategy())
    def test_sandwich(self, f):
        gap, envelope = efron_stein_gap(f)
        middle = bias_second_difference_bound(f)
        assert gap <= middle + 1e-10
        assert middle <= envelope + 1e-10


class TestChatterjee:
    def test_constant_zero(self):
        f = TabulatedFunction.constant(uniform_space(2, 2), 2.0)
        assert chatterjee_variance(f) == pytest.approx(0.0, abs=1e-14)

    def test_sum(self):
        f = coordinate_sum(uniform_space(2, 2))
        assert chatterjee_variance(f) == pytest.approx(0.5, abs=1e-12)

    def test_product(self):
        f = coordinate_product(uniform_space(2, 2))
        assert chatterjee_variance(f) == pytest.approx(3.0 / 16.0, abs=1e-12)

    @given(tabulated_strategy())
    def test_equals_variance(self, f):
        assert chatterjee_variance(f) == pytest.approx(variance(f), abs=1e-10)

    @given(tabulated_strategy(max_axes=2, max_size=3))
    def test_shadow_form_agrees_on_two_axis_spaces(self, f):
        shadow = oracles.chatterjee_variance_shadow(f)
        assert shadow == pytest.approx(oracles.chatterjee_shadow(f), abs=1e-11)
        assert shadow == pytest.approx(chatterjee_variance(f), abs=1e-10)

    def test_shadow_capacity(self):
        f = random_table((4, 4, 4), seed=50)
        with pytest.raises(CapacityError):
            oracles.chatterjee_variance_shadow(f, cap=1000)


class TestConditionalMeanVarianceSum:
    def test_sum_equality(self):
        f = coordinate_sum(uniform_space(2, 2))
        assert conditional_mean_variance_sum(f) == pytest.approx(0.5, abs=1e-12)

    def test_constant(self):
        f = TabulatedFunction.constant(uniform_space(3, 2), -1.0)
        assert conditional_mean_variance_sum(f) == pytest.approx(0.0, abs=1e-14)

    def test_product(self):
        f = coordinate_product(uniform_space(2, 2))
        got = conditional_mean_variance_sum(f)
        assert got == pytest.approx(0.125, abs=1e-13)
        assert got <= variance(f)

    @given(tabulated_strategy())
    def test_never_exceeds_variance(self, f):
        assert conditional_mean_variance_sum(f) <= variance(f) + 1e-12

    @given(tabulated_strategy(max_axes=3, max_size=3))
    def test_matches_oracle(self, f):
        assert conditional_mean_variance_sum(f) == pytest.approx(
            oracles.conditional_mean_variance_sum(f), abs=1e-11
        )


class TestPsiRatioInequality:
    def test_a_zero(self):
        assert psi_ratio_inequality(0.0, 1.0)

    def test_near_upper_limit(self):
        assert psi_ratio_inequality(1.0, 1.199)

    def test_small_gamma_series_branch(self):
        # both sides approach 1/2; the series keeps the comparison stable
        assert psi_ratio_inequality(0.5, 1e-6)
        assert psi_ratio_inequality(10.0, 1e-9)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            psi_ratio_inequality(-0.1, 0.1)
        with pytest.raises(ValueError):
            psi_ratio_inequality(0.0, 3.0)

    def test_grid(self):
        for a in (0.0, 0.1, 1.0, 10.0):
            limit = 1.0 / (1.0 / 3.0 + a / 2.0)
            for gamma in np.linspace(0.0, limit, 101)[1:-1]:
                assert psi_ratio_inequality(a, float(gamma))


class TestChernoffInfimum:
    def test_unit_example(self):
        numeric, closed = chernoff_infimum(1.0, 1.0, 1.0)
        # stationary point beta = 1 - sqrt(2)/2
        beta = 1.0 - math.sqrt(2.0) / 2.0
        want = -beta + beta * beta / (1.0 - beta)
        assert numeric == pytest.approx(want, abs=1e-10)
        assert closed == pytest.approx(-1.0 / 6.0, abs=1e-15)
        assert numeric <= closed + 1e-10

    def test_small_t(self):
        numeric, closed = chernoff_infimum(1.0, 1.0, 1e-8)
        assert abs(numeric) <= 1e-8 and abs(closed) <= 1e-8

    def test_other_example(self):
        numeric, closed = chernoff_infimum(0.5, 2.0, 1.0)
        assert closed == pytest.approx(-1.0 / 6.0, abs=1e-15)
        assert numeric <= closed + 1e-10

    def test_random_inputs(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            c, b, t = np.exp(rng.uniform(-2, 1.5, size=3))
            numeric, closed = chernoff_infimum(float(c), float(b), float(t))
            assert numeric <= closed + 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            chernoff_infimum(0.0, 1.0, 1.0)


class TestIngredientsAndOrdering:
    @given(tabulated_strategy())
    def test_variance_term_ordering(self, f):
        ing = bound_ingredients(f)
        assert ing["E_scv"] <= ing["sup_scv"] + 1e-12
        assert ing["sup_scv"] <= ing["bd_term"] + 1e-12

    def test_sum_instance_all_terms_equal(self):
        space = uniform_space(3, 2, 2)
        rng = np.random.default_rng(61)
        profiles = [rng.uniform(-1, 1, a.size) for a in space.axes]
        f = table(space, lambda c: sum(p[i] for p, i in zip(profiles, c)))
        ing = bound_ingredients(f)
        assert ing["E_scv"] == pytest.approx(ing["sup_scv"], abs=1e-12)
        assert ing["j"] <= 1e-12 and ing["j_mu"] <= 1e-12

    def test_bounded_difference_term_product(self):
        f = coordinate_product(uniform_space(2, 2))
        # per coordinate the worst first difference is 1, so the term is 1/2
        assert bounded_difference_variance_term(f) == pytest.approx(0.5, abs=1e-14)
