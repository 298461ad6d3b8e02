from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given

import oracles
from conftest import (
    coordinate_product,
    coordinate_sum,
    seeded_table,
    seeded_tables,
    table,
    tabulated_strategy,
    uniform_space,
)
from interaction_bounds.functionals import conditional_entropy
from interaction_bounds.operators import (
    _contract,
    cond_expectation,
    cond_variance,
    cond_variance_pairs,
    scv,
    self_bounding_operator,
    substitute,
)
from interaction_bounds.space import TabulatedFunction, expectation, variance


def random_table(sizes, seed):
    space = uniform_space(*sizes)
    rng = np.random.default_rng(seed)
    return TabulatedFunction(space, rng.uniform(-1, 1, space.size))


class TestSubstitute:
    def test_product_becomes_coordinate(self):
        f = coordinate_product(uniform_space(2, 2))
        got = substitute(f, 1, 1)
        want = table(f.space, lambda c: float(c[0]))
        assert np.allclose(got.values, want.values)

    def test_identity_on_independent_functions(self):
        space = uniform_space(2, 3)
        f = table(space, lambda c: float(c[0]))
        got = substitute(f, 1, 2)
        assert np.array_equal(got.values, f.values)

    def test_resubstitution_keeps_first_point(self):
        # substituting on an axis already frozen there is the identity
        f = random_table((2, 3), seed=1)
        first = substitute(f, 1, 2)
        again = substitute(first, 1, 0)
        assert np.allclose(again.values, first.values, atol=0, rtol=0)

    def test_out_of_range(self):
        f = coordinate_sum(uniform_space(2, 2))
        with pytest.raises(IndexError):
            substitute(f, 0, 2)
        with pytest.raises(IndexError):
            substitute(f, 2, 0)

    @given(tabulated_strategy())
    def test_homomorphism(self, f):
        g = f * f - 0.5
        k, y = 0, 0
        lhs = substitute(f * g, k, y)
        rhs = substitute(f, k, y) * substitute(g, k, y)
        assert np.allclose(lhs.values, rhs.values, atol=1e-12)

    @given(tabulated_strategy())
    def test_matches_oracle(self, f):
        k = f.space.n - 1
        y = f.space.axes[k].size - 1
        got = substitute(f, k, y)
        for c in oracles.configs(f.space):
            assert got.values[c] == pytest.approx(
                oracles.substituted(f, k, y, c), abs=1e-14
            )


class TestDifference:
    def test_product_gives_other_coordinate(self):
        f = coordinate_product(uniform_space(2, 2))
        got = oracles.difference(f, 0, 1, 0)
        want = table(f.space, lambda c: float(c[1]))
        assert np.allclose(got.values, want.values)

    def test_equal_points_zero(self):
        f = random_table((3, 2), seed=2)
        assert np.all(oracles.difference(f, 0, 1, 1).values == 0.0)

    def test_independent_axis_zero(self):
        space = uniform_space(2, 3)
        f = table(space, lambda c: float(c[0]))
        assert np.all(oracles.difference(f, 1, 2, 0).values == 0.0)

    def test_antisymmetry(self):
        f = random_table((3, 3), seed=3)
        a = oracles.difference(f, 0, 2, 1)
        b = oracles.difference(f, 0, 1, 2)
        assert np.allclose(a.values, -b.values)


class TestConstantAlongEliminatedAxis:
    @given(tabulated_strategy())
    def test_outputs_are_exactly_constant_along_k(self, f):
        for k, axis in enumerate(f.space.axes):
            last = axis.size - 1
            for out in (
                substitute(f, k, last),
                oracles.difference(f, k, last, 0),
                cond_expectation(f, k),
                cond_variance(f, k),
                cond_variance_pairs(f, k),
                conditional_entropy(f, k, 0.7),
            ):
                assert out.values.shape == f.space.shape
                spread = out.values.max(axis=k) - out.values.min(axis=k)
                assert np.all(spread == 0.0)


class TestContract:
    @given(seeded_tables())
    @example(seeded_table((5,), True, 1))
    @example(seeded_table((1, 3, 1), False, 2))
    @example(seeded_table((9, 2, 8), True, 3))
    def test_is_tensordot_bit_for_bit(self, f):
        for k, axis in enumerate(f.space.axes):
            w = axis.weight_array()
            got = _contract(f.values, w, k)
            want = np.tensordot(f.values, w, axes=([k], [0]))
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestCondExpectation:
    def test_sum_function(self):
        f = coordinate_sum(uniform_space(2, 2))
        got = cond_expectation(f, 0)
        want = table(f.space, lambda c: 0.5 + c[1])
        assert np.allclose(got.values, want.values)

    def test_constant_fixed_point(self):
        f = TabulatedFunction.constant(uniform_space(2, 3), 2.5)
        assert np.allclose(cond_expectation(f, 1).values, 2.5)

    def test_idempotent(self):
        f = random_table((3, 2, 2), seed=4)
        once = cond_expectation(f, 1)
        twice = cond_expectation(once, 1)
        assert np.allclose(once.values, twice.values, atol=1e-15)

    @given(tabulated_strategy())
    def test_fubini(self, f):
        if f.space.n < 2:
            return
        a = cond_expectation(cond_expectation(f, 0), 1)
        b = cond_expectation(cond_expectation(f, 1), 0)
        assert np.allclose(a.values, b.values, atol=1e-12)

    @given(tabulated_strategy())
    def test_matches_oracle(self, f):
        got = cond_expectation(f, 0)
        for c in oracles.configs(f.space):
            assert got.values[c] == pytest.approx(
                oracles.cond_expectation_at(f, 0, c), abs=1e-12
            )


class TestCondVariance:
    def test_product_function(self):
        f = coordinate_product(uniform_space(2, 2))
        got = cond_variance(f, 0)
        want = table(f.space, lambda c: c[1] / 4.0)
        assert np.allclose(got.values, want.values)

    def test_independent_axis_zero(self):
        space = uniform_space(2, 3)
        f = table(space, lambda c: float(c[0]))
        assert np.allclose(cond_variance(f, 1).values, 0.0)

    def test_sum_function_constant(self):
        f = coordinate_sum(uniform_space(2, 2))
        assert np.allclose(cond_variance(f, 0).values, 0.25)

    @given(tabulated_strategy())
    def test_nonnegative(self, f):
        for k in range(f.space.n):
            assert cond_variance(f, k).values.min() >= 0.0
            assert cond_variance_pairs(f, k).values.min() >= 0.0

    @given(tabulated_strategy())
    def test_two_formulas_agree(self, f):
        for k in range(f.space.n):
            a = cond_variance(f, k)
            b = cond_variance_pairs(f, k)
            assert np.allclose(a.values, b.values, atol=1e-10)

    def test_substitute_on_own_axis_is_identity(self):
        f = random_table((3, 4), seed=6)
        cv = cond_variance(f, 1)
        assert np.array_equal(substitute(cv, 1, 2).values, cv.values)

    @given(tabulated_strategy())
    def test_matches_oracle(self, f):
        got = cond_variance(f, 0)
        for c in oracles.configs(f.space):
            assert got.values[c] == pytest.approx(
                oracles.cond_variance_at(f, 0, c), abs=1e-12
            )


class TestScv:
    def test_sum_is_constant(self):
        f = coordinate_sum(uniform_space(2, 2))
        assert np.allclose(scv(f).values, 0.5)

    def test_product(self):
        f = coordinate_product(uniform_space(2, 2))
        want = table(f.space, lambda c: (c[0] + c[1]) / 4.0)
        assert np.allclose(scv(f).values, want.values)

    def test_constant_zero(self):
        # weights like 1/3 do not sum to exactly 1.0 in floating point, so a
        # constant's conditional mean picks up one rounding error; the
        # conditional variance is then O(eps^2), not an exact zero.
        f = TabulatedFunction.constant(uniform_space(3, 3), 7.0)
        assert np.all(np.abs(scv(f).values) <= 1e-25)

    @given(tabulated_strategy())
    def test_efron_stein(self, f):
        assert variance(f) <= expectation(scv(f)) + 1e-12

    def test_efron_stein_equality_for_sums(self):
        space = uniform_space(3, 2, 4)
        rng = np.random.default_rng(7)
        profiles = [rng.uniform(-1, 1, a.size) for a in space.axes]
        f = table(space, lambda c: sum(p[i] for p, i in zip(profiles, c)))
        assert abs(variance(f) - expectation(scv(f))) <= 1e-10


class TestSelfBoundingOperator:
    def test_scaled_sum(self):
        space = uniform_space(2, 2)
        g = table(space, lambda c: (c[0] + c[1]) / 4.0)
        want = table(space, lambda c: (c[0] + c[1]) / 16.0)
        assert np.allclose(self_bounding_operator(g).values, want.values)

    def test_constant_zero(self):
        g = TabulatedFunction.constant(uniform_space(2, 2), 3.0)
        assert np.all(self_bounding_operator(g).values == 0.0)

    def test_single_coordinate(self):
        g = table(uniform_space(2, 2), lambda c: float(c[0]))
        want = table(g.space, lambda c: float(c[0] ** 2))
        assert np.allclose(self_bounding_operator(g).values, want.values)

    @given(tabulated_strategy())
    def test_nonnegative(self, g):
        assert self_bounding_operator(g).values.min() >= 0.0


class TestSecondDifference:
    def test_product_constant_one(self):
        f = coordinate_product(uniform_space(2, 2))
        got = oracles.second_difference(f, 0, 1, 1, 0, 1, 0)
        assert np.allclose(got.values, 1.0)

    def test_sum_vanishes(self):
        f = coordinate_sum(uniform_space(3, 3))
        got = oracles.second_difference(f, 0, 1, 2, 0, 1, 0)
        assert np.allclose(got.values, 0.0, atol=1e-15)

    def test_independent_axis_vanishes(self):
        space = uniform_space(2, 3)
        f = table(space, lambda c: float(c[0] ** 2))
        assert np.allclose(oracles.second_difference(f, 0, 1, 1, 0, 2, 1).values, 0.0)

    def test_rejects_equal_axes(self):
        f = coordinate_sum(uniform_space(2, 2))
        with pytest.raises(ValueError):
            oracles.second_difference(f, 1, 1, 0, 1, 0, 1)

    def test_swap_symmetry(self):
        f = random_table((3, 4, 2), seed=8)
        a = oracles.second_difference(f, 0, 1, 2, 1, 3, 0)
        b = oracles.second_difference(f, 1, 0, 3, 0, 2, 1)
        assert np.allclose(a.values, b.values, atol=1e-12)

    @given(tabulated_strategy(max_axes=3))
    def test_tensor_matches_oracle(self, f):
        if f.space.n < 2:
            return
        k, l = 0, f.space.n - 1
        tens = oracles.pair_second_differences(f.values, k, l)
        rest_shape = tuple(
            s for i, s in enumerate(f.space.shape) if i not in (k, l)
        )
        for y, y2, z, z2 in itertools.product(
            range(f.space.shape[k]),
            range(f.space.shape[k]),
            range(f.space.shape[l]),
            range(f.space.shape[l]),
        ):
            block = tens[y, y2, z, z2].reshape(rest_shape or (1,))
            config = [0] * f.space.n
            want = oracles.second_difference_at(f, k, l, y, y2, z, z2, config)
            assert block.ravel()[0] == pytest.approx(want, abs=1e-12)


class TestCommutation:
    @given(tabulated_strategy())
    def test_substitution_and_expectation_commute_across_axes(self, f):
        if f.space.n < 2:
            return
        k, l = 0, 1
        y = f.space.axes[k].size - 1
        z = f.space.axes[l].size - 1
        a = substitute(substitute(f, k, y), l, z)
        b = substitute(substitute(f, l, z), k, y)
        assert np.allclose(a.values, b.values, atol=1e-12)
        a = cond_expectation(substitute(f, k, y), l)
        b = substitute(cond_expectation(f, l), k, y)
        assert np.allclose(a.values, b.values, atol=1e-12)

    @given(tabulated_strategy())
    def test_substitution_commutes_with_cond_variance(self, f):
        if f.space.n < 2:
            return
        k, l = 0, 1
        y = 0
        a = substitute(cond_variance(f, l), k, y)
        b = cond_variance(substitute(f, k, y), l)
        assert np.allclose(a.values, b.values, atol=1e-12)
