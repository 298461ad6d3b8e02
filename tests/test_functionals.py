from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
from interaction_bounds import functionals
from interaction_bounds import space as space_module
from interaction_bounds.bounds import bias_second_difference_bound, bound_ingredients
from interaction_bounds.functionals import (
    GibbsState,
    InteractionReport,
    _gauss_legendre,
    _interaction_tables,
    _weighted_objective_tables,
    conditional_entropy,
    entropy,
    gibbs,
    gibbs_expectation,
    herbst_log_mgf,
    interaction,
    interaction_report,
    log_mgf,
    weighted_interaction,
)
from interaction_bounds.harness import RandomInstanceSpec, generate_instance
from interaction_bounds.space import (
    CapacityError,
    FiniteAxis,
    FiniteProductSpace,
    TabulatedFunction,
    expectation,
    variance,
)


def random_table(sizes, seed):
    space = uniform_space(*sizes)
    rng = np.random.default_rng(seed)
    return TabulatedFunction(space, rng.uniform(-1, 1, space.size))


@st.composite
def dirichlet_tables(draw):
    """Up to four axes of one to four points with Dirichlet weights."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = []
    for size in shape:
        raw = rng.dirichlet(np.ones(size))
        axes.append(FiniteAxis(weights=tuple(raw / raw.sum())))
    space = FiniteProductSpace(axes=tuple(axes))
    return TabulatedFunction(space, rng.uniform(-1, 1, space.size))


class TestGaussLegendre:
    def test_exact_on_monomials(self):
        for order in range(1, 65):
            x, w = map(np.array, _gauss_legendre(order))
            assert len(x) == order and np.all(np.abs(x) < 1.0) and np.all(w > 0.0)
            for j in range(2 * order):
                exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
                got = math.fsum((w * x**j).tolist())
                assert got == pytest.approx(exact, abs=1e-14), (order, j)


class TestInteraction:
    def test_sum_vanishes(self):
        f = coordinate_sum(uniform_space(3, 2, 3))
        assert interaction(f) <= 1e-12
        assert oracles.crude_interaction_bound(f) <= 1e-12
        assert weighted_interaction(f) <= 1e-12

    def test_product_is_sqrt_two(self):
        f = coordinate_product(uniform_space(2, 2))
        assert interaction(f) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert weighted_interaction(f) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert oracles.crude_interaction_bound(f) == pytest.approx(2.0, abs=1e-12)

    def test_positive_homogeneity(self):
        f = random_table((3, 2, 2), seed=11)
        j = interaction(f)
        assert interaction(f * 3.0) == pytest.approx(3.0 * j, rel=1e-10)
        j_mu = weighted_interaction(f)
        assert weighted_interaction(f * 2.5) == pytest.approx(2.5 * j_mu, rel=1e-10)

    @given(tabulated_strategy(max_axes=3, max_size=3))
    def test_matches_oracle(self, f):
        assert interaction(f) == pytest.approx(oracles.interaction(f), abs=1e-10)
        assert weighted_interaction(f) == pytest.approx(
            oracles.weighted_interaction(f), abs=1e-10
        )

    @given(dirichlet_tables())
    def test_matches_stencil_reductions(self, f):
        report = interaction_report(f)
        j, crude = oracles.stencil_interaction(f)
        assert report.j == pytest.approx(j, rel=1e-12, abs=1e-12)
        assert report.crude == pytest.approx(crude, rel=1e-12, abs=1e-12)
        assert report.j_mu == pytest.approx(
            oracles.substituted_weighted_interaction(f), rel=1e-12, abs=1e-12
        )
        assert bias_second_difference_bound(f) == pytest.approx(
            oracles.stencil_bias_bound(f), rel=1e-12, abs=1e-14
        )

    @given(tabulated_strategy())
    def test_chain(self, f):
        report = interaction_report(f)
        assert report.j_mu <= report.j + 1e-10
        assert report.j <= report.crude + 1e-10

    @given(seeded_tables())
    @example(seeded_table((3,), True, 1))
    @example(seeded_table((1, 4, 1, 2), False, 2))
    @example(seeded_table((1, 1), True, 3))
    @example(seeded_table((9, 3, 8), True, 4))
    @example(seeded_table((4, 4, 4, 4), True, 5))
    @example(seeded_table((2, 4, 1, 4, 3), False, 6))
    @example(seeded_table((3, 2, 2, 2), True, 7))
    @example(seeded_table((4, 2, 2, 2), False, 8))
    @example(seeded_table((7, 3, 3, 3), True, 9))
    @example(seeded_table((9, 2, 2, 2, 2), False, 10))
    @example(seeded_table((40, 8, 8, 8), True, 11))
    def test_batched_objective_is_per_z_loop_bit_for_bit(self, f):
        want = oracles.weighted_objective_tables_per_z(f)
        assert np.array_equal(_weighted_objective_tables(f), want)

    @pytest.mark.parametrize(
        "shape",
        [
            (4,) * 5, (3,) * 6, (2,) * 9, (1, 3, 1, 4, 2, 1, 3, 1),
            (4,) * 6, (3,) * 8, (2,) * 14, (4,) * 7, (4,) * 8,
            (64, 2, 2), (300, 3), (9, 3, 8),
            (3, 2, 2, 2), (4, 2, 2, 2), (7, 3, 3, 3), (9, 2, 2, 2, 2), (40, 8, 8, 8),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("dirichlet", [False, True], ids=["uniform", "dirichlet"])
    def test_pair_kernels_bit_for_bit_on_deep_shapes(self, shape, dirichlet):
        # Five to nine axes: every axis takes the copied layout of the j_mu
        # sweep at least once, with length-one axes first, inside and last.
        # The j_mu sweep takes the points z of axis l in blocks, the first of
        # min(s_l, n - 1) points and each later one of one point fewer.  The
        # dense benchmark's ladder (4^6 to 4^8) fits every axis in one block;
        # (300, 3) holds its one centred table for all 300 points.  Axis 0
        # of the last five fills one block exactly (s_l = n - 1), leaves one
        # point for a second block (s_l = n), spans three full blocks, and
        # twice spans several blocks with a partial last one.
        f = seeded_table(shape, dirichlet, seed=len(shape))
        table, max_abs = _interaction_tables(f)
        want_table, want_max_abs = oracles.interaction_tables_triu(f)
        assert np.array_equal(table, want_table)
        assert max_abs == want_max_abs
        want = oracles.weighted_objective_tables_per_z(f)
        assert np.array_equal(_weighted_objective_tables(f), want)

    @pytest.mark.parametrize(
        "shape, tables",
        [((4,) * 8, 7.5), ((2,) * 14, 6.5), ((64, 2, 2), 11.3), ((300, 3), 8.3),
         ((40, 8, 8, 8), 7.0)],
        ids=str,
    )
    def test_objective_traced_peak_in_tables(self, shape, tables):
        # At most min(n - 1, s_l) + 3 table-sized buffers: 7 at 4^8 and 5 at
        # 2^14, where all n centred tables and four more took 12.4 and 19.2.
        # A long axis goes in blocks of points, each holding its sums and one
        # centred table, so the long-axis shapes keep that bound too, besides
        # rows of size / s_k values and, on small tables, fixed costs.
        f = seeded_table(shape, True, seed=1)
        _weighted_objective_tables(f)  # weight arrays are cached on the first call
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _weighted_objective_tables(f)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / f.values.nbytes <= tables

    def test_report_traced_peak_in_tables(self):
        # The summed table of j and crude goes before j_mu runs, so the report
        # peaks where the objective does; holding it as well took 8.4 tables.
        f = seeded_table((4,) * 8, True, seed=1)
        interaction_report(f)  # weight arrays are cached on the first call
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            interaction_report(f)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / f.values.nbytes <= 7.5

    def test_single_axis_is_zero(self):
        f = random_table((4,), seed=12)
        report = interaction_report(f)
        assert report.j == report.j_mu == report.crude == 0.0


class TestInteractionReport:
    @given(tabulated_strategy())
    def test_fields_match_the_functionals_bit_for_bit(self, f):
        report = interaction_report(f)
        assert interaction(f) == report.j
        assert oracles.crude_interaction_bound(f) == report.crude
        assert weighted_interaction(f) == report.j_mu
        assert report.approximate is False

    def test_chain_validated(self):
        with pytest.raises(ValueError):
            InteractionReport(j=1.0, j_mu=2.0, crude=3.0)

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_chain_tolerance_scales_with_the_table(self, scale):
        # Additive, so j = crude = 0; the first axis's weights sum to 1 + 1e-13,
        # within WEIGHT_SUM_TOL, and leave a j_mu of about 2e-13 * scale.
        space = FiniteProductSpace(
            axes=(FiniteAxis(weights=(0.5, 0.5000000000001)), FiniteAxis(weights=(0.5, 0.5)))
        )
        f = TabulatedFunction(space, np.array([[0.0, scale], [0.0, scale]]))
        report = interaction_report(f)
        assert report.j == report.crude == 0.0
        assert 0.0 < report.j_mu < 1e-12 * scale
        assert bound_ingredients(f)["j_mu"] == report.j_mu

    def test_chain_tolerance_is_relative_to_scale(self):
        InteractionReport(j=1.0, j_mu=1.0 + 5e-5, crude=3.0, scale=1e6)
        with pytest.raises(ValueError, match="chain violated"):
            InteractionReport(j=1.0, j_mu=1.0 + 2e-4, crude=3.0, scale=1e6)
        with pytest.raises(ValueError, match="chain violated"):
            InteractionReport(j=1.0, j_mu=1.0 + 2e-10, crude=3.0, scale=0.5)

    def test_cap_exceeded_raises(self, monkeypatch):
        # The cap is the space's: an 18-configuration table cannot be built
        # under a cap of 17, and at 18 the functionals run as without it.
        want = interaction_report(random_table((3, 3, 2), seed=100))
        monkeypatch.setattr(space_module, "DEFAULT_CAP", 17)
        with pytest.raises(CapacityError, match="^18 configurations exceed the cap of 17$"):
            random_table((3, 3, 2), seed=100)
        monkeypatch.setattr(space_module, "DEFAULT_CAP", 18)
        f = random_table((3, 3, 2), seed=100)
        assert interaction_report(f) == want
        assert (weighted_interaction(f), interaction(f)) == (want.j_mu, want.j)
        with pytest.raises(CapacityError, match="cap of 17"):
            oracles.crude_interaction_bound(f, cap=17)


class TestGibbs:
    def test_beta_zero(self):
        f = random_table((2, 3), seed=14)
        state = gibbs(f, 0.0)
        assert state.log_z == pytest.approx(0.0, abs=1e-14)

    def test_constant(self):
        f = TabulatedFunction.constant(uniform_space(2, 2), 1.5)
        assert gibbs(f, 2.0).log_z == pytest.approx(3.0, abs=1e-13)

    def test_two_point_value(self):
        f = table(uniform_space(2), lambda c: float(c[0]))
        state = gibbs(f, 1.0)
        assert state.log_z == pytest.approx(math.log((1 + math.e) / 2), abs=1e-14)

    def test_rejects_negative_beta(self):
        f = random_table((2,), seed=15)
        with pytest.raises(ValueError):
            gibbs(f, -0.5)

    def test_expectation_constant(self):
        space = uniform_space(2, 2)
        f = coordinate_sum(space)
        state = gibbs(f, 1.3)
        g = TabulatedFunction.constant(space, 4.2)
        assert gibbs_expectation(state, g) == pytest.approx(4.2, abs=1e-12)

    def test_expectation_at_beta_zero(self):
        f = random_table((3, 2), seed=16)
        g = random_table((3, 2), seed=17)
        state = gibbs(f, 0.0)
        assert gibbs_expectation(state, g) == pytest.approx(expectation(g), abs=1e-13)

    def test_two_point_ratio(self):
        f = table(uniform_space(2), lambda c: float(c[0]))
        state = gibbs(f, 1.0)
        assert gibbs_expectation(state, f) == pytest.approx(
            math.e / (1 + math.e), abs=1e-14
        )

    def test_space_mismatch(self):
        state = gibbs(random_table((2, 2), seed=18), 1.0)
        with pytest.raises(ValueError):
            gibbs_expectation(state, random_table((2, 3), seed=19))

    @given(tabulated_strategy())
    def test_expectation_within_range(self, f):
        state = gibbs(f, 1.7)
        value = gibbs_expectation(state, f)
        assert f.min() - 1e-12 <= value <= f.max() + 1e-12


class TestEntropy:
    def test_zero_at_beta_zero(self):
        f = random_table((2, 2, 2), seed=20)
        assert entropy(f, 0.0) == pytest.approx(0.0, abs=1e-13)

    def test_constant_zero_for_all_beta(self):
        f = TabulatedFunction.constant(uniform_space(3), -0.7)
        for beta in (0.25, 1.0, 2.0):
            assert entropy(f, beta) == pytest.approx(0.0, abs=1e-13)

    def test_two_point_formula(self):
        f = table(uniform_space(2), lambda c: float(c[0]))
        want = math.e / (1 + math.e) - math.log((1 + math.e) / 2)
        assert entropy(f, 1.0) == pytest.approx(want, abs=1e-14)

    @given(tabulated_strategy())
    def test_nonnegative(self, f):
        for beta in (0.5, 2.0):
            assert entropy(f, beta) >= -1e-12

    def test_fluctuation_representation(self):
        # entropy equals the integral of s * tilted variance at s over [0, beta]
        f = random_table((3, 2, 2), seed=21)
        x, w = map(np.array, _gauss_legendre(40))
        for beta in (0.5, 1.0, 2.0):
            nodes = 0.5 * beta * (x + 1.0)
            integral = 0.5 * beta * math.fsum(
                wi * s * oracles.tilted_variance(f, s) for wi, s in zip(w.tolist(), nodes.tolist())
            )
            assert entropy(f, beta) == pytest.approx(integral, abs=1e-12)

    def test_tilted_variance_at_zero(self):
        f = random_table((2, 3), seed=22)
        assert oracles.tilted_variance(f, 0.0) == pytest.approx(variance(f), abs=1e-13)


class TestConditionalEntropy:
    def test_constant_zero(self):
        f = TabulatedFunction.constant(uniform_space(2, 2), 0.9)
        assert np.allclose(conditional_entropy(f, 0, 1.0).values, 0.0, atol=1e-13)

    def test_independent_coordinate_zero(self):
        space = uniform_space(2, 3)
        f = table(space, lambda c: float(c[0]))
        assert np.allclose(conditional_entropy(f, 1, 1.5).values, 0.0, atol=1e-13)

    def test_beta_zero(self):
        f = random_table((2, 2), seed=23)
        assert np.allclose(conditional_entropy(f, 0, 0.0).values, 0.0, atol=1e-13)

    @given(tabulated_strategy())
    def test_nonnegative_and_fiber_constant(self, f):
        for k in range(f.space.n):
            s = conditional_entropy(f, k, 1.0)
            assert s.values.min() >= -1e-12
            spread = s.values.max(axis=k) - s.values.min(axis=k)
            assert float(np.max(spread)) <= 1e-12


class TestHerbst:
    def test_constant_zero(self):
        f = TabulatedFunction.constant(uniform_space(2, 2), 3.3)
        assert herbst_log_mgf(f, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_against_direct(self):
        f = table(uniform_space(2), lambda c: float(c[0]))
        direct = log_mgf(f, 1.0)
        assert direct == pytest.approx(math.log(math.cosh(0.5)), abs=1e-14)
        assert herbst_log_mgf(f, 1.0) == pytest.approx(direct, abs=1e-12)

    def test_random_tables_against_direct(self):
        for seed in range(4):
            f = random_table((2, 2, 2), seed=30 + seed)
            for beta in (0.5, 1.0, 2.0):
                direct = log_mgf(f, beta)
                assert oracles.log_mgf(f, beta) == pytest.approx(direct, abs=1e-12)
                assert herbst_log_mgf(f, beta) == pytest.approx(direct, abs=1e-12)

    def test_small_beta(self):
        f = random_table((2, 2), seed=40)
        beta = 5e-4
        assert herbst_log_mgf(f, beta) == pytest.approx(log_mgf(f, beta), abs=1e-12)

    def test_verify_seed_one_witness(self):
        # verify --seed 1, entropy instance 27, at beta = 1: an adaptive rule
        # stopped after six evaluations here, 1.8e-7 away from the identity.
        _, f = generate_instance(RandomInstanceSpec(seed=6889171430623620071))
        assert f.space.shape == (2, 2, 2, 3)
        assert herbst_log_mgf(f, 1.0) == pytest.approx(log_mgf(f, 1.0), abs=1e-12)

    def test_over_cap_raises_before_evaluating(self, monkeypatch):
        f = random_table((2, 2), seed=42)
        width = f.max() - f.min()
        order = math.ceil(16.0 / math.asinh(math.pi / width))
        calls = []

        def counting(*args):
            calls.append(args)
            return entropy(*args)

        monkeypatch.setattr(functionals, "entropy", counting)
        monkeypatch.setattr(functionals, "DEFAULT_CAP", 4 * order - 1)
        with pytest.raises(CapacityError, match=f"cap of {4 * order - 1}"):
            herbst_log_mgf(f, 1.0)
        assert calls == []
        monkeypatch.setattr(functionals, "DEFAULT_CAP", 4 * order)
        herbst_log_mgf(f, 1.0)
        assert len(calls) == order

    def test_rejects_nonpositive_beta(self):
        f = random_table((2,), seed=41)
        with pytest.raises(ValueError):
            herbst_log_mgf(f, 0.0)
