from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import oracles
from interaction_bounds.bounds import main_bound
from interaction_bounds.rls import (
    GapTable,
    Population,
    RlsProblem,
    derivative_bound_check,
    empirical_risk,
    empirical_scv,
    exact_gap_mean,
    exact_gap_tail,
    exhaustive_scv,
    gap_tail_bound,
    generalization_gap,
    mc_gap_values,
    measured_ingredients,
    population_sampler,
    rls_config_from_json,
    solve,
    stability_difference,
    true_risk,
)
from interaction_bounds.rng import substream
from interaction_bounds.space import CapacityError

TWO_ATOM = Population(xs=[[0.9], [-0.7]], ys=[0.8, -0.6], probs=[0.5, 0.5])
SKEW_ATOM = Population(xs=[[0.6], [-1.0]], ys=[1.0, -0.2], probs=[0.3, 0.7])
PLANE_ATOM = Population(
    xs=[[0.5, -0.3], [-0.6, 0.2], [0.1, 0.8]], ys=[0.7, -0.4, 0.2], probs=[0.25, 0.45, 0.3]
)


def random_problem(rng, d=None, n=None, lam=None):
    d = d or int(rng.integers(1, 4))
    n = n or int(rng.integers(2, 13))
    lam = lam or float(rng.choice(np.arange(1, 10) / 10.0))
    xs = rng.normal(size=(n, d))
    norms = np.linalg.norm(xs, axis=1, keepdims=True)
    xs = xs / np.maximum(norms, 1.0) * rng.uniform(0.2, 1.0, size=(n, 1))
    ys = rng.uniform(-1.0, 1.0, size=n)
    return RlsProblem(xs=xs, ys=ys, lam=lam)


class TestProblemValidation:
    def test_rejects_big_inputs(self):
        with pytest.raises(ValueError):
            RlsProblem(xs=[[1.5]], ys=[0.0], lam=0.5)

    def test_rejects_big_labels(self):
        with pytest.raises(ValueError):
            RlsProblem(xs=[[0.5]], ys=[1.5], lam=0.5)

    def test_rejects_bad_lambda(self):
        for lam in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                RlsProblem(xs=[[0.5]], ys=[0.5], lam=lam)


class TestSolve:
    def test_scalar_closed_form(self):
        prob = RlsProblem(xs=np.ones((5, 1)), ys=np.ones(5), lam=0.3)
        sol = solve(prob)
        assert sol.w[0] == pytest.approx(1.0 / 1.3, abs=1e-14)

    def test_zero_labels_give_zero(self):
        rng = np.random.default_rng(1)
        prob = random_problem(rng, d=3, n=6)
        prob = RlsProblem(xs=prob.xs, ys=np.zeros(prob.n), lam=prob.lam)
        assert np.allclose(solve(prob).w, 0.0)

    def test_norm_and_objective_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            prob = random_problem(rng)
            sol = solve(prob)
            assert float(np.linalg.norm(sol.w)) <= prob.lam**-0.5 + 1e-10
            emp = empirical_risk(sol, prob)
            reg = prob.lam * float(np.linalg.norm(sol.w)) ** 2
            assert emp + reg <= 1.0 + 1e-12
            assert emp * prob.n <= prob.n + 1e-10  # sum residuals^2 <= n
            assert sol.residual <= 1e-10


class TestRisks:
    def test_empirical_closed_form(self):
        prob = RlsProblem(xs=np.ones((3, 1)), ys=np.ones(3), lam=0.4)
        sol = solve(prob)
        assert empirical_risk(sol, prob) == pytest.approx(
            (0.4 / 1.4) ** 2, abs=1e-14
        )

    def test_true_risk_on_own_sample(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng, d=2, n=4)
        sol = solve(prob)
        pop = Population(xs=prob.xs, ys=prob.ys, probs=np.full(prob.n, 0.25))
        assert true_risk(sol, pop) == pytest.approx(
            empirical_risk(sol, prob), abs=1e-13
        )

    def test_single_atom_population(self):
        prob = RlsProblem(xs=np.ones((3, 1)), ys=np.ones(3), lam=0.4)
        sol = solve(prob)
        pop = Population(xs=[[0.5]], ys=[-0.25], probs=[1.0])
        want = (0.5 * sol.w[0] + 0.25) ** 2
        assert true_risk(sol, pop) == pytest.approx(float(want), abs=1e-14)

    def test_population_probability_validation(self):
        with pytest.raises(ValueError):
            Population(xs=[[0.1], [0.2]], ys=[0.0, 0.0], probs=[0.6, 0.5])


class TestStability:
    def test_identical_replacement_is_zero(self):
        prob = RlsProblem(xs=np.ones((4, 1)) * 0.5, ys=np.full(4, 0.25), lam=0.2)
        got = stability_difference(prob, 2, (np.array([0.5]), 0.25), TWO_ATOM)
        assert got == 0.0

    def test_matches_scalar_closed_form(self):
        # independent scalar route for d = 1: w = sum(xy) / (sum(x^2) + n lam)
        xs = [0.9, -0.7, 0.4, 0.9]
        ys = [0.8, -0.6, 0.1, -0.2]
        lam = 0.35
        pop_xs = [0.9, -0.7]
        pop_ys = [0.8, -0.6]
        pop_ps = [0.5, 0.5]
        prob = RlsProblem(
            xs=np.array(xs)[:, None], ys=np.array(ys), lam=lam
        )
        replacement = (np.array([-0.7]), -0.6)
        got = stability_difference(prob, 1, replacement, TWO_ATOM)
        base = oracles.rls_gap_1d(xs, ys, lam, pop_xs, pop_ys, pop_ps)
        xs2 = list(xs)
        ys2 = list(ys)
        xs2[1], ys2[1] = -0.7, -0.6
        modified = oracles.rls_gap_1d(xs2, ys2, lam, pop_xs, pop_ys, pop_ps)
        assert got == pytest.approx(base - modified, abs=1e-12)


class TestDerivativeBoundCheck:
    def test_constant_path_has_zero_derivatives(self):
        prob = RlsProblem(
            xs=np.array([[0.9], [-0.7], [0.2], [0.5]]),
            ys=np.array([0.8, -0.6, 0.1, -0.3]),
            lam=0.5,
        )
        z = (np.array([0.4]), 0.2)
        rep = derivative_bound_check(prob, 0, 1, z, z, z, z)
        assert rep.max_first <= 1e-9
        assert rep.max_mixed <= 1e-7
        assert not rep.step_warning

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_hold_on_random_problems(self, seed):
        rng = np.random.default_rng(200 + seed)
        prob = random_problem(rng, n=max(4, int(rng.integers(4, 13))))

        def draw_z():
            x = rng.normal(size=prob.dim)
            x = x / max(np.linalg.norm(x), 1.0) * rng.uniform(0.1, 1.0)
            return (x, float(rng.uniform(-1, 1)))

        rep = derivative_bound_check(
            prob, 0, 1, draw_z(), draw_z(), draw_z(), draw_z(), grid=2
        )
        assert rep.first_ok, (rep.max_first, rep.bound_first)
        assert rep.mixed_ok, (rep.max_mixed, rep.bound_mixed)
        assert rep.rate_ok, (rep.max_gram_rate, rep.max_moment_rate, rep.rate_bound)
        assert rep.gram_mixed_ok

    def test_rejects_same_index(self):
        prob = RlsProblem(xs=np.zeros((3, 1)), ys=np.zeros(3), lam=0.5)
        z = (np.zeros(1), 0.0)
        with pytest.raises(ValueError):
            derivative_bound_check(prob, 1, 1, z, z, z, z)

    def test_rejects_endpoint_outside_instance_space(self):
        prob = RlsProblem(xs=np.zeros((3, 1)), ys=np.zeros(3), lam=0.5)
        z = (np.zeros(1), 0.0)
        bad = (np.array([1.5]), 0.0)
        with pytest.raises(ValueError):
            derivative_bound_check(prob, 0, 1, bad, z, z, z)


class TestGapTailBound:
    def test_limits(self):
        assert gap_tail_bound(0.5, 10, 0.5, 1.0, 1e-12) == pytest.approx(1.0)

    def test_monotone_in_c(self):
        values = [gap_tail_bound(0.1, 8, 0.3, c, 0.4) for c in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values)

    def test_solved_for_t_inversion(self):
        e_scv, n, lam, c = 0.02, 10, 0.4, 1.5
        for delta in (0.1, 0.01, 1e-3):
            log_term = math.log(1.0 / delta)
            t = math.sqrt(2.0 * e_scv * log_term) + c * lam**-3 * log_term / n
            assert gap_tail_bound(e_scv, n, lam, c, t) <= delta + 1e-12


class TestScvEstimators:
    def test_zero_labels_give_zero(self):
        pop = Population(xs=[[0.9], [-0.7]], ys=[0.0, 0.0], probs=[0.5, 0.5])
        mean, stderr = empirical_scv(
            population_sampler(pop, 4, 0.5), pop, replications=20, seed=1
        )
        assert mean == 0.0
        assert exhaustive_scv(pop, 4, 0.5) == 0.0

    def test_deterministic_in_seed(self):
        sampler = population_sampler(TWO_ATOM, 4, 0.5)
        a = empirical_scv(sampler, TWO_ATOM, replications=50, seed=9)
        b = empirical_scv(sampler, TWO_ATOM, replications=50, seed=9)
        assert a == b
        c = empirical_scv(sampler, TWO_ATOM, replications=50, seed=10)
        assert a != c

    def test_exhaustive_matches_literal_oracle(self):
        # literal enumeration over every sample and replacement pair, with the
        # gap recomputed through the independent scalar closed form
        pop = SKEW_ATOM
        n, lam = 4, 0.45
        pop_xs = [float(x[0]) for x in pop.xs]
        pop_ys = [float(y) for y in pop.ys]
        pop_ps = [float(p) for p in pop.probs]

        def gap(idx):
            xs = [pop_xs[i] for i in idx]
            ys = [pop_ys[i] for i in idx]
            return oracles.rls_gap_1d(xs, ys, lam, pop_xs, pop_ys, pop_ps)

        total = 0.0
        for sample in itertools.product(range(2), repeat=n):
            w = math.prod(pop_ps[i] for i in sample)
            for k in range(n):
                for ya, yb in itertools.product(range(2), repeat=2):
                    sa = list(sample)
                    sa[k] = ya
                    sb = list(sample)
                    sb[k] = yb
                    total += (
                        w
                        * pop_ps[ya]
                        * pop_ps[yb]
                        * 0.5
                        * (gap(sa) - gap(sb)) ** 2
                    )
        want = total
        assert exhaustive_scv(pop, n, lam) == pytest.approx(want, abs=1e-13)

    def test_monte_carlo_matches_exhaustive(self):
        n, lam = 4, 0.5
        exact = exhaustive_scv(TWO_ATOM, n, lam)
        mean, stderr = empirical_scv(
            population_sampler(TWO_ATOM, n, lam), TWO_ATOM, replications=600, seed=2
        )
        assert abs(mean - exact) <= 3.0 * stderr

    def test_consistent_across_seeds(self):
        sampler = population_sampler(TWO_ATOM, 4, 0.5)
        a, sa = empirical_scv(sampler, TWO_ATOM, replications=300, seed=21)
        b, sb = empirical_scv(sampler, TWO_ATOM, replications=300, seed=22)
        assert abs(a - b) <= 3.0 * (sa + sb)


class TestGapDistribution:
    def test_multiset_probabilities_sum_to_one(self):
        total = math.fsum(GapTable(SKEW_ATOM, 6, 0.5).probs)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_gap_table_symmetric_key(self):
        table = GapTable(TWO_ATOM, 4, 0.5)
        assert table.value((0, 1, 0, 1)) == table.value((1, 1, 0, 0))

    def test_exact_tail_monotone(self):
        tails = [exact_gap_tail(TWO_ATOM, 5, 0.3, t) for t in (0.0, 0.005, 0.01, 0.05)]
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))

    def test_mc_matches_exact_tail(self):
        n, lam = 6, 0.4
        mean = exact_gap_mean(TWO_ATOM, n, lam)
        values = mc_gap_values(TWO_ATOM, n, lam, 40_000, seed=4)
        assert np.mean(values) == pytest.approx(mean, abs=5e-4)
        for t in (0.002, 0.005, 0.01):
            exact = exact_gap_tail(TWO_ATOM, n, lam, t)
            mc = float(np.mean(values - mean > t))
            stderr = math.sqrt(max(mc * (1 - mc), 1e-9) / len(values))
            assert abs(mc - exact) <= 4.0 * stderr

    def test_measured_ingredients_give_valid_main_bound(self):
        n, lam = 5, 0.35
        meas = measured_ingredients(TWO_ATOM, n, lam)
        assert meas["b"] >= 0.0 and meas["crude_j"] >= 0.0
        mean = exact_gap_mean(TWO_ATOM, n, lam)
        tmax = max(GapTable(TWO_ATOM, n, lam).gaps - mean)
        for t in np.linspace(0.0, tmax, 9)[1:]:
            bound = main_bound(meas["e_scv"], meas["b"], meas["crude_j"], float(t))
            assert exact_gap_tail(TWO_ATOM, n, lam, float(t)) <= bound.value + 1e-12


class TestMultisetEngine:
    @pytest.mark.parametrize(
        "population,n,lam",
        [(TWO_ATOM, 5, 0.35), (SKEW_ATOM, 6, 0.45), (PLANE_ATOM, 4, 0.3)],
    )
    def test_measured_ingredients_match_configuration_loops(self, population, n, lam):
        got = measured_ingredients(population, n, lam)
        want = oracles.rls_measured_ingredients(population, n, lam)
        assert got["b"] == want["b"]
        assert got["crude_j"] == want["crude_j"]
        assert got["e_scv"] == pytest.approx(want["e_scv"], rel=1e-15, abs=0.0)

    def test_mc_values_are_gaps_of_the_drawn_samples(self):
        n, lam = 5, 0.3
        got = mc_gap_values(PLANE_ATOM, n, lam, 300, seed=6)
        draws = np.sort(
            substream(6, 0xF0).choice(3, size=(300, n), p=PLANE_ATOM.probs), axis=1
        )
        want = [
            generalization_gap(
                RlsProblem(xs=PLANE_ATOM.xs[row], ys=PLANE_ATOM.ys[row], lam=lam),
                PLANE_ATOM,
            )
            for row in draws
        ]
        assert np.array_equal(got, want)

    def test_multisets_above_cap_name_the_cap(self):
        # 3 atoms, n = 6: the rest-samples of n - 1 points form 21 multisets
        assert measured_ingredients(PLANE_ATOM, 6, 0.5, cap=21)["b"] >= 0.0
        with pytest.raises(CapacityError, match="cap of 20"):
            measured_ingredients(PLANE_ATOM, 6, 0.5, cap=20)
        with pytest.raises(CapacityError, match="cap of 20"):
            exhaustive_scv(PLANE_ATOM, 6, 0.5, cap=20)


class TestJson:
    def test_round_trip(self):
        doc = {
            "dim": 1,
            "lambda": 0.5,
            "n": 8,
            "population": [
                {"x": [0.9], "y": 0.8, "p": 0.5},
                {"x": [-0.7], "y": -0.6, "p": 0.5},
            ],
        }
        pop, n, lam = rls_config_from_json(doc)
        assert n == 8 and lam == 0.5 and pop.size == 2

    def test_unknown_fields_rejected(self):
        doc = {
            "dim": 1,
            "lambda": 0.5,
            "n": 8,
            "population": [{"x": [0.9], "y": 0.8, "p": 1.0}],
            "bogus": 1,
        }
        with pytest.raises(ValueError, match="bogus"):
            rls_config_from_json(doc)

    def test_dimension_mismatch_rejected(self):
        doc = {
            "dim": 2,
            "lambda": 0.5,
            "n": 8,
            "population": [{"x": [0.9], "y": 0.8, "p": 1.0}],
        }
        with pytest.raises(ValueError):
            rls_config_from_json(doc)
