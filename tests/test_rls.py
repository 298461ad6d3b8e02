from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from interaction_bounds.bounds import main_bound
from interaction_bounds import exchangeable, rls
from interaction_bounds.exchangeable import MultisetTable, block_rows, mc_tails, rank
from interaction_bounds.rls import (
    GapTable,
    Population,
    RlsProblem,
    derivative_bound_check,
    empirical_risk,
    empirical_scv,
    gap_tail_bound,
    population_sampler,
    sample_gaps,
    solve,
    solve_stack,
    true_risk,
)
from interaction_bounds.rng import substream
from interaction_bounds.space import DEFAULT_CAP, CapacityError, tail_probabilities

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


def gap_table(population, n, lam, cap=DEFAULT_CAP):
    """The gaps at ``lam`` on the multiset table of ``n`` draws from the population."""
    return GapTable(population, MultisetTable(population.probs, n, cap), lam)


def ingredients(table):
    """``MultisetTable.ingredients`` of the gaps of a gap table."""
    return table.table.ingredients(table.gaps)


def random_population(rng, d, size):
    xs = rng.normal(size=(size, d))
    xs = xs / np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
    raw = rng.uniform(0.2, 1.0, size)
    return Population(xs=xs, ys=rng.uniform(-1.0, 1.0, size), probs=raw / math.fsum(raw.tolist()))


DIMS = st.integers(1, 3)
SIZES = st.integers(2, 12)
LAMBDAS = st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9, 0.99])
SEEDS = st.integers(0, 2**32 - 1)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RlsProblem(xs=[[bad], [0.5]], ys=[0.5, 0.5], lam=0.5)
        with pytest.raises(ValueError, match="finite"):
            RlsProblem(xs=[[0.5], [0.5]], ys=[0.5, bad], lam=0.5)

    @pytest.mark.parametrize(
        "xs, ys, probs",
        [
            ([[math.nan], [-0.7]], [0.8, -0.6], [0.5, 0.5]),
            ([[0.9], [-0.7]], [math.inf, -0.6], [0.5, 0.5]),
            ([[0.9], [-0.7]], [0.8, -0.6], [math.nan, 0.5]),
        ],
    )
    def test_population_rejects_non_finite_fields(self, xs, ys, probs):
        with pytest.raises(ValueError, match="finite"):
            Population(xs=xs, ys=ys, probs=probs)


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
    """The change of the gap when one sample point is replaced (``sample_gaps`` rows)."""

    def test_identical_replacement_is_zero(self):
        # atoms 0 and 2 are the same point, so trading one for the other changes nothing
        pop = Population(xs=[[0.5], [-0.7], [0.5]], ys=[0.25, -0.6, 0.25], probs=[0.25, 0.5, 0.25])
        before, after = sample_gaps(pop, [[0, 0, 0, 0], [0, 0, 2, 0]], 0.2)
        assert before - after == 0.0

    def test_matches_scalar_closed_form(self):
        # independent scalar route for d = 1: w = sum(xy) / (sum(x^2) + n lam);
        # atoms 2 and 3 carry no weight, so the true risk is that over TWO_ATOM
        pop = Population(
            xs=[[0.9], [-0.7], [0.4], [0.9]], ys=[0.8, -0.6, 0.1, -0.2], probs=[0.5, 0.5, 0, 0]
        )
        lam = 0.35
        samples = [[0, 1, 2, 3], [0, 0, 2, 3]]  # point 1 replaced by atom 0
        before, after = sample_gaps(pop, samples, lam)
        base, modified = (
            oracles.rls_gap_1d(
                pop.xs[row, 0].tolist(), pop.ys[row].tolist(), lam,
                pop.xs[:, 0].tolist(), pop.ys.tolist(), pop.probs.tolist(),
            )
            for row in samples
        )
        assert before - after == pytest.approx(base - modified, abs=1e-12)


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
            x = rng.normal(size=prob.xs.shape[1])
            x = x / max(np.linalg.norm(x), 1.0) * rng.uniform(0.1, 1.0)
            return (x, float(rng.uniform(-1, 1)))

        rep = derivative_bound_check(
            prob, 0, 1, draw_z(), draw_z(), draw_z(), draw_z(), grid=2
        )
        assert rep.first_ok, (rep.max_first, rep.bound_first)
        assert rep.mixed_ok, (rep.max_mixed, rep.bound_mixed)
        assert rep.rate_ok, (rep.max_gram_rate, rep.max_moment_rate, rep.rate_bound)
        assert rep.gram_mixed_ok

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_endpoints(self, bad):
        prob = RlsProblem(xs=np.zeros((3, 1)), ys=np.zeros(3), lam=0.5)
        z = (np.zeros(1), 0.0)
        for endpoint in ((np.array([bad]), 0.0), (np.zeros(1), bad)):
            with pytest.raises(ValueError, match="finite"):
                derivative_bound_check(prob, 0, 1, z, z, endpoint, z)

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

    @pytest.mark.parametrize("grid", [0, -2])
    def test_rejects_empty_lattice(self, grid):
        # An empty lattice would certify every flag without checking a point.
        prob = RlsProblem(xs=np.zeros((3, 1)), ys=np.zeros(3), lam=0.5)
        z = (np.zeros(1), 0.0)
        with pytest.raises(ValueError, match="grid"):
            derivative_bound_check(prob, 0, 1, z, z, z, z, grid=grid)


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
        mean, stderr = empirical_scv(pop, 4, 0.5, replications=20, seed=1)
        assert mean == 0.0
        assert ingredients(gap_table(pop, 4, 0.5))["E_scv"] == 0.0

    def test_deterministic_in_seed(self):
        a = empirical_scv(TWO_ATOM, 4, 0.5, replications=50, seed=9)
        b = empirical_scv(TWO_ATOM, 4, 0.5, replications=50, seed=9)
        assert a == b
        c = empirical_scv(TWO_ATOM, 4, 0.5, replications=50, seed=10)
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
        got = ingredients(gap_table(pop, n, lam))["E_scv"]
        assert got == pytest.approx(want, abs=1e-13)

    def test_monte_carlo_matches_exhaustive(self):
        n, lam = 4, 0.5
        exact = ingredients(gap_table(TWO_ATOM, n, lam))["E_scv"]
        mean, stderr = empirical_scv(TWO_ATOM, n, lam, replications=600, seed=2)
        assert abs(mean - exact) <= 3.0 * stderr

    def test_consistent_across_seeds(self):
        a, sa = empirical_scv(TWO_ATOM, 4, 0.5, replications=300, seed=21)
        b, sb = empirical_scv(TWO_ATOM, 4, 0.5, replications=300, seed=22)
        assert abs(a - b) <= 3.0 * (sa + sb)


class TestGapDistribution:
    def test_multiset_probabilities_sum_to_one(self):
        total = math.fsum(gap_table(SKEW_ATOM, 6, 0.5).table.probs)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_gap_table_symmetric_key(self):
        table = gap_table(TWO_ATOM, 4, 0.5)
        assert table.value((0, 1, 0, 1)) == table.value((1, 1, 0, 0))

    def test_gap_table_rejects_atoms_outside_the_population(self):
        # occupancy drops an unknown atom, so rank would look up the gap of
        # an unrelated multiset instead
        table = gap_table(TWO_ATOM, 4, 0.5)
        for sample in ((0, 1, 0, 5), (0, 0, 1, -1), [(0, 1, 1, 0), (0, 1, 2, 0)]):
            with pytest.raises(ValueError, match=r"atom indices must lie in \[0, 2\)"):
                table.value(sample)

    def test_gap_table_multisets_above_cap_name_the_cap(self):
        # 3 atoms, n = 6: 28 sample multisets
        assert len(gap_table(PLANE_ATOM, 6, 0.5, cap=28).gaps) == 28
        with pytest.raises(CapacityError, match="28 sample multisets exceed the cap of 27"):
            gap_table(PLANE_ATOM, 6, 0.5, cap=27)

    def test_exact_tail_monotone(self):
        table = gap_table(TWO_ATOM, 5, 0.3)
        deviations = table.gaps - table.table.mean(table.gaps)
        tails = tail_probabilities(deviations, table.table.probs, (0.0, 0.005, 0.01, 0.05))
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))

    def test_mc_matches_exact_tail(self):
        n, lam = 6, 0.4
        table = gap_table(TWO_ATOM, n, lam)
        mean = table.table.mean(table.gaps)
        values = oracles.mc_gap_values(table, 40_000, seed=4)
        assert np.mean(values) == pytest.approx(mean, abs=5e-4)
        t_values = (0.002, 0.005, 0.01)
        exact_tails = tail_probabilities(table.gaps - mean, table.table.probs, t_values)
        for t, exact in zip(t_values, exact_tails):
            mc = float(np.mean(values - mean > t))
            stderr = math.sqrt(max(mc * (1 - mc), 1e-9) / len(values))
            assert abs(mc - exact) <= 4.0 * stderr

    @pytest.mark.parametrize("samples", [300, block_rows(5), 3 * block_rows(5) + 1])
    def test_blocked_tails_are_the_one_shot_tails(self, samples):
        n, lam = 5, 0.3
        table = gap_table(PLANE_ATOM, n, lam)
        mean = table.table.mean(table.gaps)
        deviations = table.gaps - mean
        # a grid, every deviation itself (never exceeded), and both ends
        t_values = [*np.linspace(0.0, deviations.max(), 7).tolist(), *deviations.tolist(), -1.0]
        got = mc_tails(
            substream(6, 0xF0), PLANE_ATOM.probs, n, samples,
            lambda counts: table.gaps[rank(counts)] - mean, t_values,
        )
        values = oracles.mc_gap_values(table, samples, seed=6)
        assert got == oracles.mc_tails_of(values - mean, t_values)

    def test_tail_memory_is_a_few_blocks(self):
        # 10^6 samples of n = 7 in one rng.choice call would hold 56 MB of
        # uniforms and 56 MB of indices; blocks of BLOCK_POINTS sample points
        # (2^14) hold 0.13 MB each.
        n, samples = 7, 10**6
        table = gap_table(PLANE_ATOM, n, 0.5)
        mean = table.table.mean(table.gaps)
        t_values = np.linspace(0.0, float(table.gaps.max()) - mean, 11)[1:].tolist()
        tracemalloc.start()
        try:
            tails = mc_tails(
                substream(1, 0xF0), PLANE_ATOM.probs, n, samples,
                lambda counts: table.gaps[rank(counts)] - mean, t_values,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak
        assert tails[0][0] > 0.0 and tails[-1] == (0.0, 0.0)

    def test_measured_ingredients_give_valid_main_bound(self):
        n, lam = 5, 0.35
        table = gap_table(TWO_ATOM, n, lam)
        meas = ingredients(table)
        assert meas["b"] >= 0.0 and 0.0 <= meas["j_mu"] <= meas["crude"]
        deviations = table.gaps - table.table.mean(table.gaps)
        t_values = np.linspace(0.0, max(deviations), 9)[1:].tolist()
        for t, tail in zip(t_values, tail_probabilities(deviations, table.table.probs, t_values)):
            for j in (meas["j_mu"], meas["crude"]):
                assert tail <= main_bound(meas["E_scv"], meas["b"], j, t).value + 1e-12


class TestMultisetEngine:
    @pytest.mark.parametrize(
        "population,n,lam",
        [(TWO_ATOM, 5, 0.35), (SKEW_ATOM, 6, 0.45), (PLANE_ATOM, 4, 0.3)],
    )
    def test_measured_ingredients_match_configuration_loops(self, population, n, lam):
        got = ingredients(gap_table(population, n, lam))
        want = oracles.rls_measured_ingredients(population, n, lam)
        assert got["b"] == want["b"]
        assert got["crude"] == want["crude_j"]
        assert got["E_scv"] == pytest.approx(want["e_scv"], rel=1e-15, abs=0.0)

    def test_mc_values_are_gaps_of_the_drawn_samples(self):
        n, lam = 5, 0.3
        got = oracles.mc_gap_values(gap_table(PLANE_ATOM, n, lam), 300, seed=6)
        draws = np.sort(
            substream(6, 0xF0).choice(3, size=(300, n), p=PLANE_ATOM.probs), axis=1
        )
        want = [
            oracles.rls_gap(
                RlsProblem(xs=PLANE_ATOM.xs[row], ys=PLANE_ATOM.ys[row], lam=lam), PLANE_ATOM
            )
            for row in draws
        ]
        assert np.array_equal(got, want)

    def test_multisets_above_cap_name_the_cap(self):
        # 3 atoms, n = 6: 28 sample multisets, and 21 and 15 of the rest-samples;
        # the table's cap bounds them all, so the ingredients need no cap of their own
        table = gap_table(PLANE_ATOM, 6, 0.5, cap=28)
        assert ingredients(table) == ingredients(gap_table(PLANE_ATOM, 6, 0.5))
        with pytest.raises(CapacityError, match="cap of 27"):
            gap_table(PLANE_ATOM, 6, 0.5, cap=27)

    def test_gap_table_needs_the_population_multiset_table(self):
        for probs in ((0.25, 0.25, 0.5), (0.5, 0.5)):
            with pytest.raises(ValueError, match="atom probabilities"):
                GapTable(PLANE_ATOM, MultisetTable(probs, 4), 0.5)

    def test_gaps_at_every_lambda_share_one_multiset_table(self):
        table = MultisetTable(PLANE_ATOM.probs, 5)
        for lam in (0.25, 0.5):
            gaps = GapTable(PLANE_ATOM, table, lam)
            assert gaps.table is table
            assert gaps.gaps.tobytes() == gap_table(PLANE_ATOM, 5, lam).gaps.tobytes()
            assert ingredients(gaps) == ingredients(gap_table(PLANE_ATOM, 5, lam))


class TestStackedSolvesMatchPerProblemLoops:
    """The stacked paths equal the one-``cho_factor``-solve-per-problem oracles bit for bit."""

    @given(DIMS, SIZES, LAMBDAS, SEEDS)
    def test_solve_stack_slices_are_single_solves(self, d, n, lam, seed):
        rng = np.random.default_rng(seed)
        problems = [random_problem(rng, d=d, n=n, lam=lam) for _ in range(5)]
        stack = solve_stack(
            np.array([p.xs for p in problems]), np.array([p.ys for p in problems]), lam
        )
        for b, problem in enumerate(problems):
            single, reference = solve(problem), oracles.rls_solve(problem)
            for got in (single, reference):
                for name in ("w", "gram", "moment"):
                    assert getattr(got, name).tobytes() == getattr(stack, name)[b].tobytes()
                assert got.residual == stack.residual[b]

    @given(DIMS, SIZES, st.integers(1, 4), LAMBDAS, SEEDS)
    def test_gap_table_is_per_row_gaps(self, d, n, size, lam, seed):
        population = random_population(np.random.default_rng(seed), d, size)
        table = gap_table(population, n, lam)
        assert table.gaps.tobytes() == oracles.rls_gap_table_rows(population, n, lam).tobytes()

    @given(DIMS, SIZES, st.integers(1, 3), LAMBDAS, SEEDS)
    def test_empirical_scv_is_per_replacement_loop(self, d, n, size, lam, seed):
        population = random_population(np.random.default_rng(seed), d, size)
        got = empirical_scv(population, n, lam, 4, seed)
        want = oracles.rls_empirical_scv(
            population_sampler(population, n, lam), population, 4, seed, 1
        )
        assert got == want

    @given(DIMS, SIZES, LAMBDAS, st.integers(1, 3), SEEDS)
    def test_derivative_check_is_per_point_loop(self, d, n, lam, grid, seed):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, d=d, n=n, lam=lam)
        ends = [(p.xs[0], float(p.ys[0])) for p in (random_problem(rng, d=d, n=1) for _ in range(4))]
        k, l = rng.choice(n, size=2, replace=False).tolist()
        got = derivative_bound_check(prob, k, l, *ends, grid=grid)
        want = oracles.rls_derivative_bound_check(prob, k, l, *ends, grid=grid)
        assert got.to_json() == want.to_json()

    def test_sample_gaps_keep_sample_order_across_blocks(self, monkeypatch):
        # stacks of 7 samples of 5 points
        monkeypatch.setattr(exchangeable, "BLOCK_POINTS", 7 * 5)
        samples = np.random.default_rng(5).integers(0, 3, size=(4, 6, 5))
        got = sample_gaps(PLANE_ATOM, samples, 0.4)
        assert got.shape == (4, 6)
        for idx in np.ndindex(got.shape):
            row = samples[idx]
            problem = RlsProblem(xs=PLANE_ATOM.xs[row], ys=PLANE_ATOM.ys[row], lam=0.4)
            assert got[idx] == oracles.rls_gap(problem, PLANE_ATOM)


class TestBlocks:
    """``exchangeable.BLOCK_POINTS`` sets the working memory of the per-sample paths, never a bit."""

    # 1 point: one row per block; 70 points: 14 samples of 5 (21 multisets,
    # 300 draws and 24 samples split unevenly) and 8 replications of n = 2
    # (31 split unevenly); None: the default.
    @pytest.mark.parametrize("points", [1, 70, None])
    def test_block_size_moves_no_bit(self, points, monkeypatch):
        if points is not None:
            monkeypatch.setattr(exchangeable, "BLOCK_POINTS", points)
        n, lam = 5, 0.3
        table = gap_table(PLANE_ATOM, n, lam)
        assert table.gaps.tobytes() == oracles.rls_gap_table_rows(PLANE_ATOM, n, lam).tobytes()

        mean = table.table.mean(table.gaps)
        t_values = np.linspace(-0.01, float(table.gaps.max()) - mean, 9).tolist()
        got = mc_tails(
            substream(6, 0xF0), PLANE_ATOM.probs, n, 300,
            lambda counts: table.gaps[rank(counts)] - mean, t_values,
        )
        values = oracles.mc_gap_values(table, 300, seed=6)
        assert got == oracles.mc_tails_of(values - mean, t_values)

        samples = np.random.default_rng(5).integers(0, 3, size=(4, 6, n))
        want = [oracles.rls_gap(RlsProblem(xs=PLANE_ATOM.xs[row], ys=PLANE_ATOM.ys[row], lam=lam),
                                PLANE_ATOM) for row in samples.reshape(-1, n)]
        assert sample_gaps(PLANE_ATOM, samples, lam).ravel().tolist() == want

        want = oracles.rls_empirical_scv(population_sampler(PLANE_ATOM, 2, lam), PLANE_ATOM, 31, 8)
        assert empirical_scv(PLANE_ATOM, 2, lam, 31, 8) == want

    @given(DIMS, SIZES, st.integers(1, 4), LAMBDAS, SEEDS)
    def test_gap_stack_is_one_fsum_per_risk(self, d, n, size, lam, seed):
        rng = np.random.default_rng(seed)
        population = random_population(rng, d, size)
        samples = rng.integers(0, size, size=(int(rng.integers(1, 40)), n))
        got = rls._gap_stack(population, samples, lam)
        assert got.tobytes() == oracles.rls_gap_stack_rows(population, samples, lam).tobytes()

    @given(DIMS, st.integers(2, 6), st.integers(2, 4), LAMBDAS, SEEDS)
    def test_ingredients_take_one_fsum_per_conditional_mean(self, d, n, size, lam, seed):
        population = random_population(np.random.default_rng(seed), d, size)
        table = gap_table(population, n, lam)
        got = ingredients(table)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exchangeable, "fsum_rows", oracles.row_fsums)
            assert ingredients(table) == got
