"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  The criteria:

1. exact inequality suite on 200 seeded instances, 1e-10 slack, under 60 s;
2. entropy machinery on 50 instances over the beta grid, Herbst to 1e-6,
   inequalities to 1e-10 slack, under 120 s;
3. scalar lemmas on their grids, under 5 s;
4. all three tail bounds dominate exact tails on the criterion-1 instances
   over a 20-point deviation grid, and the zero-interaction reduction agrees
   with the classical Bernstein value to 1e-12 relative;
5. U-statistics: subset-pair counts vs exhaustive enumeration, the invalid
   count-form estimate reproduced at (n=4, m=2), the per-coordinate range and
   interaction chain on small base sets, crossover products within a factor
   of two of 0.12 / 6e-2 / 1e-2 for orders 2 / 3 / 4, under 60 s;
6. regularized least squares: solver contracts on 1000 random problems,
   finite-difference derivative envelopes, rate bounds 4/n, and Monte Carlo
   gap tails below the measured-ingredient bound (1e5 samples, 4-sigma rule),
   under 10 minutes;
7. the verify command is byte-identical across reruns with a fixed seed.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import oracles
from interaction_bounds.bounds import (
    chernoff_infimum,
    main_bound,
    psi_ratio_inequality,
)
from interaction_bounds.cli import main as cli_main
from interaction_bounds.exchangeable import MultisetTable
from interaction_bounds.functionals import interaction
from interaction_bounds.harness import RandomInstanceSpec, run_property_suite
from interaction_bounds.operators import cond_expectation
from interaction_bounds.rls import (
    GapTable,
    Population,
    RlsProblem,
    derivative_bound_check,
    empirical_risk,
    solve,
)
from interaction_bounds.rng import substream
from interaction_bounds.space import FiniteAxis, expectation
from interaction_bounds.ustat import (
    UStatProblem,
    crossover,
    mean_kernel,
    product_kernel,
    sign_agreement_kernel,
)

SEED = 20260808

CRITERION_1_CHECKS = (
    "efron_stein",
    "efron_stein_sum_equality",
    "efron_stein_gap_envelope",
    "bias_bound_sandwich",
    "chatterjee_identity",
    "conditional_mean_variance",
    "interaction_chain",
    "self_bounding_scv",
    "interaction_homogeneity",
)

CRITERION_4_CHECKS = (
    "tail_sup_bernstein",
    "tail_main",
    "tail_variance_corollary",
    "bernstein_reduction",
)


def _announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def exact_suite():
    spec = RandomInstanceSpec(n_axes=(2, 4), axis_size=(2, 4), seed=SEED)
    start = time.perf_counter()
    report = run_property_suite(
        spec, count=200, entropy_count=0, scalar_count=0, tail_points=20
    )
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_inequality_suite(exact_suite):
    report, elapsed = exact_suite
    by_name = {c.name: c for c in report.checks}
    failures = []
    for name in CRITERION_1_CHECKS:
        check = by_name[name]
        if not check.passed or check.instances != 200:
            failures.append((name, check.max_violation, check.instances))
    ok = not failures and elapsed <= 60.0
    _announce(
        "criterion 1 (exact inequality suite, 200 instances)",
        ok,
        f"{elapsed:.1f}s, worst slack "
        f"{max(by_name[n].max_violation for n in CRITERION_1_CHECKS):.2e}",
    )
    assert not failures, failures
    assert elapsed <= 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_2_entropy_machinery():
    spec = RandomInstanceSpec(n_axes=(2, 4), axis_size=(2, 4), seed=SEED + 1)
    start = time.perf_counter()
    report = run_property_suite(
        spec, count=1, entropy_count=50, scalar_count=0, tail_points=2
    )
    elapsed = time.perf_counter() - start
    by_name = {c.name: c for c in report.checks}
    names = (
        "herbst_identity",
        "entropy_subadditivity",
        "bennett_entropy",
        "entropy_upper_self_bound",
        "decoupling",
    )
    failures = [
        (n, by_name[n].max_violation)
        for n in names
        if not by_name[n].passed or by_name[n].instances != 200  # 50 x beta grid
    ]
    ok = not failures and elapsed <= 120.0
    _announce(
        "criterion 2 (entropy machinery, 50 instances x 4 betas)",
        ok,
        f"{elapsed:.1f}s, herbst worst {by_name['herbst_identity'].max_violation:.2e}",
    )
    assert not failures, failures
    assert elapsed <= 120.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 120s"


def test_criterion_3_scalar_lemmas():
    start = time.perf_counter()
    bad_grid = 0
    for a in (0.0, 0.1, 1.0, 10.0):
        limit = 1.0 / (1.0 / 3.0 + a / 2.0)
        for gamma in np.linspace(0.0, limit, 101)[1:-1]:
            if not psi_ratio_inequality(a, float(gamma)):
                bad_grid += 1
    rng = substream(SEED, 3)
    worst = -math.inf
    for _ in range(100):
        c, b, t = (float(x) for x in np.exp(rng.uniform(-2.5, 1.5, size=3)))
        numeric, closed = chernoff_infimum(c, b, t)
        worst = max(worst, numeric - closed)
    elapsed = time.perf_counter() - start
    ok = bad_grid == 0 and worst <= 1e-10 and elapsed <= 5.0
    _announce(
        "criterion 3 (scalar lemmas)",
        ok,
        f"{elapsed:.2f}s, grid failures {bad_grid}, worst infimum slack {worst:.2e}",
    )
    assert bad_grid == 0
    assert worst <= 1e-10
    assert elapsed <= 5.0


def test_criterion_4_tail_bound_validity(exact_suite):
    report, _ = exact_suite
    by_name = {c.name: c for c in report.checks}
    failures = []
    for name in CRITERION_4_CHECKS:
        check = by_name[name]
        if not check.passed or check.instances != 200:
            failures.append((name, check.max_violation, check.instances))
    tail_worst = max(by_name[n].max_violation for n in CRITERION_4_CHECKS[:3])
    ok = not failures
    _announce(
        "criterion 4 (tail bounds vs exact tails)",
        ok,
        f"worst tail excess {tail_worst:.2e}, "
        f"bernstein reduction {by_name['bernstein_reduction'].max_violation:.2e} rel",
    )
    assert not failures, failures
    assert tail_worst <= 1e-10


def test_criterion_5_u_statistics():
    start = time.perf_counter()
    problems = []

    # the subset-pair identity C(n,m) (C(n,m) - C(n-m,m)) and the fraction bound
    # (C(n,m) - C(n-m,m)) / C(n,m) <= m^2 / (n-m), vs exhaustive enumeration
    # for all n <= 8, m in {2, 3}
    for m in (2, 3):
        for n in range(m + 1, 9):
            total, disjoint = math.comb(n, m), math.comb(n - m, m)
            ratio_ok = (total - disjoint) * (n - m) <= m * m * total
            if oracles.intersecting_pairs(n, m) != total * (total - disjoint) or not ratio_ok:
                problems.append(("pair count", n, m))

    # the count-form estimate fails at (4, 2) while the fraction form holds
    exact42 = oracles.intersecting_pairs(4, 2)
    claim42 = math.comb(4, 2) * 4 // 2
    if not (exact42 == 30 and exact42 > claim42):
        problems.append(("stated-form discrepancy", exact42, claim42))

    # per-coordinate range and interaction chain on small base sets
    two = FiniteAxis.uniform(2)
    three = FiniteAxis(weights=(0.2, 0.5, 0.3))
    cases = [
        (product_kernel(2), 8, two, (-1.0, 1.0)),
        (mean_kernel(2), 8, two, (-1.0, 1.0)),
        (product_kernel(3), 7, two, (-1.0, 1.0)),
        (mean_kernel(3), 6, three, (-1.0, 0.0, 1.0)),
        (sign_agreement_kernel(2), 6, three, (-0.5, 0.25, 1.0)),
    ]
    for kernel, n, axis, points in cases:
        prob = UStatProblem(kernel=kernel, base_axis=axis, base_points=points)
        u = oracles.tabulate_u(prob, n)
        m = kernel.m
        range_worst = max(
            float((u.values - cond_expectation(u, k).values).max()) for k in range(n)
        )
        if range_worst > 2.0 * m / n + 1e-12:
            problems.append(("range", kernel.name, n, range_worst))
        j = interaction(u)
        if j > 4.0 * m * (m - 1) / math.sqrt(n * (n - 1)) + 1e-10:
            problems.append(("interaction", kernel.name, n, j))
        if 4.0 * m * (m - 1) / math.sqrt(n * (n - 1)) > 4.0 * m * m / n + 1e-12:
            problems.append(("interaction chain", kernel.name, n))

    # crossover products within a factor of two of the expected values
    targets = {2: 0.12, 3: 6e-2, 4: 1e-2}
    for m, target in targets.items():
        for n in (10, 50, 200):
            for s1 in (0.0, 0.25):
                got = crossover(m, s1, n)
                if not got.found or not (target / 2 <= got.product <= target * 2):
                    problems.append(("crossover", m, n, s1, got.product))

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed <= 60.0
    _announce(
        "criterion 5 (U-statistics)", ok, f"{elapsed:.1f}s, {len(problems)} issues"
    )
    assert not problems, problems
    assert elapsed <= 60.0


def test_criterion_6_regularized_least_squares():
    start = time.perf_counter()
    rng = substream(SEED, 6)
    lambdas = np.arange(1, 10) / 10.0
    problems = []

    for i in range(1000):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 13))
        lam = float(rng.choice(lambdas))
        xs = rng.normal(size=(n, d))
        xs = xs / np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
        xs *= rng.uniform(0.1, 1.0, size=(n, 1))
        ys = rng.uniform(-1.0, 1.0, size=n)
        prob = RlsProblem(xs=xs, ys=ys, lam=lam)
        sol = solve(prob)
        if float(np.linalg.norm(sol.w)) > lam**-0.5 + 1e-10:
            problems.append(("norm", i))
        if empirical_risk(sol, prob) * n > n + 1e-10:
            problems.append(("residual sum", i))
        if sol.residual > 1e-10:
            problems.append(("solve residual", i))

        def draw_z():
            x = rng.normal(size=d)
            x = x / max(float(np.linalg.norm(x)), 1.0) * float(rng.uniform(0.1, 1.0))
            return (x, float(rng.uniform(-1.0, 1.0)))

        rep = derivative_bound_check(
            prob, 0, 1, draw_z(), draw_z(), draw_z(), draw_z(), grid=2
        )
        if not (rep.first_ok and rep.mixed_ok):
            problems.append(("derivative", i, rep.max_first, rep.max_mixed))
        if not rep.rate_ok:
            problems.append(("rate", i, rep.max_gram_rate, rep.max_moment_rate))
        if not rep.gram_mixed_ok:
            problems.append(("gram mixed", i, rep.max_gram_mixed))

    # Monte Carlo gap tails below the measured-ingredient bound
    tail_rng = substream(SEED, 7)
    for rep_i in range(8):
        n = int(tail_rng.integers(6, 13))
        lam = float(tail_rng.choice(lambdas))
        xs = tail_rng.uniform(-1.0, 1.0, size=(2, 1))
        ys = tail_rng.uniform(-1.0, 1.0, size=2)
        p0 = float(tail_rng.uniform(0.2, 0.8))
        pop = Population(xs=xs, ys=ys, probs=[p0, 1.0 - p0])
        table = GapTable(pop, MultisetTable(pop.probs, n), lam)
        meas = table.table.ingredients(table.gaps)
        mean_gap = table.table.mean(table.gaps)
        tmax = max(table.gaps - mean_gap)
        if tmax <= 0.0 or meas["b"] <= 0.0:
            continue
        values = oracles.mc_gap_values(table, 100_000, seed=SEED + rep_i)
        for t in np.linspace(0.0, tmax, 11)[1:]:
            p_hat = float(np.mean(values - mean_gap > t))
            stderr = math.sqrt(p_hat * (1.0 - p_hat) / len(values))
            bound = main_bound(meas["E_scv"], meas["b"], meas["crude"], float(t))
            if p_hat > bound.value + 4.0 * stderr:
                problems.append(("mc tail", rep_i, float(t), p_hat, bound.value))

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed <= 600.0
    _announce(
        "criterion 6 (regularized least squares)",
        ok,
        f"{elapsed:.1f}s, {len(problems)} issues over 1000 problems",
    )
    assert not problems, problems[:10]
    assert elapsed <= 600.0


def test_criterion_7_verify_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["verify", "--count", "50", "--seed", str(SEED)]
    assert cli_main([*args, "--out", str(out_a)]) == 0
    assert cli_main([*args, "--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    _announce(
        "criterion 7 (verify determinism)",
        identical,
        f"{out_a.stat().st_size} byte report",
    )
    assert identical
