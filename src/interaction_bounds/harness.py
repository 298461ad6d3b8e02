"""Seeded instance generation, tail estimation, and the inequality suite.

Everything here is a pure function of its seed: instances come from Philox
substreams keyed ``(seed, purpose, index)`` (see ``rng``), so any failing
check can be replayed from the witness seed recorded in the report.

``run_property_suite`` drives every inequality the package implements over
randomized instances and reports, per check, the number of instances, the
worst observed violation, the tolerance it was judged against, and the
witness seed of the first failure.  Failures are data, not exceptions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds as bnd
from .functionals import (
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
from .operators import (
    cond_expectation,
    cond_variance,
    cond_variance_pairs,
    scv,
    self_bounding_operator,
    substitute,
)
from .rng import derive_seed, substream
from .space import (
    DEFAULT_CAP,
    FiniteAxis,
    FiniteProductSpace,
    TabulatedFunction,
    expectation,
    fsum,
    memo_scalar,
    variance,
)

#: Inverse temperatures used by every entropy-side check.
BETA_GRID = (0.25, 0.5, 1.0, 2.0)

#: Scalar-lemma grid for the psi-ratio inequality.
A_GRID = (0.0, 0.1, 1.0, 10.0)

VALUE_DISTRIBUTIONS = ("uniform", "sparse", "sum_plus_perturbation")
WEIGHT_DISTRIBUTIONS = ("uniform", "dirichlet")


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Recipe for one random space-plus-function instance.

    ``n_axes`` and ``axis_size`` are inclusive ranges.  ``values`` selects the
    table distribution: ``uniform`` on [-1, 1], ``sparse`` (seven in ten
    entries zeroed), or ``sum_plus_perturbation`` which builds a sum of
    per-axis profiles plus ``epsilon`` times a uniform table, so the
    interaction functional scales with ``epsilon`` and vanishes at zero.
    Generation is a pure function of ``seed``.
    """

    n_axes: tuple[int, int] = (2, 4)
    axis_size: tuple[int, int] = (2, 4)
    values: str = "uniform"
    weights: str = "uniform"
    seed: int = 0
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("n_axes", self.n_axes), ("axis_size", self.axis_size)):
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} range {lo}..{hi} is empty or invalid")
        if self.values not in VALUE_DISTRIBUTIONS:
            raise ValueError(f"unknown value distribution {self.values!r}")
        if self.weights not in WEIGHT_DISTRIBUTIONS:
            raise ValueError(f"unknown weight distribution {self.weights!r}")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")


def generate_instance(
    spec: RandomInstanceSpec,
) -> tuple[FiniteProductSpace, TabulatedFunction]:
    """Deterministically generate the instance described by ``spec``."""
    rng = substream(spec.seed, 0x01)
    n = int(rng.integers(spec.n_axes[0], spec.n_axes[1] + 1))
    sizes = [int(rng.integers(spec.axis_size[0], spec.axis_size[1] + 1)) for _ in range(n)]
    axes = []
    for size in sizes:
        if spec.weights == "uniform":
            axes.append(FiniteAxis.uniform(size))
        else:
            raw = rng.dirichlet(np.ones(size))
            w = raw / math.fsum(raw.tolist())
            axes.append(FiniteAxis(weights=tuple(float(x) for x in w)))
    space = FiniteProductSpace(axes=tuple(axes))
    count = space.size
    if spec.values == "uniform":
        table = rng.uniform(-1.0, 1.0, size=count)
    elif spec.values == "sparse":
        table = rng.uniform(-1.0, 1.0, size=count) * (rng.random(count) < 0.3)
    else:
        table = np.zeros(space.shape)
        for k, size in enumerate(sizes):
            profile = rng.uniform(-1.0, 1.0, size=size) / n
            shape = [1] * n
            shape[k] = size
            table = table + profile.reshape(shape)
        table = table.ravel() + spec.epsilon * rng.uniform(-1.0, 1.0, size=count)
    return space, TabulatedFunction(space, table)


# ---------------------------------------------------------------------------
# Tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    """One tail probability, exact and/or Monte Carlo."""

    t: float
    exact: float | None
    mc_estimate: float | None
    mc_stderr: float | None
    n_samples: int

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def exact_tail(f: TabulatedFunction, t: float, cap: int = DEFAULT_CAP) -> float:
    """``Pr{f - Ef > t}`` by exact enumeration (strict inequality)."""
    w = f.space.weight_table(cap)
    centered = f.values - memo_scalar(f, "mean", lambda: expectation(f, cap))
    mask = centered > t
    if not mask.any():
        return 0.0
    return fsum(w[mask])


def tail_curve(f: TabulatedFunction, ing: dict[str, float], points: int) -> list[tuple]:
    """``(t, exact tail, sup-Bernstein, main, variance corollary)`` rows.

    One row per deviation ``t`` of an even ``points``-grid on ``(0, max f - Ef]``,
    with ``ing`` keyed as ``bounds.bound_ingredients``; no rows when ``b`` or
    the largest deviation is at most 1e-12, where the bounds say nothing.
    """
    e_scv, sigma2, b, j, j_mu = (ing[k] for k in ("E_scv", "sigma2", "b", "j", "j_mu"))
    tmax = f.max() - expectation(f)
    if b <= 1e-12 or tmax <= 1e-12:
        return []
    rows = []
    for t in np.linspace(0.0, tmax, points + 1)[1:]:
        t = float(t)
        rows.append((
            t,
            exact_tail(f, t),
            bnd.sup_bernstein_bound(f, b, t).value,
            bnd.main_bound(e_scv, b, j_mu, t).value,
            bnd.variance_corollary_bound(sigma2, j, j_mu, b, t).value,
        ))
    return rows


def space_sampler(
    space: FiniteProductSpace,
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Sampler of configurations (rows of axis indices) under the product measure."""
    weight_arrays = [a.weight_array() for a in space.axes]

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        cols = [
            rng.choice(len(w), size=size, p=w)
            for w in weight_arrays
        ]
        return np.stack(cols, axis=1)

    return draw


def centered_evaluator(f: TabulatedFunction) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of ``f - Ef`` on sampled configuration rows."""
    center = expectation(f)
    flat = f.values.ravel()
    shape = f.space.shape

    def evaluate(configs: np.ndarray) -> np.ndarray:
        idx = np.ravel_multi_index(tuple(configs.T), shape)
        return flat[idx] - center

    return evaluate


def mc_tail(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    evaluator: Callable[[np.ndarray], np.ndarray],
    t: float,
    n_samples: int,
    seed: int,
) -> TailEstimate:
    """Binomial Monte Carlo estimate of ``Pr{value > t}``.

    ``sampler`` draws configuration rows, ``evaluator`` maps them to the
    (already centered) values whose tail is wanted.  Deterministic in ``seed``.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = substream(seed, 0x7A)
    values = evaluator(sampler(rng, n_samples))
    hits = float(np.count_nonzero(values > t))
    p = hits / n_samples
    stderr = math.sqrt(p * (1.0 - p) / n_samples)
    return TailEstimate(
        t=t, exact=None, mc_estimate=p, mc_stderr=stderr, n_samples=n_samples
    )


# ---------------------------------------------------------------------------
# The inequality suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    instances: int
    max_violation: float
    witness_seed: int | None
    passed: bool

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[CheckResult, ...]
    count: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "seed": self.seed,
            "count": self.count,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def format_table(self) -> str:
        width = max([len(c.name) for c in self.checks], default=4)
        lines = [
            f"{'check':<{width}}  {'n':>5}  {'max violation':>13}  "
            f"{'tolerance':>9}  status  witness"
        ]
        for c in self.checks:
            witness = "-" if c.witness_seed is None else str(c.witness_seed)
            lines.append(
                f"{c.name:<{width}}  {c.instances:>5}  {c.max_violation:>13.3e}  "
                f"{c.tolerance:>9.0e}  {'pass' if c.passed else 'FAIL':<6}  {witness}"
            )
        return "\n".join(lines)


class _Accumulator:
    def __init__(self, name: str, tolerance: float) -> None:
        self.name = name
        self.tolerance = tolerance
        self.instances = 0
        self.max_violation = 0.0
        self.witness: int | None = None

    def add(self, violation: float, seed: int) -> None:
        self.instances += 1
        if violation > self.max_violation:
            self.max_violation = violation
        if violation > self.tolerance and self.witness is None:
            self.witness = seed

    def result(self) -> CheckResult:
        return CheckResult(
            name=self.name,
            tolerance=self.tolerance,
            instances=self.instances,
            max_violation=self.max_violation,
            witness_seed=self.witness,
            passed=self.max_violation <= self.tolerance,
        )


_IDENTITY_TOL = 1e-10
_STRICT_TOL = 1e-12
_INEQ_TOL = 1e-10
_QUAD_TOL = 1e-6
_REDUCTION_TOL = 1e-12

#: Registry order of every check the suite runs, with tolerances.
CHECKS: tuple[tuple[str, float], ...] = (
    ("efron_stein", _STRICT_TOL),
    ("efron_stein_sum_equality", _IDENTITY_TOL),
    ("variance_scaling", _IDENTITY_TOL),
    ("relabeling_invariance", _STRICT_TOL),
    ("cond_variance_two_forms", _IDENTITY_TOL),
    ("operator_commutation", _STRICT_TOL),
    ("efron_stein_gap_envelope", _INEQ_TOL),
    ("bias_bound_sandwich", _INEQ_TOL),
    ("chatterjee_identity", _IDENTITY_TOL),
    ("conditional_mean_variance", _STRICT_TOL),
    ("interaction_chain", _INEQ_TOL),
    ("interaction_homogeneity", _IDENTITY_TOL),
    ("self_bounding_scv", _INEQ_TOL),
    ("variance_term_ordering", _STRICT_TOL),
    ("tail_sup_bernstein", _INEQ_TOL),
    ("tail_main", _INEQ_TOL),
    ("tail_variance_corollary", _INEQ_TOL),
    ("bernstein_reduction", _REDUCTION_TOL),
    ("entropy_subadditivity", _INEQ_TOL),
    ("bennett_entropy", _INEQ_TOL),
    ("entropy_upper_self_bound", _INEQ_TOL),
    ("decoupling", _INEQ_TOL),
    ("herbst_identity", _QUAD_TOL),
    ("psi_ratio_grid", 0.0),
    ("chernoff_infimum", _INEQ_TOL),
)


def run_property_suite(
    spec: RandomInstanceSpec,
    count: int,
    entropy_count: int | None = None,
    tail_points: int = 20,
    scalar_count: int = 100,
    inject_bug: bool = False,
) -> SuiteReport:
    """Run every registered inequality check on ``count`` seeded instances.

    The exact (non-entropy) checks run on ``count`` instances drawn from
    ``spec`` plus ``count`` auxiliary pure-sum instances for the equality
    cases; the entropy checks run on ``entropy_count`` instances (default
    ``count // 4``) over ``BETA_GRID``; the scalar lemmas run once on their
    grids plus ``scalar_count`` random triples.  ``count == 0`` produces an
    empty report.  ``inject_bug`` negates the Efron-Stein check, as a
    self-test that failures surface with a witness seed.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return SuiteReport(checks=(), count=0, seed=spec.seed)
    if entropy_count is None:
        entropy_count = max(1, count // 4)
    acc = {name: _Accumulator(name, tol) for name, tol in CHECKS}

    for i in range(count):
        inst_seed = derive_seed(spec.seed, 1, i)
        _, f = generate_instance(dataclasses.replace(spec, seed=inst_seed))
        rng = substream(inst_seed, 0x05)
        _exact_checks(acc, inst_seed, f, rng, tail_points, inject_bug)

        sum_seed = derive_seed(spec.seed, 2, i)
        sum_spec = dataclasses.replace(
            spec, values="sum_plus_perturbation", epsilon=0.0, seed=sum_seed
        )
        _, f_sum = generate_instance(sum_spec)
        _sum_checks(acc, sum_seed, f_sum, tail_points)

    for i in range(entropy_count):
        ent_seed = derive_seed(spec.seed, 3, i)
        _, f = generate_instance(dataclasses.replace(spec, seed=ent_seed))
        g_rng = substream(ent_seed, 0x06)
        g = TabulatedFunction(f.space, g_rng.uniform(-1.0, 1.0, size=f.space.size))
        _entropy_checks(acc, ent_seed, f, g)

    _scalar_checks(acc, spec.seed, scalar_count)

    return SuiteReport(
        checks=tuple(acc[name].result() for name, _ in CHECKS),
        count=count,
        seed=spec.seed,
    )


def _exact_checks(
    acc: dict[str, _Accumulator],
    seed: int,
    f: TabulatedFunction,
    rng: np.random.Generator,
    tail_points: int,
    inject_bug: bool,
) -> None:
    space = f.space
    scv_table = scv(f)
    e_scv = expectation(scv_table)
    sup_scv = float(scv_table.values.max())
    sigma2 = variance(f)
    report = interaction_report(f)
    j, j_mu, crude = report.j, report.j_mu, report.crude
    b = bnd.per_coordinate_range_bound(f)

    if inject_bug:
        acc["efron_stein"].add(e_scv - sigma2, seed)
    else:
        acc["efron_stein"].add(sigma2 - e_scv, seed)

    a_scale = float(rng.uniform(0.25, 2.0))
    shift = float(rng.uniform(-1.0, 1.0))
    scaled = f * a_scale + shift
    acc["variance_scaling"].add(
        abs(variance(scaled) - a_scale * a_scale * sigma2), seed
    )

    # Relabel a random axis: permute points consistently in weights and values.
    k_perm = int(rng.integers(0, space.n))
    perm = rng.permutation(space.axes[k_perm].size)
    relabeled_axes = list(space.axes)
    relabeled_axes[k_perm] = FiniteAxis(
        weights=tuple(space.axes[k_perm].weights[i] for i in perm)
    )
    relabeled_space = FiniteProductSpace(axes=tuple(relabeled_axes))
    relabeled = TabulatedFunction(
        relabeled_space, np.take(f.values, perm, axis=k_perm)
    )
    acc["relabeling_invariance"].add(
        max(
            abs(expectation(relabeled) - expectation(f)),
            abs(variance(relabeled) - sigma2),
        ),
        seed,
    )

    two_forms = 0.0
    for k in range(space.n):
        delta = np.abs(cond_variance(f, k).values - cond_variance_pairs(f, k).values)
        two_forms = max(two_forms, float(delta.max()))
    acc["cond_variance_two_forms"].add(two_forms, seed)

    if space.n >= 2:
        ks = rng.permutation(space.n)[:2]
        k1, k2 = int(ks[0]), int(ks[1])
        y = int(rng.integers(0, space.axes[k1].size))
        z = int(rng.integers(0, space.axes[k2].size))
        worst = float(
            np.abs(
                substitute(substitute(f, k1, y), k2, z).values
                - substitute(substitute(f, k2, z), k1, y).values
            ).max()
        )
        worst = max(
            worst,
            float(
                np.abs(
                    cond_expectation(substitute(f, k1, y), k2).values
                    - substitute(cond_expectation(f, k2), k1, y).values
                ).max()
            ),
        )
        worst = max(
            worst,
            float(
                np.abs(
                    substitute(cond_variance(f, k2), k1, y).values
                    - cond_variance(substitute(f, k1, y), k2).values
                ).max()
            ),
        )
        worst = max(
            worst,
            float(
                np.abs(
                    cond_expectation(cond_expectation(f, k1), k2).values
                    - cond_expectation(cond_expectation(f, k2), k1).values
                ).max()
            ),
        )
        acc["operator_commutation"].add(worst, seed)

    gap, envelope = bnd.efron_stein_gap(f, j=j)
    acc["efron_stein_gap_envelope"].add(max(-gap, gap - envelope), seed)

    bias = bnd.bias_second_difference_bound(f)
    acc["bias_bound_sandwich"].add(max(gap - bias, bias - envelope), seed)

    acc["chatterjee_identity"].add(abs(bnd.chatterjee_variance(f) - sigma2), seed)

    acc["conditional_mean_variance"].add(
        bnd.conditional_mean_variance_sum(f) - sigma2, seed
    )

    acc["interaction_chain"].add(max(j_mu - j, j - crude), seed)

    hom_scale = float(rng.uniform(0.25, 4.0))
    scaled_f = f * hom_scale
    hom_violation = 0.0
    for value, reference in (
        (interaction(scaled_f), hom_scale * j),
        (weighted_interaction(scaled_f), hom_scale * j_mu),
    ):
        denom = max(abs(reference), 1e-12)
        hom_violation = max(hom_violation, abs(value - reference) / denom)
    acc["interaction_homogeneity"].add(hom_violation, seed)

    d_scv = self_bounding_operator(scv_table)
    acc["self_bounding_scv"].add(
        float((d_scv.values - j_mu * j_mu * scv_table.values).max()), seed
    )

    bd_term = bnd.bounded_difference_variance_term(f)
    acc["variance_term_ordering"].add(
        max(e_scv - sup_scv, sup_scv - bd_term), seed
    )

    ing = {"E_scv": e_scv, "sigma2": sigma2, "b": b, "j": j, "j_mu": j_mu}
    curve = tail_curve(f, ing, tail_points)
    if curve:
        for column, name in enumerate(
            ("tail_sup_bernstein", "tail_main", "tail_variance_corollary"), start=2
        ):
            worst = max(0.0, *(row[1] - row[column] for row in curve))
            acc[name].add(worst, seed)


def _sum_profile_variances(f: TabulatedFunction) -> float:
    """Independent route to ``sum_k var(profile_k)`` for pure-sum tables."""
    space = f.space
    total = []
    for k in range(space.n):
        idx: list[object] = [0] * space.n
        idx[k] = slice(None)
        profile = f.values[tuple(idx)]
        w = space.axes[k].weight_array()
        mean = fsum(w * profile)
        d = profile - mean
        total.append(fsum(w * d * d))
    return fsum(total)


def _sum_checks(
    acc: dict[str, _Accumulator], seed: int, f: TabulatedFunction, tail_points: int
) -> None:
    e_scv = expectation(scv(f))
    sigma2 = variance(f)
    acc["efron_stein_sum_equality"].add(abs(e_scv - sigma2), seed)

    b = bnd.per_coordinate_range_bound(f)
    if b <= 1e-12:
        return
    j_mu = weighted_interaction(f)
    sum_sigma = _sum_profile_variances(f)
    tmax = f.max() - expectation(f)
    if tmax <= 1e-12:
        return
    worst = 0.0
    for t in np.linspace(0.0, tmax, tail_points + 1)[1:]:
        value = bnd.main_bound(e_scv, b, j_mu, float(t)).value
        bernstein = math.exp(-(t * t) / (2.0 * sum_sigma + 2.0 * b * t / 3.0))
        worst = max(worst, abs(value - bernstein) / bernstein)
    acc["bernstein_reduction"].add(worst, seed)


def _entropy_checks(
    acc: dict[str, _Accumulator],
    seed: int,
    f: TabulatedFunction,
    g: TabulatedFunction,
) -> None:
    space = f.space
    scale = bnd.per_coordinate_range_bound(f)
    rescaled = f * (1.0 / scale) if scale > 1e-12 else None
    log_e_g = log_mgf(g, 1.0) + expectation(g)
    for beta in BETA_GRID:
        state = gibbs(f, beta)
        s_f = beta * gibbs_expectation(state, f) - state.log_z

        cond_sum = TabulatedFunction(
            space,
            sum(conditional_entropy(f, k, beta).values for k in range(space.n)),
        )
        acc["entropy_subadditivity"].add(
            s_f - gibbs_expectation(state, cond_sum), seed
        )

        if rescaled is not None:
            s_r = entropy(rescaled, beta)
            tilted = gibbs(rescaled, beta)
            acc["bennett_entropy"].add(
                s_r - bnd.psi(beta) * gibbs_expectation(tilted, scv(rescaled)), seed
            )

        d_f = self_bounding_operator(f)
        acc["entropy_upper_self_bound"].add(
            s_f - 0.5 * beta * beta * gibbs_expectation(state, d_f), seed
        )

        acc["decoupling"].add(gibbs_expectation(state, g) - (s_f + log_e_g), seed)

        acc["herbst_identity"].add(
            abs(herbst_log_mgf(f, beta) - log_mgf(f, beta)), seed
        )


def _scalar_checks(acc: dict[str, _Accumulator], seed: int, scalar_count: int) -> None:
    for a in A_GRID:
        limit = 1.0 / (1.0 / 3.0 + a / 2.0)
        for gamma in np.linspace(0.0, limit, 101)[1:-1]:
            ok = bnd.psi_ratio_inequality(a, float(gamma))
            acc["psi_ratio_grid"].add(0.0 if ok else 1.0, seed)
    rng = substream(seed, 0x0C)
    for _ in range(scalar_count):
        c = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        b = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        t = float(np.exp(rng.uniform(math.log(0.05), math.log(3.0))))
        numeric, closed = bnd.chernoff_infimum(c, b, t)
        acc["chernoff_infimum"].add(numeric - closed, seed)
