"""Regularized least squares: closed-form solver, risks, and stability checks.

The learner returns ``w = (G + lam I)^{-1} g`` with ``G`` the sample Gram
matrix ``(1/n) sum x_i x_i^T`` and ``g = (1/n) sum y_i x_i``, for inputs in
the unit ball and labels in ``[-1, 1]``.  Standing consequences used
throughout: the objective at ``w`` is at most the objective at zero, hence
``sum residuals^2 <= n`` and ``|w| <= lam^{-1/2}``.

The stability analysis interpolates one or two sample points along straight
lines inside the instance space (which is convex) and controls derivatives of
``w`` along the path:

    |dw/dt|        <= lam^{-1} (B1 |w| + B2)        <= 8 lam^{-3/2} / n
    |d2w/ds dt|    <= 2 lam^{-2} (B1^2 |w| + B1 B2) <= 32 lam^{-5/2} / n^2

with ``B1 = B2 = 4/n`` bounding the path derivatives of ``G`` and ``g``.
``derivative_bound_check`` certifies all of this by central finite
differences with a Richardson step-halving consistency flag.

The generalization gap ``true risk - empirical risk`` for a finite population
is exactly computable; ``exhaustive_scv`` and ``measured_ingredients`` give
the exact variance-sum, range, and interaction inputs for tail bounds on the
centered gap, and ``empirical_scv`` is the seeded Monte Carlo counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exchangeable import multiset_probabilities, multisets, neighbours, occupancy, rank
from .rng import substream
from .space import fsum

_NORM_SLACK = 1e-12


class SolverError(Exception):
    """The regularized normal equations failed to solve to tolerance."""


@dataclass(frozen=True, eq=False)
class RlsProblem:
    """A sample of (x, y) pairs with ``|x| <= 1``, ``|y| <= 1``, and ``lam`` in (0, 1)."""

    xs: np.ndarray
    ys: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        xs = np.atleast_2d(np.asarray(self.xs, dtype=np.float64))
        ys = np.asarray(self.ys, dtype=np.float64).ravel()
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys disagree on the sample size")
        if xs.shape[0] < 1:
            raise ValueError("need at least one sample point")
        norms = np.linalg.norm(xs, axis=1)
        if norms.max() > 1.0 + _NORM_SLACK:
            raise ValueError(f"input norm {norms.max()} exceeds the unit ball")
        if np.abs(ys).max() > 1.0 + _NORM_SLACK:
            raise ValueError("labels must lie in [-1, 1]")
        if not (0.0 < self.lam < 1.0):
            raise ValueError("lam must lie in (0, 1)")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


@dataclass(frozen=True, eq=False)
class RlsSolution:
    """Weight vector with the Gram matrix and moment vector that produced it."""

    w: np.ndarray
    gram: np.ndarray
    moment: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        for name in ("w", "gram", "moment"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def solve(problem: RlsProblem) -> RlsSolution:
    """Solve the regularized normal equations ``(G + lam I) w = g``.

    Cholesky on the symmetric positive definite system (smallest eigenvalue
    at least ``lam``); raises SolverError if the relative residual exceeds
    1e-8, which the conditioning bound ``(1 + lam) / lam`` rules out in
    practice.  The returned ``w`` satisfies ``|w| <= lam^{-1/2}``.
    """
    n, d = problem.n, problem.dim
    gram = problem.xs.T @ problem.xs / n
    moment = problem.xs.T @ problem.ys / n
    system = gram + problem.lam * np.eye(d)
    try:
        w = cho_solve(cho_factor(system, lower=True), moment)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - lam > 0 prevents this
        raise SolverError(f"factorization failed: {exc}") from exc
    residual_vec = system @ w - moment
    scale = float(np.linalg.norm(moment))
    residual = float(np.linalg.norm(residual_vec)) / scale if scale > 0.0 else 0.0
    if residual > 1e-8:
        raise SolverError(f"relative residual {residual} exceeds 1e-8")
    norm_w = float(np.linalg.norm(w))
    limit = problem.lam ** -0.5
    if norm_w > limit + 1e-10:
        raise SolverError(f"|w| = {norm_w} exceeds lam^-1/2 = {limit}")
    return RlsSolution(w=w, gram=gram, moment=moment, residual=residual)


def empirical_risk(solution: RlsSolution, problem: RlsProblem) -> float:
    """Mean squared residual of the solution on its own sample."""
    r = problem.xs @ solution.w - problem.ys
    return fsum(r * r) / problem.n


@dataclass(frozen=True, eq=False)
class Population:
    """A finite distribution over (x, y) pairs for exact risk evaluation."""

    xs: np.ndarray
    ys: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        xs = np.atleast_2d(np.asarray(self.xs, dtype=np.float64))
        ys = np.asarray(self.ys, dtype=np.float64).ravel()
        probs = np.asarray(self.probs, dtype=np.float64).ravel()
        if not (xs.shape[0] == ys.shape[0] == probs.shape[0]):
            raise ValueError("population fields disagree on the atom count")
        if np.linalg.norm(xs, axis=1).max() > 1.0 + _NORM_SLACK:
            raise ValueError("population inputs must lie in the unit ball")
        if np.abs(ys).max() > 1.0 + _NORM_SLACK:
            raise ValueError("population labels must lie in [-1, 1]")
        if probs.min() < 0.0:
            raise ValueError("atom probabilities must be nonnegative")
        if abs(fsum(probs) - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {fsum(probs)!r}")
        for name, arr in (("xs", xs), ("ys", ys), ("probs", probs)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


def true_risk(solution: RlsSolution, population: Population) -> float:
    """Exact expected squared error over the finite population."""
    r = population.xs @ solution.w - population.ys
    return fsum(population.probs * r * r)


def generalization_gap(problem: RlsProblem, population: Population) -> float:
    """``true risk - empirical risk`` for the solution trained on ``problem``."""
    solution = solve(problem)
    return true_risk(solution, population) - empirical_risk(solution, problem)


def replace_point(
    problem: RlsProblem, k: int, x: Sequence[float], y: float
) -> RlsProblem:
    if not (0 <= k < problem.n):
        raise IndexError(f"sample index {k} out of range")
    xs = problem.xs.copy()
    ys = problem.ys.copy()
    xs[k] = np.asarray(x, dtype=np.float64)
    ys[k] = y
    return RlsProblem(xs=xs, ys=ys, lam=problem.lam)


def stability_difference(
    problem: RlsProblem,
    k: int,
    replacement: tuple[Sequence[float], float],
    population: Population,
) -> float:
    """Change of the generalization gap when sample point ``k`` is replaced."""
    modified = replace_point(problem, k, replacement[0], replacement[1])
    return generalization_gap(problem, population) - generalization_gap(
        modified, population
    )


# ---------------------------------------------------------------------------
# Finite-difference certification of the derivative bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivativeCheckReport:
    """Finite-difference derivative norms against their analytic envelopes."""

    h: float
    grid: int
    max_first: float
    bound_first: float
    first_ok: bool
    max_mixed: float
    bound_mixed: float
    mixed_ok: bool
    max_gram_rate: float
    max_moment_rate: float
    rate_bound: float
    rate_ok: bool
    max_gram_mixed: float
    gram_mixed_ok: bool
    step_warning: bool

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _interpolate(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float], t: float):
    x = a[0] + t * (b[0] - a[0])
    y = a[1] + t * (b[1] - a[1])
    return x, y


def derivative_bound_check(
    problem: RlsProblem,
    k: int,
    l: int,
    zk_a: tuple[Sequence[float], float],
    zk_b: tuple[Sequence[float], float],
    zl_a: tuple[Sequence[float], float],
    zl_b: tuple[Sequence[float], float],
    grid: int = 3,
    h: float = 1e-4,
    rel_tol: float = 1e-3,
) -> DerivativeCheckReport:
    """Certify the path-derivative bounds on a ``grid x grid`` lattice.

    Sample point ``l`` moves along ``zl_a -> zl_b`` with parameter ``s`` and
    point ``k`` along ``zk_a -> zk_b`` with ``t``; both endpoints must lie in
    the instance space, so the whole path does by convexity.  Central
    differences estimate ``|dw/dt|`` and the mixed ``|d2w/ds dt|`` plus the
    rate bounds ``|dG/dt| <= 4/n`` and ``|dg/dt| <= 4/n`` and the vanishing
    mixed second difference of ``G``.  Each inequality is asserted up to
    ``rel_tol`` times its envelope (finite-difference truncation allowance);
    ``step_warning`` flags h vs h/2 disagreement above 10 percent.
    """
    if k == l:
        raise ValueError("need two distinct sample indices")
    if not (0.0 < h < 0.25):
        raise ValueError("step h must lie in (0, 0.25)")
    zk_a = (np.asarray(zk_a[0], dtype=np.float64), float(zk_a[1]))
    zk_b = (np.asarray(zk_b[0], dtype=np.float64), float(zk_b[1]))
    zl_a = (np.asarray(zl_a[0], dtype=np.float64), float(zl_a[1]))
    zl_b = (np.asarray(zl_b[0], dtype=np.float64), float(zl_b[1]))
    for z in (zk_a, zk_b, zl_a, zl_b):
        if np.linalg.norm(z[0]) > 1.0 + _NORM_SLACK or abs(z[1]) > 1.0 + _NORM_SLACK:
            raise ValueError("interpolation endpoints must lie in the instance space")

    n, lam = problem.n, problem.lam

    def at(s: float, t: float) -> RlsProblem:
        xk, yk = _interpolate(zk_a, zk_b, t)
        xl, yl = _interpolate(zl_a, zl_b, s)
        prob = replace_point(problem, k, xk, yk)
        return replace_point(prob, l, xl, yl)

    def w_at(s: float, t: float) -> np.ndarray:
        return solve(at(s, t)).w

    def gram_moment(s: float, t: float) -> tuple[np.ndarray, np.ndarray]:
        sol = solve(at(s, t))
        return sol.gram, sol.moment

    def first_norm(s: float, t: float, step: float) -> float:
        return float(
            np.linalg.norm((w_at(s, t + step) - w_at(s, t - step)) / (2.0 * step))
        )

    def mixed_norm(s: float, t: float, step: float) -> float:
        num = (
            w_at(s + step, t + step)
            - w_at(s + step, t - step)
            - w_at(s - step, t + step)
            + w_at(s - step, t - step)
        )
        return float(np.linalg.norm(num / (4.0 * step * step)))

    lattice = np.linspace(h, 1.0 - h, grid)
    bound_first = 8.0 * lam ** -1.5 / n
    bound_mixed = 32.0 * lam ** -2.5 / n**2
    rate_bound = 4.0 / n

    max_first = max_mixed = 0.0
    max_gram_rate = max_moment_rate = max_gram_mixed = 0.0
    step_warning = False
    for s in lattice:
        for t in lattice:
            f_h = first_norm(s, t, h)
            f_h2 = first_norm(s, t, h / 2.0)
            m_h = mixed_norm(s, t, h)
            m_h2 = mixed_norm(s, t, h / 2.0)
            for a, b in ((f_h, f_h2), (m_h, m_h2)):
                if max(a, b) > 1e-12 and abs(a - b) > 0.1 * max(a, b):
                    step_warning = True
            max_first = max(max_first, f_h2)
            max_mixed = max(max_mixed, m_h2)

            g_p, v_p = gram_moment(s, t + h)
            g_m, v_m = gram_moment(s, t - h)
            max_gram_rate = max(
                max_gram_rate, float(np.linalg.norm((g_p - g_m) / (2 * h), 2))
            )
            max_moment_rate = max(
                max_moment_rate, float(np.linalg.norm((v_p - v_m) / (2 * h)))
            )
            gs_p, vs_p = gram_moment(s + h, t)
            gs_m, vs_m = gram_moment(s - h, t)
            max_gram_rate = max(
                max_gram_rate, float(np.linalg.norm((gs_p - gs_m) / (2 * h), 2))
            )
            max_moment_rate = max(
                max_moment_rate, float(np.linalg.norm((vs_p - vs_m) / (2 * h)))
            )
            g_pp, _ = gram_moment(s + h, t + h)
            g_pm, _ = gram_moment(s + h, t - h)
            g_mp, _ = gram_moment(s - h, t + h)
            g_mm, _ = gram_moment(s - h, t - h)
            max_gram_mixed = max(
                max_gram_mixed,
                float(np.linalg.norm((g_pp - g_pm - g_mp + g_mm) / (4 * h * h), 2)),
            )

    return DerivativeCheckReport(
        h=h,
        grid=grid,
        max_first=max_first,
        bound_first=bound_first,
        first_ok=max_first <= bound_first * (1.0 + rel_tol) + 1e-8,
        max_mixed=max_mixed,
        bound_mixed=bound_mixed,
        mixed_ok=max_mixed <= bound_mixed * (1.0 + rel_tol) + 1e-8,
        max_gram_rate=max_gram_rate,
        max_moment_rate=max_moment_rate,
        rate_bound=rate_bound,
        rate_ok=max(max_gram_rate, max_moment_rate) <= rate_bound * (1.0 + rel_tol) + 1e-8,
        max_gram_mixed=max_gram_mixed,
        gram_mixed_ok=max_gram_mixed <= 1e-6,
        step_warning=step_warning,
    )


def gap_tail_bound(e_scv: float, n: int, lam: float, c: float, t: float) -> float:
    """Tail bound for the centered generalization gap.

    ``exp(-n t^2 / (2 n e_scv + c lam^{-3} t))`` with ``c`` a caller-supplied
    constant: the analysis only fixes the ``lam^{-3}/n`` shape of the linear
    term, not its absolute constant, so experiments either configure ``c`` or
    replace the whole linear term by measured range and interaction values
    (see ``measured_ingredients``).
    """
    if e_scv < 0.0 or n < 1 or not (0.0 < lam < 1.0) or c <= 0.0 or t <= 0.0:
        raise ValueError("invalid tail-bound arguments")
    return math.exp(-(n * t * t) / (2.0 * n * e_scv + c * lam**-3 * t))


# ---------------------------------------------------------------------------
# Exact and Monte Carlo ingredients over finite populations
# ---------------------------------------------------------------------------


class GapTable:
    """The generalization gap of every sample multiset of population atoms.

    Both risks are symmetric in the sample, so the gap depends only on its atom
    counts (``exchangeable``): row ``r`` of ``counts`` is one ``n``-multiset,
    ``probs[r]`` its probability and ``gaps[r]`` the gap of the sample holding
    its atoms in index order.
    """

    def __init__(self, population: Population, n: int, lam: float) -> None:
        if n < 2:
            raise ValueError("need a sample of at least two points")
        self.population = population
        self.n = n
        self.counts = multisets(n, population.size)
        self.probs = multiset_probabilities(self.counts, population.probs)
        atoms = np.arange(population.size)
        gaps = []
        for row in self.counts:
            idx = np.repeat(atoms, row)
            sample = RlsProblem(xs=population.xs[idx], ys=population.ys[idx], lam=lam)
            gaps.append(generalization_gap(sample, population))
        self.gaps = np.array(gaps)

    def value(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Gap of each sample given by atom indices along the last axis, in any order."""
        indices = np.asarray(indices)
        if indices.shape[-1] != self.n:
            raise ValueError(f"sample of length {indices.shape[-1]}, expected {self.n}")
        return self.gaps[rank(occupancy(indices, self.population.size))]


def exhaustive_scv(
    population: Population, n: int, lam: float, cap: int = 1_000_000
) -> float:
    """Exact expected variance sum of the gap over population samples.

    Exploits exchangeability (i.i.d. atoms, symmetric gap): the expected
    conditional variance is the same for every coordinate, and given the
    other ``n - 1`` points it depends only on their multiset, so one
    coordinate is varied over every ``(n-1)``-multiset, at most ``cap`` of them.
    """
    probs = population.probs
    rest = multisets(n - 1, population.size, cap)
    vals = GapTable(population, n, lam).gaps[neighbours(rest)]  # [r, y]: rest r plus atom y
    acc = np.zeros(len(rest))
    for y in range(population.size):
        for y2 in range(population.size):
            d = vals[:, y] - vals[:, y2]
            acc += probs[y] * probs[y2] * d * d
    return n * fsum(multiset_probabilities(rest, probs) * 0.5 * acc)


def measured_ingredients(
    population: Population, n: int, lam: float, cap: int = 1_000_000
) -> dict[str, float]:
    """Exact tail-bound inputs for the gap on a finite population.

    Returns ``e_scv`` (expected variance sum), ``b`` (largest one-sided
    deviation of the gap from its per-coordinate conditional mean), and
    ``crude_j`` (``n`` times the largest absolute mixed second difference).
    Exchangeability reduces the coordinate maxima to a single representative
    coordinate (or pair), varied over the at most ``cap`` multisets of the rest.
    """
    probs = population.probs
    rest = multisets(n - 1, population.size, cap)
    vals = GapTable(population, n, lam).gaps[neighbours(rest)]  # [r, y]: rest r plus atom y
    cond_mean = np.array([math.fsum(row) for row in (probs * vals).tolist()])
    b = float((vals - cond_mean[:, None]).max())
    # pair[q, y, z]: gap of (n-2)-multiset q plus atoms y and z.
    pair = vals[neighbours(multisets(n - 2, population.size, cap))]
    crude = 0.0
    for y in range(population.size):
        for y2 in range(population.size):
            second = (
                pair[:, y, :, None]
                - pair[:, y2, :, None]
                - pair[:, y, None, :]
                + pair[:, y2, None, :]
            )
            crude = max(crude, float(np.abs(second).max()))
    return {
        "e_scv": exhaustive_scv(population, n, lam, cap),
        "b": b,
        "crude_j": n * crude,
    }


def population_sampler(
    population: Population, n: int, lam: float
) -> Callable[[np.random.Generator], RlsProblem]:
    """Factory of i.i.d. samples from the population, as RLS problems."""

    def draw(rng: np.random.Generator) -> RlsProblem:
        idx = rng.choice(population.size, size=n, p=population.probs)
        return RlsProblem(xs=population.xs[idx], ys=population.ys[idx], lam=lam)

    return draw


def empirical_scv(
    draw_problem: Callable[[np.random.Generator], RlsProblem],
    population: Population,
    replications: int,
    seed: int,
    pairs_per_coordinate: int = 1,
) -> tuple[float, float]:
    """Monte Carlo estimate of the expected variance sum of the gap.

    Each replication draws a sample, then for every coordinate averages
    ``(1/2) (gap difference under two independent replacements)^2`` over
    ``pairs_per_coordinate`` replacement pairs drawn from the population.
    Deterministic in ``seed``: replication ``r`` uses stream ``(seed, r)``
    and results aggregate in replication order.  Returns (mean, stderr).
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    cache: dict[tuple[bytes, bytes], float] = {}

    def gap_of(problem: RlsProblem) -> float:
        key = (problem.xs.tobytes(), problem.ys.tobytes())
        got = cache.get(key)
        if got is None:
            got = generalization_gap(problem, population)
            cache[key] = got
        return got

    values = []
    for r in range(replications):
        rng = substream(seed, 0xE5, r)
        problem = draw_problem(rng)
        total = 0.0
        for k in range(problem.n):
            acc = 0.0
            for _ in range(pairs_per_coordinate):
                ya = int(rng.choice(population.size, p=population.probs))
                yb = int(rng.choice(population.size, p=population.probs))
                fa = gap_of(
                    replace_point(problem, k, population.xs[ya], population.ys[ya])
                )
                fb = gap_of(
                    replace_point(problem, k, population.xs[yb], population.ys[yb])
                )
                acc += 0.5 * (fa - fb) ** 2
            total += acc / pairs_per_coordinate
        values.append(total)
    mean = math.fsum(values) / replications
    if replications == 1:
        return mean, math.inf
    var = math.fsum((v - mean) ** 2 for v in values) / (replications - 1)
    return mean, math.sqrt(var / replications)


def exact_gap_mean(population: Population, n: int, lam: float) -> float:
    """Exact ``E[gap]`` by multiset enumeration."""
    table = GapTable(population, n, lam)
    return fsum(table.probs * table.gaps)


def exact_gap_tail(population: Population, n: int, lam: float, t: float) -> float:
    """Exact ``Pr{gap - E[gap] > t}`` by multiset enumeration."""
    table = GapTable(population, n, lam)
    mean = fsum(table.probs * table.gaps)
    return fsum(table.probs[table.gaps - mean > t])


def mc_gap_values(
    population: Population, n: int, lam: float, n_samples: int, seed: int
) -> np.ndarray:
    """Seeded i.i.d. gap values for Monte Carlo tails, looked up by multiset."""
    rng = substream(seed, 0xF0)
    idx = rng.choice(population.size, size=(n_samples, n), p=population.probs)
    return GapTable(population, n, lam).value(idx)


# ---------------------------------------------------------------------------
# JSON interchange:
# {"dim": d, "lambda": l, "n": n, "population": [{"x": [...], "y": ..., "p": ...}]}
# ---------------------------------------------------------------------------


def rls_config_from_json(doc: dict) -> tuple[Population, int, float]:
    if not isinstance(doc, dict):
        raise ValueError("document must be an object")
    unknown = set(doc) - {"dim", "lambda", "n", "population"}
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    dim = int(doc["dim"])
    lam = float(doc["lambda"])
    n = int(doc["n"])
    atoms = doc["population"]
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("'population' must be a non-empty list")
    xs, ys, ps = [], [], []
    for i, atom in enumerate(atoms):
        unknown = set(atom) - {"x", "y", "p"}
        if unknown:
            raise ValueError(f"atom {i} has unknown fields {sorted(unknown)}")
        x = list(atom["x"])
        if len(x) != dim:
            raise ValueError(f"atom {i} has dimension {len(x)}, expected {dim}")
        xs.append(x)
        ys.append(float(atom["y"]))
        ps.append(float(atom["p"]))
    population = Population(xs=np.array(xs), ys=np.array(ys), probs=np.array(ps))
    return population, n, lam
