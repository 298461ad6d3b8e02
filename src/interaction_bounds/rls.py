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
is exactly computable on every sample multiset (``GapTable``), on one
``exchangeable.MultisetTable`` that the gaps at every ``lam`` share; its
``mean`` and ``ingredients`` give the exact mean and the exact variance-sum,
range, and interaction inputs for tail bounds on the centered gap, and
``empirical_scv`` is the seeded Monte Carlo counterpart of the variance sum.

Every family of problems (the lattice of a derivative check, the multisets of
a gap table, the replaced samples of ``empirical_scv``) is solved as a stack
by ``solve_stack``, not one problem at a time.  Its factorization is scipy's
own LAPACK ``dpotrf``/``dpotrs``.  Their extension module,
``scipy.linalg._flapack``, is loaded on the first solve without running
``scipy.linalg``'s package init, so commands that solve nothing load no scipy
and the first solve does not pay for the rest of ``scipy.linalg``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exchangeable import MultisetTable, occupancy, rank
from .rng import substream
from .space import _integer, fsum

_NORM_SLACK = 1e-12

#: Samples per ``solve_stack`` call in ``sample_gaps``; bounds its working memory.
_GAP_BLOCK = 4096

#: Relative allowance on each derivative envelope for finite-difference truncation.
_REL_TOL = 1e-3


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
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("inputs and labels must be finite")
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


@dataclass(frozen=True, eq=False)
class RlsSolution:
    """Weight vector with the Gram matrix and moment vector that produced it.

    From ``solve_stack`` every field carries a leading stack axis, and
    ``residual`` is an array.
    """

    w: np.ndarray
    gram: np.ndarray
    moment: np.ndarray
    residual: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("w", "gram", "moment"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@functools.cache
def _lapack():
    """scipy's LAPACK ``dpotrf`` and ``dpotrs``, loaded on the first call.

    Loads the one extension module ``scipy.linalg._flapack`` from scipy's
    directory, found on ``sys.path`` without running scipy code, so that
    ``scipy.linalg``'s package init never runs.  The routines are the very
    objects ``scipy.linalg.lapack`` exports.  Raises SolverError if scipy or
    the extension cannot be found or loaded.

    The extension loads with ``OPENBLAS_NUM_THREADS=1``, and the variable, or
    its absence, is restored right after: scipy's OpenBLAS then starts no
    thread pool, whose idle worker spins for about 0.1 s after the load and
    slows the Python code around it.  The systems are ``d x d`` with ``d``
    the input dimension, and OpenBLAS splits ``dpotrf`` between threads only
    from ``d = 128`` (``dpotrs`` on one right-hand side did not up to 256), so
    below that no bit moves.  numpy's own BLAS, loaded before, keeps its
    threads.
    """
    name = "scipy.linalg._flapack"
    scipy = importlib.util.find_spec("scipy")
    spec = None
    if scipy is not None and scipy.submodule_search_locations:
        linalg = [f"{path}/linalg" for path in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(name, linalg)
    if spec is None:
        raise SolverError(f"LAPACK unavailable: cannot find {name}")
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise SolverError(f"LAPACK unavailable: cannot load {name}: {exc}") from exc
    finally:
        if threads is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = threads
    return module.dpotrf, module.dpotrs


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector along the last axis.

    One BLAS dot product per vector, as ``np.linalg.norm`` takes for a single
    vector, so each norm equals that of the vector on its own bit for bit.
    """
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def solve_stack(xs: np.ndarray, ys: np.ndarray, lam: float) -> RlsSolution:
    """Solve ``(G_b + lam I) w_b = g_b`` for every problem ``b`` of a stack.

    ``xs`` has shape ``(B, n, d)`` and ``ys`` shape ``(B, n)``, with inputs in
    the unit ball and labels in ``[-1, 1]`` (``RlsProblem`` checks them for
    one sample).  Every Gram matrix and moment vector comes from one stacked
    matrix product, and each system is factored by LAPACK's ``dpotrf`` and
    solved by ``dpotrs``, the routines behind ``scipy.linalg.cho_factor`` and
    ``cho_solve`` (loaded by ``_lapack`` on the first solve, without
    ``scipy.linalg``'s package init); each slice is bit for bit the result of
    solving it alone.
    Cholesky applies because the smallest eigenvalue is at least ``lam``.
    Raises ValueError on a non-finite system and SolverError if a relative
    residual exceeds 1e-8, which the conditioning bound ``(1 + lam) / lam``
    rules out in practice.  Every returned ``w`` satisfies ``|w| <= lam^{-1/2}``.
    """
    dpotrf, dpotrs = _lapack()
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 3 or ys.shape != xs.shape[:2]:
        raise ValueError(f"need xs (B, n, d) and ys (B, n), got {xs.shape} and {ys.shape}")
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    n, d = xs.shape[1:]
    xt = np.swapaxes(xs, 1, 2)
    gram = xt @ xs / n
    moment = (xt @ ys[..., None])[..., 0] / n
    system = gram + lam * np.eye(d)
    if not (np.isfinite(system).all() and np.isfinite(moment).all()):
        raise ValueError("array must not contain infs or NaNs")
    w = np.empty_like(moment)
    for b in range(len(w)):
        factor, info = dpotrf(system[b], lower=1, clean=0)
        if info != 0:  # pragma: no cover - lam > 0 prevents this
            raise SolverError(
                f"factorization failed: {info}-th leading minor of the array is not "
                "positive definite"
            )
        w[b], _ = dpotrs(factor, moment[b], lower=1)
    residual_vec = (system @ w[..., None])[..., 0] - moment
    scale = _norms(moment)
    residual = np.divide(_norms(residual_vec), scale, out=np.zeros_like(scale), where=scale > 0.0)
    if (bad := np.flatnonzero(residual > 1e-8)).size:
        raise SolverError(f"relative residual {float(residual[bad[0]])} exceeds 1e-8")
    norm_w = _norms(w)
    limit = lam ** -0.5
    if (bad := np.flatnonzero(norm_w > limit + 1e-10)).size:
        raise SolverError(f"|w| = {float(norm_w[bad[0]])} exceeds lam^-1/2 = {limit}")
    return RlsSolution(w=w, gram=gram, moment=moment, residual=residual)


def solve(problem: RlsProblem) -> RlsSolution:
    """Solve the regularized normal equations ``(G + lam I) w = g`` of one sample.

    The one-problem case of ``solve_stack``, with the same checks and errors;
    the returned ``w`` satisfies ``|w| <= lam^{-1/2}``.
    """
    sol = solve_stack(problem.xs[None], problem.ys[None], problem.lam)
    return RlsSolution(
        w=sol.w[0], gram=sol.gram[0], moment=sol.moment[0], residual=float(sol.residual[0])
    )


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
        if not (np.isfinite(xs).all() and np.isfinite(ys).all() and np.isfinite(probs).all()):
            raise ValueError("population inputs, labels and probabilities must be finite")
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


def true_risk(solution: RlsSolution, population: Population) -> float:
    """Exact expected squared error over the finite population."""
    r = population.xs @ solution.w - population.ys
    return fsum(population.probs * r * r)


def _gap_stack(xs: np.ndarray, ys: np.ndarray, lam: float, population: Population) -> np.ndarray:
    """``true_risk - empirical_risk`` of each solution of ``solve_stack(xs, ys, lam)``.

    Stacked matrix-vector products and one exactly rounded sum per risk, so
    each gap equals that of its problem solved alone.
    """
    w = solve_stack(xs, ys, lam).w[..., None]
    r_true = (population.xs @ w)[..., 0] - population.ys
    r_emp = (xs @ w)[..., 0] - ys
    true_terms = (population.probs * r_true * r_true).tolist()
    emp_terms = (r_emp * r_emp).tolist()
    n = xs.shape[1]
    return np.array([math.fsum(t) - math.fsum(e) / n for t, e in zip(true_terms, emp_terms)])


def sample_gaps(population: Population, samples: np.ndarray, lam: float) -> np.ndarray:
    """Generalization gap of each sample given by atom indices along the last axis.

    The atoms stay in the order given, and each gap equals ``true_risk -
    empirical_risk`` of ``solve`` on that sample alone, bit for bit.  Samples
    are solved in stacks of at most ``_GAP_BLOCK``.
    """
    samples = np.asarray(samples)
    flat = samples.reshape(-1, samples.shape[-1])
    gaps = [
        _gap_stack(population.xs[block], population.ys[block], lam, population)
        for block in np.split(flat, range(_GAP_BLOCK, len(flat), _GAP_BLOCK))
    ]
    return np.concatenate(gaps).reshape(samples.shape[:-1])


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


def _interpolate(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float], t: np.ndarray):
    """The points ``a + t (b - a)`` for an array of path parameters ``t``."""
    x = a[0] + t[:, None] * (b[0] - a[0])
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
) -> DerivativeCheckReport:
    """Certify the path-derivative bounds on a ``grid x grid`` lattice.

    Sample point ``l`` moves along ``zl_a -> zl_b`` with parameter ``s`` and
    point ``k`` along ``zk_a -> zk_b`` with ``t``; both endpoints must lie in
    the instance space, so the whole path does by convexity.  Central
    differences estimate ``|dw/dt|`` and the mixed ``|d2w/ds dt|`` plus the
    rate bounds ``|dG/dt| <= 4/n`` and ``|dg/dt| <= 4/n`` and the vanishing
    mixed second difference of ``G``.  Each inequality is asserted up to
    0.1 percent of its envelope plus 1e-8 (finite-difference truncation
    allowance);
    ``step_warning`` flags h vs h/2 disagreement above 10 percent.  Every
    perturbed sample of the lattice is solved in one ``solve_stack`` call.
    """
    if k == l:
        raise ValueError("need two distinct sample indices")
    if not (0.0 < h < 0.25):
        raise ValueError("step h must lie in (0, 0.25)")
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    zk_a = (np.asarray(zk_a[0], dtype=np.float64), float(zk_a[1]))
    zk_b = (np.asarray(zk_b[0], dtype=np.float64), float(zk_b[1]))
    zl_a = (np.asarray(zl_a[0], dtype=np.float64), float(zl_a[1]))
    zl_b = (np.asarray(zl_b[0], dtype=np.float64), float(zl_b[1]))
    for z in (zk_a, zk_b, zl_a, zl_b):
        if not (np.isfinite(z[0]).all() and math.isfinite(z[1])):
            raise ValueError("interpolation endpoints must be finite")
        if np.linalg.norm(z[0]) > 1.0 + _NORM_SLACK or abs(z[1]) > 1.0 + _NORM_SLACK:
            raise ValueError("interpolation endpoints must lie in the instance space")

    n, lam = problem.n, problem.lam
    h2 = h / 2.0
    # Offsets (ds, dt) of the samples solved around each lattice point (s, t):
    # 0-3 the t-differences at steps h and h/2, 4-11 the mixed differences at
    # steps h and h/2 (++, +-, -+, --), 12-13 the s-differences at step h.
    ds = np.array([0.0, 0.0, 0.0, 0.0, h, h, -h, -h, h2, h2, -h2, -h2, h, -h])
    dt = np.array([h, -h, h2, -h2, h, -h, h, -h, h2, -h2, h2, -h2, 0.0, 0.0])
    s_grid, t_grid = np.meshgrid(*[np.linspace(h, 1.0 - h, grid)] * 2, indexing="ij")
    s_at = (s_grid.reshape(-1, 1) + ds).ravel()
    t_at = (t_grid.reshape(-1, 1) + dt).ravel()
    xs = np.repeat(problem.xs[None], len(s_at), axis=0)
    ys = np.repeat(problem.ys[None], len(s_at), axis=0)
    xs[:, k], ys[:, k] = _interpolate(zk_a, zk_b, t_at)
    xs[:, l], ys[:, l] = _interpolate(zl_a, zl_b, s_at)
    sol = solve_stack(xs, ys, lam)
    # Axis 0 runs over lattice points, axis 1 over the offsets.
    w, gram, moment = (
        a.reshape(grid * grid, len(ds), *a.shape[1:]) for a in (sol.w, sol.gram, sol.moment)
    )

    def first(i: int, step: float) -> np.ndarray:
        return _norms((w[:, i] - w[:, i + 1]) / (2.0 * step))

    def mixed(v: np.ndarray, i: int, step: float, norm) -> np.ndarray:
        return norm((v[:, i] - v[:, i + 1] - v[:, i + 2] + v[:, i + 3]) / (4.0 * step * step))

    def spectral(m: np.ndarray) -> np.ndarray:
        return np.linalg.norm(m, 2, axis=(-2, -1))

    f_h, f_h2 = first(0, h), first(2, h2)
    m_h, m_h2 = mixed(w, 4, h, _norms), mixed(w, 8, h2, _norms)
    step_warning = False
    for a, b in ((f_h, f_h2), (m_h, m_h2)):
        top = np.maximum(a, b)
        step_warning |= bool(((top > 1e-12) & (np.abs(a - b) > 0.1 * top)).any())
    max_first = max(0.0, float(f_h2.max()))
    max_mixed = max(0.0, float(m_h2.max()))
    gram_rates = np.concatenate([
        spectral((gram[:, 0] - gram[:, 1]) / (2 * h)),
        spectral((gram[:, 12] - gram[:, 13]) / (2 * h)),
    ])
    moment_rates = np.concatenate([
        _norms((moment[:, 0] - moment[:, 1]) / (2 * h)),
        _norms((moment[:, 12] - moment[:, 13]) / (2 * h)),
    ])
    max_gram_rate = max(0.0, float(gram_rates.max()))
    max_moment_rate = max(0.0, float(moment_rates.max()))
    max_gram_mixed = max(0.0, float(mixed(gram, 4, h, spectral).max()))

    bound_first = 8.0 * lam ** -1.5 / n
    bound_mixed = 32.0 * lam ** -2.5 / n**2
    rate_bound = 4.0 / n
    return DerivativeCheckReport(
        h=h,
        grid=grid,
        max_first=max_first,
        bound_first=bound_first,
        first_ok=max_first <= bound_first * (1.0 + _REL_TOL) + 1e-8,
        max_mixed=max_mixed,
        bound_mixed=bound_mixed,
        mixed_ok=max_mixed <= bound_mixed * (1.0 + _REL_TOL) + 1e-8,
        max_gram_rate=max_gram_rate,
        max_moment_rate=max_moment_rate,
        rate_bound=rate_bound,
        rate_ok=max(max_gram_rate, max_moment_rate) <= rate_bound * (1.0 + _REL_TOL) + 1e-8,
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
    (see ``exchangeable.MultisetTable.ingredients``).
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
    counts (``exchangeable``): ``gaps[r]`` is the gap of the sample holding
    the atoms of row ``r`` of ``table.counts`` in index order.  ``table`` is
    the ``exchangeable.MultisetTable`` of the population's atom probabilities,
    which the gaps at every ``lam`` share.
    """

    def __init__(self, population: Population, table: MultisetTable, lam: float) -> None:
        if not np.array_equal(table.weights, population.probs):
            raise ValueError("the multiset table is not of the population's atom probabilities")
        self.population = population
        self.table = table
        self.gaps = sample_gaps(population, table.samples(), lam)

    def value(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Gap of each sample given by atom indices along the last axis, in any order."""
        indices = np.asarray(indices)
        if indices.shape[-1] != self.table.n:
            raise ValueError(f"sample of length {indices.shape[-1]}, expected {self.table.n}")
        if indices.size and (indices.min() < 0 or indices.max() >= self.population.size):
            raise ValueError(f"atom indices must lie in [0, {self.population.size})")
        return self.gaps[rank(occupancy(indices, self.population.size))]


def population_sampler(
    population: Population, n: int, lam: float
) -> Callable[[np.random.Generator], RlsProblem]:
    """Factory of i.i.d. samples from the population, as RLS problems."""

    def draw(rng: np.random.Generator) -> RlsProblem:
        idx = rng.choice(population.size, size=n, p=population.probs)
        return RlsProblem(xs=population.xs[idx], ys=population.ys[idx], lam=lam)

    return draw


def empirical_scv(
    population: Population,
    n: int,
    lam: float,
    replications: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the expected variance sum of the gap.

    Each replication draws a sample of ``n`` atoms, then for every coordinate
    one pair of independent replacements from the population, and sums
    ``(1/2) (gap difference under the two replacements)^2`` over coordinates.
    Deterministic in ``seed``: replication ``r`` uses stream ``(seed, r)``,
    first for the sample and then for all its replacements, ordered by
    coordinate and side; results aggregate in replication order.  Every
    distinct replaced sample is solved once, all in one ``sample_gaps`` call.
    Returns (mean, stderr).
    """
    if replications < 2:
        raise ValueError("need at least two replications")
    size, probs = population.size, population.probs
    bases, swaps = [], []
    for r in range(replications):
        rng = substream(seed, 0xE5, r)
        bases.append(rng.choice(size, size=n, p=probs))
        swaps.append(rng.choice(size, size=(n, 2), p=probs))
    # replaced[r, k, a] is sample r with point k replaced by swap (k, a).
    on_k = np.eye(n, dtype=bool)[:, None, :]
    replaced = np.where(on_k, np.array(swaps)[..., None], np.array(bases)[:, None, None, :])
    distinct, inverse = np.unique(replaced.reshape(-1, n), axis=0, return_inverse=True)
    gaps = sample_gaps(population, distinct, lam)[inverse.ravel()].reshape(replaced.shape[:-1])
    values = []
    for per_sample in gaps.tolist():
        total = 0.0
        for fa, fb in per_sample:
            total += 0.5 * (fa - fb) ** 2
        values.append(total)
    mean = math.fsum(values) / replications
    var = math.fsum((v - mean) ** 2 for v in values) / (replications - 1)
    return mean, math.sqrt(var / replications)


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
    dim = _integer(doc["dim"])
    lam = float(doc["lambda"])
    n = _integer(doc["n"])
    if not (0.0 < lam < 1.0) or n < 2:
        raise ValueError(f"need lambda in (0, 1) and n >= 2, got lambda={lam}, n={n}")
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
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
