"""U-statistics: evaluation, tail bounds, and the subset-pair combinatorics.

A U-statistic of order ``m`` averages a symmetric kernel ``g`` with values in
``[-1, 1]`` over all increasing ``m``-tuples of an ``n``-sample.  Two
exponential tail bounds are provided:

* ``ustat_bound``   two-sided, denominator
  ``2 m^2 sigma1^2 + m^2 (m-1)^2 / (n-m) + 16 m^2 t / 3``
* ``arcones_bound`` two-sided (prefactor 4), denominator
  ``2 m^2 sigma1^2 + (2^{m+2} m^m sqrt((n-1)/n) + (2/3) m^{-1}) t``

where ``sigma1^2`` is the variance of the kernel's one-argument conditional
mean.  ``crossover`` locates the deviation beyond which the first bound
decays faster; the comparison is between the exponential rates, see its
docstring.

The counting identity behind the first bound: the number of ordered pairs of
``m``-subsets of ``{1..n}`` that intersect equals
``C(n,m) * (C(n,m) - C(n-m,m))``, and the intersecting fraction
``(C(n,m) - C(n-m,m)) / C(n,m)`` is at most ``m^2 / (n-m)``.  Note the count
itself can exceed ``C(n,m) * m^2/(n-m)`` (already at n=4, m=2: 30 > 12); only
the fraction form is valid, and that is what ``intersecting_pairs_count``
certifies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exchangeable import multiset_probabilities, multisets, neighbours, occupancy
from .rng import substream
from .space import (
    DEFAULT_CAP,
    CapacityError,
    FiniteAxis,
    FiniteProductSpace,
    TabulatedFunction,
)

#: Largest sample size for which combination enumeration is permitted.
MAX_SAMPLE = 64

#: Cap on the kernel terms of one computation: evaluations in ``evaluate_u``,
#: (count row, kernel multiset) products in ``u_at_counts``.
DEFAULT_EVAL_CAP = 10_000_000


@dataclass(frozen=True)
class Kernel:
    """A symmetric kernel of order ``m`` with values in ``[-1, 1]``.

    ``fn`` maps an ``m``-tuple of base-set points (floats) to a real.
    Symmetry and the range constraint are certified by ``check_kernel``;
    ``evaluate_u`` rejects an out-of-range average, and the kernel table behind
    ``u_at_counts``, ``sigma1_squared`` and ``exact_u_mean`` an out-of-range
    kernel value.
    """

    m: int
    fn: Callable[[tuple[float, ...]], float]
    name: str = "kernel"

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("kernel order must be at least 2")

    def evaluate(self, points: Sequence[float]) -> float:
        if len(points) != self.m:
            raise ValueError(f"kernel of order {self.m} got {len(points)} points")
        return float(self.fn(tuple(points)))


def product_kernel(m: int = 2) -> Kernel:
    """``g = product of the points``, clipped to ``[-1, 1]``."""
    return Kernel(m=m, fn=lambda p: max(-1.0, min(1.0, math.prod(p))), name="product")


def mean_kernel(m: int = 2) -> Kernel:
    """``g = mean of the points`` (in range whenever the points are)."""
    return Kernel(m=m, fn=lambda p: math.fsum(p) / len(p), name="mean")


def sign_agreement_kernel(m: int = 2) -> Kernel:
    """``+1`` when all points share a sign (zero counts as positive), else ``-1``."""

    def fn(p: tuple[float, ...]) -> float:
        signs = {x >= 0.0 for x in p}
        return 1.0 if len(signs) == 1 else -1.0

    return Kernel(m=m, fn=fn, name="sign-agreement")


def tabulated_kernel(points: Sequence[float], table: Sequence[float], m: int) -> Kernel:
    """Kernel given by a dense table over ``m``-tuples of base points.

    ``table`` is indexed in row-major order over point indices.  Symmetry and
    the ``[-1, 1]`` range are validated exhaustively at construction.
    JSON form: ``{"points": [...], "table": [...], "m": ...}``.
    """
    pts = tuple(float(p) for p in points)
    if len(set(pts)) != len(pts):
        raise ValueError("kernel points must be distinct")
    size = len(pts)
    arr = np.asarray(table, dtype=np.float64)
    if arr.size != size**m:
        raise ValueError(f"table needs {size ** m} entries, got {arr.size}")
    arr = arr.reshape((size,) * m)
    if not np.all(np.isfinite(arr)):
        raise ValueError("kernel table must be finite")
    if arr.min() < -1.0 - 1e-12 or arr.max() > 1.0 + 1e-12:
        raise ValueError("kernel table values must lie in [-1, 1]")
    for idx in np.ndindex(arr.shape):
        v = arr[idx]
        for perm in itertools.permutations(idx):
            if abs(arr[perm] - v) > 1e-12:
                raise ValueError(f"kernel table not symmetric at {idx}")
    index = {p: i for i, p in enumerate(pts)}

    def fn(p: tuple[float, ...]) -> float:
        try:
            return float(arr[tuple(index[x] for x in p)])
        except KeyError as exc:
            raise ValueError(f"point {exc.args[0]!r} not in kernel table") from exc

    return Kernel(m=m, fn=fn, name="tabulated")


def kernel_from_json(doc: dict) -> Kernel:
    unknown = set(doc) - {"points", "table", "m"}
    if unknown:
        raise ValueError(f"unknown kernel fields {sorted(unknown)}")
    return tabulated_kernel(doc["points"], doc["table"], int(doc["m"]))


def check_kernel(
    kernel: Kernel, points: Sequence[float], seed: int = 0, trials: int = 64
) -> None:
    """Certify range and permutation invariance on random tuples."""
    rng = substream(seed, 0x5E)
    pts = list(points)
    for _ in range(trials):
        tup = tuple(pts[int(i)] for i in rng.integers(0, len(pts), size=kernel.m))
        val = kernel.evaluate(tup)
        if not (-1.0 - 1e-12 <= val <= 1.0 + 1e-12):
            raise ValueError(f"kernel value {val} at {tup} outside [-1, 1]")
        perm = tuple(tup[int(i)] for i in rng.permutation(kernel.m))
        if abs(kernel.evaluate(perm) - val) > 1e-12:
            raise ValueError(f"kernel not symmetric on {tup} vs {perm}")


@dataclass(frozen=True)
class UStatProblem:
    """Kernel, sample size, and base measure for one U-statistic.

    ``base_axis`` carries the point weights and ``base_points`` the point
    values (aligned by index); the sample distribution is ``base`` i.i.d.
    """

    kernel: Kernel
    n: int
    base_axis: FiniteAxis
    base_points: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n <= self.kernel.m:
            raise ValueError("sample size must exceed the kernel order")
        pts = tuple(float(p) for p in self.base_points)
        object.__setattr__(self, "base_points", pts)
        if len(pts) != self.base_axis.size:
            raise ValueError("base_points must align with base_axis weights")

    @property
    def m(self) -> int:
        return self.kernel.m


def evaluate_u(
    problem: UStatProblem, sample: Sequence[float], eval_cap: int = DEFAULT_EVAL_CAP
) -> float:
    """Average of the kernel over all increasing index tuples of the sample."""
    n, m = problem.n, problem.m
    if len(sample) != n:
        raise ValueError(f"sample of length {len(sample)}, expected {n}")
    if n > MAX_SAMPLE:
        raise OverflowError(f"sample size {n} exceeds the supported {MAX_SAMPLE}")
    ncm = math.comb(n, m)
    if ncm > eval_cap:
        raise CapacityError(f"{ncm} kernel terms exceed the cap of {eval_cap}")
    fn = problem.kernel.fn
    total = math.fsum(
        fn(combo) for combo in itertools.combinations(tuple(sample), m)
    )
    value = total / ncm
    if not (-1.0 - 1e-9 <= value <= 1.0 + 1e-9):
        raise ValueError(f"kernel produced out-of-range average {value}")
    return value


def _kernel_table(problem: UStatProblem, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``m``-multisets of base points (count rows) and the kernel at each.

    ``g`` is evaluated once per multiset, at its points in base order, and
    checked against ``[-1, 1]``.
    """
    kappas = multisets(problem.m, problem.base_axis.size, cap)
    values = []
    for kappa in kappas.tolist():
        points = tuple(p for p, k in zip(problem.base_points, kappa) for _ in range(k))
        value = float(problem.kernel.fn(points))
        if not (-1.0 - 1e-12 <= value <= 1.0 + 1e-12):
            raise ValueError(f"kernel value {value} at {points} outside [-1, 1]")
        values.append(value)
    return kappas, np.array(values)


def sigma1_squared(problem: UStatProblem, cap: int = 1_000_000) -> float:
    """Variance of the one-argument conditional mean of the kernel, exactly.

    The conditional mean at ``y`` weights the kernel at ``y`` plus each
    ``(m-1)``-multiset of base points by that multiset's probability; requires
    the ``m``-multisets within the cap.  Always lies in ``[0, 1]``.
    """
    _, g = _kernel_table(problem, cap)
    rest = multisets(problem.m - 1, problem.base_axis.size, cap)
    w = problem.base_axis.weights
    terms = multiset_probabilities(rest, w)[:, None] * g[neighbours(rest)]
    cond_mean = [math.fsum(column) for column in terms.T.tolist()]
    mean = math.fsum(wy * h for wy, h in zip(w, cond_mean))
    return math.fsum(wy * (h - mean) ** 2 for wy, h in zip(w, cond_mean))


def sigma1_squared_mc(
    problem: UStatProblem,
    n_samples: int = 20_000,
    seed: int = 0,
    batches: int = 10,
) -> tuple[float, float]:
    """Monte Carlo estimate of ``sigma1_squared`` with a batch-means stderr.

    Per draw: one ``y`` plus two independent ``(m-1)``-tuples ``x, x'``; then
    ``g(y,x) g(y,x')`` estimates the second moment of the conditional mean and
    the product of the two batch means estimates its squared mean.
    """
    if n_samples < batches:
        raise ValueError("need at least one sample per batch")
    rng = substream(seed, 0x51)
    w = np.asarray(problem.base_axis.weights)
    pts = problem.base_points
    fn = problem.kernel.fn
    m = problem.m
    per = n_samples // batches
    estimates = []
    for _ in range(batches):
        a_vals, b_vals = [], []
        for _ in range(per):
            y = pts[int(rng.choice(len(pts), p=w))]
            xa = tuple(pts[int(i)] for i in rng.choice(len(pts), size=m - 1, p=w))
            xb = tuple(pts[int(i)] for i in rng.choice(len(pts), size=m - 1, p=w))
            a_vals.append(fn((y, *xa)))
            b_vals.append(fn((y, *xb)))
        a = np.asarray(a_vals)
        b = np.asarray(b_vals)
        second = float(np.mean(a * b))
        first_sq = float(np.mean(a) * np.mean(b))
        estimates.append(second - first_sq)
    mean = float(np.mean(estimates))
    stderr = float(np.std(estimates, ddof=1) / math.sqrt(batches))
    return mean, stderr


def ustat_bound(n: int, m: int, sigma1sq: float, t: float) -> float:
    """Two-sided tail bound for ``|u - Eu| > t``."""
    _check_bound_args(n, m, sigma1sq, t)
    den = 2.0 * m * m * sigma1sq + (m * m * (m - 1) ** 2) / (n - m) + 16.0 * m * m * t / 3.0
    return 2.0 * math.exp(-n * t * t / den)


def arcones_bound(n: int, m: int, sigma1sq: float, t: float) -> float:
    """Comparison tail bound with prefactor 4 and a steeper linear term."""
    _check_bound_args(n, m, sigma1sq, t)
    den = 2.0 * m * m * sigma1sq + _arcones_linear_coefficient(n, m) * t
    return 4.0 * math.exp(-n * t * t / den)


def _arcones_linear_coefficient(n: int, m: int) -> float:
    # "2/3 m^{-1}" parsed as (2/3) * m^{-1}.
    return 2.0 ** (m + 2) * float(m) ** m * math.sqrt((n - 1) / n) + (2.0 / 3.0) / m


def _check_bound_args(n: int, m: int, sigma1sq: float, t: float) -> None:
    if m < 2 or n <= m:
        raise ValueError("need n > m >= 2")
    if not (0.0 <= sigma1sq <= 1.0):
        raise ValueError("sigma1sq must lie in [0, 1]")
    if t <= 0.0:
        raise ValueError("t must be positive")


@dataclass(frozen=True)
class CrossoverResult:
    """Where ``ustat_bound`` starts decaying faster than ``arcones_bound``."""

    t: float
    product: float  # (n - m) * t
    found: bool
    note: str = ""


def crossover(
    m: int,
    sigma1sq: float,
    n: int,
    t_lo: float = 1e-6,
    t_hi: float = 10.0,
    tol: float = 1e-9,
) -> CrossoverResult:
    """Smallest ``t`` beyond which ``ustat_bound`` decays faster.

    Comparison semantics: the exponential rates (the ``n t^2 / denominator``
    exponents) are compared, not the bound values; the constant prefactors 2
    and 4 are excluded.  Including them would make the one-bound-below-the-
    other relation hold trivially near ``t = 0`` where both bounds are
    vacuous, and no crossing would exist.  Rate comparison reduces to
    comparing the two denominators, whose difference is linear in ``t``, so
    the crossing is unique whenever the comparison bound has the larger
    linear coefficient; bisection to ``tol`` locates it.
    """
    _check_bound_args(n, m, sigma1sq, max(t_lo, 1e-300))

    def gap(t: float) -> float:
        den_u = (
            2.0 * m * m * sigma1sq
            + (m * m * (m - 1) ** 2) / (n - m)
            + 16.0 * m * m * t / 3.0
        )
        den_a = 2.0 * m * m * sigma1sq + _arcones_linear_coefficient(n, m) * t
        return den_u - den_a  # rate of ustat_bound is better iff gap <= 0

    lo, hi = t_lo, t_hi
    if gap(lo) <= 0.0:
        return CrossoverResult(lo, (n - m) * lo, True, "better from the grid floor")
    if gap(hi) > 0.0:
        return CrossoverResult(
            math.nan, math.nan, False, "comparison bound decays faster on the whole grid"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    return CrossoverResult(t_star, (n - m) * t_star, True)


def intersecting_pairs_count(n: int, m: int) -> tuple[int, bool]:
    """Ordered pairs of ``m``-subsets of ``{1..n}`` with nonempty intersection.

    Returns ``(exact, ratio_ok)``: the exact count
    ``C(n,m) (C(n,m) - C(n-m,m))`` and whether the intersecting fraction
    satisfies ``(C(n,m) - C(n-m,m)) / C(n,m) <= m^2 / (n-m)`` (checked in
    exact integer arithmetic).  The fraction form is the valid one; the count
    against ``C(n,m) m^2/(n-m)`` fails already at ``n=4, m=2``.
    """
    if m < 1 or n <= m:
        raise ValueError("need n > m >= 1")
    if n > MAX_SAMPLE:
        raise OverflowError(f"n={n} exceeds the supported {MAX_SAMPLE}")
    total = math.comb(n, m)
    disjoint = math.comb(n - m, m)
    exact = total * (total - disjoint)
    ratio_ok = (total - disjoint) * (n - m) <= m * m * total
    return exact, ratio_ok


def u_at_counts(
    problem: UStatProblem, counts: np.ndarray, eval_cap: int = DEFAULT_EVAL_CAP
) -> np.ndarray:
    """``u`` of a sample holding base point ``i`` ``counts[r, i]`` times, per row ``r``.

    The kernel sum ``sum_k g(k) prod_i C(c_i, k_i)`` over the ``m``-multisets
    ``k`` of base points (``g`` checked against ``[-1, 1]``) is formed exactly,
    rounded once and divided by ``C(n, m)``: ``evaluate_u``'s arithmetic, bit
    for bit unless ``g`` rounds differently in another argument order (a
    product of three non-dyadic points).  ``eval_cap`` bounds the terms.
    """
    n, m = problem.n, problem.m
    counts = np.asarray(counts)
    if np.any(counts.sum(axis=1) != n):
        raise ValueError(f"count rows must sum to the sample size {n}")
    kappas, values = _kernel_table(problem, eval_cap)
    kappas = kappas.tolist()
    terms = len(counts) * len(kappas)
    if terms > eval_cap:
        raise CapacityError(f"{terms} kernel terms exceed the cap of {eval_cap}")
    # Kernel values as integers over one power of two, so the sums are exact.
    ratios = [value.as_integer_ratio() for value in values.tolist()]
    scale = max(den for _, den in ratios)
    g = [num * (scale // den) for num, den in ratios]
    ncm = math.comb(n, m)
    out = np.empty(len(counts))
    for r, row in enumerate(counts.tolist()):
        total = sum(
            gk * math.prod(math.comb(c, k) for c, k in zip(row, kappa))
            for gk, kappa in zip(g, kappas)
        )
        out[r] = total / scale / ncm
    return out


def tabulate_u(
    problem: UStatProblem, cap: int = DEFAULT_CAP, eval_cap: int = DEFAULT_EVAL_CAP
) -> TabulatedFunction:
    """The U-statistic as a dense table on the ``n``-fold product space.

    Requires ``|base|^n`` within the configuration cap; used for exact tail
    computations and for checking the per-coordinate range and interaction
    properties of ``u`` by direct enumeration.
    """
    n, size = problem.n, problem.base_axis.size
    space = FiniteProductSpace(axes=(problem.base_axis,) * n)
    space.check_capacity(cap)
    values = u_at_counts(problem, multisets(n, size, cap), eval_cap)
    # rows[x]: multiset row of configuration x, built up one draw at a time.
    rows = np.zeros((), dtype=np.intp)
    for k in range(n):
        rows = neighbours(multisets(k, size, cap))[rows]
    return TabulatedFunction(space, values[rows])


def scv_envelope_terms(
    problem: UStatProblem, cap: int = DEFAULT_CAP, eval_cap: int = DEFAULT_EVAL_CAP
) -> dict[str, float]:
    """Exact expected variance sum of ``u`` against two closed-form envelopes.

    Returns ``lhs = sum_k E[conditional variance of u over k]`` (computed by
    enumeration) together with::

        tight_envelope = (m^2/n) sigma1^2 + m^2 (m-1)^2 / (2 n (n-m))
        safe_envelope  = (m^2/n) sigma1^2 + m^2 (m-1)^2 / (n (n-m))

    The tight form bounds each intersecting-pair covariance term by one, but
    those terms can reach two (a degenerate product kernel attains it, see
    the tests), so only the safe form with the doubled second term is an
    actual upper bound; ``lhs <= safe_envelope`` always holds.
    """
    from .operators import scv
    from .space import expectation

    n, m = problem.n, problem.m
    u = tabulate_u(problem, cap=cap, eval_cap=eval_cap)
    lhs = expectation(scv(u))
    s1 = sigma1_squared(problem)
    base = (m * m / n) * s1
    half_term = m * m * (m - 1) ** 2 / (2.0 * n * (n - m))
    return {
        "lhs": lhs,
        "tight_envelope": base + half_term,
        "safe_envelope": base + 2.0 * half_term,
    }


def sample_u_values(
    problem: UStatProblem,
    n_samples: int,
    seed: int = 0,
    eval_cap: int = DEFAULT_EVAL_CAP,
) -> np.ndarray:
    """Seeded i.i.d. draws of the U-statistic (for Monte Carlo tails)."""
    rng = substream(seed, 0x0E)
    w = np.asarray(problem.base_axis.weights)
    idx = rng.choice(len(w), size=(n_samples, problem.n), p=w)
    return u_at_counts(problem, occupancy(idx, len(w)), eval_cap)


def exact_u_mean(problem: UStatProblem, cap: int = 1_000_000) -> float:
    """``E[u]``, which equals ``E[g]`` over one i.i.d. ``m``-multiset."""
    kappas, g = _kernel_table(problem, cap)
    return math.fsum((multiset_probabilities(kappas, problem.base_axis.weights) * g).tolist())
