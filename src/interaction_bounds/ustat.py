"""U-statistics: evaluation on sample multisets and tail bounds.

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

A ``UStatProblem`` is a kernel on a base measure, the U-statistic at every
sample size.  It holds its kernel table: the ``exchangeable.MultisetTable`` of
the ``m``-multisets of base points and the kernel at each, built on first use
and shared by every sample size.  ``u`` is evaluated on the count rows of the
``MultisetTable`` of the sample size, and ``sigma1^2`` and ``E[u]``, which
no sample size changes, on the kernel table and its ``(m-1)``-level, once per
problem (the properties ``sigma1sq`` and ``u_mean``).

The counting identity behind the first bound: the number of ordered pairs of
``m``-subsets of ``{1..n}`` that intersect equals
``C(n,m) * (C(n,m) - C(n-m,m))``, and the intersecting fraction
``(C(n,m) - C(n-m,m)) / C(n,m)`` is at most ``m^2 / (n-m)``.  Note the count
itself can exceed ``C(n,m) * m^2/(n-m)`` (already at n=4, m=2: 30 > 12); only
the fraction form is valid.  Acceptance criterion 5
(``tests/test_acceptance.py``) checks both against exhaustive enumeration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exchangeable import MultisetTable, multiset_count
from .space import CapacityError, FiniteAxis, _integer, fsum

#: Cap on the kernel terms of one computation: the (count row, kernel
#: multiset) products in ``u_at_counts``.
DEFAULT_EVAL_CAP = 10_000_000

#: Cap on the ``m``-multisets of base points in a kernel table.
KERNEL_TABLE_CAP = 1_000_000


@dataclass(frozen=True)
class Kernel:
    """A symmetric kernel of order ``m`` with values in ``[-1, 1]``.

    ``fn`` maps an ``m``-tuple of base-set points (floats) to a real.  The
    kernel table of a ``UStatProblem`` reads it once per multiset of base
    points, in base order, and rejects an out-of-range value; symmetry is
    assumed, and ``tabulated_kernel`` checks it exhaustively.
    """

    m: int
    fn: Callable[[tuple[float, ...]], float]
    name: str = "kernel"

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("kernel order must be at least 2")


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
    the ``[-1, 1]`` range are validated exhaustively at construction, the
    symmetry orbit by orbit, in time linear in the table.
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
    # The entries whose index tuples permute into each other form an orbit,
    # keyed by its sorted index tuple.  An entry is asymmetric when its orbit
    # holds a value more than 1e-12 above or below it; the first one in
    # row-major order is reported.  (At m = 0 the key comes back as a scalar.)
    tuples = np.indices(arr.shape).reshape(m, arr.size)
    key = np.ravel_multi_index(np.sort(tuples, axis=0), arr.shape).reshape(arr.size)
    flat = arr.ravel()
    hi, lo = np.full(flat.size, -np.inf), np.full(flat.size, np.inf)
    np.maximum.at(hi, key, flat)
    np.minimum.at(lo, key, flat)
    bad = np.flatnonzero((hi[key] - flat > 1e-12) | (flat - lo[key] > 1e-12))
    if bad.size:
        at = tuple(int(i) for i in np.unravel_index(bad[0], arr.shape))
        raise ValueError(f"kernel table not symmetric at {at}")
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
    return tabulated_kernel(doc["points"], doc["table"], _integer(doc["m"]))


@dataclass(frozen=True)
class UStatProblem:
    """A kernel on a base measure: the U-statistic of i.i.d. samples of any size.

    ``base_axis`` carries the point weights and ``base_points`` the point
    values (aligned by index); the sample distribution is ``base`` i.i.d.
    """

    kernel: Kernel
    base_axis: FiniteAxis
    base_points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.base_points)
        object.__setattr__(self, "base_points", pts)
        if len(pts) != self.base_axis.size:
            raise ValueError("base_points must align with base_axis weights")

    @property
    def m(self) -> int:
        return self.kernel.m

    @functools.cached_property
    def kernel_table(self) -> tuple[MultisetTable, np.ndarray]:
        """The table of ``m``-multisets of base points and the kernel at each.

        Refuses more than ``KERNEL_TABLE_CAP`` multisets before any work.
        ``g`` is evaluated once per multiset, at its points in base order, and
        checked against ``[-1, 1]``.
        """
        table = MultisetTable(self.base_axis.weights, self.m, KERNEL_TABLE_CAP)
        values = []
        for sample in table.samples().tolist():
            points = tuple(self.base_points[i] for i in sample)
            value = float(self.kernel.fn(points))
            if not (-1.0 - 1e-12 <= value <= 1.0 + 1e-12):
                raise ValueError(f"kernel value {value} at {points} outside [-1, 1]")
            values.append(value)
        return table, np.array(values)

    @functools.cached_property
    def sigma1sq(self) -> float:
        """Variance of the one-argument conditional mean of the kernel, exactly.

        The conditional mean at ``y`` weights the kernel at ``y`` plus each
        ``(m-1)``-multiset of base points by that multiset's probability, from
        the ``(m-1)``-level of the kernel table.  Always lies in ``[0, 1]``.
        Computed on first use and held.
        """
        table, g = self.kernel_table
        rest_probs, up = table.rest_level
        w = self.base_axis.weights
        terms = rest_probs[:, None] * g[up]
        cond_mean = [fsum(column) for column in terms.T]
        mean = math.fsum(wy * h for wy, h in zip(w, cond_mean))
        return math.fsum(wy * (h - mean) ** 2 for wy, h in zip(w, cond_mean))

    @functools.cached_property
    def u_mean(self) -> float:
        """``E[u]``, which equals ``E[g]`` over one i.i.d. ``m``-multiset; held after first use."""
        table, g = self.kernel_table
        return table.mean(g)


def ustat_bound(n: int, m: int, sigma1sq: float, t: float) -> float:
    """Two-sided tail bound for ``|u - Eu| > t``."""
    _check_bound_args(n, m, sigma1sq, t)
    return 2.0 * math.exp(-n * t * t / _ustat_denominator(n, m, sigma1sq, t))


def arcones_bound(n: int, m: int, sigma1sq: float, t: float) -> float:
    """Comparison tail bound with prefactor 4 and a steeper linear term.

    Vacuous (4.0) once its linear coefficient leaves the float range.
    """
    _check_bound_args(n, m, sigma1sq, t)
    return 4.0 * math.exp(-n * t * t / _arcones_denominator(n, m, sigma1sq, t))


def _ustat_denominator(n: int, m: int, sigma1sq: float, t: float) -> float:
    return 2.0 * m * m * sigma1sq + (m * m * (m - 1) ** 2) / (n - m) + 16.0 * m * m * t / 3.0


def _arcones_denominator(n: int, m: int, sigma1sq: float, t: float) -> float:
    return 2.0 * m * m * sigma1sq + _arcones_linear_coefficient(n, m) * t


def _arcones_linear_coefficient(n: int, m: int) -> float:
    """``2^{m+2} m^m sqrt((n-1)/n) + (2/3) m^{-1}``, or ``inf`` beyond the float range."""
    # "2/3 m^{-1}" parsed as (2/3) * m^{-1}.
    try:
        return 2.0 ** (m + 2) * float(m) ** m * math.sqrt((n - 1) / n) + (2.0 / 3.0) / m
    except OverflowError:  # m^m, from m = 143
        return math.inf


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


def crossover(m: int, sigma1sq: float, n: int) -> CrossoverResult:
    """Smallest ``t`` in ``[1e-6, 10]`` beyond which ``ustat_bound`` decays faster.

    Comparison semantics: the exponential rates (the ``n t^2 / denominator``
    exponents) are compared, not the bound values; the constant prefactors 2
    and 4 are excluded.  Including them would make the one-bound-below-the-
    other relation hold trivially near ``t = 0`` where both bounds are
    vacuous, and no crossing would exist.  Rate comparison reduces to
    comparing the two denominators, whose difference is linear in ``t``, so
    the crossing is unique whenever the comparison bound has the larger
    linear coefficient; bisection to a 1e-9 bracket locates it.
    """
    lo, hi = 1e-6, 10.0
    _check_bound_args(n, m, sigma1sq, lo)

    def gap(t: float) -> float:
        # The rate of ustat_bound is better iff gap <= 0.
        return _ustat_denominator(n, m, sigma1sq, t) - _arcones_denominator(n, m, sigma1sq, t)

    if gap(lo) <= 0.0:
        return CrossoverResult(lo, (n - m) * lo, True, "better from the grid floor")
    if gap(hi) > 0.0:
        return CrossoverResult(
            math.nan, math.nan, False, "comparison bound decays faster on the whole grid"
        )
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    return CrossoverResult(t_star, (n - m) * t_star, True)


def check_kernel_terms(problem: UStatProblem, rows: int, eval_cap: int = DEFAULT_EVAL_CAP) -> None:
    """CapacityError if ``u_at_counts`` on ``rows`` count rows passes ``eval_cap`` terms."""
    terms = rows * multiset_count(problem.m, problem.base_axis.size)
    if terms > eval_cap:
        raise CapacityError(f"{terms} kernel terms exceed the cap of {eval_cap}")


def u_at_counts(
    problem: UStatProblem, counts: np.ndarray, eval_cap: int = DEFAULT_EVAL_CAP
) -> np.ndarray:
    """``u`` of a sample holding base point ``i`` ``counts[r, i]`` times, per row ``r``.

    The kernel sum ``sum_k g(k) prod_i C(c_i, k_i)`` over the ``m``-multisets
    ``k`` of base points (``g`` checked against ``[-1, 1]``) is formed exactly,
    rounded once and divided by ``C(n, m)``: the arithmetic of an exactly
    rounded sum over the ``m``-subsets of the sample, bit for bit unless ``g``
    rounds differently in another argument order (a product of three
    non-dyadic points).  Where ``C(n, m)`` is beyond the float range, the
    exact sum is divided by it exactly and rounded once.  The rows share
    one sample size ``n > m``; ``eval_cap`` bounds the terms.
    """
    m, counts = problem.m, np.asarray(counts)
    sizes = counts.sum(axis=1)
    n = int(sizes[0]) if len(sizes) else 0
    if n <= m or np.any(sizes != n):
        raise ValueError(f"count rows must share one sample size above the kernel order {m}")
    table, values = problem.kernel_table
    kappas = table.counts.tolist()
    check_kernel_terms(problem, len(counts), eval_cap)
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
        try:
            out[r] = total / scale / ncm
        except OverflowError:  # C(n, m) is beyond the float range
            out[r] = total / (scale * ncm)
    return out
