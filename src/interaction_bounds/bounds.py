"""Tail-bound formulas and the variance/bias inequalities behind them.

Three exponential tail bounds for ``Pr{f - Ef > t}`` on a product space, all
of the form ``exp(-t^2 / denominator)`` and all requiring the per-coordinate
one-sided range condition ``f - cond_expectation(f, k) <= b``:

* ``SUP_BERNSTEIN``     denominator ``2 sup_x scv(f)(x) + 2bt/3``
* ``MAIN``              denominator ``2 E[scv(f)] + (2b/3 + j_mu) t``
* ``VARIANCE_COROLLARY``denominator ``2 var(f) + j^2/2 + (2b/3 + j_mu) t``

With ``j_mu == 0`` and the exact variance sum, ``MAIN`` reduces to the
classical Bernstein inequality for sums.  The module also provides the exact
variance identities and inequalities used to validate the bounds by brute
force: the Efron-Stein gap and its interaction-functional envelope, the
second-difference bound on that gap, Chatterjee's telescoping variance
formula, the sum of variances of single-coordinate conditional means, the
scalar function ``psi(t) = t e^t - e^t + 1``, a power-series comparison
inequality for ``psi``, and the Chernoff-style optimization infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .functionals import interaction, interaction_report
from .operators import _center, cond_expectation, cond_variance, scv
from .space import (
    DEFAULT_CAP,
    TabulatedFunction,
    expectation,
    fsum,
    memo_scalar,
    variance,
)

_SLACK = 1e-10

#: Order in which ingredient columns are flattened into CSV rows.
INGREDIENT_KEYS = ("E_scv", "sup_scv", "sigma2", "b", "j", "j_mu")


@dataclass(frozen=True)
class BoundReport:
    """One evaluated tail bound with the numbers that went into it.

    ``value`` is the reported probability bound: ``exp(-t^2 / denominator)``,
    doubled when ``two_sided`` (so it may exceed one and become vacuous).
    ``ingredients`` holds whichever of ``INGREDIENT_KEYS`` the producing
    formula consumed.
    """

    theorem: str
    t: float
    value: float
    ingredients: dict[str, float] = field(default_factory=dict)
    two_sided: bool = False

    def __post_init__(self) -> None:
        if self.theorem not in ("SUP_BERNSTEIN", "MAIN", "VARIANCE_COROLLARY"):
            raise ValueError(f"unknown bound tag {self.theorem!r}")
        if self.t <= 0.0:
            raise ValueError("deviation t must be positive")
        limit = 2.0 if self.two_sided else 1.0
        if not (0.0 <= self.value <= limit):
            raise ValueError(f"bound value {self.value!r} outside (0, {limit}]")
        unknown = set(self.ingredients) - set(INGREDIENT_KEYS)
        if unknown:
            raise ValueError(f"unknown ingredient keys {sorted(unknown)}")

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "t": self.t,
            "value": self.value,
            "two_sided": self.two_sided,
            "ingredients": {k: self.ingredients[k] for k in sorted(self.ingredients)},
        }

    def csv_row(self) -> list:
        row: list = [self.theorem, self.t, self.value]
        row.extend(self.ingredients.get(k, "") for k in INGREDIENT_KEYS)
        return row

    @staticmethod
    def csv_header() -> list[str]:
        return ["theorem", "t", "value", *INGREDIENT_KEYS]


def _exp_bound(t: float, denominator: float, two_sided: bool) -> float:
    if denominator < 0.0:
        raise ValueError("negative denominator")
    if denominator == 0.0:
        return 0.0
    value = math.exp(-(t * t) / denominator)
    return 2.0 * value if two_sided else value


def psi(t: float) -> float:
    """``t e^t - e^t + 1``; zero at zero, nonnegative and convex for t >= 0."""
    return t * math.exp(t) - math.expm1(t)


def _psi_over_square(gamma: float) -> float:
    """``psi(gamma) / gamma^2`` with a series branch for tiny arguments.

    The direct quotient loses all digits as ``gamma -> 0``; the power series
    ``sum_{n>=0} gamma^n / ((n+2) n!)`` converges fast enough that eight terms
    carry full double precision below 0.01.
    """
    if gamma == 0.0:
        return 0.5
    if abs(gamma) < 1e-2:
        total = 0.0
        fact = 1.0
        for n in range(8):
            if n > 0:
                fact *= n
            total += gamma**n / ((n + 2) * fact)
        return total
    return psi(gamma) / (gamma * gamma)


def per_coordinate_range_bound(f: TabulatedFunction) -> float:
    """Smallest valid ``b``: ``max_k sup_x (f - cond_expectation(f, k))(x)``."""

    def compute() -> float:
        worst = -math.inf
        for k in range(f.space.n):
            worst = max(worst, float((f.values - cond_expectation(f, k).values).max()))
        return worst

    return memo_scalar(f, "range_bound", compute)


def sup_bernstein_bound(
    f: TabulatedFunction, b: float, t: float, two_sided: bool = False
) -> BoundReport:
    """Tail bound from the configuration supremum of the variance sum.

    Requires ``b >= max_k sup (f - cond_expectation(f, k))`` (checked; with
    ``two_sided`` the mirrored condition on ``-f`` is checked too and the
    bound value is doubled).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    needed = per_coordinate_range_bound(f)
    if b < needed - _SLACK:
        raise ValueError(f"b={b} is below the per-coordinate range {needed}")
    if two_sided:
        mirrored = memo_scalar(
            f, "mirrored_range_bound", lambda: per_coordinate_range_bound(-f)
        )
        if b < mirrored - _SLACK:
            raise ValueError(
                f"b={b} is below the mirrored per-coordinate range {mirrored}"
            )
    sup_scv = memo_scalar(f, "sup_scv", lambda: float(scv(f).values.max()))
    value = _exp_bound(t, 2.0 * sup_scv + 2.0 * b * t / 3.0, two_sided)
    return BoundReport(
        theorem="SUP_BERNSTEIN",
        t=t,
        value=value,
        ingredients={"sup_scv": sup_scv, "b": b},
        two_sided=two_sided,
    )


def main_bound(
    e_scv: float, b: float, j_mu: float, t: float, two_sided: bool = False
) -> BoundReport:
    """Tail bound ``exp(-t^2 / (2 e_scv + (2b/3 + j_mu) t))``.

    ``e_scv`` is the expected variance sum, ``b`` the per-coordinate range
    bound, ``j_mu`` the weighted interaction functional.  With ``j_mu == 0``
    this is exactly Bernstein's inequality.  The caller is responsible for
    the hypothesis on ``-f`` when requesting ``two_sided``.
    """
    if min(e_scv, b, j_mu) < 0.0:
        raise ValueError("ingredients must be nonnegative")
    if t <= 0.0:
        raise ValueError("t must be positive")
    value = _exp_bound(t, 2.0 * e_scv + (2.0 * b / 3.0 + j_mu) * t, two_sided)
    return BoundReport(
        theorem="MAIN",
        t=t,
        value=value,
        ingredients={"E_scv": e_scv, "b": b, "j_mu": j_mu},
        two_sided=two_sided,
    )


def variance_corollary_bound(
    sigma2: float, j: float, j_mu: float, b: float, t: float, two_sided: bool = False
) -> BoundReport:
    """Tail bound with the true variance plus the interaction envelope.

    ``exp(-t^2 / (2 sigma2 + j^2/2 + (2b/3 + j_mu) t))``; never smaller than
    ``main_bound`` evaluated with any ``e_scv <= sigma2 + j^2/4``.
    """
    if min(sigma2, j, j_mu, b) < 0.0:
        raise ValueError("ingredients must be nonnegative")
    if t <= 0.0:
        raise ValueError("t must be positive")
    value = _exp_bound(
        t, 2.0 * sigma2 + 0.5 * j * j + (2.0 * b / 3.0 + j_mu) * t, two_sided
    )
    return BoundReport(
        theorem="VARIANCE_COROLLARY",
        t=t,
        value=value,
        ingredients={"sigma2": sigma2, "b": b, "j": j, "j_mu": j_mu},
        two_sided=two_sided,
    )


# ---------------------------------------------------------------------------
# Variance identities and inequalities
# ---------------------------------------------------------------------------


def efron_stein_gap(
    f: TabulatedFunction, j: float | None = None
) -> tuple[float, float]:
    """Bias of the Efron-Stein bound and its interaction envelope.

    Returns ``(gap, envelope)`` with ``gap = E[scv(f)] - variance(f)`` (always
    nonnegative) and ``envelope = interaction(f)^2 / 4`` which dominates the
    gap.  The gap is zero exactly when ``f`` is a sum of per-coordinate
    functions.  Pass ``j`` to reuse an already computed interaction value.
    """
    gap = expectation(scv(f)) - variance(f)
    if j is None:
        j = interaction(f)
    return gap, 0.25 * j * j


def bias_second_difference_bound(f: TabulatedFunction, cap: int = DEFAULT_CAP) -> float:
    """Exact second-difference bound on the Efron-Stein gap.

    One quarter of the sum, over ordered coordinate pairs, of the expected
    squared mixed second difference taken with one independent replacement
    per involved coordinate.  Sandwiched between ``efron_stein_gap(f)[0]``
    and ``interaction(f)^2 / 4``.

    The mixed second difference on the pair ``(k, l)`` only sees the doubly
    centred part ``g_kl = f - E_k f - E_l f + E_kl f``, and with independent
    replacements its four terms are uncorrelated with equal mean square, so
    its expected square is ``4 E[g_kl^2]``.  The bound is therefore
    ``2 sum_{k<l} E[g_kl^2]``, one table-sized temporary per pair.
    """
    space = f.space
    space.check_capacity(cap)
    weights = [axis.weight_array() for axis in space.axes]
    terms = []
    for k in range(space.n):
        centered = _center(f.values, weights[k], k)
        for l in range(k + 1, space.n):
            g = _center(centered, weights[l], l)
            pair_w = np.multiply.outer(weights[k], weights[l])
            reduced = np.tensordot(g * g, pair_w, axes=([k, l], [0, 1]))
            rest = [w for j, w in enumerate(weights) if j not in (k, l)]
            terms.append(fsum(reduced * reduce(np.multiply.outer, rest, np.ones(()))))
    return 2.0 * fsum(terms)


def chatterjee_variance(f: TabulatedFunction) -> float:
    """Variance via the telescoping shadow-variable decomposition.

    Equals ``variance(f)`` exactly; computed in the coordinate-factored form
    ``sum_k E[cond_variance(averaged-prefix f, k)]`` which the telescoping
    identity reduces to.  The test suite checks it against the literal
    shadow-variable formula over an independent copy of the space
    (``chatterjee_variance_shadow`` in ``tests/oracles.py``).
    """
    g = f
    total = []
    for k in range(f.space.n):
        total.append(expectation(cond_variance(g, k)))
        g = cond_expectation(g, k)
    return fsum(total)


def conditional_mean_variance_sum(f: TabulatedFunction) -> float:
    """``sum_k variance of the single-coordinate conditional mean``.

    Averages out every coordinate except ``k`` and takes the variance of the
    resulting one-dimensional profile under the axis weights.  Never exceeds
    ``variance(f)``, with equality for sums of per-coordinate functions.
    """
    space = f.space
    total = []
    for k in range(space.n):
        g = f
        for j in range(space.n):
            if j != k:
                g = cond_expectation(g, j)
        profile = np.moveaxis(g.values, k, 0).reshape(space.shape[k], -1)[:, 0]
        w = space.axes[k].weight_array()
        mean = fsum(w * profile)
        d = profile - mean
        total.append(fsum(w * d * d))
    return fsum(total)


def bounded_difference_variance_term(f: TabulatedFunction) -> float:
    """``sup_x (1/4) sum_k sup_{y,y'} (first difference along k)^2 (x)``.

    The variance proxy behind the bounded-difference inequality; it dominates
    ``sup_x scv(f)(x)``, which in turn dominates ``E[scv(f)]``.
    """
    space = f.space
    total = np.zeros(space.shape)
    for k in range(space.n):
        spread = f.values.max(axis=k, keepdims=True) - f.values.min(axis=k, keepdims=True)
        total += spread * spread
    return 0.25 * float(total.max())


def bound_ingredients(f: TabulatedFunction) -> dict[str, float]:
    """Every exact ingredient the three tail bounds consume, in one pass.

    Keys: ``E_scv``, ``sup_scv``, ``sigma2``, ``b`` (per-coordinate range),
    ``j``, ``j_mu``, plus ``crude`` and ``bd_term`` for reporting.
    """
    scv_table = scv(f)
    report = interaction_report(f)
    return {
        "E_scv": expectation(scv_table),
        "sup_scv": float(scv_table.values.max()),
        "sigma2": variance(f),
        "b": per_coordinate_range_bound(f),
        "j": report.j,
        "j_mu": report.j_mu,
        "crude": report.crude,
        "bd_term": bounded_difference_variance_term(f),
    }


# ---------------------------------------------------------------------------
# Scalar lemmas
# ---------------------------------------------------------------------------


def psi_ratio_inequality(a: float, gamma: float) -> bool:
    """Check the two-part scalar inequality controlling the entropy integral.

    On the domain ``a >= 0``, ``0 <= gamma < 1/(1/3 + a/2)`` both of the
    following must hold (and do, for every valid input):

    (i)  ``a * sqrt(psi(gamma)/2) < 1``
    (ii) ``psi(gamma) / (gamma^2 (1 - a sqrt(psi(gamma)/2))^2)
          <= 1 / (2 (1 - (1/3 + a/2) gamma)^2)``

    Returns whether both hold; raises on domain violations.
    """
    if a < 0.0:
        raise ValueError("a must be nonnegative")
    limit = 1.0 / (1.0 / 3.0 + a / 2.0)
    if not (0.0 <= gamma < limit):
        raise ValueError(f"gamma={gamma} outside [0, {limit})")
    ratio = _psi_over_square(gamma)
    root = a * math.sqrt(max(ratio, 0.0) / 2.0) * gamma if gamma > 0.0 else 0.0
    # root == a * sqrt(psi(gamma)/2), written through the stable ratio.
    if root >= 1.0:
        return False
    lhs = ratio / ((1.0 - root) ** 2)
    rhs = 0.5 / ((1.0 - (1.0 / 3.0 + a / 2.0) * gamma) ** 2)
    return lhs <= rhs


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def chernoff_infimum(c: float, b: float, t: float) -> tuple[float, float]:
    """Minimize ``-beta t + c beta^2 / (1 - b beta)`` over ``beta in [0, 1/b)``.

    Returns ``(numeric, closed_form)`` where ``closed_form`` is the envelope
    ``-t^2 / (2 (2c + bt))``; the numeric infimum never exceeds it (plus
    rounding).  Golden-section search on the convex objective, stopped at a
    1e-12 bracket, with the upper end guarded away from the pole at ``1/b``.
    """
    if min(c, b, t) <= 0.0:
        raise ValueError("c, b, t must be positive")

    def objective(beta: float) -> float:
        return -beta * t + c * beta * beta / (1.0 - b * beta)

    hi = 1.0 / b - 1e-9
    if hi <= 0.0:
        hi = (1.0 / b) * (1.0 - 1e-9)
    lo = 0.0
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > 1e-12:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
    numeric = min(objective(lo), f1, f2, objective(hi))
    closed_form = -(t * t) / (2.0 * (2.0 * c + b * t))
    return numeric, closed_form
