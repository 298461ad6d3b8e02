"""Interaction functionals, Gibbs states, entropy, and the Herbst integral.

Two functionals quantify how much the variation of ``f`` in one coordinate
depends on the remaining coordinates:

* ``interaction(f)`` - the worst-case form: square root of the configuration
  supremum of the sum, over ordered axis pairs ``k != l``, of the largest
  squared mixed second difference.  Zero exactly on sums of per-coordinate
  functions, and positive homogeneous of degree one.
* ``weighted_interaction(f)`` - the distribution-dependent form built from
  conditional variances of ``f`` minus its substituted copies.  Never larger
  than ``interaction(f)``.

Both are upper bounded by the crude estimate ``n * max |second difference|``.

The thermal side: ``gibbs(f, beta)`` is the expectation functional reweighted
by ``exp(beta * f)``; the entropy ``beta * E_tilted[f] - log Z`` is the KL
divergence of the tilt from the base measure, and the Herbst identity

    ``log E[exp(beta (f - Ef))] = beta * integral_0^beta entropy(gamma) / gamma^2``

bridges entropy bounds to tail bounds.  ``herbst_log_mgf`` computes its
right side by one Gauss-Legendre rule on ``[0, beta]``.  ``Z(gamma) =
E exp(gamma f)`` has no zero in the strip ``|Im gamma| < pi / (max f - min
f)``, where the phases ``Im gamma * f(x)`` span less than ``pi`` and every
term of the sum lies in one open half-plane, so the integrand
``entropy(gamma) / gamma^2`` is analytic there, its removable singularity
at zero included.  Half the strip, mapped from ``[0, beta]`` onto
``[-1, 1]``, holds the Bernstein ellipse with ``log(rho) = asinh(pi /
width)``, ``width = beta * (max f - min f)``, and the ``N``-node rule errs by
a constant times the integrand's bound on that ellipse times ``rho^(-2N)``
(Trefethen, SIAM Review 2008).  ``N = ceil(16 / log(rho))`` makes that factor
at most ``e^-32``, about ``1.3e-14``.  The nodes are interior, so the
singularity is never evaluated, and each costs one ``entropy`` over every
configuration, which the cap limits.  They come from Newton's method on the
Legendre recurrence: numpy's ``leggauss`` solves an eigenproblem, which is
slower per call and loads LAPACK into runs that otherwise never call it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from typing import ClassVar

import numpy as np

from .operators import _constant_along, _contract, _keep_axis
from .space import (
    DEFAULT_CAP,
    CapacityError,
    TabulatedFunction,
    expectation,
    fsum,
)

_CHAIN_TOL = 1e-10


# ---------------------------------------------------------------------------
# Interaction functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractionReport:
    """Both interaction functionals plus the crude bound for one function.

    All three numbers are exact.  On an axis pair ``(k, l)``, with the other
    coordinates held fixed, the mixed second difference is
    ``f[y,z] - f[y',z] - f[y,z'] + f[y',z'] = d(z) - d(z')`` with
    ``d = f[y,.] - f[y',.]``.  Its largest square over ``(y, y', z, z')`` is
    therefore the largest squared range ``(max_z d - min_z d)^2`` over
    ``y < y'``, and ``crude`` is ``n`` times the largest such range.  For
    ``j_mu``, the conditional variance over axis ``k`` of ``f - f@z`` (axis
    ``l`` frozen at ``z``) is the ``k``-weighted mean of ``(c - c@z)^2`` with
    ``c = f - cond_expectation(f, k)``, because centring along ``k`` commutes
    with substitution on ``l``.

    ``_interaction_tables`` gives ``j`` and ``crude`` from one sweep over the
    unordered axis pairs, on one contiguous copy of the table per pair, by
    the stencil ``exchangeable.MultisetTable.ingredients`` shares for ``crude``.
    ``_weighted_objective_tables`` gives ``j_mu`` in a sweep over the axes
    ``l``, blocks of the points ``z`` of axis ``l``, and ``k != l``, so that
    at most ``min(n - 1, s_l) + 3`` tables are live for an axis ``l`` of
    ``s_l`` points.  Both return the bits of the direct reductions
    (``tests/oracles.py``): maxima and minima are exact, and every sum and
    BLAS product is the same operation, in the same order, as there.

    ``approximate`` is a class constant, always false: every number in the
    report is exact.  ``scale``, the largest ``|f|``, is not stored: the
    chain ``j_mu <= j <= crude`` is checked to ``_CHAIN_TOL * max(1,
    scale)``, because centring rounds relative to ``|f|`` and axis weights
    sum to one only within ``WEIGHT_SUM_TOL``, so an additive ``f`` can
    read a ``j_mu`` of order ``1e-13 * |f|`` above its ``j`` of zero.
    """

    j: float
    j_mu: float
    crude: float
    scale: InitVar[float] = 1.0
    approximate: ClassVar[bool] = False

    def __post_init__(self, scale: float) -> None:
        if min(self.j, self.j_mu, self.crude) < 0.0:
            raise ValueError("interaction values must be nonnegative")
        tol = _CHAIN_TOL * max(1.0, scale)
        if self.j_mu > self.j + tol or self.j > self.crude + tol:
            raise ValueError(
                f"interaction chain violated: {self.j_mu} <= {self.j} <= {self.crude}"
            )


def _interaction_tables(f: TabulatedFunction) -> tuple[np.ndarray, float]:
    """Summed per-configuration maxima of squared second differences.

    Returns the table ``sum over ordered pairs (k,l), k != l, of
    max over point tuples of (second difference)^2`` together with the global
    maximum absolute second difference.  Visits each unordered pair once and
    reduces it through the range form in ``InteractionReport``.  Per pair the
    table is copied once with axes ``k, l`` first, as ``fkl[y, z, rest]``,
    and ``_largest_second_differences`` reduces the copy; the temporaries
    hold it plus ``(s_k - 1) * size / s_k`` values.
    """
    space = f.space
    total = np.zeros(space.shape)
    max_abs = 0.0
    for k in range(space.n):
        for l in range(k + 1, space.n):
            s_k, s_l = space.shape[k], space.shape[l]
            others = [a for a in range(space.n) if a not in (k, l)]
            fkl = np.ascontiguousarray(f.values.transpose(k, l, *others))
            spread = _largest_second_differences(fkl.reshape(s_k, s_l, -1))
            max_abs = max(max_abs, float(spread.max()))
            total += 2.0 * (spread * spread).reshape(
                tuple(1 if a in (k, l) else s for a, s in enumerate(space.shape))
            )
    return total, max_abs


def _largest_second_differences(fkl: np.ndarray) -> np.ndarray:
    """Largest absolute mixed second difference of ``fkl[y, z, rest]`` per ``rest``.

    The range form of ``InteractionReport``, from zero: for each ``y`` one
    contiguous subtract ``d = fkl[y] - fkl[y + 1 :]`` of the C-contiguous
    input, and the maxima and minima of ``d`` over ``z``.  These and the one
    subtraction per range are exact, so the result equals a reduction over
    all ``y < y'`` at once bit for bit.
    """
    spread = np.zeros(fkl.shape[2])
    for y in range(len(fkl) - 1):
        d = fkl[y] - fkl[y + 1 :]
        np.maximum(spread, (d.max(axis=1) - d.min(axis=1)).max(axis=0), out=spread)
    return spread


def interaction(f: TabulatedFunction, cap: int = DEFAULT_CAP) -> float:
    """Worst-case interaction functional of ``f``."""
    f.space.check_capacity(cap)
    return math.sqrt(max(float(_interaction_tables(f)[0].max()), 0.0))


def _weighted_objective_tables(f: TabulatedFunction) -> np.ndarray:
    """Table of ``sum_l max_z sum_{k != l} cond_variance(f - f@z, k)``.

    For each axis ``l`` the points ``z`` go in blocks.  Per block each other
    axis ``k`` is centred once, into one reused buffer, as ``c_k = f - E_k
    f`` (see ``InteractionReport``) in the layout of ``_blas_layout``, where
    ``(c_k - c_k@z)^2`` is one contiguous subtract into the table-sized
    buffer ``sq`` and an in-place square, and its conditional mean over
    ``k`` one matrix-vector product (``_Sweep``).  The conditional means add
    up in ``k`` order, one sum per point of the block, and the exact maximum
    of those sums goes into a running maximum over ``z``.  The first block
    holds ``min(s_l, n - 1)`` points, and its first sum is the running
    maximum; each later block holds one point fewer.  With ``n = 2`` the one
    term is the sum, so the one centred table serves every ``z`` and each
    term goes straight into the maximum.  The sums, the maximum and the
    buffer for ``c_k`` are kept from one axis ``l`` to the next
    (``_resize``).

    With ``sq`` and the total, at most ``min(n - 1, s_l) + 3`` tables are
    live for an axis ``l`` of ``s_l`` points, besides conditional-mean rows
    of ``size / s_k`` values, where holding every ``c_k`` through the whole
    sweep takes ``n + 4``.  The price is time on long axes: each block
    centres the ``n - 1`` tables ``c_k``, ``k != l``, again, so an axis of
    ``s_l >= n`` points centres each about ``s_l / (n - 2)`` times.

    Why the bits hold: a centred table is ``_center``'s elementwise subtract
    of the mean that ``_contract`` computes, by the same matrix-vector
    product on the same matrix (``_Sweep.centre``).  The subtract, the square
    and the sum in ``k`` order are the same floating-point operations as the
    direct form's, and the maximum is exact.  A sum starts from its
    first term where the direct form adds that term to zero: a conditional
    mean of squares with nonnegative weights is never ``-0.0``, so ``0 +
    cv`` is ``cv``.  Each matrix-vector product gets the matrix that
    ``_contract`` would hand BLAS for that one table, never a row of a
    larger stacked matrix, which BLAS may round differently.
    """
    space = f.space
    shape, n, size = space.shape, space.n, space.size
    total = np.zeros(shape)
    if n == 1:
        return total  # no axis k != l
    buf, cv_buf = np.empty(shape), np.empty(size // min(shape))
    sweeps = [_Sweep(f, k, buf, cv_buf) for k in range(n)]
    pool: list[np.ndarray] = []
    for l, s_l in enumerate(shape):
        others = [sweeps[k] for k in range(n) if k != l]
        _resize(pool, min(s_l, n - 1) + 1, shape)
        c_buf, best, *spare = pool
        if n == 2:  # the one term is the sum
            (sweep,) = others
            c = sweep.centre(c_buf)
            np.copyto(best, sweep.cond_variance(c, l, 0))
            for z in range(1, s_l):
                np.maximum(best, sweep.cond_variance(c, l, z), out=best)
        else:
            z = 0
            while z < s_l:
                block = spare if z else [best, *spare]
                points = range(z, min(z + len(block), s_l))
                for i, sweep in enumerate(others):
                    c = sweep.centre(c_buf)
                    for point, acc in zip(points, block):
                        cv = sweep.cond_variance(c, l, point)
                        if i:
                            acc += cv
                        else:
                            np.copyto(acc, cv)
                for acc in block[: len(points)]:
                    if acc is not best:
                        np.maximum(best, acc, out=best)
                z = points.stop
        total += best
    return total


def _resize(pool: list[np.ndarray], count: int, shape: tuple[int, ...]) -> None:
    """Keep ``count`` table buffers in ``pool``, dropping or adding ones.

    The sums and the maximum of one axis ``l`` reuse the buffers of the one
    before.  Fresh tables for every axis cost a 4^8 call about 5,700 more
    page faults and a fifth of its time.
    """
    del pool[count:]
    pool.extend(np.empty(shape) for _ in range(count - len(pool)))


class _Sweep:
    """Buffers and views to contract axis ``k`` of ``f`` in ``_blas_layout``.

    ``sq`` and ``cv`` are views of the buffers that every axis shares: the
    squared differences in this axis's layout, and their conditional mean
    over ``k``, which ``cv_table`` shows with a length-one axis ``k`` in
    table order.  ``values`` is ``f`` in the layout, and ``pos[a]`` the
    place of table axis ``a`` there.  ``copied`` tells whether the layout
    differs from the table order, where ``_contract`` copies ``f``.
    """

    __slots__ = ("k", "pos", "values", "w", "sq", "matrix", "copied", "cv", "cv_table")

    def __init__(self, f: TabulatedFunction, k: int, buf: np.ndarray, cv_buf: np.ndarray):
        shape, n = f.space.shape, f.space.n
        order = _blas_layout(shape, k)
        self.k, self.pos = k, tuple(order.index(a) for a in range(n))
        self.copied = order[k] != k
        self.values = f.values.transpose(order) if self.copied else f.values
        self.w = f.space.axes[k].weight_array()
        self.sq = buf.reshape(self.values.shape) if self.copied else buf
        self.matrix = self._matrix(self.sq)
        self.cv = cv_buf[: f.space.size // shape[k]]
        self.cv_table = _keep_axis(self.cv, shape, k)

    def _matrix(self, table: np.ndarray) -> np.ndarray:
        """``_contract``'s matrix for ``table`` in this axis's layout, as a view.

        ``_blas_layout`` makes the reshape a view, not a copy.
        """
        rows = [self.pos[a] for a in range(len(self.pos)) if a != self.k]
        return table.transpose(*rows, self.pos[self.k]).reshape(-1, self.w.shape[0])

    def centre(self, out: np.ndarray) -> np.ndarray:
        """``c_k = f - E_k f`` into the buffer ``out``, in the layout, bit for bit.

        The mean is ``_contract(f.values, w, k)``: where the layout is not the
        table order, ``f`` is first copied into ``sq``, as ``_contract``'s
        reshape copies it.
        """
        values = self.values
        if self.copied:
            np.copyto(self.sq, values)
            values = self.sq
        np.dot(self._matrix(values), self.w, out=self.cv)
        c = out.reshape(values.shape)
        np.subtract(values, _keep_axis(self.cv, values.shape, self.pos[self.k]), out=c)
        return c

    def cond_variance(self, c: np.ndarray, l: int, z: int) -> np.ndarray:
        """``cond_variance(c - c@z, k)`` as ``cv_table``, for a point ``z`` of axis ``l``."""
        sq = self.sq
        np.subtract(c, c[(slice(None),) * self.pos[l] + (slice(z, z + 1),)], out=sq)
        np.multiply(sq, sq, out=sq)
        np.dot(self.matrix, self.w, out=self.cv)
        return self.cv_table


def _blas_layout(shape: tuple[int, ...], k: int) -> list[int]:
    """Axis order in which a table is stored to contract axis ``k`` by BLAS.

    Table order where ``_contract``'s reshape of it is a view (axis ``k`` is
    first or last up to length-one axes, or has length one), else the other
    axes in table order with ``k`` last: the layout ``_contract`` hands BLAS
    after ``reshape`` copies.
    """
    if shape[k] == 1 or math.prod(shape[:k]) == 1 or math.prod(shape[k + 1 :]) == 1:
        return list(range(len(shape)))
    return [a for a in range(len(shape)) if a != k] + [k]


def weighted_interaction(f: TabulatedFunction, cap: int = DEFAULT_CAP) -> float:
    """Distribution-dependent interaction functional of ``f``.

    ``2 * sqrt(sup_x sum_l max_z sum_{k != l} cond_variance(f - f@z, k)(x))``
    where ``f@z`` substitutes point ``z`` on axis ``l``.  Always at most
    ``interaction(f)``.  Raises ``CapacityError`` above ``cap`` configurations.
    """
    f.space.check_capacity(cap)
    table = _weighted_objective_tables(f)
    return 2.0 * math.sqrt(max(float(table.max()), 0.0))


def interaction_report(f: TabulatedFunction, cap: int = DEFAULT_CAP) -> InteractionReport:
    """``interaction``, ``weighted_interaction`` and the crude bound of ``f``.

    One pass over the axis pairs gives ``j`` and ``crude``, and its summed
    table is dropped before ``j_mu`` builds its own.  Raises
    ``CapacityError`` above ``cap`` configurations.
    """
    f.space.check_capacity(cap)
    total, max_abs = _interaction_tables(f)
    j = math.sqrt(max(float(total.max()), 0.0))
    del total
    return InteractionReport(
        j=j,
        j_mu=weighted_interaction(f, cap),
        crude=f.space.n * max_abs,
        scale=max(-f.min(), f.max()),
    )


# ---------------------------------------------------------------------------
# Gibbs states and entropy
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GibbsState:
    """The expectation functional reweighted by ``exp(beta * f)``.

    ``log_z`` is ``log E[exp(beta f)]`` computed with a max shift, and
    ``tilted`` is the normalized tilted measure as a dense table, so tilted
    expectations are plain weighted sums.  At ``beta == 0`` the state reduces
    to the base measure.
    """

    f: TabulatedFunction
    beta: float
    log_z: float
    tilted: np.ndarray


def gibbs(f: TabulatedFunction, beta: float, cap: int = DEFAULT_CAP) -> GibbsState:
    """Tilted state with density proportional to ``exp(beta * f)``."""
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    w = f.space.weight_table(cap)
    a = beta * f.values
    shift = float(a.max())
    q = w * np.exp(a - shift)
    total = fsum(q)
    tilted = q / total
    tilted.flags.writeable = False
    return GibbsState(f=f, beta=float(beta), log_z=shift + math.log(total), tilted=tilted)


def gibbs_expectation(state: GibbsState, g: TabulatedFunction) -> float:
    """Tilted expectation of ``g``; lies between ``min g`` and ``max g``."""
    if g.space != state.f.space:
        raise ValueError("function lives on a different space than the state")
    return fsum(state.tilted * g.values)


def entropy(f: TabulatedFunction, beta: float, cap: int = DEFAULT_CAP) -> float:
    """``beta * E_tilted[f] - log Z``: the KL divergence of the tilt.

    Nonnegative, zero at ``beta == 0`` and for constant ``f``.  Equals the
    double integral of the tilted variance over ``0 <= t <= s <= beta``
    (checked by the test suite with a Gauss-Legendre rule).
    """
    state = gibbs(f, beta, cap)
    return beta * gibbs_expectation(state, f) - state.log_z


def conditional_entropy(
    f: TabulatedFunction, k: int, beta: float, cap: int = DEFAULT_CAP
) -> TabulatedFunction:
    """Per-fiber entropy of the tilt along coordinate ``k``.

    The conditional analogue of ``entropy``: the base expectation is replaced
    by the conditional expectation over axis ``k``, giving a nonnegative
    table independent of coordinate ``k``.
    """
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    space = f.space
    space.check_axis(k)
    space.check_capacity(cap)
    w = space.axes[k].weight_array()
    a = beta * f.values
    shift = a.max(axis=k, keepdims=True)
    e = np.exp(a - shift)
    z = _contract(e, w, k)
    num = _contract(f.values * e, w, k)
    log_zk = np.squeeze(shift, axis=k) + np.log(z)
    s = beta * (num / z) - log_zk
    return _constant_along(space, s, k)


def log_mgf(f: TabulatedFunction, beta: float, cap: int = DEFAULT_CAP) -> float:
    """Directly computed ``log E[exp(beta (f - Ef))]`` (max-shifted)."""
    w = f.space.weight_table(cap)
    a = beta * (f.values - expectation(f, cap))
    shift = float(a.max())
    return shift + math.log(fsum(w * np.exp(a - shift)))


def herbst_log_mgf(f: TabulatedFunction, beta: float, cap: int = DEFAULT_CAP) -> float:
    """``beta * integral_0^beta entropy(f, gamma) / gamma^2 dgamma``.

    Equals ``log_mgf(f, beta)`` up to rounding; the test suite asserts the
    identity to 1e-12.  The rule on ``[0, beta]`` has ``N = ceil(16 /
    asinh(pi / width))`` nodes, ``width = beta * (max f - min f)``, or one
    node when ``width`` is zero, and errs by order ``e^-32`` relative to the
    integrand on the strip where it is analytic (module docstring).  Raises
    ``CapacityError``, before evaluating anything, when ``N`` times the number
    of configurations exceeds ``cap``.  The nodes need no LAPACK call
    (``_gauss_legendre``).
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    space = f.space
    space.check_capacity(cap)
    width = beta * (f.max() - f.min())
    log_rho = math.asinh(math.pi / width) if width > 0.0 else math.inf
    # ceil(16 / log_rho) > cap // size exactly when 16 / log_rho does.
    if 16.0 > log_rho * (cap // space.size):
        raise CapacityError(
            f"the Herbst rule at beta * (max f - min f) = {width:.6g} needs more than "
            f"{cap // space.size} entropy evaluations of {space.size} configurations, "
            f"over the cap of {cap}"
        )
    x, w = map(np.array, _gauss_legendre(max(1, math.ceil(16.0 / log_rho))))
    gammas = 0.5 * beta * (x + 1.0)
    s = np.array([entropy(f, gamma, cap) for gamma in gammas.tolist()])
    return 0.5 * beta * beta * fsum(w * s / (gammas * gammas))


@functools.cache
def _gauss_legendre(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on ``[-1, 1]``.

    Newton's method on the three-term recurrence for ``P_order``, from
    ``cos(pi (i + 3/4) / (order + 1/2))``, reaches rounding level in at most
    five steps; the weights are ``2 / ((1 - x^2) P'_order(x)^2)`` at the
    final nodes.  ``O(order^2)`` elementwise work, and no eigensolve.  The
    cache holds tuples, not arrays: numpy buffers kept from the middle of a
    ``verify`` run raised its peak RSS by about 0.1 MB.
    """
    x = np.array([math.cos(math.pi * (i + 0.75) / (order + 0.5)) for i in range(order)])
    step = math.inf
    while step > 1e-15:
        p, dp = _legendre(order, x)
        dx = p / dp
        x -= dx
        step = float(np.abs(dx).max())
    p, dp = _legendre(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return tuple(x.tolist()), tuple(w.tolist())


def _legendre(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P_order(x)`` and ``P'_order(x)`` for ``x`` inside ``(-1, 1)``."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, order):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, order * (x * p - p_prev) / (x * x - 1.0)
